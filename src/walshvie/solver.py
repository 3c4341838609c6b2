"""Collocation solver for nonlinear stochastic Volterra integral equations.

Solves x(t) = x0 + int_0^t k1(s,t) beta(x(s)) ds
            + int_0^t k2(s,t) sigma(x(s)) dB(s)   on [0, 1)

by representing the nonlinear integrands in the block pulse basis,
applying the operational matrices, and collocating at the block
midpoints t_j.  At a midpoint the Walsh reconstruction collapses to the
single block value (T_W W(t_j) = m e_j), which turns the collocated
system into m scalar equations

    x[j] = x0 + m^2 (H1[j][j] + H2[j][j])

solved by fixed point iteration on the block values.
"""

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from . import expressions
from .operational import integration_matrix, stochastic_matrix
from .walsh import BasisConfig, _eval_grid, _readonly, project_kernel


class NonConvergenceError(RuntimeError):
    """Fixed point iteration did not reach tolerance within max_iter."""

    def __init__(self, residual, iterations):
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


class NonFiniteIterateError(RuntimeError):
    """An iterate or integrand evaluation left the finite range."""


@dataclass(frozen=True)
class ProblemSpec:
    """One equation instance.

    ``k1`` and ``k2`` may be plain numbers (constant kernels, projected
    exactly) or callables of (s, t).  ``beta`` and ``sigma`` take the
    solution value.  ``exact``, when present, is a callable of
    (t, path); implementations that depend on the driving noise must
    read it through ``path.last_midpoint_value`` so that comparisons
    line up with the collocation grid.  ``sources`` optionally keeps
    the expression strings the problem was built from, which is what
    makes re-encoding to a problem file lossless.
    """

    x0: float
    k1: object
    k2: object
    beta: object
    sigma: object
    exact: object = None
    label: str = "problem"
    sources: dict = field(default=None, repr=False)


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-12
    max_iter: int = 200
    damping: float = 0.5


@dataclass(frozen=True)
class SolveResult:
    """Converged collocation solution at one resolution m = len(x_colloc).

    ``x_colloc[j]`` approximates x(t_j); ``z1``/``z2`` are read-only
    arrays of the block integrals of beta(x) and sigma(x) recomputed
    from the final iterate, so m * z1[j] = beta(x_colloc[j]) exactly.
    """

    x_colloc: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    iterations: int
    residual: float


def reconstruct(result, t):
    """Block-constant solution value at any t in [0, 1)."""
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in [0, 1), got {t}")
    return float(result.x_colloc[int(t * len(result.x_colloc))])


def _nonlinearity(f, x, what):
    vals = _eval_grid(f, x)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIterateError(f"{what}(x) is not finite at the current iterate")
    return vals


def solve(problem, path, options=None):
    """Fixed point solve of the collocated system on one Brownian path.

    The resolution m is the path's and must be a power of two.  Each
    sweep recomputes the block integrals z1 = h*beta(x), z2 = h*sigma(x)
    from the current midpoint values and updates
    x[j] = x0 + m^2 (H1[j][j] + H2[j][j]), where H = m K^T diag(z) M.
    Only the diagonals of the H matrices are needed, so they are
    accumulated directly.  A damping factor of 0.5 is engaged for the
    remaining sweeps after any residual increase.  Divergence surfaces
    as NonFiniteIterateError and stagnation as NonConvergenceError;
    neither is silently absorbed.
    """
    opts = options or SolverOptions()
    cfg = BasisConfig.from_resolution(path.m)
    m, h = cfg.m, cfg.h
    # diag(H)[j] = m * sum_i K[i][j] z[i] M[i][j]
    G1 = m**3 * (project_kernel(problem.k1, cfg) * integration_matrix(cfg))
    G2 = m**3 * (project_kernel(problem.k2, cfg) * stochastic_matrix(path))
    x0 = float(problem.x0)
    x = np.full(m, x0)
    previous = np.inf
    damped = False
    for sweep in range(1, opts.max_iter + 1):
        z1 = h * _nonlinearity(problem.beta, x, "beta")
        z2 = h * _nonlinearity(problem.sigma, x, "sigma")
        candidate = x0 + z1 @ G1 + z2 @ G2
        if not np.all(np.isfinite(candidate)):
            raise NonFiniteIterateError("iterate is not finite")
        residual = float(np.max(np.abs(candidate - x)))
        if residual > previous:
            damped = True
        if damped:
            candidate = x + opts.damping * (candidate - x)
            residual = float(np.max(np.abs(candidate - x)))
        x = candidate
        if residual <= opts.tol:
            z1 = h * _nonlinearity(problem.beta, x, "beta")
            z2 = h * _nonlinearity(problem.sigma, x, "sigma")
            return SolveResult(
                x_colloc=_readonly(x),
                z1=_readonly(z1),
                z2=_readonly(z2),
                iterations=sweep,
                residual=residual,
            )
        previous = residual
    raise NonConvergenceError(residual=residual, iterations=opts.max_iter)


_BUILTIN_FORMS = {
    1: {
        "x0": "0",
        "k1": "-({a})^2/2",
        "k2": "{a}",
        "beta": "tanh(x)*sech(x)^2",
        "sigma": "sech(x)",
        "exact": "asinh(({a})*B + sinh(0))",
    },
    2: {
        "x0": "1/10",
        "k1": "-({a})^2",
        "k2": "{a}",
        "beta": "x*(1-x^2)",
        "sigma": "1-x^2",
        "exact": "tanh(({a})*B + atanh(1/10))",
    },
}


def _constant_function(c):
    """Pointwise constant usable as a beta/sigma nonlinearity."""
    c = float(c)

    def fn(x):
        arr = np.full(np.shape(x), c)
        return arr if arr.ndim else c

    return fn


# The variables each problem key's expression may use.
_VARIABLES = {
    "x0": (),
    "k1": ("s", "t"),
    "k2": ("s", "t"),
    "beta": ("x",),
    "sigma": ("x",),
    "exact": ("t", "B"),
}


def _compile(sources, key):
    try:
        return expressions.compile_expression(sources[key], _VARIABLES[key])
    except expressions.ExpressionError as exc:
        exc.key = key
        raise


def problem_from_sources(sources, label="problem"):
    """Build a ProblemSpec from a mapping of expression strings.

    Required keys: x0, k1, k2, beta, sigma.  Optional: exact.  Kernel
    expressions may use s and t, beta/sigma use x, exact uses t and B,
    and x0 must be constant.  In ``exact``, B is the path value at the
    last collocation midpoint at or below t.  An ExpressionError raised
    here names the failing key in its ``key`` attribute.
    """
    compiled = {key: _compile(sources, key) for key in ("x0", "k1", "k2", "beta", "sigma")}
    if not isinstance(compiled["x0"], Real):
        raise ValueError("x0 must be a constant expression")
    for key in ("beta", "sigma"):
        if isinstance(compiled[key], Real):
            compiled[key] = _constant_function(compiled[key])
    exact = None
    if sources.get("exact") is not None:
        g = _compile(sources, "exact")
        if isinstance(g, Real):
            exact = lambda t, path: float(g)
        else:
            exact = lambda t, path: float(g(t, path.last_midpoint_value(t)))
    return ProblemSpec(
        x0=compiled["x0"],
        k1=compiled["k1"],
        k2=compiled["k2"],
        beta=compiled["beta"],
        sigma=compiled["sigma"],
        exact=exact,
        label=label,
        sources={k: v for k, v in sources.items() if v is not None},
    )


def builtin_example(example_id, a="1/30"):
    """The two built-in benchmark problems.

    Example 1: x0 = 0, k1 = -a^2/2, beta = tanh(x) sech(x)^2, k2 = a,
    sigma = sech(x), exact x(t) = asinh(a B(t) + sinh(x0)).

    Example 2: x0 = 0.1, k1 = -a^2, beta = x (1 - x^2), k2 = a,
    sigma = 1 - x^2, exact x(t) = tanh(a B(t) + atanh(x0)).

    ``a`` is an expression string spliced into the forms above (the
    default matches the benchmark tables); a = "0" degenerates both
    examples to their deterministic fixed points.
    """
    if example_id not in _BUILTIN_FORMS:
        raise ValueError(f"unknown example id {example_id!r} (valid: 1, 2)")
    a = str(a)
    sources = {key: form.format(a=a) for key, form in _BUILTIN_FORMS[example_id].items()}
    return problem_from_sources(sources, label=f"example-{example_id}")
