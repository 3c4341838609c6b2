"""Collocation solver for nonlinear stochastic Volterra integral equations.

Solves the Ito equation

    x(t) = x0 + int_0^t k1(s,t) beta(x(s)) ds
            + int_0^t k2(s,t) sigma(x(s)) dB(s)   on [0, 1)

by representing the nonlinear integrands in the block pulse basis,
applying the operational matrices, and collocating at the block
midpoints t_j.  At a midpoint the Walsh reconstruction collapses to the
single block value (T_W W(t_j) = m e_j), which turns the collocated
system into m scalar equations

    x[j] = x0 + m^2 (H1[j][j] + H2[j][j]) + c[j]

solved by fixed point iteration on the block values.  H1 and H2 use
the operational matrices P and P_S.  P_S alone pairs each block's
Brownian increment with sigma at the block midpoint, which converges to
the Stratonovich integral (Wong and Zakai, Ann. Math. Stat. 36, 1965);
c is the Ito-Taylor correction (Kloeden and Platen, Numerical Solution
of SDEs, 1992, section 10.3) that makes the scheme converge to the Ito
solution.  Writing dB1 = B(t_i) - B(ih) and dB2 = B((i+1)h) - B(t_i)
for the half-block increments of block i, block i < j contributes

    k2(s,t_j) k2(s,s) sigma sigma'(x[i]) (dB2^2 - dB1^2 - h) / 2

to c[j], and block j itself contributes the same with the bracket
replaced by -dB1^2/2 - h/4: the Ito drift -k2^2 sigma sigma'/2 plus the
Milstein term.  sigma' comes from the complex step
Im sigma(x + i eta) / eta, exact to rounding for analytic sigma.

One engine solves a block of paths as the rows of an (n, m) array;
``solve`` is its one-path case and Monte Carlo runs feed it chunks of
trials.  The operators that do not depend on the path are built once
per engine.  For a constant kernel c they are cumulative sums: the k1
term is c (sum of z1[i] over i < j + z1[j]/2) and the stochastic term c
times the sum of the earlier blocks' values plus c times the block's
own, so a sweep costs O(m) per path and no m x m array exists.  Other
kernels are projected once and applied to one row at a time.  Every
row keeps its own sweep count, residual and damping flag, and leaves
the block when it converges or fails: a non-finite beta, sigma or
iterate ends it with NonFiniteIterateError, max_iter with
NonConvergenceError, and the other rows go on.  A row's values
therefore never depend on the rows solved beside it.
"""

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from . import expressions
from .operational import integration_matrix
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
    solution value.  When k2 is not zero on the diagonal s = t,
    ``sigma`` must also accept complex input and return complex values
    (np.exp, np.tanh and every expression of the expression language
    do; np.abs and math.exp do not), since the solver differentiates it
    by the complex step.  ``exact``,
    when present, is a callable of (t, path); implementations that
    depend on the driving noise must read it through
    ``path.last_midpoint_value`` so that comparisons line up with the
    collocation grid.  ``sources`` optionally keeps the expression
    strings the problem was built from, which is what makes re-encoding
    to a problem file lossless.
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


# Complex step for sigma'(x) = Im sigma(x + i eta) / eta (Squire and
# Trapp, SIAM Rev. 40, 1998): no subtraction, so no cancellation.
_COMPLEX_STEP = 1e-20


def _sigma_with_slope(sigma, x):
    """sigma(x) and sigma'(x) from one complex-step evaluation; a sigma
    that cannot take complex input is an error, never a silent zero
    slope.  Finiteness is left to the caller, which judges it per row."""
    z = x + 1j * _COMPLEX_STEP
    try:
        vals = np.asarray(sigma(z))
    except (TypeError, ValueError) as exc:
        raise TypeError(f"sigma must accept complex arrays for its complex-step slope: {exc}") from exc
    if vals.shape != z.shape or not np.iscomplexobj(vals):
        raise TypeError(
            "sigma must map a complex array to a complex array of the same shape "
            "for its complex-step slope (use numpy functions such as np.exp, not "
            "math.exp, and no np.abs)"
        )
    return vals.real, vals.imag / _COMPLEX_STEP


def _exclusive_cumsum(a):
    """Per row, out[:, j] = a[:, 0] + ... + a[:, j-1], summed in order."""
    out = np.empty_like(a)
    out[:, 0] = 0.0
    np.add.accumulate(a[:, :-1], axis=1, out=out[:, 1:])
    return out


def _by_row(a, M):
    # one GEMV per row: a GEMM over the block could round a row
    # differently depending on how many rows share it
    return np.array([row @ M for row in a])


def _volterra_sums(problem, cfg):
    """The path-independent operators of one sweep, built once.

    Returns (drift, noise, k2_ss): drift(z1) = z1 @ m^3 (K1 o P) and
    noise(w) = w @ m^2 triu(K2, 1), each row on its own, and
    k2_ss = m^2 diag(K2), the block average of k2(s, s).  A constant
    kernel c gives c (exclusive_cumsum(z1) + z1/2), c exclusive_cumsum(w)
    and c, so no m x m array is built.
    """
    m = cfg.m
    if isinstance(problem.k1, Real):
        c1 = float(problem.k1)
        drift = lambda z: c1 * (_exclusive_cumsum(z) + 0.5 * z)
    else:
        G1 = project_kernel(problem.k1, cfg) * integration_matrix(cfg)
        G1 *= m**3
        drift = lambda z: _by_row(z, G1)
    if isinstance(problem.k2, Real):
        c2 = float(problem.k2)
        return drift, lambda w: c2 * _exclusive_cumsum(w), c2
    K2 = project_kernel(problem.k2, cfg)
    # m^3 K2 times h sigma is m^2 K2 times sigma
    upper = np.triu(K2, 1)
    upper *= m * m
    return drift, lambda w: _by_row(w, upper), m * m * np.diagonal(K2)


_BETA = "beta(x) is not finite at the current iterate"
_SIGMA = "sigma(x) is not finite at the current iterate"


def _fail_non_finite(rows, checks, outcomes):
    """Record a NonFiniteIterateError for each row of ``rows`` where an
    array of ``checks`` (pairs of array and message, in the order they
    are checked) is not finite, with the message of the first such
    array.  Returns the mask of the failed rows."""
    failed = np.zeros(len(rows), dtype=bool)
    finite = [np.isfinite(a) for a, _ in checks]
    if all(f.all() for f in finite):
        return failed
    for f, (_, message) in zip(finite, checks):
        new = ~f.all(axis=1) & ~failed
        for r in rows[new]:
            outcomes[r] = NonFiniteIterateError(message)
        failed |= new
    return failed


def _batch_solver(problem, cfg, options=None):
    """The solve engine at resolution cfg.m.

    Builds the path-independent operators once and returns
    ``solve_paths(paths)``, which solves a block of paths of that
    resolution as the rows of one (n, m) array.  It returns, per path,
    the SolveResult or the NonFiniteIterateError / NonConvergenceError
    that ended its row; every row runs the sweeps of ``solve``'s
    docstring with its own residual and damping flag, and a row that
    finishes leaves the block, so no row depends on the others.
    """
    opts = options or SolverOptions()
    m, h = cfg.m, cfg.h
    drift, noise, k2_ss = _volterra_sums(problem, cfg)
    ito = bool(np.any(k2_ss))
    x0 = float(problem.x0)

    def solve_paths(paths):
        v = np.stack([path.values for path in paths])
        n = len(v)
        full = v[:, 2::2] - v[:, :-2:2]  # B((i+1)h) - B(ih)
        dB1 = v[:, 1::2] - v[:, :-2:2]  # B(t_i) - B(ih)
        dB2 = v[:, 2::2] - v[:, 1::2]  # B((i+1)h) - B(t_i)
        # the correction per unit sigma*sigma'(x[i]), above and on the diagonal
        c_full = k2_ss * 0.5 * (dB2**2 - dB1**2 - h)
        c_half = k2_ss * (-0.5 * dB1**2 - h / 4.0)
        outcomes = [None] * n
        # the rows still iterating: index, iterate, residual, damping
        # flag and their path data
        live = (
            np.arange(n), np.full((n, m), x0), np.full(n, np.inf), np.zeros(n, dtype=bool),
            full, dB1, c_full, c_half,
        )
        for sweep in range(1, opts.max_iter + 1):
            rows, x, previous, damped, full, dB1, c_full, c_half = live
            z1 = h * _eval_grid(problem.beta, x)
            if ito:
                sig, slope = _sigma_with_slope(problem.sigma, x)
            else:
                sig, slope = _eval_grid(problem.sigma, x), np.zeros_like(x)
            w = sig * (full + slope * c_full)
            u = sig * (dB1 + slope * c_half)
            # a row whose beta or sigma is not finite turns nan here and
            # fails below with that cause; it warns no further
            with np.errstate(invalid="ignore"):
                candidate = x0 + drift(z1) + noise(w) + k2_ss * u
            checks = ((z1, _BETA), (sig, _SIGMA), (slope, _SIGMA), (candidate, "iterate is not finite"))
            failed = _fail_non_finite(rows, checks, outcomes)
            residual = np.maximum.reduce(np.abs(candidate - x), axis=1)
            damped = damped | (residual > previous)
            if damped.any():
                candidate[damped] = x[damped] + opts.damping * (candidate[damped] - x[damped])
                residual[damped] = np.maximum.reduce(np.abs(candidate[damped] - x[damped]), axis=1)
            done = (residual <= opts.tol) & ~failed
            if done.any():
                _finish(problem, h, rows[done], candidate[done], sweep, residual[done], outcomes)
            live = (rows, candidate, residual, damped, full, dB1, c_full, c_half)
            keep = ~(failed | done)
            if not keep.all():
                live = tuple(a[keep] for a in live)
            if not keep.any():
                break
        for r, residual in zip(live[0], live[2]):
            outcomes[r] = NonConvergenceError(residual=float(residual), iterations=opts.max_iter)
        return outcomes

    return solve_paths


def _finish(problem, h, rows, x, sweeps, residuals, outcomes):
    """Results of the rows that converged, with z1 and z2 recomputed
    from their final iterates."""
    z1 = h * _eval_grid(problem.beta, x)
    z2 = h * _eval_grid(problem.sigma, x)
    failed = _fail_non_finite(rows, ((z1, _BETA), (z2, _SIGMA)), outcomes)
    for k in np.flatnonzero(~failed):
        outcomes[rows[k]] = SolveResult(
            x_colloc=_readonly(x[k]),
            z1=_readonly(z1[k]),
            z2=_readonly(z2[k]),
            iterations=sweeps,
            residual=float(residuals[k]),
        )


def solve(problem, path, options=None):
    """Fixed point solve of the collocated system on one Brownian path.

    The resolution m is the path's and must be a power of two.  Each
    sweep evaluates beta, sigma and sigma' at the current midpoint
    values and updates x[j] = x0 + m^2 (H1[j][j] + H2[j][j]) + c[j],
    where H = m K^T diag(z) M and c is the Ito correction of the module
    docstring.  Only the diagonals are needed, so they are accumulated
    directly; H2 and c share the strict upper triangle and the diagonal
    of K2, so together they are one product with it.  For a constant
    kernel c the products are cumulative sums: c times the sum of the
    earlier blocks' values plus, for k1, half the block's own.  A damping
    factor of 0.5 is engaged for the remaining sweeps after any residual
    increase.  Divergence surfaces as NonFiniteIterateError and
    stagnation as NonConvergenceError; neither is silently absorbed.

    This is the one-path case of the batched engine that Monte Carlo
    runs use, and gives the same bits as that path solved in any batch.
    """
    outcome, = _batch_solver(problem, BasisConfig.from_resolution(path.m), options)([path])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
        # complex in, complex out, so the complex-step slope is 0
        arr = np.full(np.shape(x), c, dtype=np.result_type(x, float))
        return arr if arr.ndim else arr[()]

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
