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
Milstein term.  A sigma compiled from the expression language gives
sigma' by forward differentiation of its parse tree in real arithmetic,
in the same pass as sigma; a sigma given as any other callable is
differentiated by the complex step Im sigma(x + i eta) / eta, exact to
rounding for analytic sigma.

One engine solves a block of paths, the (n, 2m + 1) array of their
values, as the rows of an (n, m) array and returns arrays: the
solutions, sweep counts and residuals, and the error of each row that
failed.  ``solve`` is its one-path case and Monte Carlo runs feed it
chunks of trials.  The operators that do not depend on the path are
built once per engine, one per kernel by ``_kernel_operator``, which
owns the kernel's form and what happens to its diagonal: k1's is halved
and k2's is split off as the Ito weight k2(s, s).  A constant kernel c
is a cumulative sum, c (sum of z[i] over i < j + z[j]/2) for k1, so a
sweep costs O(m) per path and no m x m array exists.  A difference
kernel, an expression that reads s and t only through t - s, has a
Toeplitz projection K[i][j] = row[j - i]: its row 0 is projected from
25 m kernel values, and its product is a causal convolution with it,
applied to every row by a zero-padded FFT of length 2m, so a sweep
costs O(m log m) per path and again no m x m array exists.  The FFT
rounds relative to a row's largest terms, not to each sum, and lets
later blocks move earlier sums by rounding; on exp(-(t-s))-type kernels
the solution stays within 2e-16 of the triangle's.  Other kernels are
projected once on the triangle s <= t that the sums read and applied
to one row at a time.  Every row keeps its own sweep count, residual
and damping flag, and leaves the block when it converges or fails: a
non-finite beta, sigma or iterate ends it with NonFiniteIterateError,
_MAX_ITER sweeps with NonConvergenceError, and the other rows go on.  A row's
values therefore never depend on the rows solved beside it.
"""

from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import expressions
from .brownian import _increments, _path_config
from .walsh import _eval_grid, _project_lag_row, _readonly, project_kernel


class NonConvergenceError(RuntimeError):
    """Fixed point iteration did not reach tolerance within its sweep limit."""

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
    solution value.  The solver calls beta, sigma and callable kernels
    on numpy arrays, so they must take arrays and return values of the
    arguments' broadcast shape (np.exp, not math.exp); one that does
    not is a TypeError naming its key.  A kernel compiled from an
    expression that reads s and t only through t - s (its
    ``difference_kernel`` attribute) is projected from one block row;
    every other callable kernel, a lambda of t - s included, on the
    whole triangle s <= t.  When k2 is not zero on the diagonal s = t,
    the solver also needs sigma'.  A sigma compiled from an expression
    is differentiated in real arithmetic; any other callable by the
    complex step, so it must accept complex input and return complex
    values (np.exp and np.tanh do; np.abs and math.exp do not).  A sigma
    or sigma' that is not finite at an iterate (sqrt' at 0, sqrt below
    it) is a NonFiniteIterateError.  ``exact``, when present, is the
    closed-form solution as a callable of (t, B), where B is the path
    value at the last collocation midpoint at or below t, the point the
    numerical value is read at.  It must take numpy arrays and follow
    numpy broadcasting (np.exp, not math.exp), since errors are computed
    for many report times and trials in one call.
    """

    x0: float
    k1: object
    k2: object
    beta: object
    sigma: object
    exact: object = None
    label: str = "problem"


@dataclass(frozen=True)
class SolveResult:
    """Converged collocation solution at one resolution m = len(x_colloc).

    ``x_colloc[j]`` is a read-only array approximating x(t_j).
    """

    x_colloc: np.ndarray
    iterations: int
    residual: float


# Tolerance, sweep limit and damping factor of the iteration (see solve).
_TOL = 1e-12
_MAX_ITER = 200
_DAMPING = 0.5

# Complex step for sigma'(x) = Im sigma(x + i eta) / eta (Squire and
# Trapp, SIAM Rev. 40, 1998): no subtraction, so no cancellation.
_COMPLEX_STEP = 1e-20


def _sigma_with_slope(sigma, x):
    """sigma(x) and sigma'(x).  A sigma with ``with_slope`` (compiled
    expressions and folded constants) gives both in real arithmetic;
    any other callable is differentiated by one complex-step evaluation,
    and one that cannot take complex input is an error, never a silent
    zero slope.  Finiteness is left to the caller, which judges it per
    row."""
    with_slope = getattr(sigma, "with_slope", None)
    if with_slope is not None:
        return with_slope(x)
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


def _exclusive_cumsum(a, diagonal):
    """Per row, out[:, j] = a[:, 0] + ... + a[:, j-1], summed in order,
    plus diagonal * a[:, j] when diagonal is not zero."""
    out = np.empty_like(a)
    out[:, 0] = 0.0
    np.add.accumulate(a[:, :-1], axis=1, out=out[:, 1:])
    if diagonal:
        out += diagonal * a
    return out


def _by_row(a, M):
    # one GEMV per row: a GEMM over the block could round a row
    # differently depending on how many rows share it
    return np.array([row @ M for row in a])


def _causal_convolution(g):
    """z -> per row, out[:, j] = sum of z[:, i] g[j - i] over i <= j: the
    product with the Toeplitz triangle whose rows are g, as a
    zero-padded FFT convolution of length 2m.  Each row is its own
    transform, so a row's bits do not depend on the rows beside it."""
    m = len(g)
    spectrum = np.fft.rfft(g, 2 * m)
    return lambda z: np.fft.irfft(np.fft.rfft(z, 2 * m) * spectrum, 2 * m)[:, :m]


def _kernel_operator(kernel, cfg, name, diagonal):
    """The product of one projected kernel with a block of rows, built
    once.

    Returns (apply, diag): apply(z) = z @ m^2 K, each row on its own,
    where K is the projected triangle of ``kernel`` with its diagonal
    scaled by ``diagonal``, and diag = m^2 diag(K) before that scaling,
    the block averages of k on the diagonal blocks.  A zero
    ``diagonal`` sets the diagonal to +0.0, so a negative entry never
    becomes -0.0.  The kernel takes one of three forms, and only the
    last builds an m x m array:

    * a constant c applies c exclusive_cumsum(z, diagonal), and diag
      is c;
    * a difference kernel (an expression of t - s alone, see
      ``expressions.compile_expression``) has a Toeplitz projection,
      K[i][i + d] = row[d], so its row 0 alone is projected and applied
      as a causal FFT convolution with g = m^2 row, g[0] scaled, and
      diag is the scalar m^2 row[0];
    * any other callable is projected on the triangle and applied with
      one GEMV per row, and diag is an array.
    """
    m = cfg.m
    if isinstance(kernel, Real):
        c = float(kernel)
        return (lambda z: c * _exclusive_cumsum(z, diagonal)), c
    if getattr(kernel, "difference_kernel", False):
        g = m * m * _project_lag_row(kernel, cfg, name)
        diag = float(g[0])
        g[0] = diagonal * diag if diagonal else 0.0
        return _causal_convolution(g), diag
    G = m * m * project_kernel(kernel, cfg, name)
    diag = np.diagonal(G).copy()
    np.fill_diagonal(G, diagonal * diag if diagonal else 0.0)
    return (lambda z: _by_row(z, G)), diag


_BETA = "beta(x) is not finite at the current iterate"
_SIGMA = "sigma(x) is not finite at the current iterate"


def _fail_non_finite(rows, checks, errors):
    """Record a NonFiniteIterateError for each row of ``rows`` where an
    array of ``checks`` (pairs of array and message, in the order they
    are checked) is not finite, with the message of the first such
    array.  Returns the mask of the failed rows.

    One sum of every entry screens them first: an inf or nan term makes
    the sum non-finite, so a finite sum clears them all, and only a sum
    that is not (a failure, or finite terms that overflow) is checked
    array by array."""
    failed = np.zeros(len(rows), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(sum(np.add.reduce(a, axis=None) for a, _ in checks)):
            return failed
    for a, message in checks:
        new = ~np.isfinite(a).all(axis=1) & ~failed
        for r in rows[new]:
            errors[r] = NonFiniteIterateError(message)
        failed |= new
    return failed


def _batch_solver(problem, cfg):
    """The solve engine at resolution cfg.m.

    Builds the path-independent operators once and returns
    ``solve_paths(values)``, which solves the paths of that resolution
    held in the rows of an (n, 2m + 1) values block as the rows of one
    (n, m) array.  It returns ``(x, sweeps, residuals, errors)``: the
    read-only solutions (n, m) and each row's sweep count and final
    residual, which hold nan, 0 and nan in the rows that failed, and a
    list that holds, per row, None or the NonFiniteIterateError /
    NonConvergenceError that ended it.  Every row runs the sweeps of
    ``solve``'s docstring with its own residual and damping flag, and a
    row that finishes leaves the block, so no row depends on the others.
    A sweep screens beta, sigma, sigma' and the iterate of all its rows
    with one finite sum and checks them row by row only when that sum is
    not finite.
    """
    m, h = cfg.m, cfg.h
    # h is a power of two, so m^3 (K1 o P) is exactly m^2 K1 with its
    # diagonal halved; m^3 K2 times h sigma is m^2 K2 times sigma, and
    # the diagonal of K2 is the Ito weight k2_ss, applied apart
    drift, _ = _kernel_operator(problem.k1, cfg, "k1", 0.5)
    noise, k2_ss = _kernel_operator(problem.k2, cfg, "k2", 0.0)
    ito = bool(np.any(k2_ss))
    x0 = float(problem.x0)

    def step(rows, x, full, dB1, c_full, c_half, errors):
        """The candidate of one sweep from the iterates x of the live
        rows, and the mask of the rows it fails.  Its temporaries end
        with it, so they are not held into the next sweep."""
        # a row whose beta, sigma, sigma' or iterate is not finite fails
        # below with that cause, so numpy need not warn of it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            z1 = h * _eval_grid(problem.beta, "beta", x)
            if ito:
                sig, slope = _sigma_with_slope(problem.sigma, x)
            else:
                sig, slope = _eval_grid(problem.sigma, "sigma", x), np.zeros_like(x)
            w = sig * (full + slope * c_full)
            u = sig * (dB1 + slope * c_half)
            candidate = x0 + drift(z1) + noise(w) + k2_ss * u
        checks = ((z1, _BETA), (sig, _SIGMA), (slope, _SIGMA), (candidate, "iterate is not finite"))
        return candidate, _fail_non_finite(rows, checks, errors)

    def solve_paths(v):
        n = len(v)
        full, dB1, dB2 = _increments(v)
        # the correction per unit sigma*sigma'(x[i]), above and on the
        # diagonal; dB2 is not needed after it.  A square that
        # overflows makes the iterates it reaches non-finite, which
        # fails their row in the first sweep
        with np.errstate(over="ignore", invalid="ignore"):
            c_full = k2_ss * 0.5 * (dB2**2 - dB1**2 - h)
            c_half = k2_ss * (-0.5 * dB1**2 - h / 4.0)
        del dB2
        solutions = np.full((n, m), np.nan)
        sweeps = np.zeros(n, dtype=int)
        residuals = np.full(n, np.nan)
        errors = [None] * n
        # the rows still iterating: index, iterate, residual, damping
        # flag and their path data
        live = (
            np.arange(n), np.full((n, m), x0), np.full(n, np.inf), np.zeros(n, dtype=bool),
            full, dB1, c_full, c_half,
        )
        for sweep in range(1, _MAX_ITER + 1):
            rows, x, previous, damped, full, dB1, c_full, c_half = live
            candidate, failed = step(rows, x, full, dB1, c_full, c_half, errors)
            # iterates too far apart have an infinite residual, which damps
            # the row; a damped step that overflows fails it in the next sweep
            with np.errstate(over="ignore", invalid="ignore"):
                residual = np.maximum.reduce(np.abs(candidate - x), axis=1)
                damped = damped | (residual > previous)
                if damped.any():
                    candidate[damped] = x[damped] + _DAMPING * (candidate[damped] - x[damped])
                    residual[damped] = np.maximum.reduce(np.abs(candidate[damped] - x[damped]), axis=1)
            done = (residual <= _TOL) & ~failed
            live = (rows, candidate, residual, damped, full, dB1, c_full, c_half)
            if done.any() or failed.any():
                solutions[rows[done]] = candidate[done]
                residuals[rows[done]] = residual[done]
                sweeps[rows[done]] = sweep
                keep = ~(failed | done)
                live = tuple(a[keep] for a in live)
                if not keep.any():
                    break
        for r, residual in zip(live[0], live[2]):
            errors[r] = NonConvergenceError(residual=float(residual), iterations=_MAX_ITER)
        return _readonly(solutions), sweeps, residuals, errors

    return solve_paths


def solve(problem, path):
    """Fixed point solve of the collocated system on one Brownian path.

    The path is a 1-D array of the 2m+1 values B(j h/2); m is the
    path's and must be a power of two.  Each sweep evaluates beta,
    sigma and sigma' at the current midpoint values and updates
    x[j] = x0 + m^2 (H1[j][j] + H2[j][j]) + c[j],
    where H = m K^T diag(z) M and c is the Ito correction of the module
    docstring.  Only the diagonals are needed, so they are accumulated
    directly; H2 and c share the strict upper triangle and the diagonal
    of K2, so together they are one product with it.  For a constant
    kernel c the products are cumulative sums: c times the sum of the
    earlier blocks' values plus, for k1, half the block's own.  The
    iteration stops when no block value moves by more than 1e-12 in a
    sweep, and a damping factor of 0.5 is engaged for the remaining
    sweeps after any residual increase.  Divergence surfaces as
    NonFiniteIterateError and no convergence within 200 sweeps as
    NonConvergenceError; neither is silently absorbed.

    This is the one-path case of the batched engine that Monte Carlo
    runs use, and gives the same bits as that path solved in any batch.
    """
    cfg = _path_config(path)
    x, sweeps, residuals, [error] = _batch_solver(problem, cfg)(path[None])
    if error is not None:
        raise error
    return SolveResult(x_colloc=x[0], iterations=int(sweeps[0]), residual=float(residuals[0]))


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
    """Pointwise constant usable as beta, sigma or exact: the shape its
    arguments broadcast to."""
    c = float(c)

    def fn(*args):
        # complex in, complex out, so the complex-step slope is 0
        arr = np.full(np.broadcast(*args).shape, c, dtype=np.result_type(*args, float))
        return arr if arr.ndim else arr[()]

    fn.with_slope = lambda x: (fn(x), np.zeros(np.shape(x)))
    return fn


# The keys every problem needs, and the variables each key's expression
# may use.
REQUIRED_KEYS = ("x0", "k1", "k2", "beta", "sigma")
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

    Required keys (REQUIRED_KEYS): x0, k1, k2, beta, sigma; a missing
    one is a ValueError.  Optional: exact.  Kernel expressions
    may use s and t, beta/sigma use x, exact uses t and B, and x0 no
    variable.  In ``exact``, B is the path value at the last
    collocation midpoint at or below t (see ``ProblemSpec``).  An
    ExpressionError raised here names the failing key in its ``key``
    attribute.
    """
    missing = [key for key in REQUIRED_KEYS if key not in sources]
    if missing:
        raise ValueError(f"missing required key(s): {', '.join(missing)}")
    compiled = {key: _compile(sources, key) for key in REQUIRED_KEYS}
    if sources.get("exact") is not None:
        compiled["exact"] = _compile(sources, "exact")
    for key in ("beta", "sigma", "exact"):
        if isinstance(compiled.get(key), Real):
            compiled[key] = _constant_function(compiled[key])
    return ProblemSpec(**compiled, label=label)


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
