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
Milstein term.  Each sweep evaluates beta, sigma and sigma' with one
call.  For beta and sigma compiled from the expression language it is
one generated function that differentiates sigma's parse tree forward
in real arithmetic and computes a part they share once, with the bits of
evaluating each alone, each operation a ufunc writing into the engine's
workspace; a sigma given as any other callable is differentiated by the
complex step Im sigma(x + i eta) / eta, exact to rounding for analytic
sigma.

One engine solves a block of paths, the (n, 2m + 1) array of their
values, as the rows of an (n, m) array and returns arrays: the
solutions, sweep counts and residuals, and a failure code per row.
``solve`` is its one-path case and Monte Carlo runs feed it blocks.  It works in a flat workspace that its caller may
lend, where it writes the path data, the iterate and every temporary
of a sweep, so that with constant kernels and compiled beta and sigma a
sweep allocates nothing of the block's size; a convergence study lends
one workspace to every rung.  The operators that do not depend on the path are
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
non-finite beta, sigma or iterate ends it with a NonFiniteIterateError
code, _MAX_ITER sweeps with a NonConvergenceError code, and the other
rows go on.  A row's values therefore never depend on its neighbours.
"""

from dataclasses import dataclass
from numbers import Real
from typing import NamedTuple

import numpy as np

from . import expressions
from .brownian import _increments, _path_resolution
from .walsh import _block_averages, _eval_grid, _kernel_row, _quadrature_nodes, _readonly


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


class SolveResult(NamedTuple):
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

# The last engine _batch_solver built: its problem, m and solve_paths
_last_engine = []


def _integrands(problem, ito):
    """The one evaluation of a sweep, (x, *slots) -> (beta(x), sigma(x),
    sigma'(x)), with sigma' the scalar 0.0 when ``ito`` is False, and the
    number of x-shaped slots it writes into.  A compiled beta and sigma are
    one generated function in the out rendering, which may return x itself
    or one slot twice.  Any other pair takes no slots and is evaluated beta
    first, and sigma' by sigma's generated slope if sigma is compiled, else
    by the complex step, where a sigma that cannot take complex input is
    an error, never a silent zero slope.  Finiteness is left to the caller,
    per row."""
    beta, sigma = problem.beta, problem.sigma
    if expressions._compiled(beta, sigma):
        generated = expressions._straight_line(((beta, False), (sigma, ito)), True)
        if ito:
            return generated, generated.slots
        return (lambda x, *slots: (*generated(x, *slots), 0.0)), generated.slots

    def composed(x, *slots):
        b = _eval_grid(beta, "beta", x)
        if not ito:
            return b, _eval_grid(sigma, "sigma", x), 0.0
        if expressions._compiled(sigma):
            return (b, *expressions._straight_line(((sigma, True),))(x))
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
        return b, vals.real, vals.imag / _COMPLEX_STEP

    return composed, 0


def _exclusive_cumsum(c, diagonal):
    """z -> per row, out[:, j] = c (z[:, 0] + ... + z[:, j-1], summed in
    order, plus diagonal * z[:, j] when diagonal is not zero), written
    into ``out`` with ``scratch`` holding diagonal * z; either is
    allocated when not given."""

    def apply(z, out=None, scratch=None):
        out = np.empty_like(z) if out is None else out
        out[:, 0] = 0.0
        np.add.accumulate(z[:, :-1], axis=1, out=out[:, 1:])
        if diagonal:
            out += np.multiply(diagonal, z, out=scratch)
        return np.multiply(c, out, out=out)

    return apply


def _causal_convolution(g):
    """z -> per row, out[:, j] = sum of z[:, i] g[j - i] over i <= j: the
    product with the Toeplitz triangle whose rows are g, as a
    zero-padded FFT convolution of length 2m.  Each row is its own
    transform, so a row's bits do not depend on the rows beside it."""
    m = len(g)
    spectrum = np.fft.rfft(g, 2 * m)
    return lambda z, *_: np.fft.irfft(np.fft.rfft(z, 2 * m) * spectrum, 2 * m)[:, :m]


def _kernel_operator(kernel, m, name, diagonal):
    """The product of one projected kernel with a block of rows, built
    once.

    Returns (apply, diag): apply(z, out=None, scratch=None) = z @ Q,
    each row on its own, where Q = m^2 K holds the block averages of
    ``kernel`` on the triangle s <= t as the quadrature makes them, with
    its diagonal scaled by ``diagonal``, and diag is Q's diagonal before
    that scaling.  A zero ``diagonal`` sets the diagonal to +0.0, so a
    negative entry never becomes -0.0.  The kernel takes one of three
    forms, and only the last builds an m x m array:

    * a constant c is an exclusive cumulative sum written into ``out``
      (with ``scratch`` for its diagonal term), and diag is c;
    * a difference kernel (an expression of t - s alone, see
      ``expressions.compile_expression``) has a Toeplitz Q, Q[i][i + d]
      = g[d], so its row 0 alone is averaged and applied as a causal FFT
      convolution with g, g[0] scaled, and diag is the scalar g[0];
    * any other callable is averaged on the triangle and applied with
      one GEMV per row, and diag is an array.

    The last two return a new array and ignore ``out`` and ``scratch``.
    """
    if isinstance(kernel, Real):
        c = float(kernel)
        return _exclusive_cumsum(c, diagonal), c
    if getattr(kernel, "difference_kernel", False):
        g = _kernel_row(kernel, name, _quadrature_nodes(m), 0)
        diag = float(g[0])
        g[0] = diagonal * diag if diagonal else 0.0
        return _causal_convolution(g), diag
    G = _block_averages(kernel, m, name)
    diag = np.diagonal(G).copy()
    np.fill_diagonal(G, diagonal * diag if diagonal else 0.0)
    # one GEMV per row: a GEMM over the block could round a row
    # differently depending on how many rows share it
    return (lambda z, *_: np.array([row @ G for row in z])), diag


def _gather(a, index, out):
    """The rows ``index`` of a, written into the first len(index) rows of
    ``out`` (mode="raise" would allocate a buffer for them)."""
    return np.take(a, index, axis=0, out=out[: len(index)], mode="clip")


# A row's code: 0 if solved, else the index of its NonFiniteIterateError
# message here (beta, then sigma or sigma', then the iterate) or 4
_NON_FINITE = (None, "beta(x) is not finite at the current iterate",
               "sigma(x) is not finite at the current iterate", "iterate is not finite")
_NO_CONVERGENCE = 4


def _non_finite_codes(checks, k):
    """Per row of k, the code of the first of ``checks`` (pairs of a
    (k, m) array and a code, in the order they are checked) that is not
    finite in that row, else 0."""
    codes = np.zeros(k, dtype=np.int8)
    for a, code in checks:
        codes[(codes == 0) & ~np.isfinite(a).all(axis=1)] = code
    return codes


def _batch_solver(problem, m):
    """The solve engine at resolution m.

    Builds the path-independent operators once and returns
    ``solve_paths(values, workspace=None)``, which solves the paths of
    that resolution held in the rows of an (n, 2m + 1) values block as
    the rows of one (n, m) array.  It returns ``(x, sweeps, residuals,
    codes)``: the read-only solutions (n, m), each row's sweep count and
    final residual, nan, 0 and nan in a failed row but for the last
    residual of one that did not converge, and its int8 code (_NON_FINITE).
    Every row runs the sweeps of ``solve``'s docstring with its own
    residual and damping flag, and a row that finishes leaves the block,
    so no row depends on the others.

    A call works in ``solve_paths.slots`` (n, m) arrays, the first
    slots * n * m values of ``workspace``, a flat float64 array that the
    caller lends (or that the call allocates when it is None).  The
    increments, Ito weights, iterate, candidate, integrands and every
    temporary of a sweep are written there with out=, and the rows that
    stay are gathered into a free slot when others leave.  A call reads
    nothing it has not written, so the workspace may hold anything, and
    returns nothing that is a view of it.

    A non-finite beta, sigma, sigma' or iterate makes its row's candidate
    and residual non-finite, so one sum of a sweep's residuals screens
    its rows, which are checked array by array only when that sum is not
    finite (a failure, or finite residuals that overflow).

    A call with the problem object (by identity: a field may be
    unhashable) and m of the last build returns that engine, so a command
    builds each once; its operators stay in memory until the next build,
    which drops them first.
    """
    if _last_engine and _last_engine[0] is problem and _last_engine[1] == m:
        return _last_engine[2]
    _last_engine.clear()
    h = 1.0 / m
    # h is a power of two, so m^3 (K1 o P) is exactly m^2 K1 with its
    # diagonal halved; m^3 K2 times h sigma is m^2 K2 times sigma, and
    # the diagonal of K2 is the Ito weight k2_ss, applied apart
    drift, _ = _kernel_operator(problem.k1, m, "k1", 0.5)
    noise, k2_ss = _kernel_operator(problem.k2, m, "k2", 0.0)
    ito = bool(np.any(k2_ss))
    integrands, integrand_slots = _integrands(problem, ito)
    x0 = float(problem.x0)
    # the engine's eight arrays, named in solve_paths, then the integrands' slots
    count = 8 + integrand_slots

    def solve_paths(values, workspace=None):
        n = len(values)
        workspace = np.empty(count * n * m) if workspace is None else workspace
        # the rows' own arrays, gathered as rows leave, then the sweep's
        x, full, dB1, c_full, c_half, candidate, z, w, *slots = workspace[: count * n * m].reshape(count, n, m)
        # a row whose beta, sigma, sigma' or iterate is not finite fails
        # with that cause, so numpy need not warn of it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # the correction per unit sigma*sigma'(x[i]), above and on the
            # diagonal; dB2, in z, and dB1^2, in w, are not needed after
            # it.  A square that overflows makes the iterates it reaches
            # non-finite, which fails their row in the first sweep
            _increments(values, out=(full, dB1, z))
            dB1_squared = np.power(dB1, 2, out=w)
            np.subtract(np.power(z, 2, out=c_full), dB1_squared, out=c_full)
            np.multiply(k2_ss * 0.5, np.subtract(c_full, h, out=c_full), out=c_full)
            np.multiply(-0.5, dB1_squared, out=c_half)
            np.multiply(k2_ss, np.subtract(c_half, h / 4.0, out=c_half), out=c_half)
            x.fill(x0)
            solutions = np.full((n, m), np.nan)
            sweeps = np.zeros(n, dtype=int)
            residuals = np.full(n, np.nan)
            codes = np.zeros(n, dtype=np.int8)
            # the rows still iterating: index, residual, damping flag and count
            rows, previous, damped, k = np.arange(n), np.full(n, np.inf), np.zeros(n, dtype=bool), n
            for sweep in range(1, _MAX_ITER + 1):
                xs, cand, zs, ws = x[:k], candidate[:k], z[:k], w[:k]
                b, sig, slope = integrands(xs, *(a[:k] for a in slots))
                # candidate = x0 + drift(h beta) + noise(w) + k2_ss u, where
                # w = sigma (full + sigma' c_full) and then
                # u = sigma (dB1 + sigma' c_half) are made in ws, h beta and
                # then noise(w) in zs
                np.add(x0, drift(np.multiply(h, b, out=zs), cand, ws), out=cand)
                np.add(full[:k], np.multiply(slope, c_full[:k], out=ws), out=ws)
                np.add(cand, noise(np.multiply(sig, ws, out=ws), zs), out=cand)
                np.add(dB1[:k], np.multiply(slope, c_half[:k], out=ws), out=ws)
                np.multiply(k2_ss, np.multiply(sig, ws, out=ws), out=ws)
                np.add(cand, ws, out=cand)
                # iterates too far apart have an infinite residual, which damps
                # the row; a damped step that overflows fails it in the next sweep
                residual = np.maximum.reduce(np.abs(np.subtract(cand, xs, out=ws), out=ws), axis=1)
                if np.isfinite(np.add.reduce(residual)):
                    failed = np.zeros(k, dtype=np.int8)
                else:
                    # h beta, which h <= 1 cannot overflow, is finite where beta is
                    failed = _non_finite_codes([(b, 1), (sig, 2), *([(slope, 2)] if ito else []), (cand, 3)], k)
                damped |= residual > previous
                if damped.any():
                    # x + 0.5 (candidate - x) on the damped rows, gathered
                    d = np.flatnonzero(damped)
                    xd, step = _gather(xs, d, ws), _gather(cand, d, zs)
                    np.add(xd, np.multiply(_DAMPING, np.subtract(step, xd, out=step), out=step), out=step)
                    cand[d] = step
                    residual[d] = np.maximum.reduce(np.abs(np.subtract(step, xd, out=step), out=step), axis=1)
                done = (residual <= _TOL) & (failed == 0)
                # the candidate is the next iterate, and the old iterate's slot is free
                x, candidate, previous = candidate, x, residual
                if done.any() or failed.any():
                    finished = np.flatnonzero(done)
                    solutions[rows[finished]] = _gather(x[:k], finished, candidate)
                    residuals[rows[finished]] = residual[finished]
                    sweeps[rows[finished]] = sweep
                    codes[rows] = failed
                    keep = np.flatnonzero(~done & (failed == 0))
                    if not len(keep):
                        break
                    gathered = []
                    for a in (x, full, dB1, c_full, c_half):
                        _gather(a[:k], keep, candidate)
                        gathered.append(candidate)
                        candidate = a
                    x, full, dB1, c_full, c_half = gathered
                    rows, previous, damped, k = rows[keep], previous[keep], damped[keep], len(keep)
            else:
                codes[rows], residuals[rows] = _NO_CONVERGENCE, previous
        return _readonly(solutions), sweeps, residuals, codes

    solve_paths.slots = count
    _last_engine[:] = problem, m, solve_paths
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
    x, sweeps, residuals, [code] = _batch_solver(problem, _path_resolution(path))(path[None])
    if code == _NO_CONVERGENCE:
        raise NonConvergenceError(residual=float(residuals[0]), iterations=_MAX_ITER)
    if code:
        raise NonFiniteIterateError(_NON_FINITE[code])
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
        fn, constant = expressions._function(sources[key], _VARIABLES[key])
    except expressions.ExpressionError as exc:
        exc.key = key
        raise
    return constant if constant is not None and key in ("x0", "k1", "k2") else fn


def problem_from_sources(sources, label="problem"):
    """Build a ProblemSpec from a mapping of expression strings.

    Required keys (REQUIRED_KEYS): x0, k1, k2, beta, sigma; a missing
    one is a ValueError.  Optional: exact.  Kernel expressions may use s
    and t, beta/sigma use x, exact uses t and B, and x0 no variable.  A
    constant x0 or kernel is a number, and a constant beta, sigma or
    exact a generated function like any other expression.  In ``exact``,
    B is the path value at the last collocation midpoint at or below t
    (see ``ProblemSpec``).  An ExpressionError raised here names the
    failing key in its ``key`` attribute.
    """
    missing = [key for key in REQUIRED_KEYS if key not in sources]
    if missing:
        raise ValueError(f"missing required key(s): {', '.join(missing)}")
    compiled = {key: _compile(sources, key) for key in REQUIRED_KEYS}
    if sources.get("exact") is not None:
        compiled["exact"] = _compile(sources, "exact")
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
