"""Monte Carlo error statistics and convergence studies.

This module is the one place that maps a report time t to the grid,
with ``midpoint_floor_index``: errors are read at the last collocation
midpoint t_j <= t, the numerical value as x[j] and the path as
B = path[2j + 1], the same point, and the error is |exact(t, B) - x[j]|.  Comparing both sides at
the identical path point isolates the scheme error instead of the
half-block noise of the path itself, and never interpolates the path.
Report times are taken as given for the explicit time argument of the
exact solution, so block constancy still shows up for deterministic
problems.  A block of trials needs one call of ``exact`` on arrays.
"""

import math
from numbers import Integral

import numpy as np

from .brownian import _BLOCK_ELEMENTS, _path_resolution, _path_values, _trial_draws
from .solver import _batch_solver
from .walsh import _readonly, _resolution, fast_walsh_transform, midpoint_floor_index

REPORT_TIMES = (0.1, 0.3, 0.5, 0.7, 0.9)

# Each m solves its trials in blocks of max(1, _BLOCK_ELEMENTS // (m D))
# whole draws of D rows (at most n rows): memory stays bounded for any n
# and a small m pays few engine calls (a 1000-trial ladder m = 8..256
# peaked at 38.8 MB, against 38.2 MB with 2048-element blocks).  The
# largest block sizes the one workspace that every rung's engine uses.

# RMS floor below which a convergence study is treated as degenerate
# (errors at rounding level carry no slope information).
DEGENERATE_RMS = 1e-13

# One row of monte_carlo's statistics: |exact - numerical| at report time t
_STATS = np.dtype([(f, float) for f in ("t", "mean", "sd", "ci_lower", "ci_upper")] + [("n", int), ("failures", int)])


def _trial_count(n):
    """n as an int: an integer (numpy's too) but not a bool, else a ValueError."""
    if not isinstance(n, Integral) or isinstance(n, bool):
        raise ValueError(f"the number of trials must be an integer, got {n!r}")
    return int(n)


def _midpoint_errors(problem, x, values, report_times, j):
    """|exact(t, B) - x[:, j]| for solutions x of shape (n, m) and their
    paths' values (n, 2m + 1), one column per report time t, with j its
    last collocation midpoint t_j <= t and B = values[:, 2j + 1].  An
    error that is not finite, from an exact solution that is not or is
    too far from x, is a ValueError."""
    if problem.exact is None:
        raise ValueError(f"problem {problem.label!r} has no exact solution")
    t = np.array(report_times, dtype=float)
    with np.errstate(all="ignore"):
        errors = np.abs(problem.exact(t, values[:, 2 * j + 1]) - x[:, j])
    if not np.isfinite(errors).all():
        raise ValueError(f"the error against the exact solution of {problem.label!r} is not finite")
    return errors


def error_at(result, problem, path, t):
    """|exact(t, B) - x[j]| at the last collocation midpoint t_j <= t,
    with B the path's value there: the one-trial case of the per-block
    errors of Monte Carlo runs.  The path must have the result's m."""
    m = _path_resolution(path)
    if m != len(result.x_colloc):
        raise ValueError(f"path resolution m={m} does not match the result's m={len(result.x_colloc)}")
    j = midpoint_floor_index(m, (t,))
    errors = _midpoint_errors(problem, result.x_colloc[None], path[None], (t,), j)
    return float(errors[0, 0])


def coefficient_error_norm(x, y):
    """Max absolute difference of Walsh coefficient vectors.

    Inputs are block-integral coefficient vectors of one length m; the
    Walsh coefficients of either solution are T_W @ values, i.e.
    (1/m) T_W applied to the block values.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"resolution mismatch: {len(x)} vs {len(y)}")
    return float(np.max(np.abs(fast_walsh_transform(x - y))))


def _trial_errors(problem, ms, n, base_seed):
    """One (error rows, failure count) pair per resolution of ms; failed
    trials are counted, never absorbed.

    Trial i's normals are drawn once from the key (base_seed, i) for the
    finest m; the path at each m is made from their first 2m, as
    ``sample_path`` makes it.  Each m copies the paths' (2m + 1) values
    of every draw, in trial order, into a block of a whole number of
    draws, which its engine, built once, solves when it is full or the
    draw is the last.  The error rows are read from the rows the engine
    solved (code 0), in trial order, and a block in which every row fails
    calls no ``exact``.  Every engine works in one workspace, allocated
    once for the largest block.  Each row is solved on its own, so a
    trial's values do not depend on the blocks, the draws or what the
    workspace held.
    """
    engines = [_batch_solver(problem, m) for m in ms]
    indices = [midpoint_floor_index(m, REPORT_TIMES) for m in ms]
    width = 2 * max(ms)
    draw_rows = max(1, _BLOCK_ELEMENTS // width)
    blocks = [np.empty((min(n, draw_rows * max(1, _BLOCK_ELEMENTS // (m * draw_rows))), 2 * m + 1)) for m in ms]
    workspace = np.empty(max(e.slots for e in engines) * max(len(b) * m for b, m in zip(blocks, ms)))
    filled = [0] * len(ms)
    errors = [np.empty((n, len(REPORT_TIMES))) for _ in ms]
    solved = [0] * len(ms)
    for trials, normals in _trial_draws(base_seed, n, width):
        for r, (m, block) in enumerate(zip(ms, blocks)):
            end = filled[r] + len(trials)
            block[filled[r] : end] = _path_values(normals[:, : 2 * m], 1.0 / m)
            filled[r] = end
            if end == len(block) or trials[-1] == n:
                x, _, _, codes = engines[r](block[:end], workspace)
                ok = codes == 0
                if ok.any():
                    found = _midpoint_errors(problem, x[ok], block[:end][ok], REPORT_TIMES, indices[r])
                    errors[r][solved[r] : solved[r] + len(found)] = found
                    solved[r] += len(found)
                filled[r] = 0
    return [(e[:count], n - count) for e, count in zip(errors, solved)]


def monte_carlo(problem, m, n, base_seed):
    """Mean absolute error with a 95% normal confidence interval at
    resolution m: a read-only structured array with one row per time of
    REPORT_TIMES and the fields t, mean, sd, ci_lower, ci_upper, n (the
    trials that entered the row) and failures (the trials that did not).

    Trial i draws its path from the key (base_seed, i), so any subset
    of trials is reproducible in isolation; each statistic reduces one
    column of errors in trial order, so reruns give the same bits.
    """
    m, n = _resolution(m), _trial_count(n)
    if n < 2:
        raise ValueError("need at least two trials")
    [(errors, failures)] = _trial_errors(problem, [m], n, base_seed)
    n_eff = errors.shape[0]
    if n_eff < 2:
        raise ValueError(f"only {n_eff} of {n} trials succeeded; cannot form statistics")
    stats = []
    for t, col in zip(REPORT_TIMES, errors.T):
        # errors near the largest double can overflow the mean or sd to
        # inf, which the stats then show
        with np.errstate(over="ignore"):
            mean, sd = float(np.mean(col)), float(np.std(col, ddof=1))
        halfwidth = 1.96 * sd / math.sqrt(n_eff)
        stats.append((t, mean, sd, mean - halfwidth, mean + halfwidth, n_eff, failures))
    return _readonly(np.array(stats, dtype=_STATS))


def convergence_study(problem, resolutions, n, base_seed):
    """RMS error per resolution, over the trials and REPORT_TIMES, and
    the least-squares order in h, as ``(rms_errors, failures, order)``:
    read-only arrays in the order of ``resolutions``, with failures the
    number of trials per resolution left out of its RMS, and a float.

    When every RMS sits at rounding level the order is reported as nan
    rather than a meaningless slope, and an RMS that overflows is a
    ValueError.  Every rung's engine is alive at once, so a callable
    kernel that is not a difference kernel holds at most 1/3 more
    triangle memory than the finest rung alone.
    """
    ms, n = [_resolution(m) for m in resolutions], _trial_count(n)
    if n < 1:
        raise ValueError("need at least one trial")
    if len(ms) < 3:
        raise ValueError("need at least three resolutions for an order estimate")
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError("resolutions must be strictly increasing")
    rms = []
    failures = []
    for m, (errors, failed) in zip(ms, _trial_errors(problem, ms, n, base_seed)):
        if errors.shape[0] < 1:
            raise ValueError(f"every trial failed at m={m}")
        with np.errstate(over="ignore"):
            rms.append(float(np.sqrt(np.mean(np.square(errors)))))
        if not math.isfinite(rms[-1]):
            raise ValueError(f"the RMS error at m={m} is not finite")
        failures.append(failed)
    if max(rms) <= DEGENERATE_RMS:
        order = math.nan
    else:
        hs = np.log([1.0 / m for m in ms])
        order = float(np.polyfit(hs, np.log(rms), 1)[0])
    return _readonly(np.array(rms)), _readonly(np.array(failures)), order
