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
from dataclasses import dataclass

import numpy as np

from .brownian import _path_config, _path_values, _trial_normals
from .solver import _batch_solver
from .walsh import BasisConfig, fast_walsh_transform, midpoint_floor_index

REPORT_TIMES = (0.1, 0.3, 0.5, 0.7, 0.9)

# Trials are drawn max(1, _DRAW_ELEMENTS // (2 m)) at a time for the finest
# m of a study, and each m solves them in full blocks of
# max(1, _CHUNK_ELEMENTS // m) rows (at most n), gathered across draws, so
# memory stays bounded for any trial count and a small m pays few engine
# calls.  On a 1000-trial converge ladder (m = 8..256) the peak RSS was
# 38.8 MB (median of 10 runs, 38.8-39.4), against 38.2 MB with 2048-element
# blocks that never spanned a draw of 2**15 elements.
_DRAW_ELEMENTS = 1 << 13
_CHUNK_ELEMENTS = 1 << 13

# RMS floor below which a convergence study is treated as degenerate
# (errors at rounding level carry no slope information).
DEGENERATE_RMS = 1e-13


@dataclass(frozen=True)
class ErrorStats:
    """Aggregate of |exact - numerical| at one report time.

    ``n`` counts the trials that entered the aggregate; together with
    ``failures`` it accounts for every trial requested.
    """

    t: float
    mean: float
    sd: float
    ci_lower: float
    ci_upper: float
    n: int
    failures: int


@dataclass(frozen=True)
class ConvergenceReport:
    """RMS error per resolution over the trials that succeeded, and
    ``failures``, the number of trials per resolution that did not."""

    resolutions: tuple
    rms_errors: tuple
    estimated_order: float
    failures: tuple


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
    m = _path_config(path).m
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


def _trial_errors(problem, cfgs, n, base_seed):
    """One (error rows, failure count) pair per resolution of cfgs; failed
    trials are counted, never absorbed.

    Trial i's normals are drawn once from the key (base_seed, i) for the
    finest m; the path at each m is made from their first 2m, as
    ``sample_path`` makes it.  Trials are drawn a bounded chunk at a time,
    all by one generator, and each m gathers its paths' (2m + 1) values
    across draws, in trial order, into a block of fixed size that its
    engine, built once, solves when full; the part-filled blocks are
    solved at the end.  The error rows are read from the solved rows of
    the engine's solutions and of the block, in trial order, and a block
    in which every row fails calls no ``exact``.  Each row is solved on
    its own, so a trial's values do not depend on the blocks or the
    draws.
    """
    engines = [_batch_solver(problem, cfg) for cfg in cfgs]
    indices = [midpoint_floor_index(cfg.m, REPORT_TIMES) for cfg in cfgs]
    width = 2 * max(cfg.m for cfg in cfgs)
    draw = _trial_normals(base_seed)
    normals = np.empty((max(1, _DRAW_ELEMENTS // width), width))
    blocks = [np.empty((min(n, max(1, _CHUNK_ELEMENTS // cfg.m)), 2 * cfg.m + 1)) for cfg in cfgs]
    filled = [0] * len(cfgs)
    errors = [np.empty((n, len(REPORT_TIMES))) for _ in cfgs]
    solved = [0] * len(cfgs)

    def solve_block(r, block):
        x, _, _, failed = engines[r](block)
        ok = np.array([f is None for f in failed])
        if ok.any():
            rows = _midpoint_errors(problem, x[ok], block[ok], REPORT_TIMES, indices[r])
            errors[r][solved[r] : solved[r] + len(rows)] = rows
            solved[r] += len(rows)

    for first in range(1, n + 1, len(normals)):
        trials = range(first, min(first + len(normals), n + 1))
        draw(normals[: len(trials)], trials)
        for r, (cfg, block) in enumerate(zip(cfgs, blocks)):
            values = _path_values(normals[: len(trials), : 2 * cfg.m], cfg.h)
            while len(values):
                take = min(len(block) - filled[r], len(values))
                block[filled[r] : filled[r] + take] = values[:take]
                values = values[take:]
                filled[r] += take
                if filled[r] == len(block):
                    solve_block(r, block)
                    filled[r] = 0
    for r, block in enumerate(blocks):
        if filled[r]:
            solve_block(r, block[: filled[r]])
    return [(e[:count], n - count) for e, count in zip(errors, solved)]


def monte_carlo(problem, cfg, n, base_seed):
    """Mean absolute error with a 95% normal confidence interval, one
    ErrorStats per time of REPORT_TIMES.

    Trial i draws its path from the key (base_seed, i), so any subset
    of trials is reproducible in isolation; the aggregation over the
    trial axis is order independent.
    """
    if n < 2:
        raise ValueError("need at least two trials")
    [(errors, failures)] = _trial_errors(problem, [cfg], n, base_seed)
    n_eff = errors.shape[0]
    if n_eff < 2:
        raise ValueError(f"only {n_eff} of {n} trials succeeded; cannot form statistics")
    stats = []
    for idx, t in enumerate(REPORT_TIMES):
        col = errors[:, idx]
        # errors near the largest double can overflow the mean or sd to
        # inf, which the stats then show
        with np.errstate(over="ignore"):
            mean = float(np.mean(col))
            sd = float(np.std(col, ddof=1))
        halfwidth = 1.96 * sd / math.sqrt(n_eff)
        stats.append(
            ErrorStats(
                t=float(t),
                mean=mean,
                sd=sd,
                ci_lower=mean - halfwidth,
                ci_upper=mean + halfwidth,
                n=n_eff,
                failures=failures,
            )
        )
    return stats


def convergence_study(problem, resolutions, n, base_seed):
    """RMS error per resolution, over the trials and REPORT_TIMES, and
    the least-squares order in h.

    When every RMS sits at rounding level the order is reported as nan
    rather than a meaningless slope, and an RMS that overflows is a
    ValueError.  Failed trials are left out of the RMS and counted in
    the report's ``failures``.  Every rung's engine is alive at once,
    so a callable kernel that is not a difference kernel holds at most
    1/3 more triangle memory than the finest rung alone.
    """
    resolutions = tuple(int(m) for m in resolutions)
    if len(resolutions) < 3:
        raise ValueError("need at least three resolutions for an order estimate")
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError("resolutions must be strictly increasing")
    cfgs = [BasisConfig.from_resolution(m) for m in resolutions]
    rms = []
    failures = []
    for m, (errors, failed) in zip(resolutions, _trial_errors(problem, cfgs, n, base_seed)):
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
        hs = np.log([1.0 / m for m in resolutions])
        order = float(np.polyfit(hs, np.log(rms), 1)[0])
    return ConvergenceReport(
        resolutions=resolutions,
        rms_errors=tuple(rms),
        estimated_order=order,
        failures=tuple(failures),
    )
