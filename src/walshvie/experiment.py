"""Monte Carlo error statistics and convergence studies.

Errors are measured at the collocation grid: for a report time t the
numerical value is the block value at the last collocation midpoint
t_j <= t, and the exact solution reads the driving path through the
same midpoint (``BrownianPath.last_midpoint_value``).  Comparing both
sides at the identical path point isolates the scheme error instead of
the half-block noise of the path itself, and never interpolates the
path.  Report times are taken as given for the explicit time argument
of the exact solution, so block constancy still shows up for
deterministic problems.
"""

import math
from dataclasses import dataclass

import numpy as np

from .brownian import sample_path
from .solver import SolveResult, _batch_solver
from .walsh import BasisConfig, fast_walsh_transform, midpoint_floor_index

REPORT_TIMES = (0.1, 0.3, 0.5, 0.7, 0.9)

# Trials are solved in chunks of max(1, _CHUNK_ELEMENTS // m) paths, so
# memory stays bounded for any trial count.  On a 1000-trial converge
# ladder (m = 8..256) 4096-element chunks raised the peak RSS from 38.6
# to 39.3 MB, above the 38.7 MB of solving one trial at a time.
_CHUNK_ELEMENTS = 2048

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

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("at least two successful trials are needed for statistics")


@dataclass(frozen=True)
class ConvergenceReport:
    """RMS error per resolution over the trials that succeeded, and
    ``failures``, the number of trials per resolution that did not."""

    resolutions: tuple
    rms_errors: tuple
    estimated_order: object  # float, or None when the study is degenerate
    failures: tuple


def error_at(result, problem, path, t):
    """|exact(t, path) - x_m| at the last collocation midpoint <= t."""
    if problem.exact is None:
        raise ValueError(f"problem {problem.label!r} has no exact solution")
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in [0, 1), got {t}")
    j = midpoint_floor_index(len(result.x_colloc), t)
    return abs(float(problem.exact(t, path)) - float(result.x_colloc[j]))


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


def _trial_errors(problem, cfg, n, base_seed, report_times):
    """Per-trial error rows; failed trials are counted, never absorbed.

    The operators are built once; each chunk of trials has its paths
    sampled just before it is solved.  The engine solves every row on
    its own, so a trial's values do not depend on the chunking.
    """
    solve_paths = _batch_solver(problem, cfg)
    per_chunk = max(1, _CHUNK_ELEMENTS // cfg.m)
    rows = []
    failures = 0
    for first in range(1, n + 1, per_chunk):
        trials = range(first, min(first + per_chunk, n + 1))
        paths = [sample_path(cfg, (base_seed, trial)) for trial in trials]
        for path, outcome in zip(paths, solve_paths(paths)):
            if isinstance(outcome, SolveResult):
                rows.append([error_at(outcome, problem, path, t) for t in report_times])
            else:
                failures += 1
    return np.asarray(rows, dtype=float), failures


def monte_carlo(problem, cfg, n, base_seed, report_times=REPORT_TIMES):
    """Mean absolute error with a 95% normal confidence interval.

    Trial i draws its path from the key (base_seed, i), so any subset
    of trials is reproducible in isolation; the aggregation over the
    trial axis is order independent.
    """
    if n < 2:
        raise ValueError("need at least two trials")
    errors, failures = _trial_errors(problem, cfg, n, base_seed, report_times)
    n_eff = errors.shape[0] if errors.size else 0
    if n_eff < 2:
        raise ValueError(f"only {n_eff} of {n} trials succeeded; cannot form statistics")
    stats = []
    for idx, t in enumerate(report_times):
        col = errors[:, idx]
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


def convergence_study(problem, resolutions, n, base_seed, report_times=REPORT_TIMES):
    """RMS error per resolution and the least-squares order in h.

    When every RMS sits at rounding level the order is reported as
    None rather than a meaningless slope.  Failed trials are left out
    of the RMS and counted in the report's ``failures``.
    """
    resolutions = tuple(int(m) for m in resolutions)
    if len(resolutions) < 3:
        raise ValueError("need at least three resolutions for an order estimate")
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError("resolutions must be strictly increasing")
    rms = []
    failures = []
    for m in resolutions:
        cfg = BasisConfig.from_resolution(m)
        errors, failed = _trial_errors(problem, cfg, n, base_seed, report_times)
        if errors.shape[0] < 1:
            raise ValueError(f"every trial failed at m={m}")
        rms.append(float(np.sqrt(np.mean(np.square(errors)))))
        failures.append(failed)
    if max(rms) <= DEGENERATE_RMS:
        order = None
    else:
        hs = np.log([1.0 / m for m in resolutions])
        order = float(np.polyfit(hs, np.log(rms), 1)[0])
    return ConvergenceReport(
        resolutions=resolutions,
        rms_errors=tuple(rms),
        estimated_order=order,
        failures=tuple(failures),
    )
