"""Euler-Maruyama reference integrator.

A deliberately plain scheme used to cross-check the collocation solver:
it steps on the full grid, shares no operational-matrix code with the
solver, and consumes the same sampled path.

    y[j+1] = y[j] + k1(s_j, t_{j+1}) beta(y[j]) h
                  + k2(s_j, t_{j+1}) sigma(y[j]) (B(t_{j+1}) - B(t_j))

with s_j = j h and grid times t_j = j h.  Kernel evaluations freeze the
second argument at the target time of the step.
"""

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .brownian import _path_config
from .solver import NonFiniteIterateError
from .walsh import _readonly


@dataclass(frozen=True)
class OracleResult:
    values: np.ndarray
    midpoint_values: np.ndarray


def _as_kernel(k):
    if isinstance(k, Real):
        c = float(k)
        return lambda s, t: c
    return k


def euler_maruyama(problem, path):
    """Integrate one path on its full grid; m is the path's, a power of two.

    Returns the m+1 grid iterates plus values at the collocation
    midpoints obtained by averaging adjacent iterates.
    """
    cfg = _path_config(path)
    m, h = cfg.m, cfg.h
    k1 = _as_kernel(problem.k1)
    k2 = _as_kernel(problem.k2)
    y = np.empty(m + 1)
    y[0] = float(problem.x0)
    for j in range(m):
        s = j * h
        t_next = (j + 1) * h
        dB = path[2 * j + 2] - path[2 * j]
        y[j + 1] = (
            y[j]
            + float(k1(s, t_next)) * float(problem.beta(y[j])) * h
            + float(k2(s, t_next)) * float(problem.sigma(y[j])) * dB
        )
        if not np.isfinite(y[j + 1]):
            raise NonFiniteIterateError(f"oracle iterate is not finite at step {j + 1}")
    midpoints = 0.5 * (y[:-1] + y[1:])
    return OracleResult(
        values=_readonly(y),
        midpoint_values=_readonly(midpoints),
    )
