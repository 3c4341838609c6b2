"""Euler-Maruyama reference integrator.

A deliberately plain scheme used to cross-check the collocation solver:
it steps on the full grid, shares no operational-matrix code with the
solver, and consumes the same sampled path.

    y[j+1] = y[j] + k1(s_j, t_{j+1}) beta(y[j]) h
                  + k2(s_j, t_{j+1}) sigma(y[j]) (B(t_{j+1}) - B(t_j))

with s_j = j h and grid times t_j = j h.  Kernel evaluations freeze the
second argument at the target time of the step.  As in ``solve``, each
kernel is evaluated once, on the arrays of all m steps, so it must take
numpy arrays; the steps call only beta and sigma, one scalar at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .brownian import _increments, _path_config
from .solver import NonFiniteIterateError
from .walsh import _eval_grid, _readonly


@dataclass(frozen=True)
class OracleResult:
    values: np.ndarray
    midpoint_values: np.ndarray


def euler_maruyama(problem, path):
    """Integrate one path on its full grid; m is the path's, a power of two.

    Returns the m+1 grid iterates plus values at the collocation
    midpoints obtained by averaging adjacent iterates.
    """
    cfg = _path_config(path)
    m, h = cfg.m, cfg.h
    s = np.arange(m) * h
    dB = _increments(path)[0].tolist()
    y = np.empty(m + 1)
    y[0] = float(problem.x0)
    # a non-finite kernel value or iterate makes an iterate non-finite,
    # which is raised below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Python floats, whose scalar arithmetic is cheaper than numpy's (same bits)
        k1 = _eval_grid(problem.k1, "k1", s, s + h).tolist()
        k2 = _eval_grid(problem.k2, "k2", s, s + h).tolist()
        for j in range(m):
            y[j + 1] = (
                y[j]
                + k1[j] * float(problem.beta(y[j])) * h
                + k2[j] * float(problem.sigma(y[j])) * dB[j]
            )
            if not math.isfinite(y[j + 1]):
                raise NonFiniteIterateError(f"oracle iterate is not finite at step {j + 1}")
    # halved before the sum, which then cannot overflow; the bits are
    # those of 0.5 * (y[:-1] + y[1:]) wherever that is finite and normal
    midpoints = 0.5 * y[:-1] + 0.5 * y[1:]
    return OracleResult(
        values=_readonly(y),
        midpoint_values=_readonly(midpoints),
    )
