"""Euler-Maruyama reference integrator.

A deliberately plain scheme used to cross-check the collocation solver:
it steps on the full grid, shares no operational-matrix code with the
solver, and consumes the same sampled path.

    y[j+1] = y[j] + k1(s_j, t_{j+1}) beta(y[j]) h
                  + k2(s_j, t_{j+1}) sigma(y[j]) (B(t_{j+1}) - B(t_j))

with s_j = j h and grid times t_j = j h.  Kernel evaluations freeze the
second argument at the target time of the step.  As in ``solve``, each
kernel is evaluated once, on the arrays of all m steps, so it must take
numpy arrays; each step evaluates beta and sigma at the scalar iterate,
in one generated call when both are compiled expressions.
"""

import math

import numpy as np

from . import expressions
from .brownian import _increments, _path_resolution
from .solver import NonFiniteIterateError
from .walsh import _eval_grid, _readonly


def euler_maruyama(problem, path):
    """Integrate one path on its full grid; m is the path's, a power of two.

    Returns ``(values, midpoint_values)``, read-only arrays: the m+1 grid
    iterates and the collocation midpoint values, each the average of
    its two adjacent iterates.
    """
    m = _path_resolution(path)
    h = 1.0 / m
    s = np.arange(m) * h
    dB = _increments(path)[0].tolist()
    beta, sigma = problem.beta, problem.sigma
    if expressions._compiled(beta, sigma):
        integrands = expressions._straight_line(((beta, False), (sigma, False)))
    else:
        integrands = lambda x: (beta(x), sigma(x))
    # a numpy float, so that beta and sigma give inf or nan where a Python float would raise
    yj = np.float64(float(problem.x0))
    ys = [yj]
    # a non-finite kernel value or iterate makes an iterate non-finite,
    # which is raised below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Python floats, whose scalar arithmetic is cheaper than numpy's (same bits)
        k1 = _eval_grid(problem.k1, "k1", s, s + h).tolist()
        k2 = _eval_grid(problem.k2, "k2", s, s + h).tolist()
        for j in range(m):
            b, g = integrands(yj)
            yj = yj + k1[j] * float(b) * h + k2[j] * float(g) * dB[j]
            if not math.isfinite(yj):
                raise NonFiniteIterateError(f"oracle iterate is not finite at step {j + 1}")
            ys.append(yj)
    y = np.array(ys)
    # halved before the sum, which then cannot overflow; the bits are
    # those of 0.5 * (y[:-1] + y[1:]) wherever that is finite and normal
    midpoints = 0.5 * y[:-1] + 0.5 * y[1:]
    return _readonly(y), _readonly(midpoints)
