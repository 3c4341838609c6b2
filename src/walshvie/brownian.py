"""Brownian paths sampled on the half-step grid.

A path at resolution m holds B at the 2m+1 points j*h/2, which is every
block boundary and every collocation midpoint.  Increments are drawn
from a counter-based generator (Philox) keyed by the seed, so identical
seed and resolution reproduce the path bit for bit and distinct keys
give independent streams.  Refinement consistency across different m is
deliberately not promised: each resolution draws fresh increments.
"""

from dataclasses import dataclass

import numpy as np

from .walsh import _readonly, midpoint_floor_index


@dataclass(frozen=True)
class BrownianPath:
    """B at the 2m+1 half-step grid points j/(2m); the length of
    ``values`` is the one source of the resolution m."""

    values: np.ndarray
    seed: object

    def __post_init__(self):
        if len(self.values) < 3 or len(self.values) % 2 == 0:
            raise ValueError("path must hold 2m+1 values")
        if self.values[0] != 0.0:
            raise ValueError("path must start at B(0) = 0")

    @property
    def m(self):
        return (len(self.values) - 1) // 2

    @property
    def half_step(self):
        return 1.0 / (len(self.values) - 1)

    def value_at(self, t):
        """B(t) for t exactly on the half-step grid; off-grid t is an error."""
        idx = t / self.half_step
        j = int(round(idx))
        if not 0 <= j < len(self.values) or j * self.half_step != t:
            raise ValueError(f"t={t!r} is not a point of the half-step grid")
        return float(self.values[j])

    def last_midpoint_value(self, t):
        """B at the last collocation midpoint <= t (clipped to the first one).

        Midpoints are the odd half-grid points; this lookup never
        interpolates the path.
        """
        j = midpoint_floor_index(self.m, t)
        return float(self.values[2 * j + 1])


def sample_path(cfg, seed):
    """Sample a Brownian path on the half-step grid of cfg.

    ``seed`` may be an int or a tuple of ints; tuples are how callers
    derive independent per-trial streams from one base seed.
    """
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    increments = gen.standard_normal(2 * cfg.m) * np.sqrt(cfg.h / 2.0)
    values = np.concatenate([[0.0], np.cumsum(increments)])
    return BrownianPath(values=_readonly(values), seed=seed)


def zero_path(cfg):
    """The identically-zero path, useful for deterministic reductions."""
    return BrownianPath(values=_readonly(np.zeros(2 * cfg.m + 1)), seed=None)
