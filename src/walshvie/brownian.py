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

from .walsh import _readonly


@dataclass(frozen=True)
class BrownianPath:
    """B at the 2m+1 half-step grid points j/(2m); the length of
    ``values`` is the one source of the resolution m."""

    values: np.ndarray

    def __post_init__(self):
        if len(self.values) < 3 or len(self.values) % 2 == 0:
            raise ValueError("path must hold 2m+1 values")
        if self.values[0] != 0.0:
            raise ValueError("path must start at B(0) = 0")

    @property
    def m(self):
        return (len(self.values) - 1) // 2


def sample_path(cfg, seed):
    """Sample a Brownian path on the half-step grid of cfg.

    ``seed`` may be an int or a tuple of ints; tuples are how callers
    derive independent per-trial streams from one base seed.
    """
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    increments = gen.standard_normal(2 * cfg.m) * np.sqrt(cfg.h / 2.0)
    values = np.concatenate([[0.0], np.cumsum(increments)])
    return BrownianPath(values=_readonly(values))


def zero_path(cfg):
    """The identically-zero path, useful for deterministic reductions."""
    return BrownianPath(values=_readonly(np.zeros(2 * cfg.m + 1)))
