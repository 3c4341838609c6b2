"""Brownian paths sampled on the half-step grid.

A path at resolution m holds B at the 2m+1 points j*h/2, which is every
block boundary and every collocation midpoint.  Its increments are the
first 2m normals of a counter-based generator (Philox) keyed by the
seed, times sqrt(h/2): identical seed and resolution reproduce the path
bit for bit and distinct keys give independent streams.  One key at m
and 2m shares its leading normals, so the 2m path on [0, 1/2] is the m
path scaled by 1/sqrt(2): neither an independent draw nor a refinement.
``convergence_study`` relies on this to draw each trial once.
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
    return BrownianPath(values=_readonly(_path_values(_normals(seed, np.empty(2 * cfg.m)), cfg.h)))


def _normals(seed, out):
    """Fill ``out`` with the first normals of the stream keyed by seed."""
    np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).standard_normal(out=out)
    return out


def _path_values(normals, h):
    """B on the half-step grid from 2m normals along the last axis:
    0, then cumsum(normals * sqrt(h/2)).  Every sampled path is made here."""
    values = np.zeros(normals.shape[:-1] + (normals.shape[-1] + 1,))
    np.cumsum(normals * np.sqrt(h / 2.0), axis=-1, out=values[..., 1:])
    return values


def zero_path(cfg):
    """The identically-zero path, useful for deterministic reductions."""
    return BrownianPath(values=_readonly(np.zeros(2 * cfg.m + 1)))
