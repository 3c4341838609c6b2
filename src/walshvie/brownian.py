"""Brownian paths sampled on the half-step grid.

A path at resolution m is a read-only 1-D float array of the 2m+1
values B(j*h/2), which is every block boundary and every collocation
midpoint; its length is the one source of m.  Its increments are the
first 2m normals of a counter-based generator (Philox) keyed by the
seed, times sqrt(h/2): identical seed and resolution reproduce the path
bit for bit and distinct keys give independent streams.  One key at m
and 2m shares its leading normals, so the 2m path on [0, 1/2] is the m
path scaled by 1/sqrt(2): neither an independent draw nor a refinement.
``convergence_study`` relies on this to draw each trial once.
"""

import numpy as np

from .walsh import BasisConfig, _readonly


def _path_config(path):
    """The BasisConfig of a path: a 1-D array of 2m+1 values that starts
    at B(0) = 0, with m a power of two; anything else is a ValueError."""
    if np.ndim(path) != 1 or len(path) < 3 or len(path) % 2 == 0:
        raise ValueError("path must be a 1-D array of 2m+1 values")
    if path[0] != 0.0:
        raise ValueError("path must start at B(0) = 0")
    return BasisConfig.from_resolution((len(path) - 1) // 2)


def sample_path(cfg, seed):
    """Sample a Brownian path on the half-step grid of cfg.

    ``seed`` may be an int or a tuple of ints; tuples are how callers
    derive independent per-trial streams from one base seed.
    """
    return _readonly(_path_values(_normals(seed, np.empty(2 * cfg.m)), cfg.h))


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


def _increments(values):
    """The increments of block i of paths' values along the last axis:
    the full block B((i+1)h) - B(ih) and its halves dB1 = B(t_i) - B(ih)
    and dB2 = B((i+1)h) - B(t_i).  Every module decodes a path here."""
    full = values[..., 2::2] - values[..., :-2:2]
    dB1 = values[..., 1::2] - values[..., :-2:2]
    dB2 = values[..., 2::2] - values[..., 1::2]
    return full, dB1, dB2
