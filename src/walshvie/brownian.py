"""Brownian paths sampled on the half-step grid.

A path at resolution m is a read-only 1-D float array of the 2m+1
values B(j*h/2), which is every block boundary and every collocation
midpoint; its length is the one source of m.  Its increments are the
first 2m normals of a counter-based generator (Philox) keyed by the
seed, times sqrt(h/2): identical seed and resolution reproduce the path
bit for bit and distinct keys give independent streams.  One key at m
and 2m shares its leading normals, so the 2m path on [0, 1/2] is the m
path scaled by 1/sqrt(2): neither an independent draw nor a refinement.
``convergence_study`` relies on this to draw each trial once.  Trial i
of a base seed is keyed (base, i); those keys are derived in bulk with
SeedSequence's own hash and give the same bits.
"""

import functools
import itertools

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


# SeedSequence's hash constants (numpy/random/bit_generator.pyx), and the
# number of trials whose keys are derived in one pass
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 1 << 32
_KEY_BLOCK = 1024


def _hashmix(const, mult):
    """SeedSequence's hashmix on uint32 arrays, whose constant is
    multiplied by ``mult`` at each call; array arithmetic wraps silently."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult % _WORD
        value = value * const
        return value ^ value >> 16

    return hashmix


@functools.lru_cache(maxsize=1)
def _key_block(base, block):
    """The (_KEY_BLOCK, 2) uint64 Philox keys
    SeedSequence((base, i)).generate_state(2, np.uint64) for the trials
    i // _KEY_BLOCK == block, with base and i in [0, 2^32): mix_entropy
    over a pool of 4 words, then generate_state, for all of them at once."""
    zero = np.zeros(_KEY_BLOCK, dtype=np.uint32)
    trials = np.arange(block * _KEY_BLOCK, (block + 1) * _KEY_BLOCK).astype(np.uint32)
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (zero + np.uint32(base), trials, zero, zero)]
    for src, dst in itertools.permutations(range(4), 2):
        mixed = pool[dst] * _MIX_MULT_L - hashmix(pool[src]) * _MIX_MULT_R
        pool[dst] = mixed ^ mixed >> 16
    words = [word.astype(np.uint64) for word in map(_hashmix(_INIT_B, _MULT_B), pool)]
    return _readonly(np.stack([words[0] | words[1] << 32, words[2] | words[3] << 32], axis=1))


def _normals(seed, out):
    """Fill ``out`` with the leading normals of the Philox stream keyed by
    ``seed``, an int or a tuple of ints."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).standard_normal(out=out)


def _trial_normals(seed):
    """The function draw(out, trials) that fills row k of ``out`` with the
    leading normals of the Philox stream keyed (seed, trials[k]), for a
    range of trials; one is made per study.  When seed and the trials lie
    in [0, 2^32), each key from _key_block is set into the one generator
    made here, in the state a seeded Philox starts in: Philox is
    counter-based, so the key alone fixes the stream (Salmon et al.,
    "Parallel random numbers: as easy as 1, 2, 3", SC 2011).  Other keys
    are built by SeedSequence, which refuses a negative one."""
    bits = np.random.Philox(0)
    generator, state = np.random.Generator(bits), bits.state

    def draw(out, trials):
        if isinstance(seed, (int, np.integer)) and 0 <= seed < _WORD and 0 <= trials.start and trials.stop <= _WORD:
            for row, trial in zip(out, trials):
                state["state"]["key"] = _key_block(seed, trial // _KEY_BLOCK)[trial % _KEY_BLOCK]
                bits.state = state
                generator.standard_normal(out=row)
        else:
            for row, trial in zip(out, trials):
                _normals((seed, trial), row)
        return out

    return draw


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
