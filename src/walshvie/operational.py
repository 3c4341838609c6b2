"""Operational matrices for block pulse integration.

Both matrices act on block-integral coefficient vectors: if F represents
f, then F @ P represents the running integral of f evaluated at the
block midpoints, and F @ P_S does the same for the Ito integral against
a sampled Brownian path.  Both are returned as read-only (m, m) arrays.
"""

import numpy as np

from .walsh import BasisConfig, _readonly, fast_walsh_transform


def integration_matrix(cfg):
    """Upper triangular matrix P: h/2 on the diagonal, h above it.

    Column j sums to the midpoint t_j, so integrating the constant 1
    up to a midpoint is exact.
    """
    m, h = cfg.m, cfg.h
    P = np.triu(np.full((m, m), h), 1)
    np.fill_diagonal(P, h / 2.0)
    return _readonly(P)


def stochastic_matrix(path):
    """Stochastic counterpart P_S of P for one sampled Brownian path.

    The resolution m is the path's, and must be a power of two.  Above
    the diagonal, entry (i, j) is the full-block increment
    B((i+1)h) - B(ih); on the diagonal it is the half-block increment
    B(t_j) - B(jh).  Column j telescopes to B(t_j).
    """
    m = BasisConfig.from_resolution(path.m).m
    v = path.values
    full = v[2::2] - v[:-2:2]  # B((i+1)h) - B(ih)
    half = v[1::2] - v[:-2:2]  # B(t_j) - B(jh)
    PS = np.triu(np.repeat(full[:, None], m, axis=1), 1)
    np.fill_diagonal(PS, half)
    return _readonly(PS)


def walsh_domain(M):
    """Conjugate an (m, m) block pulse operator into the Walsh domain.

    Returns (1/m) * T_W @ M @ T_W, computed with the fast transform.
    Applying it twice gives back M, since T_W is its own inverse up to
    the factor m.
    """
    M = np.asarray(M, dtype=float)
    return fast_walsh_transform(fast_walsh_transform(M).T).T / len(M)
