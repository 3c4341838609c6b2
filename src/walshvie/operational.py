"""Operational matrices for block pulse integration.

Both matrices act on block-integral coefficient vectors: if F represents
f, then F @ P represents the running integral of f evaluated at the
block midpoints, and F @ P_S does the same for the stochastic integral
against a sampled Brownian path.  Both are returned as read-only (m, m)
arrays.

P_S is the paper's pairing of each block's Brownian increment with the
integrand's block value, which for an integrand collocated at the block
midpoints converges to the Stratonovich integral, not the Ito integral
(Wong and Zakai, Ann. Math. Stat. 36, 1965).  The solver adds the
Ito-Taylor correction on top of it; see ``walshvie.solver``.
"""

import numpy as np

from .walsh import _TEMP_ELEMENTS, BasisConfig, _readonly, fast_walsh_transform


def integration_matrix(cfg):
    """Upper triangular matrix P: h/2 on the diagonal, h above it.

    Column j sums to the midpoint t_j, so integrating the constant 1
    up to a midpoint is exact.
    """
    m, h = cfg.m, cfg.h
    P = np.zeros((m, m))
    for i in range(m):
        P[i, i + 1 :] = h
    np.fill_diagonal(P, h / 2.0)
    return _readonly(P)


def stochastic_matrix(path):
    """Stochastic counterpart P_S of P for one sampled Brownian path.

    The resolution m is the path's, and must be a power of two.  Above
    the diagonal, entry (i, j) is the full-block increment
    B((i+1)h) - B(ih); on the diagonal it is the half-block increment
    B(t_j) - B(jh).  Column j telescopes to B(t_j).  Paired with
    midpoint values of the integrand it gives the Stratonovich, not the
    Ito, integral.
    """
    m = BasisConfig.from_resolution(path.m).m
    v = path.values
    full = v[2::2] - v[:-2:2]  # B((i+1)h) - B(ih)
    half = v[1::2] - v[:-2:2]  # B(t_j) - B(jh)
    PS = np.zeros((m, m))
    for i in range(m):
        PS[i, i + 1 :] = full[i]
    np.fill_diagonal(PS, half)
    return _readonly(PS)


def walsh_domain(M):
    """Conjugate an (m, m) block pulse operator into the Walsh domain.

    Returns (1/m) * T_W @ M @ T_W, computed with the fast transform.
    Applying it twice gives back M, since T_W is its own inverse up to
    the factor m.  The result is the one m x m array made: T_W @ M,
    whose rows are then transformed in place a few at a time and
    divided by m.
    """
    W = fast_walsh_transform(np.asarray(M, dtype=float))
    rows = max(1, _TEMP_ELEMENTS // W.shape[1])
    for r in range(0, len(W), rows):
        W[r : r + rows] = fast_walsh_transform(W[r : r + rows].T).T
    W /= len(W)
    return W
