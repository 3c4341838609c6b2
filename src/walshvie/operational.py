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

from .brownian import _path_config
from .walsh import _TEMP_ELEMENTS, _readonly, fast_walsh_transform


def _upper_triangular(m, above, diagonal):
    # the mask j > i is a view of 2m booleans: np.triu's m x m mask left holes in the heap
    out = np.zeros((m, m))
    np.copyto(out, above, where=np.lib.stride_tricks.sliding_window_view(np.arange(2 * m) >= m, m)[m - 1 :: -1])
    np.fill_diagonal(out, diagonal)
    return _readonly(out)


def integration_matrix(cfg):
    """Upper triangular matrix P: h/2 on the diagonal, h above it.

    Column j sums to the midpoint t_j, so integrating the constant 1
    up to a midpoint is exact.
    """
    m, h = cfg.m, cfg.h
    return _upper_triangular(m, h, h / 2.0)


def stochastic_matrix(path):
    """Stochastic counterpart P_S of P for one sampled Brownian path.

    The resolution m is the path's, and must be a power of two.  Above
    the diagonal, entry (i, j) is the full-block increment
    B((i+1)h) - B(ih); on the diagonal it is the half-block increment
    B(t_j) - B(jh).  Column j telescopes to B(t_j).  Paired with
    midpoint values of the integrand it gives the Stratonovich, not the
    Ito, integral.
    """
    m = _path_config(path).m
    full = path[2::2] - path[:-2:2]  # B((i+1)h) - B(ih)
    half = path[1::2] - path[:-2:2]  # B(t_j) - B(jh)
    return _upper_triangular(m, full[:, None], half)


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


def _walsh_integration_matrix(cfg):
    """``walsh_domain(integration_matrix(cfg))`` from its closed form
    (Chen and Hsiao, Proc. IEE 122, 1975), without transforms: 1/2 at
    (0, 0), -1/(4k) at (i, k + i) and 1/(4k) at (k + i, i) for each
    k = 2**l < m and i < k, and +0.0 elsewhere."""
    L = np.zeros((cfg.m, cfg.m))
    L[0, 0] = 0.5
    for k in 2 ** np.arange(cfg.m.bit_length() - 1):
        i = np.arange(k)
        L[i, k + i], L[k + i, i] = -0.25 / k, 0.25 / k
    return L
