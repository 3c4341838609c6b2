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

from .brownian import _increments, _path_resolution
from .walsh import _TEMP_ELEMENTS, _readonly, _resolution, fast_walsh_transform


def _upper_triangular(above, diagonal):
    """The read-only m x m upper triangular matrix with diagonal[i] on the
    diagonal of row i, above[i] right of it and +0.0 left of it,
    m = len(diagonal)."""
    m = len(diagonal)
    out = np.zeros((m, m))
    for i, value in enumerate(above.tolist()):
        out[i, i + 1 :] = value
    np.fill_diagonal(out, diagonal)
    return _readonly(out)


def _grid_path(m):
    """The path B(t) = t at the 2m + 1 points k h / 2 of resolution m."""
    return np.arange(2 * m + 1) / (2 * m)


def integration_matrix(m):
    """Upper triangular matrix P: h/2 on the diagonal, h above it.

    P is P_S of the path B(t) = t, whose dyadic values have increments
    of exactly h and h/2.  Column j sums to the midpoint t_j, so
    integrating the constant 1 up to a midpoint is exact.
    """
    return stochastic_matrix(_grid_path(_resolution(m)))


def stochastic_matrix(path):
    """Stochastic counterpart P_S of P for one sampled Brownian path.

    The resolution m is the path's, and must be a power of two.  Above
    the diagonal, entry (i, j) is the full-block increment
    B((i+1)h) - B(ih); on the diagonal it is the half-block increment
    B(t_j) - B(jh).  Column j telescopes to B(t_j).  Paired with
    midpoint values of the integrand it gives the Stratonovich, not the
    Ito, integral.
    """
    _path_resolution(path)  # checks that path is a sampled path
    return _upper_triangular(*_increments(path)[:2])


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


def _walsh_integration_nonzeros(m, i):
    """The nonzeros of row i of ``walsh_domain(integration_matrix(m))``
    at resolution m, as (column, value) pairs in column order, from its
    closed form (Chen and Hsiao, Proc. IEE 122, 1975): 1/2 at (0, 0),
    1/(4k) at (i, i - k) for k the highest power of two <= i, and
    -1/(4k) at (i, i + k) for each power of two k with i < k < m.  Every
    other entry is +0.0."""
    k = 1 << i.bit_length() >> 1
    first = (i - k, 0.25 / k) if k else (0, 0.5)
    return [first] + [(i + (1 << b), -0.25 / (1 << b)) for b in range(i.bit_length(), m.bit_length() - 1)]


def _walsh_stochastic_rows(path):
    """The row builder of ``walsh_domain(stochastic_matrix(path))``:
    rows(start, stop) returns rows start..stop-1, O(m) work each, after
    two fast transforms of length m.

    P_S = diag(dB) U + diag(dB1) with U the strictly upper ones, so the
    Walsh form is D_a L_U + D_b with a = T dB / m and b = T dB1 / m,
    where D_v[p, q] = v[p ^ q] because Walsh functions multiply by XOR
    of their indices (Fine, Trans. AMS 65, 1949).  L_U = m * Lambda - I/2
    has, in column c, a diagonal term, one term above (row c - k for the
    highest bit k of c) and one below (row c + k) for each power of two
    k > c.
    """
    m = _path_resolution(path)
    a, b = fast_walsh_transform(np.column_stack(_increments(path)[:2])).T / m
    c = np.arange(m)
    diagonal = np.full(m, -0.5)
    diagonal[0] = (m - 1) / 2.0

    def rows(start, stop):
        p = np.arange(start, stop)[:, None]
        pc = p ^ c
        A = a[pc]
        out = A * diagonal
        for k in 2 ** np.arange(m.bit_length() - 1):
            # the term above reaches the columns of highest bit k before
            # any term below them, which comes from a larger k
            out[:, k : 2 * k] += A[:, :k] * (-m / (4.0 * k))
            out[:, :k] += A[:, k : 2 * k] * (m / (4.0 * k))
        out += b[pc]
        return out

    return rows
