"""Walsh and block pulse function basis on [0, 1).

Conventions used throughout the package:

* The dyadic grid has m = 2**k blocks [i*h, (i+1)*h) with h = 1/m, and
  collocation happens at the block midpoints t_j = (2j+1)/(2m).
* Rademacher functions r_i(t) = sgn(sin(2**i * pi * t)) are evaluated
  exactly from the dyadic position of t, never through floating sine.
* Walsh functions use the dyadic-product ordering: the binary digits of
  the index n select which Rademacher factors are multiplied.
* A function f is represented by its vector of block integrals
  F[i] = integral of f over block i, so the piecewise-constant
  reconstruction on block i is m * F[i].
"""

from dataclasses import dataclass
from numbers import Real

import numpy as np

# 5-point Gauss-Legendre rule on [-1, 1], weights normalised to sum to 1
# so that constants are integrated exactly in floating point.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)
_GL_WEIGHTS = _GL_WEIGHTS / _GL_WEIGHTS.sum()

# Largest temporary, in elements, of the in-place transforms (512 KB of
# float64): at m = 1024 the transforms then stay within about 1 MB of
# their m x m output.
_TEMP_ELEMENTS = 1 << 16


def _readonly(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BasisConfig:
    """Resolution of the dyadic grid: m = 2**k blocks of width h = 1/m."""

    k: int
    m: int
    h: float
    midpoints: np.ndarray

    @classmethod
    def from_exponent(cls, k):
        if k < 0 or k != int(k):
            raise ValueError(f"k must be a nonnegative integer, got {k!r}")
        k = int(k)
        m = 2**k
        mids = (2 * np.arange(m) + 1) / (2 * m)
        return cls(k=k, m=m, h=1.0 / m, midpoints=_readonly(mids))

    @classmethod
    def from_resolution(cls, m):
        if m < 1 or m & (m - 1):
            raise ValueError(f"m must be a power of two >= 1, got {m!r}")
        return cls.from_exponent(int(m).bit_length() - 1)


def rademacher(i, t):
    """Rademacher function r_i(t) = sgn(sin(2**i * pi * t)).

    Evaluated exactly: for i >= 1 the sign is +1 when floor(t * 2**i) is
    even, -1 when odd, and 0 at the dyadic breakpoints where the sine
    vanishes.  r_0 is identically 1.
    """
    if i < 0:
        raise ValueError(f"index must be nonnegative, got {i}")
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in [0, 1), got {t}")
    if i == 0:
        return 1
    u = t * (2.0**i)  # exact: scaling by a power of two
    n = int(np.floor(u))
    if u == n:
        return 0
    return 1 if n % 2 == 0 else -1


def walsh(n, t):
    """Walsh function w_n(t) in dyadic-product ordering.

    w_0 = 1 and, writing n in binary as sum of b_q * 2**(q-1), w_n is the
    product of r_q(t) over the set digits b_q.  At the midpoints of any
    grid refining level q the value is +1 or -1; at a dyadic breakpoint
    of level <= q the product vanishes along with its Rademacher factor.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in [0, 1), got {t}")
    out = 1
    q = 1
    while n:
        if n & 1:
            out *= rademacher(q, t)
        n >>= 1
        q += 1
    return out


def midpoint_floor_index(m, t):
    """Index j of the last collocation midpoint t_j <= t, clipped to 0.

    Midpoints are the odd multiples of h/2; for t below the first one
    the index 0 is returned.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in [0, 1), got {t}")
    u = int(t * (2 * m))
    if u % 2 == 0:
        u -= 1
    u = min(max(u, 1), 2 * m - 1)
    return (u - 1) // 2


def build_walsh_matrix(cfg):
    """Evaluate all m Walsh functions at the m midpoints of cfg.

    Returns the read-only (m, m) int64 matrix T with T[n][j] = w_n(t_j).
    Entries are +-1; T is symmetric and satisfies T @ T = m * I exactly
    in integer arithmetic.  The butterflies of the fast transform run in
    place on the bit-reversal permutation matrix, so T is the only m x m
    array made.
    """
    m = cfg.m
    T = np.zeros((m, m), dtype=np.int64)
    T[np.arange(m), _bit_reversal(m)] = 1
    _butterflies(T)
    return _readonly(T)


def fast_walsh_transform(a):
    """T @ a along the first axis, with T the Walsh matrix of m = len(a).

    T is the Sylvester-ordered Hadamard matrix with its columns in
    bit-reversed order, so a fast Walsh-Hadamard transform (Fino and
    Algazi, IEEE Trans. Comput. C-25, 1976) applies it in m log2(m)
    additions per column without forming T.  The result is a new array:
    one bit-reversed copy of a, on which the butterflies run in place.
    Integer input gives T @ a exactly; float input agrees with the dense
    product to rounding.
    """
    a = np.asarray(a)
    m = len(a)
    if m < 1 or m & (m - 1):
        raise ValueError(f"length must be a power of two >= 1, got {m}")
    y = a[_bit_reversal(m)].reshape(m, -1)
    _butterflies(y)
    return y.reshape(a.shape)


def _bit_reversal(m):
    rev = np.zeros(1, dtype=np.intp)
    while len(rev) < m:
        rev = np.concatenate([2 * rev, 2 * rev + 1])
    return rev


def _butterflies(y):
    """Run the butterflies of the fast transform in place on the columns
    of a C-contiguous (m, n) array whose rows are in bit-reversed order.

    Stage h maps each pair of rows (u, v), h apart, to (u + v, u - v).
    A slice of columns goes through every stage before the next slice,
    so it stays in cache, and the copy of u that a stage needs never
    exceeds about _TEMP_ELEMENTS elements (or m / 2).
    """
    m, n = y.shape
    step = max(1, _TEMP_ELEMENTS // max(1, m // 2))
    for c in range(0, n, step):
        h = 1
        while h < m:
            pairs = y.reshape(m // (2 * h), 2, h, n)
            top, bottom = pairs[:, 0, :, c : c + step], pairs[:, 1, :, c : c + step]
            old_top = top.copy()
            top += bottom
            np.subtract(old_top, bottom, out=bottom)
            h *= 2


def _eval_grid(f, x):
    """Evaluate a scalar-or-vectorised callable on an array of points."""
    try:
        vals = np.asarray(f(x), dtype=float)
        if vals.shape == x.shape:
            return vals
    except (TypeError, ValueError):
        pass
    flat = np.array([float(f(xi)) for xi in x.ravel()])
    return flat.reshape(x.shape)


def project_function(f, cfg):
    """Project f onto the block pulse basis by per-block quadrature.

    Returns the read-only block integrals F[i] = integral of f over
    block i, so the block-pulse reconstruction on block i is m * F[i].
    Each block integral uses the 5-point Gauss-Legendre rule, which is
    exact for polynomials up to degree 9 on the block.
    """
    m, h = cfg.m, cfg.h
    starts = np.arange(m) * h
    nodes = starts[:, None] + (_GL_NODES[None, :] + 1.0) * (h / 2.0)
    vals = _eval_grid(f, nodes)
    if not np.all(np.isfinite(vals)):
        raise ValueError("function evaluation produced a non-finite value at a quadrature node")
    return _readonly(h * (vals @ _GL_WEIGHTS))


def project_kernel(kernel, cfg):
    """Project a kernel k(s, t) onto the block pulse product basis.

    Returns the read-only (m, m) block integrals K[i][j] of k over the
    block rectangles, s in block i and t in block j, on the triangle
    i <= j that the Volterra integrals read; below it every entry is
    exactly +0.0.  ``kernel`` may be a plain number, in which case every
    entry of the triangle is exactly c * h**2, or a callable of (s, t)
    integrated with a 5x5 tensor Gauss-Legendre rule per block
    rectangle, called once per s-block i on node arrays that broadcast
    to (5, m - i, 5).
    """
    m, h = cfg.m, cfg.h
    if isinstance(kernel, Real):
        return _readonly(np.triu(np.full((m, m), float(kernel) * (h * h))))
    starts = np.arange(m) * h
    pts = starts[:, None] + (_GL_NODES[None, :] + 1.0) * (h / 2.0)  # (m, 5)
    entries = np.zeros((m, m))
    for i in range(m):
        shape = (5, m - i, 5)
        s_nodes, t_nodes = pts[i][:, None, None], pts[None, i:, :]
        try:
            kv = np.broadcast_to(np.asarray(kernel(s_nodes, t_nodes), dtype=float), shape)
        except (TypeError, ValueError):
            svals, tvals = np.broadcast_arrays(s_nodes, t_nodes)
            kv = np.array([kernel(sv, tv) for sv, tv in zip(svals.ravel(), tvals.ravel())], dtype=float)
            kv = kv.reshape(shape)
        if not np.all(np.isfinite(kv)):
            raise ValueError("kernel evaluation produced a non-finite value at a quadrature node")
        entries[i, i:] = (_GL_WEIGHTS @ kv.reshape(5, -1)).reshape(m - i, 5) @ _GL_WEIGHTS
    entries *= h * h
    return _readonly(entries)
