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
    in integer arithmetic.  Row n is built as row (n with lowest bit
    cleared) times the matching Rademacher row, which is exactly the
    product in the definition of w_n but shares work across rows.
    """
    m, k = cfg.m, cfg.k
    rad = np.empty((k, m), dtype=np.int64)
    for q in range(1, k + 1):
        rad[q - 1] = [rademacher(q, t) for t in cfg.midpoints]
    T = np.empty((m, m), dtype=np.int64)
    T[0] = 1
    for n in range(1, m):
        low = n & -n
        T[n] = T[n ^ low] * rad[low.bit_length() - 1]
    return _readonly(T)


def fast_walsh_transform(a):
    """T @ a along the first axis, with T the Walsh matrix of m = len(a).

    T is the Sylvester-ordered Hadamard matrix with its columns in
    bit-reversed order, so a fast Walsh-Hadamard transform (Fino and
    Algazi, IEEE Trans. Comput. C-25, 1976) applies it in m log2(m)
    additions per column without forming T.  Integer input gives T @ a
    exactly; float input agrees with the dense product to rounding.
    """
    a = np.asarray(a)
    m = len(a)
    if m < 1 or m & (m - 1):
        raise ValueError(f"length must be a power of two >= 1, got {m}")
    rev = np.zeros(1, dtype=np.intp)
    while len(rev) < m:
        rev = np.concatenate([2 * rev, 2 * rev + 1])
    y = a[rev]
    h = 1
    while h < m:
        y = y.reshape(m // (2 * h), 2, h, -1)
        y = np.stack([y[:, 0] + y[:, 1], y[:, 0] - y[:, 1]], axis=1)
        h *= 2
    return y.reshape(a.shape)


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
    block rectangles, s in block i and t in block j.  ``kernel`` may be
    a plain number, in which case every entry is exactly c * h**2, or a
    callable of (s, t) integrated with a 5x5 tensor Gauss-Legendre rule
    per block rectangle.
    """
    m, h = cfg.m, cfg.h
    if isinstance(kernel, Real):
        cell = float(kernel) * (h * h)
        return _readonly(np.full((m, m), cell))
    starts = np.arange(m) * h
    pts = starts[:, None] + (_GL_NODES[None, :] + 1.0) * (h / 2.0)  # (m, 5)
    entries = np.empty((m, m))
    t_nodes = pts[None, :, :]  # broadcast over the s axis of one row
    for i in range(m):
        s_nodes = pts[i][:, None, None]
        svals = np.broadcast_to(s_nodes, (5, m, 5))
        tvals = np.broadcast_to(t_nodes, (5, m, 5))
        try:
            kv = np.asarray(kernel(svals, tvals), dtype=float)
            if kv.shape != (5, m, 5):
                raise ValueError
        except (TypeError, ValueError):
            kv = np.array(
                [kernel(sv, tv) for sv, tv in zip(svals.ravel(), tvals.ravel())],
                dtype=float,
            ).reshape(5, m, 5)
        if not np.all(np.isfinite(kv)):
            raise ValueError("kernel evaluation produced a non-finite value at a quadrature node")
        entries[i] = h * h * np.einsum("a,ajb,b->j", _GL_WEIGHTS, kv, _GL_WEIGHTS)
    return _readonly(entries)
