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

    m: int
    h: float
    midpoints: np.ndarray

    @classmethod
    def from_resolution(cls, m):
        if m < 1 or m & (m - 1):
            raise ValueError(f"m must be a power of two >= 1, got {m!r}")
        m = int(m)
        mids = (2 * np.arange(m) + 1) / (2 * m)
        return cls(m=m, h=1.0 / m, midpoints=_readonly(mids))


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


def midpoint_floor_index(m, t):
    """Index j of the last collocation midpoint t_j <= t, clipped to 0,
    as an int for one time t and as an array for an array of times."""
    times = np.asarray(t, dtype=float)
    if not np.all((0.0 <= times) & (times < 1.0)):
        raise ValueError(f"t must lie in [0, 1), got {t}")
    j = np.maximum((np.floor(times * (2 * m)).astype(np.intp) - 1) // 2, 0)
    return int(j) if j.ndim == 0 else j


def build_walsh_matrix(cfg):
    """Evaluate all m Walsh functions at the m midpoints of cfg.

    Returns the read-only (m, m) int64 matrix T with T[n][j] = w_n(t_j).
    Entries are +-1; T is symmetric and satisfies T @ T = m * I exactly
    in integer arithmetic.
    """
    return _readonly(_walsh_rows(cfg.m, 0, cfg.m))


def _walsh_rows(m, start, stop):
    """Rows start..stop-1 of the Walsh matrix of m, as a new int64 array.

    T is Sylvester's Hadamard matrix with bit-reversed columns, so
    T[n][j] = (-1)**parity(n & rev(j)); the parity of the log2(m) bits
    is xor-folded into bit 0, a chunk of about _TEMP_ELEMENTS entries
    at a time so that the shifted copies stay small.
    """
    x = np.arange(start, stop, dtype=np.int64)[:, None] & _bit_reversal(m)
    rows = max(1, _TEMP_ELEMENTS // m)
    for r in range(0, len(x), rows):
        chunk = x[r : r + rows]
        shift = 1
        while shift < m.bit_length() - 1:
            chunk ^= chunk >> shift
            shift *= 2
    x &= 1
    x *= -2
    x += 1
    return x


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


def _eval_grid(f, name, *args):
    """f(*args) as floats of the shape the arguments broadcast to; a
    number f is a constant function.

    f must take numpy arrays.  One that raises TypeError or ValueError
    on them, or returns values that do not broadcast to that shape, is
    a TypeError naming ``name``; it is never retried point by point.
    """
    shape = np.broadcast(*args).shape
    if isinstance(f, Real):
        return np.full(shape, float(f))
    try:
        vals = np.asarray(f(*args), dtype=float)
        return vals if vals.shape == shape else np.broadcast_to(vals, shape)
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"{name} must take numpy arrays and return values of their broadcast shape: {exc}"
        ) from exc


def _quadrature_nodes(cfg):
    """The (m, 5) Gauss-Legendre nodes of every block."""
    starts = np.arange(cfg.m) * cfg.h
    return starts[:, None] + (_GL_NODES[None, :] + 1.0) * (cfg.h / 2.0)


def _kernel_row(kernel, name, pts, i):
    """The block integrals of a callable kernel over s in block i and t
    in blocks i..m-1, divided by h**2, from one call on node arrays that
    broadcast to (5, m - i, 5)."""
    m = len(pts)
    with np.errstate(all="ignore"):
        kv = _eval_grid(kernel, name, pts[i][:, None, None], pts[None, i:, :])
    if not np.all(np.isfinite(kv)):
        raise ValueError(f"{name} evaluation produced a non-finite value at a quadrature node")
    return (_GL_WEIGHTS @ kv.reshape(5, -1)).reshape(m - i, 5) @ _GL_WEIGHTS


def project_kernel(kernel, cfg, name="kernel"):
    """Project a kernel k(s, t) onto the block pulse product basis.

    Returns the read-only (m, m) block integrals K[i][j] of k over the
    block rectangles, s in block i and t in block j, on the triangle
    i <= j that the Volterra integrals read; below it every entry is
    exactly +0.0.  ``kernel`` may be a plain number, in which case every
    entry of the triangle is exactly c * h**2, or a callable of (s, t)
    integrated with a 5x5 tensor Gauss-Legendre rule per block
    rectangle, called once per s-block i on node arrays that broadcast
    to (5, m - i, 5).  A callable must take numpy arrays; one that does
    not is a TypeError naming ``name``.
    """
    m, h = cfg.m, cfg.h
    if isinstance(kernel, Real):
        return _readonly(np.triu(np.full((m, m), float(kernel) * (h * h))))
    pts = _quadrature_nodes(cfg)
    entries = np.zeros((m, m))
    for i in range(m):
        entries[i, i:] = _kernel_row(kernel, name, pts, i)
    entries *= h * h
    return _readonly(entries)


def _project_lag_row(kernel, cfg, name):
    """Row 0 of ``project_kernel`` for a kernel of t - s alone, whose
    projection is Toeplitz: K[i][i + d] = row[d] up to how t - s rounds
    at each position.  25 m kernel values instead of about 12.5 m**2,
    and no m x m array.  Returns a new writable array."""
    return _kernel_row(kernel, name, _quadrature_nodes(cfg), 0) * (cfg.h * cfg.h)
