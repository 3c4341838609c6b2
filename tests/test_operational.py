"""Integration and stochastic operational matrices."""

import tracemalloc

import numpy as np
import pytest

from walshvie.brownian import _increments, sample_path
from walshvie.operational import (
    _upper_triangular_rows,
    _walsh_integration_nonzeros,
    _walsh_stochastic_rows,
    integration_matrix,
    stochastic_matrix,
    walsh_domain,
)
from walshvie.walsh import (
    BasisConfig,
    _bit_reversal,
    _butterflies,
    _walsh_rows,
    build_walsh_matrix,
    fast_walsh_transform,
)

POWERS = [2**k for k in range(13)]  # m = 1 ... 4096


def traced_peak(f, *args):
    """Peak bytes allocated while f(*args) runs."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def row_blocks(m):
    """Every split of m rows into blocks of one power-of-two size."""
    for size in 2 ** np.arange(m.bit_length()):
        yield [(r, r + size) for r in range(0, m, size)]


def assert_rows_have_bits(rows, want):
    """rows(start, stop) has the bits of want[start:stop] for every block split."""
    for blocks in row_blocks(len(want)):
        for start, stop in blocks:
            got = rows(start, stop)
            assert got.dtype == want.dtype and got.shape == (stop - start, len(want))
            assert np.array_equal(got.view(np.int64), want[start:stop].view(np.int64)), (start, stop)


def dense_walsh_matrix(m):
    """Reference: the dense construction the row builder replaced, the
    butterflies of the fast transform run in place on the bit-reversal
    permutation matrix."""
    T = np.zeros((m, m), dtype=np.int64)
    T[np.arange(m), _bit_reversal(m)] = 1
    _butterflies(T)
    return T


def dense_upper_triangular(m, above, diagonal):
    """Reference: the dense construction the row builder replaced, above
    copied through the mask j > i and the diagonal filled in after."""
    out = np.zeros((m, m))
    np.copyto(out, above, where=np.triu(np.ones((m, m), dtype=bool), 1))
    np.fill_diagonal(out, diagonal)
    return out


def dense_walsh_integration_matrix(m):
    """Reference: Chen and Hsiao's closed form, filled into one m x m array."""
    L = np.zeros((m, m))
    L[0, 0] = 0.5
    for k in 2 ** np.arange(m.bit_length() - 1):
        i = np.arange(k)
        L[i, k + i], L[k + i, i] = -0.25 / k, 0.25 / k
    return L


def walsh_integration_from_nonzeros(m):
    """Lambda filled in from the nonzeros of each of its rows."""
    L = np.zeros((m, m))
    for i in range(m):
        for column, value in _walsh_integration_nonzeros(m, i):
            L[i, column] = value
    return L


def diag_lift(v):
    """Reference: square diagonal matrix with the coefficient vector on the diagonal."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got shape {arr.shape}")
    return np.diag(arr)


def diag_extract(M):
    """Reference: diagonal of a square matrix as a fresh vector."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return np.diagonal(M).copy()


class TestIntegrationMatrix:
    def test_m1(self):
        P = integration_matrix(BasisConfig.from_resolution(1))
        assert P.shape == (1, 1)
        assert P[0, 0] == 0.5

    def test_m2(self):
        P = integration_matrix(BasisConfig.from_resolution(2))
        assert (P == np.array([[0.25, 0.5], [0.0, 0.25]])).all()

    @pytest.mark.parametrize("m", [1, 2, 4, 16, 128])
    def test_column_sums_are_midpoints(self, m):
        # dyadic values, so the sums come out exact
        cfg = BasisConfig.from_resolution(m)
        P = integration_matrix(cfg)
        assert (P.sum(axis=0) == cfg.midpoints).all()

    def test_strictly_upper_is_h(self):
        cfg = BasisConfig.from_resolution(8)
        P = integration_matrix(cfg)
        iu = np.triu_indices(8, 1)
        assert (P[iu] == cfg.h).all()
        assert (P[np.tril_indices(8, -1)] == 0.0).all()

    def test_cumulative_integral_identity(self):
        # for piecewise constant f with block values c, the represented
        # running integral m * (P^T F)[j] equals h*sum(c[:j]) + c[j]*h/2
        cfg = BasisConfig.from_resolution(8)
        P = integration_matrix(cfg)
        c = np.array([3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, -6.0])
        F = c * cfg.h
        represented = cfg.m * (P.T @ F)
        for j in range(8):
            direct = cfg.h * c[:j].sum() + c[j] * cfg.h / 2.0
            assert abs(represented[j] - direct) < 1e-15


class TestStochasticMatrix:
    def test_m2_entries(self):
        cfg = BasisConfig.from_resolution(2)
        path = sample_path(cfg, seed=123)
        v = path  # grid 0, 1/4, 1/2, 3/4, 1
        PS = stochastic_matrix(path)
        assert PS[0, 0] == v[1] - v[0]
        assert PS[0, 1] == v[2] - v[0]
        assert PS[1, 1] == v[3] - v[2]
        assert PS[1, 0] == 0.0

    @pytest.mark.parametrize("m", [2, 16, 64])
    def test_column_sums_telescope_to_path(self, m):
        cfg = BasisConfig.from_resolution(m)
        for seed in range(10):
            path = sample_path(cfg, seed=seed)
            PS = stochastic_matrix(path)
            sums = PS.sum(axis=0)
            mids = path[1::2]  # B(t_j)
            assert np.allclose(sums, mids, rtol=0, atol=1e-13)

    def test_zero_path_gives_zero_matrix(self):
        cfg = BasisConfig.from_resolution(16)
        PS = stochastic_matrix(np.zeros(2 * cfg.m + 1))
        assert (PS == 0.0).all()


class TestWalshDomain:
    def test_m2_integration(self):
        # (1/2) T P T with T = [[1,1],[1,-1]], hand multiplied
        cfg = BasisConfig.from_resolution(2)
        L = walsh_domain(integration_matrix(cfg))
        expected = np.array([[0.5, -0.25], [0.25, 0.0]])
        assert np.allclose(L, expected, rtol=0, atol=1e-15)

    def test_represents_same_operator(self):
        # conjugating the Walsh-domain operator back with T/m recovers P
        cfg = BasisConfig.from_resolution(16)
        T = build_walsh_matrix(cfg)
        P = integration_matrix(cfg)
        L = walsh_domain(P)
        # conjugating back must reproduce P
        back = T @ L @ T / cfg.m
        assert np.allclose(back, P, rtol=0, atol=1e-14)

    def test_double_transform_is_identity(self):
        cfg = BasisConfig.from_resolution(8)
        path = sample_path(cfg, seed=9)
        PS = stochastic_matrix(path)
        again = walsh_domain(walsh_domain(PS))
        assert np.allclose(again, PS, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 8, 64, 1024])
    def test_matches_dense_conjugation(self, m):
        # the fast transform against (1/m) T P_S T with the dense T
        cfg = BasisConfig.from_resolution(m)
        T = build_walsh_matrix(cfg).astype(float)
        PS = stochastic_matrix(sample_path(cfg, seed=m))
        assert np.allclose(walsh_domain(PS), T @ PS @ T / m, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 64, 1024])
    def test_same_bits_as_two_full_transforms(self, m):
        # the row pass in place, chunk by chunk, and the division in place
        # give the bits of transforming the whole matrix twice
        cfg = BasisConfig.from_resolution(m)
        for M in (integration_matrix(cfg), stochastic_matrix(sample_path(cfg, seed=m))):
            want = fast_walsh_transform(fast_walsh_transform(M).T).T / m
            assert walsh_domain(M).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [2**k for k in range(12)])
    def test_closed_form_of_the_integration_matrix(self, m):
        # Chen and Hsiao's closed form has the transform's bits, signed
        # zeros included
        cfg = BasisConfig.from_resolution(m)
        want = walsh_domain(integration_matrix(cfg))
        got = walsh_integration_from_nonzeros(m)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_shape_mismatch_rejected(self):
        # only a power-of-two size has a Walsh matrix
        with pytest.raises(ValueError):
            walsh_domain(np.eye(6))


class TestRowBuilders:
    # Each matrix is built from O(m) data by one row builder; over all
    # rows and over every block split it has the bits of the dense
    # construction it replaced, signed zeros included.

    @pytest.mark.parametrize("m", POWERS)
    def test_walsh_matrix(self, m):
        want = dense_walsh_matrix(m)
        got = build_walsh_matrix(BasisConfig.from_resolution(m))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        del got
        assert_rows_have_bits(lambda start, stop: _walsh_rows(m, start, stop), want)

    @pytest.mark.parametrize("m", POWERS)
    def test_integration_matrix(self, m):
        cfg = BasisConfig.from_resolution(m)
        want = dense_upper_triangular(m, cfg.h, cfg.h / 2.0)
        assert integration_matrix(cfg).tobytes() == want.tobytes()
        assert_rows_have_bits(
            lambda start, stop: _upper_triangular_rows(np.full(m, cfg.h), np.full(m, cfg.h / 2.0), start, stop), want
        )

    @pytest.mark.parametrize("m", POWERS[:11])
    def test_stochastic_matrix(self, m):
        path = sample_path(BasisConfig.from_resolution(m), seed=m)
        full, half, _ = _increments(path)
        want = dense_upper_triangular(m, full[:, None], half)
        assert stochastic_matrix(path).tobytes() == want.tobytes()
        assert_rows_have_bits(lambda start, stop: _upper_triangular_rows(full, half, start, stop), want)

    @pytest.mark.parametrize("m", POWERS)
    def test_walsh_integration_matrix(self, m):
        # the nonzeros of each row, in column order, fill in the closed form
        want = dense_walsh_integration_matrix(m)
        for i in range(m):
            columns = [column for column, _ in _walsh_integration_nonzeros(m, i)]
            assert columns == sorted(set(columns)), i
        assert walsh_integration_from_nonzeros(m).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", POWERS[:11])
    def test_walsh_stochastic_rows(self, m):
        # D_a L_U + D_b sums in another order than the two transforms, so
        # it agrees to rounding; its blocks have the bits of its full build
        for seed in (m, m + 1):
            path = sample_path(BasisConfig.from_resolution(m), seed=seed)
            rows = _walsh_stochastic_rows(path)
            want = walsh_domain(stochastic_matrix(path))
            got = rows(0, m)
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want).max())
            assert_rows_have_bits(rows, got)


class TestMemory:
    # At m = 1024 an m x m float64 output alone is 8 MB; each builder
    # makes no other full-size array.
    LIMIT = 10 * 2**20

    def test_integration_matrix(self):
        assert traced_peak(integration_matrix, BasisConfig.from_resolution(1024)) < self.LIMIT

    def test_stochastic_matrix(self):
        path = sample_path(BasisConfig.from_resolution(1024), seed=1)
        assert traced_peak(stochastic_matrix, path) < self.LIMIT

    def test_walsh_domain(self):
        PS = stochastic_matrix(sample_path(BasisConfig.from_resolution(1024), seed=1))
        assert traced_peak(walsh_domain, PS) < self.LIMIT


class TestDiagHelpers:
    def test_lift_extract_roundtrip(self):
        v = np.array([1.5, -2.0, 0.25])
        assert (diag_extract(diag_lift(v)) == v).all()

    def test_lift_shape(self):
        M = diag_lift([1.0, 2.0])
        assert M.shape == (2, 2)
        assert M[0, 1] == 0.0

    def test_extract_is_a_copy(self):
        M = np.eye(3)
        d = diag_extract(M)
        d[0] = 5.0
        assert M[0, 0] == 1.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            diag_lift(np.eye(2))
        with pytest.raises(ValueError):
            diag_extract(np.ones((2, 3)))
