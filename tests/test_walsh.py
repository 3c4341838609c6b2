"""Walsh basis, projections, and the midpoint grid."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshvie.walsh import (
    BasisConfig,
    build_walsh_matrix,
    fast_walsh_transform,
    midpoint_floor_index,
    project_function,
    project_kernel,
    rademacher,
    walsh,
)


class TestBasisConfig:
    def test_from_resolution(self):
        cfg = BasisConfig.from_resolution(8)
        assert cfg.k == 3
        assert cfg.m == 8
        assert cfg.h == 0.125
        assert cfg.midpoints[0] == 1 / 16
        assert cfg.midpoints[-1] == 15 / 16

    def test_midpoints_exact_dyadic(self):
        # (2j+1)/(2m) is exactly representable, no accumulation error
        cfg = BasisConfig.from_resolution(64)
        for j in range(64):
            assert cfg.midpoints[j] == (2 * j + 1) / 128

    @pytest.mark.parametrize("bad", [0, 3, 6, 12, -4])
    def test_rejects_non_powers(self, bad):
        with pytest.raises(ValueError):
            BasisConfig.from_resolution(bad)


class TestRademacher:
    def test_r0_is_one(self):
        assert rademacher(0, 0.0) == 1
        assert rademacher(0, 0.7) == 1

    def test_hand_values(self):
        # r_1 flips at 1/2, r_2 at quarters
        assert rademacher(1, 0.25) == 1
        assert rademacher(1, 0.75) == -1
        assert rademacher(2, 0.3) == -1
        assert rademacher(2, 0.6) == 1

    def test_zero_at_breakpoints(self):
        assert rademacher(1, 0.5) == 0
        assert rademacher(2, 0.75) == 0
        assert rademacher(3, 0.125) == 0

    def test_matches_sine_sign(self):
        # same sign as sgn(sin(2^i pi t)) away from breakpoints
        rng = np.random.default_rng(0)
        for t in rng.uniform(0.001, 0.999, 200):
            for i in range(1, 6):
                s = math.sin(2**i * math.pi * t)
                if abs(s) > 1e-9:
                    assert rademacher(i, t) == (1 if s > 0 else -1)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            rademacher(1, 1.0)
        with pytest.raises(ValueError):
            rademacher(-1, 0.5)


class TestWalsh:
    def test_hand_values(self):
        assert walsh(0, 0.3) == 1
        assert walsh(3, 0.125) == 1  # r_1 * r_2, both +1 there
        assert walsh(2, 0.375) == -1

    def test_product_structure(self):
        # w_5 = r_1 * r_3
        for t in (0.1, 0.3, 0.55, 0.9):
            assert walsh(5, t) == rademacher(1, t) * rademacher(3, t)


class TestWalshMatrix:
    def test_m4_entries(self):
        T = build_walsh_matrix(BasisConfig.from_resolution(4))
        expected = np.array(
            [
                [1, 1, 1, 1],
                [1, 1, -1, -1],
                [1, -1, 1, -1],
                [1, -1, -1, 1],
            ]
        )
        assert (T == expected).all()

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32, 64, 128, 256])
    def test_involution_and_symmetry(self, m):
        T = build_walsh_matrix(BasisConfig.from_resolution(m))
        assert T.dtype == np.int64
        assert (T == T.T).all()
        assert (T @ T == m * np.eye(m, dtype=np.int64)).all()

    @pytest.mark.parametrize("m", [2, 8, 32])
    def test_orthonormality(self, m):
        # (1/m) sum_j w_i(t_j) w_l(t_j) = delta_il, exact in ints
        T = build_walsh_matrix(BasisConfig.from_resolution(m))
        gram = T @ T.T
        assert (gram == m * np.eye(m, dtype=np.int64)).all()

    @pytest.mark.parametrize("m", [2**k for k in range(11)])
    def test_fast_transform_is_exact(self, m):
        # integer input: the butterflies reproduce T @ a bit for bit
        T = build_walsh_matrix(BasisConfig.from_resolution(m))
        a = np.random.default_rng(m).integers(-1000, 1000, size=(m, 3))
        assert np.array_equal(fast_walsh_transform(a), T @ a)
        assert np.array_equal(fast_walsh_transform(a[:, 0]), T @ a[:, 0])

    @pytest.mark.parametrize("m", [0, 3, 6, 12])
    def test_fast_transform_rejects_non_powers(self, m):
        with pytest.raises(ValueError):
            fast_walsh_transform(np.ones(m))

    def test_rows_match_scalar_walsh(self):
        cfg = BasisConfig.from_resolution(16)
        T = build_walsh_matrix(cfg)
        for n in (0, 1, 5, 10, 15):
            row = [walsh(n, t) for t in cfg.midpoints]
            assert (T[n] == row).all()


class TestProjection:
    def test_constant(self):
        cfg = BasisConfig.from_resolution(8)
        F = project_function(lambda t: 1.0, cfg)
        assert np.allclose(F, cfg.h, rtol=0, atol=1e-16)

    def test_linear(self):
        # integral of t over [0, 1/2) and [1/2, 1)
        cfg = BasisConfig.from_resolution(2)
        F = project_function(lambda t: t, cfg)
        assert abs(F[0] - 0.125) < 1e-15
        assert abs(F[1] - 0.375) < 1e-15

    def test_reconstruction_scale(self):
        cfg = BasisConfig.from_resolution(16)
        F = project_function(lambda t: 3.25, cfg)
        assert np.allclose(cfg.m * F, 3.25, rtol=0, atol=1e-12)

    def test_quadrature_degree(self):
        # 5-point Gauss is exact for degree 9
        cfg = BasisConfig.from_resolution(4)
        F = project_function(lambda t: t**9, cfg)
        edges = np.arange(5) / 4
        exact = (edges[1:] ** 10 - edges[:-1] ** 10) / 10
        assert np.allclose(F, exact, rtol=1e-13, atol=1e-18)

    def test_rejects_non_finite(self):
        cfg = BasisConfig.from_resolution(4)
        with pytest.raises(ValueError):
            project_function(lambda t: np.full_like(t, np.inf), cfg)

    def test_parseval_piecewise_constant(self):
        # coefficients (1/m) T v: sum of squares = mean of squares, exact
        cfg = BasisConfig.from_resolution(8)
        T = build_walsh_matrix(cfg)
        v = np.array([3, -1, 4, 1, -5, 9, 2, -6])
        coeffs = T @ v  # m times the true coefficients
        assert (coeffs @ coeffs) == cfg.m * (v @ v)


class TestKernelProjection:
    def test_constant_fast_path(self):
        cfg = BasisConfig.from_resolution(16)
        c = -((1 / 30) ** 2) / 2
        K = project_kernel(c, cfg)
        assert (K == c * cfg.h * cfg.h).all()

    def test_separable_product(self):
        # k(s,t) = s*t over [0,1/2)^2 integrates to (1/8)^2
        cfg = BasisConfig.from_resolution(2)
        K = project_kernel(lambda s, t: s * t, cfg)
        assert abs(K[0, 0] - 0.015625) < 1e-15
        assert abs(K[1, 1] - 0.375**2) < 1e-15

    def test_matches_function_projection_on_slices(self):
        # integrating k(s,t)=exp(s-t) over a block rectangle factorises
        cfg = BasisConfig.from_resolution(4)
        K = project_kernel(lambda s, t: np.exp(s - t), cfg)
        Fs = project_function(np.exp, cfg)
        Ft = project_function(lambda t: np.exp(-t), cfg)
        assert np.allclose(K, np.outer(Fs, Ft), rtol=1e-12, atol=0)

    def test_scalar_only_kernel_falls_back(self):
        cfg = BasisConfig.from_resolution(2)

        def k(s, t):
            if not np.isscalar(s) and not isinstance(s, float):
                raise TypeError("scalars only")
            return float(s) + float(t)

        K = project_kernel(k, cfg)
        Kv = project_kernel(lambda s, t: s + t, cfg)
        assert np.allclose(K, Kv, rtol=0, atol=1e-15)


class TestMidpointFloorIndex:
    def test_at_midpoints(self):
        cfg = BasisConfig.from_resolution(16)
        for j, t in enumerate(cfg.midpoints):
            assert midpoint_floor_index(16, t) == j

    def test_report_times(self):
        # t=0.9 at m=16: midpoints 27/32 <= 0.9 < 29/32
        assert midpoint_floor_index(16, 0.9) == 13
        assert midpoint_floor_index(16, 0.1) == 1
        assert midpoint_floor_index(16, 0.5) == 7

    def test_clips_below_first_midpoint(self):
        assert midpoint_floor_index(4, 0.0) == 0
        assert midpoint_floor_index(4, 0.1) == 0

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @settings(max_examples=200)
    def test_is_floor(self, t):
        m = 32
        mids = (2 * np.arange(m) + 1) / (2 * m)
        j = midpoint_floor_index(m, t)
        assert 0 <= j < m
        if t >= mids[0]:
            assert mids[j] <= t
        if j + 1 < m:
            assert t < mids[j + 1]


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0))
@settings(max_examples=60)
def test_matrix_rows_equal_scalar_definition(k, n):
    cfg = BasisConfig.from_exponent(k)
    n = n % cfg.m
    T = build_walsh_matrix(cfg)
    assert (T[n] == [walsh(n, t) for t in cfg.midpoints]).all()


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=8, max_size=8),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=8, max_size=8),
)
@settings(max_examples=50)
def test_transform_preserves_integer_inner_products(u, v):
    # <Tu, Tv> = m <u, v>, the polarised form of Parseval
    T = build_walsh_matrix(BasisConfig.from_resolution(8))
    u = np.array(u)
    v = np.array(v)
    assert (T @ u) @ (T @ v) == 8 * (u @ v)
