"""Walsh basis, projections, and the midpoint grid."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshvie.expressions import compile_expression
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


def walsh_matrix_by_definition(m):
    """T[n][j] = w_n(t_j) as the product of the Rademacher rows r_q(t_j)
    over the set bits of n, each entry from scalar ``rademacher``."""
    cfg = BasisConfig.from_resolution(m)
    T = np.ones((m, m), dtype=np.int64)
    for q in range(1, cfg.k + 1):
        row = np.array([rademacher(q, t) for t in cfg.midpoints], dtype=np.int64)
        T[(np.arange(m) >> (q - 1)) & 1 == 1] *= row
    return T


def fast_walsh_transform_by_stack(a):
    """Reference: the out-of-place fast transform, one bit-reversed copy
    and then a new np.stack of (u + v, u - v) per butterfly stage."""
    a = np.asarray(a)
    m = len(a)
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


def project_kernel_square(kernel, cfg):
    """Reference: the block integrals of k over every block rectangle of
    the m x m square, each row from one call on full (5, m, 5) node
    arrays (or one node at a time for a scalar-only kernel) reduced by
    one three-operand einsum."""
    m, h = cfg.m, cfg.h
    nodes, weights = np.polynomial.legendre.leggauss(5)
    weights = weights / weights.sum()
    pts = (np.arange(m) * h)[:, None] + (nodes[None, :] + 1.0) * (h / 2.0)
    entries = np.empty((m, m))
    for i in range(m):
        svals = np.broadcast_to(pts[i][:, None, None], (5, m, 5))
        tvals = np.broadcast_to(pts[None, :, :], (5, m, 5))
        try:
            kv = np.asarray(kernel(svals, tvals), dtype=float)
            if kv.shape != (5, m, 5):
                raise ValueError
        except (TypeError, ValueError):
            kv = np.array([kernel(sv, tv) for sv, tv in zip(svals.ravel(), tvals.ravel())]).reshape(5, m, 5)
        entries[i] = h * h * np.einsum("a,ajb,b->j", weights, kv, weights)
    return entries


def scalar_only_sum(s, t):
    """s + t, refusing arrays, so projections must call it pointwise."""
    if not np.isscalar(s) and not isinstance(s, float):
        raise TypeError("scalars only")
    return float(s) + float(t)


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
        # integer input: the butterflies reproduce T @ a bit for bit,
        # with T built from the definition, not from the transform
        T = walsh_matrix_by_definition(m)
        a = np.random.default_rng(m).integers(-1000, 1000, size=(m, 3))
        assert np.array_equal(fast_walsh_transform(a), T @ a)
        assert np.array_equal(fast_walsh_transform(a[:, 0]), T @ a[:, 0])

    @pytest.mark.parametrize("m", [2**k for k in range(11)])
    def test_fast_transform_matches_stack_reference(self, m):
        # the in-place butterflies add and subtract the same pairs in the
        # same order as the out-of-place reference, so floats agree bit
        # for bit, whatever the layout of the input
        rng = np.random.default_rng(m)
        inputs = [
            rng.standard_normal(m),
            rng.standard_normal((m, 3)),
            rng.standard_normal((m, 2, 3)).transpose(0, 2, 1),
            rng.standard_normal((3, m)).T,
            rng.integers(-1000, 1000, size=(m, 2)),
        ]
        if m <= 256:
            inputs.append(rng.standard_normal((m, m)))
        for a in inputs:
            want = fast_walsh_transform_by_stack(a)
            got = fast_walsh_transform(a)
            assert got.dtype == want.dtype and got.shape == a.shape
            assert got.tobytes() == want.tobytes()

    def test_fast_transform_leaves_input_alone(self):
        a = np.random.default_rng(0).standard_normal((16, 4))
        before = a.copy()
        fast_walsh_transform(a)
        assert np.array_equal(a, before)

    def test_walsh_matrix_memory_is_the_output(self):
        # the output alone is 8 MB at m = 1024
        tracemalloc.start()
        try:
            build_walsh_matrix(BasisConfig.from_resolution(1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("m", [0, 3, 6, 12])
    def test_fast_transform_rejects_non_powers(self, m):
        with pytest.raises(ValueError):
            fast_walsh_transform(np.ones(m))

    def test_rows_match_scalar_walsh(self):
        for k in range(8):
            cfg = BasisConfig.from_resolution(2**k)
            T = build_walsh_matrix(cfg)
            for n in range(cfg.m):
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
        upper = np.triu_indices(16)
        assert (K[upper] == c * cfg.h * cfg.h).all()
        lower = np.tril_indices(16, -1)
        assert (K[lower] == 0.0).all() and not np.signbit(K[lower]).any()

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
        assert np.allclose(K, np.triu(np.outer(Fs, Ft)), rtol=1e-12, atol=0)

    def test_scalar_only_kernel_falls_back(self):
        cfg = BasisConfig.from_resolution(2)
        K = project_kernel(scalar_only_sum, cfg)
        Kv = project_kernel(lambda s, t: s + t, cfg)
        assert np.allclose(K, Kv, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 16, 256])
    @pytest.mark.parametrize(
        "kernel",
        [
            compile_expression("-(1/30)^2*exp(-(t-s))", ("s", "t")),
            compile_expression("(1/30)*exp(-(t-s)/2)", ("s", "t")),
            lambda s, t: np.exp(-t),
            lambda s, t: np.cos(s),
            scalar_only_sum,
        ],
        ids=["kernel-file-k1", "kernel-file-k2", "t-only", "s-only", "scalar-only"],
    )
    def test_triangle_of_square_projection(self, kernel, m):
        # the quadrature is unchanged, only the order of the weighted
        # sums is, so each entry stays within a few ulp
        cfg = BasisConfig.from_resolution(m)
        K = project_kernel(kernel, cfg)
        ref = np.triu(project_kernel_square(kernel, cfg))
        assert not K.flags.writeable
        upper = np.triu_indices(m)
        assert np.all(np.abs(K[upper] - ref[upper]) <= 2e-15 * np.abs(ref[upper]))
        lower = np.tril_indices(m, -1)
        assert (K[lower] == 0.0).all() and not np.signbit(K[lower]).any()

    def test_memory_is_the_output(self):
        # the output alone is 8 MB at m = 1024; a row's nodes add little
        cfg = BasisConfig.from_resolution(1024)
        k1 = compile_expression("-(1/30)^2*exp(-(t-s))", ("s", "t"))
        tracemalloc.start()
        try:
            project_kernel(k1, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6


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
