"""Walsh basis, projections, and the midpoint grid."""

import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walshvie
from walshvie import builtin_example, convergence_study, integration_matrix, monte_carlo, sample_path
from walshvie.expressions import compile_expression
from walshvie.walsh import (
    _GL_NODES,
    _GL_WEIGHTS,
    _block_averages,
    _kernel_row,
    _quadrature_nodes,
    _resolution,
    build_walsh_matrix,
    fast_walsh_transform,
    midpoint_floor_index,
    project_kernel,
    rademacher,
)


def midpoints(m):
    """The collocation midpoints t_j = (2j+1)/(2m)."""
    return (2 * np.arange(m) + 1) / (2 * m)


def walsh(n, t):
    """Reference: the Walsh function w_n(t) in dyadic-product ordering,
    the product of r_q(t) over the set binary digits b_q of
    n = sum of b_q * 2**(q-1), each factor from scalar ``rademacher``."""
    out = 1
    q = 1
    while n:
        if n & 1:
            out *= rademacher(q, t)
        n >>= 1
        q += 1
    return out


def walsh_matrix_by_definition(m):
    """T[n][j] = w_n(t_j) as the product of the Rademacher rows r_q(t_j)
    over the set bits of n, each entry from scalar ``rademacher``."""
    T = np.ones((m, m), dtype=np.int64)
    for q in range(1, m.bit_length()):
        row = np.array([rademacher(q, t) for t in midpoints(m)], dtype=np.int64)
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


def project_kernel_square(kernel, m):
    """Reference: the block integrals of k over every block rectangle of
    the m x m square, each row from one call on full (5, m, 5) node
    arrays reduced by one three-operand einsum."""
    h = 1 / m
    nodes, weights = np.polynomial.legendre.leggauss(5)
    weights = weights / weights.sum()
    pts = (np.arange(m) * h)[:, None] + (nodes[None, :] + 1.0) * (h / 2.0)
    entries = np.empty((m, m))
    for i in range(m):
        svals = np.broadcast_to(pts[i][:, None, None], (5, m, 5))
        tvals = np.broadcast_to(pts[None, :, :], (5, m, 5))
        kv = np.broadcast_to(np.asarray(kernel(svals, tvals), dtype=float), (5, m, 5))
        entries[i] = h * h * np.einsum("a,ajb,b->j", weights, kv, weights)
    return entries


def scalar_only_sum(s, t):
    """s + t, refusing arrays."""
    if not np.isscalar(s) and not isinstance(s, float):
        raise TypeError("scalars only")
    return float(s) + float(t)


class TestResolution:
    def test_midpoints_exact_dyadic(self):
        # (2j+1)/(2m) is exactly representable, no accumulation error
        assert midpoints(8)[0] == 1 / 16
        assert midpoints(8)[-1] == 15 / 16
        for j in range(64):
            assert midpoints(64)[j] == (2 * j + 1) / 128

    @pytest.mark.parametrize("m", [1, 8, np.int64(8), np.uint16(4096)], ids=repr)
    def test_is_an_int(self, m):
        assert _resolution(m) == m and type(_resolution(m)) is int

    @pytest.mark.parametrize("bad", [0, 3, 6, 12, -4, np.float64(16.0), "16", True], ids=repr)
    def test_rejects_non_powers(self, bad):
        with pytest.raises(ValueError, match=f"^m must be a power of two >= 1, got {re.escape(repr(bad))}$"):
            _resolution(bad)


# every public entry that takes a resolution m, called with m; each returns an array
RESOLUTION_ENTRIES = {
    "sample_path": lambda m: sample_path(m, 1),
    "monte_carlo": lambda m: monte_carlo(builtin_example(1), m, 2, 1),
    "convergence_study": lambda m: convergence_study(builtin_example(1), (m, 64, 128), 2, 1)[0],
    "project_kernel": lambda m: project_kernel(1.0, m),
    "build_walsh_matrix": build_walsh_matrix,
    "integration_matrix": integration_matrix,
}


@pytest.mark.parametrize("bad", [0, -4, 12, 16.0, 8.9, True])
@pytest.mark.parametrize("entry", RESOLUTION_ENTRIES)
def test_entries_reject_a_bad_resolution(entry, bad):
    # a float is refused too, never truncated (8.9 is not m = 8), and a
    # bool is not m = 1
    with pytest.raises(ValueError, match=f"^m must be a power of two >= 1, got {bad!r}$"):
        RESOLUTION_ENTRIES[entry](bad)


@pytest.mark.parametrize("entry", RESOLUTION_ENTRIES)
def test_entries_take_numpy_integers(entry):
    got, want = RESOLUTION_ENTRIES[entry](np.int64(16)), RESOLUTION_ENTRIES[entry](16)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
        T = build_walsh_matrix(4)
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
        T = build_walsh_matrix(m)
        assert T.dtype == np.int64
        assert (T == T.T).all()
        assert (T @ T == m * np.eye(m, dtype=np.int64)).all()

    @pytest.mark.parametrize("m", [2, 8, 32])
    def test_orthonormality(self, m):
        # (1/m) sum_j w_i(t_j) w_l(t_j) = delta_il, exact in ints
        T = build_walsh_matrix(m)
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
            build_walsh_matrix(1024)
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
            m = 2**k
            T = build_walsh_matrix(m)
            for n in range(m):
                row = [walsh(n, t) for t in midpoints(m)]
                assert (T[n] == row).all()


def block_integrals(antiderivative, m):
    """The integral over each block of the grid of m blocks."""
    edges = np.arange(m + 1) / m
    return antiderivative(edges[1:]) - antiderivative(edges[:-1])


class TestGaussLegendre:
    def test_constants_are_leggauss(self):
        # the literals are numpy's nodes and its weights divided by their sum
        nodes, weights = np.polynomial.legendre.leggauss(5)
        assert _GL_NODES.tobytes() == nodes.tobytes()
        assert _GL_WEIGHTS.tobytes() == (weights / weights.sum()).tobytes()

    def test_import_leaves_numpy_polynomial_out(self):
        src = os.path.dirname(os.path.dirname(walshvie.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, walshvie, walshvie.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"


class TestProjection:
    # kernels of one variable: the block integral over s in block i and
    # t in block j is h times the block integral of that variable's factor

    def test_constant(self):
        K = project_kernel(lambda s, t: 1.0, 8)
        upper = np.triu_indices(8)
        assert np.allclose(K[upper], (1 / 8) ** 2, rtol=0, atol=1e-18)

    def test_linear(self):
        # integral of t over [0, 1/2) and [1/2, 1), times h = 1/2 for s
        K = project_kernel(lambda s, t: t, 2)
        assert abs(K[0, 0] - 0.5 * 0.125) < 1e-16
        assert abs(K[0, 1] - 0.5 * 0.375) < 1e-16
        assert abs(K[1, 1] - 0.5 * 0.375) < 1e-16
        K = project_kernel(lambda s, t: s, 2)
        assert abs(K[0, 1] - 0.5 * 0.125) < 1e-16
        assert abs(K[1, 1] - 0.5 * 0.375) < 1e-16

    def test_reconstruction_scale(self):
        K = project_kernel(lambda s, t: 3.25, 16)
        assert np.allclose(16**2 * K[np.triu_indices(16)], 3.25, rtol=0, atol=1e-12)

    def test_quadrature_degree(self):
        # 5-point Gauss is exact for degree 9
        exact = block_integrals(lambda u: u**10 / 10, 4)
        K = project_kernel(lambda s, t: t**9, 4)
        assert np.allclose(K, np.triu(np.outer(np.full(4, 1 / 4), exact)), rtol=1e-13, atol=1e-18)
        K = project_kernel(lambda s, t: s**9, 4)
        assert np.allclose(K, np.triu(np.outer(exact, np.full(4, 1 / 4))), rtol=1e-13, atol=1e-18)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            project_kernel(lambda s, t: np.full_like(t, np.inf), 4)

    def test_parseval_piecewise_constant(self):
        # coefficients (1/m) T v: sum of squares = mean of squares, exact
        T = build_walsh_matrix(8)
        v = np.array([3, -1, 4, 1, -5, 9, 2, -6])
        coeffs = T @ v  # m times the true coefficients
        assert (coeffs @ coeffs) == 8 * (v @ v)


class TestKernelProjection:
    def test_constant_fast_path(self):
        h = 1 / 16
        c = -((1 / 30) ** 2) / 2
        K = project_kernel(c, 16)
        upper = np.triu_indices(16)
        assert (K[upper] == c * h * h).all()
        lower = np.tril_indices(16, -1)
        assert (K[lower] == 0.0).all() and not np.signbit(K[lower]).any()

    def test_separable_product(self):
        # k(s,t) = s*t over [0,1/2)^2 integrates to (1/8)^2
        K = project_kernel(lambda s, t: s * t, 2)
        assert abs(K[0, 0] - 0.015625) < 1e-15
        assert abs(K[1, 1] - 0.375**2) < 1e-15

    def test_matches_function_projection_on_slices(self):
        # integrating k(s,t)=exp(s-t) over a block rectangle factorises
        # into the block integrals of exp(s) and of exp(-t)
        K = project_kernel(lambda s, t: np.exp(s - t), 4)
        Fs = block_integrals(np.exp, 4)
        Ft = block_integrals(lambda u: -np.exp(-u), 4)
        assert np.allclose(K, np.triu(np.outer(Fs, Ft)), rtol=1e-12, atol=0)

    def test_scalar_only_kernel_is_refused(self):
        # a callable that refuses arrays is an error naming it, never
        # retried one node at a time
        m = 2
        with pytest.raises(TypeError, match="^kernel must take numpy arrays"):
            project_kernel(scalar_only_sum, m)
        with pytest.raises(TypeError, match="^k2 must take numpy arrays"):
            project_kernel(scalar_only_sum, m, "k2")
        with pytest.raises(TypeError, match="^kernel must take numpy arrays"):
            project_kernel(lambda s, t: math.exp(t), m)
        with pytest.raises(TypeError, match="broadcast shape"):
            project_kernel(lambda s, t: np.zeros(3), m)

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
        if kernel is scalar_only_sum:
            with pytest.raises(TypeError, match="kernel"):
                project_kernel(kernel, m)
            return
        K = project_kernel(kernel, m)
        ref = np.triu(project_kernel_square(kernel, m))
        assert not K.flags.writeable
        upper = np.triu_indices(m)
        assert np.all(np.abs(K[upper] - ref[upper]) <= 2e-15 * np.abs(ref[upper]))
        lower = np.tril_indices(m, -1)
        assert (K[lower] == 0.0).all() and not np.signbit(K[lower]).any()

    @pytest.mark.parametrize("m", [1, 2, 16, 256, 2048])
    @pytest.mark.parametrize(
        "src", ["-(1/30)^2*exp(-(t-s))", "(1/30)*exp(-(t-s)/2)", "1/(1+(t-s)^2)", "exp(-(s-t)^2)"]
    )
    def test_lag_row_is_the_toeplitz_triangle(self, src, m):
        # row 0 of the triangle is the lag row itself; every other
        # K[i][i + d] differs from row[d] only by how t - s rounds at
        # its position, which is a relative error of a few ulp for
        # kernels bounded away from zero (not, say, for (s-t)^2 at d = 0)
        kernel = compile_expression(src, ("s", "t"))
        averages = _kernel_row(kernel, "k1", _quadrature_nodes(m), 0)
        row = averages / (m * m)
        K = project_kernel(kernel, m)
        assert row.shape == (m,)
        assert np.array_equal(row, K[0])
        assert np.array_equal(averages, _block_averages(kernel, m, "k1")[0])
        i, j = np.triu_indices(m)
        assert np.all(np.abs(K[i, j] - row[j - i]) <= 2e-15 * np.abs(K[i, j]))

    def test_lag_row_checks_finiteness(self):
        with pytest.raises(ValueError, match="k1 .*non-finite"):
            _kernel_row(compile_expression("1/(t-s)", ("s", "t")), "k1", _quadrature_nodes(8), 0)

    def test_memory_is_the_output(self):
        # the output alone is 8 MB at m = 1024; a row's nodes add little
        k1 = compile_expression("-(1/30)^2*exp(-(t-s))", ("s", "t"))
        tracemalloc.start()
        try:
            project_kernel(k1, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestMidpointFloorIndex:
    def test_at_midpoints(self):
        for j, t in enumerate(midpoints(16)):
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
    m = 2**k
    n = n % m
    T = build_walsh_matrix(m)
    assert (T[n] == [walsh(n, t) for t in midpoints(m)]).all()


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=8, max_size=8),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=8, max_size=8),
)
@settings(max_examples=50)
def test_transform_preserves_integer_inner_products(u, v):
    # <Tu, Tv> = m <u, v>, the polarised form of Parseval
    T = build_walsh_matrix(8)
    u = np.array(u)
    v = np.array(v)
    assert (T @ u) @ (T @ v) == 8 * (u @ v)
