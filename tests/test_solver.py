"""Collocation assembly and the fixed point solver."""

import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from walshvie import expressions, solver
from walshvie.brownian import _path_values, sample_path
from walshvie.operational import integration_matrix, stochastic_matrix
from walshvie.problemfile import problem_from_text
from walshvie.solver import (
    NonConvergenceError,
    NonFiniteIterateError,
    ProblemSpec,
    _batch_solver,
    _kernel_operator,
    builtin_example,
    problem_from_sources,
    solve,
)
from walshvie.walsh import project_kernel


def midpoints(m):
    return (2 * np.arange(m) + 1) / (2 * m)


def assemble_H(K, Z, M):
    """Reference: m * K^T diag(Z) M for a kernel matrix, coefficient
    vector and operational matrix, the product whose diagonal solve()
    accumulates directly."""
    Km = np.asarray(K, dtype=float)
    Mm = np.asarray(M, dtype=float)
    z = np.asarray(Z, dtype=float)
    m = z.shape[0]
    if Km.shape != (m, m) or Mm.shape != (m, m):
        raise ValueError("operand shapes do not match")
    return m * (Km.T @ np.diag(z) @ Mm)


def collocation_values(H1, H2, x0):
    """Reference: solution values at the midpoints, x0 + m^2 (diag H1 + diag H2)."""
    H1 = np.asarray(H1)
    m = H1.shape[0]
    return x0 + m * m * (np.diagonal(H1) + np.diagonal(H2))


def dense_solve(problem, path):
    """Reference: the dense formulation of solve(), with the operators
    G1 = m^3 K1 o P, m^2 triu(K2, 1) and m^2 diag(K2) built as m x m
    arrays and applied by matrix products.  Returns the solution and
    the sweep count."""
    m = (len(path) - 1) // 2
    h = 1 / m
    G1 = m**3 * (project_kernel(problem.k1, m) * integration_matrix(m))
    K2 = project_kernel(problem.k2, m)
    upper2 = m * m * np.triu(K2, 1)
    k2_ss = m * m * np.diagonal(K2)
    v = path
    full, dB1, dB2 = v[2::2] - v[:-2:2], v[1::2] - v[:-2:2], v[2::2] - v[1::2]
    c_full = k2_ss * 0.5 * (dB2**2 - dB1**2 - h)
    c_half = k2_ss * (-0.5 * dB1**2 - h / 4.0)
    x0 = float(problem.x0)
    x = np.full(m, x0)
    previous, damped = np.inf, False
    for sweep in range(1, solver._MAX_ITER + 1):
        z1 = h * problem.beta(x)
        s = problem.sigma(x + 1e-20j)
        sig, slope = s.real, s.imag / 1e-20
        w = sig * (full + slope * c_full)
        u = sig * (dB1 + slope * c_half)
        candidate = x0 + z1 @ G1 + w @ upper2 + k2_ss * u
        residual = np.max(np.abs(candidate - x))
        damped = damped or residual > previous
        if damped:
            candidate = x + solver._DAMPING * (candidate - x)
            residual = np.max(np.abs(candidate - x))
        x = candidate
        if residual <= solver._TOL:
            return x, sweep
        previous = residual
    raise NonConvergenceError(residual=residual, iterations=solver._MAX_ITER)


def exponential_problem():
    # sigma = 0, k1 = 1, beta = x, x0 = 1 has solution e^t
    return ProblemSpec(x0=1.0, k1=1.0, k2=0.0, beta=lambda x: x, sigma=lambda x: 0.0 * x)


class TestAssembly:
    def test_m1_chain(self):
        H = assemble_H(np.array([[2.0]]), np.array([3.0]), np.array([[0.25]]))
        assert H.shape == (1, 1)
        assert H[0, 0] == 1.5

    def test_zero_coefficients(self):
        K = np.ones((4, 4))
        M = np.ones((4, 4))
        H = assemble_H(K, np.zeros(4), M)
        assert (H == 0.0).all()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            assemble_H(np.ones((3, 3)), np.ones(4), np.ones((4, 4)))

    def test_diagonal_matches_solver_shortcut(self):
        # solve() accumulates only diag(H); both routes must agree
        rng = np.random.default_rng(5)
        m = 8
        K = rng.normal(size=(m, m))
        M = rng.normal(size=(m, m))
        z = rng.normal(size=m)
        H = assemble_H(K, z, M)
        shortcut = z @ (m * (K * M))
        assert np.allclose(np.diagonal(H), shortcut, rtol=1e-13, atol=1e-15)
        # and the collocation combination
        x = collocation_values(H, np.zeros((m, m)), 2.0)
        assert np.allclose(x, 2.0 + z @ (m**3 * (K * M)), rtol=1e-13, atol=1e-14)

    def test_collocation_values_trivial(self):
        H1 = np.diag([1.0, 2.0])
        H2 = np.diag([10.0, 20.0])
        x = collocation_values(H1, H2, 0.5)
        assert (x == np.array([0.5 + 4 * 11, 0.5 + 4 * 22])).all()


class TestDeterministicSolve:
    def test_matches_forward_substitution(self):
        # with sigma=0 the collocated system is linear triangular:
        # x_j = 1 + h*sum_{i<j} x_i + (h/2) x_j, solvable directly
        h = 1 / 16
        res = solve(exponential_problem(), np.zeros(33))
        direct = np.empty(16)
        acc = 0.0
        for j in range(16):
            direct[j] = (1.0 + h * acc) / (1.0 - h / 2.0)
            acc += direct[j]
        assert np.allclose(res.x_colloc, direct, rtol=0, atol=1e-10)

    def test_exponential_accuracy(self):
        m = 32
        res = solve(exponential_problem(), np.zeros(2 * m + 1))
        err = np.max(np.abs(res.x_colloc - np.exp(midpoints(m))))
        assert err <= 0.05

    def test_callable_constant_kernel_agrees(self):
        m = 8
        res_const = solve(exponential_problem(), np.zeros(2 * m + 1))
        prob = ProblemSpec(
            x0=1.0,
            k1=lambda s, t: np.ones_like(s * t),
            k2=0.0,
            beta=lambda x: x,
            sigma=lambda x: 0.0 * x,
        )
        res_callable = solve(prob, np.zeros(2 * m + 1))
        assert np.allclose(res_const.x_colloc, res_callable.x_colloc, rtol=0, atol=1e-12)


class TestStochasticFixedPoints:
    def test_example1_zero_path(self):
        # on the zero path the solution of example 1 is identically 0
        m = 16
        prob = builtin_example(1)
        path = np.zeros(2 * m + 1)
        res = solve(prob, path)
        assert np.max(np.abs(res.x_colloc)) <= 1e-10
        for j, t in enumerate(midpoints(m)):
            assert abs(prob.exact(t, path[2 * j + 1])) <= 1e-15

    def test_example2_degenerate_noise(self):
        # a = 0 freezes example 2 at its initial value 0.1
        m = 16
        prob = builtin_example(2, a="0")
        path = sample_path(m, seed=99)
        res = solve(prob, path)
        assert np.max(np.abs(res.x_colloc - 0.1)) <= 1e-10
        for j, t in enumerate(midpoints(m)):
            assert abs(prob.exact(t, path[2 * j + 1]) - 0.1) <= 1e-12

    def test_example1_degenerate_noise(self):
        m = 8
        res = solve(builtin_example(1, a="0"), sample_path(m, seed=1))
        assert np.max(np.abs(res.x_colloc)) <= 1e-10


class TestSolveOnSampledPaths:
    def test_example1_accuracy(self):
        m = 16
        prob = builtin_example(1)
        path = sample_path(m, seed=42)
        res = solve(prob, path)
        exact = prob.exact(midpoints(m), path[1::2])
        assert np.max(np.abs(res.x_colloc - exact)) <= 1e-3

    def test_causality(self):
        # x at block j only sees the path up to that block: perturbing
        # later path values must not move earlier solution values
        m = 16
        prob = builtin_example(2)
        base = sample_path(m, seed=7)
        j = 9
        bumped = base.copy()
        bumped[2 * j + 2 :] += 0.5
        res_a = solve(prob, base)
        res_b = solve(prob, bumped)
        assert np.allclose(res_a.x_colloc[: j + 1], res_b.x_colloc[: j + 1], rtol=0, atol=1e-10)
        assert not np.allclose(res_a.x_colloc[j + 1 :], res_b.x_colloc[j + 1 :], atol=1e-10)

    def test_determinism(self):
        m = 16
        prob = builtin_example(2)
        a = solve(prob, sample_path(m, seed=5))
        b = solve(prob, sample_path(m, seed=5))
        assert np.array_equal(a.x_colloc, b.x_colloc)
        assert a.iterations == b.iterations


class TestDenseReference:
    @pytest.mark.parametrize("m", [8, 256])
    def test_callable_kernel_operators_match_dense(self, m):
        # the engine builds G1 and the strict upper K2 operator straight
        # from the projected triangle; applied to the identity they must
        # equal the dense products of the same projection bit for bit.
        # The kernels use s outside t - s, so they are not difference
        # kernels and take the triangle.  A negative k2 checks that its
        # diagonal is set to +0.0, which array_equal cannot tell from
        # -0.0, in the operator's matrix, the one value its product
        # holds, as well as in its product
        for sign in ("", "-"):
            prob = problem_from_sources({
                "x0": "1/10",
                "k1": "-(1/30)^2*exp(-t)*(1+s)",
                "k2": sign + "(1/30)*exp(-t)*(1+s)",
                "beta": "x*(1-x^2)",
                "sigma": "1-x^2",
            })
            assert not prob.k1.difference_kernel and not prob.k2.difference_kernel
            drift, k1_ss = _kernel_operator(prob.k1, m, "k1", 0.5)
            noise, k2_ss = _kernel_operator(prob.k2, m, "k2", 0.0)
            K1 = project_kernel(prob.k1, m)
            K2 = project_kernel(prob.k2, m)
            assert np.array_equal(drift(np.eye(m)), m**3 * (K1 * integration_matrix(m)))
            assert np.array_equal(np.diagonal(drift(np.eye(m))), 0.5 * (m * m * np.diagonal(K1)))
            assert np.array_equal(k1_ss, m * m * np.diagonal(K1))
            assert np.array_equal(noise(np.eye(m)), m * m * np.triu(K2, 1))
            assert np.diagonal(noise(np.eye(m))).tobytes() == np.zeros(m).tobytes()
            [G2] = (cell.cell_contents for cell in noise.__closure__)
            assert np.diagonal(G2).tobytes() == np.zeros(m).tobytes()
            assert np.array_equal(k2_ss, m * m * np.diagonal(K2))

    @pytest.mark.parametrize("example_id", [1, 2])
    @pytest.mark.parametrize("m", [8, 256, 1024])
    def test_cumulative_sums_match_dense_operators(self, example_id, m):
        prob = builtin_example(example_id)
        for trial in range(1, 4):
            path = sample_path(m, (11, trial))
            res = solve(prob, path)
            x_ref, sweeps = dense_solve(prob, path)
            assert np.max(np.abs(res.x_colloc - x_ref)) <= 1e-14
            assert res.iterations == sweeps

    @pytest.mark.parametrize("example_id", [1, 2])
    def test_callable_constant_kernels_match_folded(self, example_id):
        # a callable kernel is projected by quadrature and applied as a
        # dense operator; the folded constant takes the cumulative sums
        prob = builtin_example(example_id)
        c1, c2 = prob.k1, prob.k2
        callable_prob = dataclasses.replace(
            prob, k1=lambda s, t: c1 + 0 * s * t, k2=lambda s, t: c2 + 0 * s * t
        )
        m = 64
        for trial in range(1, 4):
            path = sample_path(m, (12, trial))
            folded = solve(prob, path).x_colloc
            assert np.max(np.abs(solve(callable_prob, path).x_colloc - folded)) <= 1e-12


# kernel-file's forms: both kernels are functions of t - s
DIFFERENCE_SOURCES = {
    "x0": "1/10",
    "k1": "-(1/30)^2*exp(-(t-s))",
    "k2": "(1/30)*exp(-(t-s)/2)",
    "beta": "x*(1-x^2)",
    "sigma": "1-x^2",
}


def on_the_triangle(prob):
    """The same problem with its kernels wrapped in lambdas, which carry
    no difference-kernel mark and so take the projected triangle."""
    k1, k2 = prob.k1, prob.k2
    return dataclasses.replace(prob, k1=lambda s, t: k1(s, t), k2=lambda s, t: k2(s, t))


class TestDifferenceKernels:
    @pytest.mark.parametrize("m", [8, 256])
    def test_operators_match_dense(self, m, monkeypatch):
        # the FFT convolutions of the lag rows against the dense products
        # of the projected triangle: they differ by the rounding of t - s
        # in the projection (a few ulp per entry) and by the FFT's, which
        # is relative to the largest entry, not to each one.  The FFT
        # does not return exact zeros, so the diagonal entries g[0] of the
        # convolutions are checked where they are built: k1's is exactly
        # half of m^2 row[0], and k2's is +0.0 also for a negative k2
        lag_rows = []
        convolution = solver._causal_convolution
        monkeypatch.setattr(solver, "_causal_convolution", lambda g: lag_rows.append(g.copy()) or convolution(g))
        for k2 in (DIFFERENCE_SOURCES["k2"], "-" + DIFFERENCE_SOURCES["k2"]):
            prob = problem_from_sources({**DIFFERENCE_SOURCES, "k2": k2})
            lag_rows.clear()
            drift, k1_ss = _kernel_operator(prob.k1, m, "k1", 0.5)
            noise, k2_ss = _kernel_operator(prob.k2, m, "k2", 0.0)
            K1 = project_kernel(prob.k1, m)
            K2 = project_kernel(prob.k2, m)
            for got, dense in [
                (drift(np.eye(m)), m**3 * (K1 * integration_matrix(m))),
                (noise(np.eye(m)), m * m * np.triu(K2, 1)),
                (k2_ss, m * m * np.diagonal(K2)),
            ]:
                assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))
            assert np.isscalar(k2_ss) and k2_ss == m * m * K2[0, 0]
            assert np.isscalar(k1_ss) and k1_ss == m * m * K1[0, 0]
            g1, g2 = lag_rows
            assert g1[0] == 0.5 * k1_ss
            assert g2[:1].tobytes() == np.zeros(1).tobytes()

    @pytest.mark.parametrize("m", [8, 256, 2048])
    def test_solve_matches_triangle_path(self, m):
        prob = problem_from_sources(DIFFERENCE_SOURCES)
        paths = np.stack([sample_path(m, (19, trial)) for trial in range(1, 5)])
        fast, fast_sweeps, _, _ = _batch_solver(prob, m)(paths)
        slow, slow_sweeps, _, _ = _batch_solver(on_the_triangle(prob), m)(paths)
        for a, b, a_sweeps, b_sweeps in zip(fast, slow, fast_sweeps, slow_sweeps):
            assert np.max(np.abs(a - b)) <= 1e-14
            assert a_sweeps == b_sweeps

    def test_builds_no_triangle(self, monkeypatch):
        calls, averages = [], solver._block_averages
        monkeypatch.setattr(solver, "_block_averages", lambda *args: calls.append(args) or averages(*args))
        prob = problem_from_sources(DIFFERENCE_SOURCES)
        m = 16
        _kernel_operator(prob.k1, m, "k1", 0.5)
        _kernel_operator(prob.k2, m, "k2", 0.0)
        assert calls == []
        triangle = on_the_triangle(prob)
        _kernel_operator(triangle.k1, m, "k1", 0.5)
        _kernel_operator(triangle.k2, m, "k2", 0.0)
        assert [name for _, _, name in calls] == ["k1", "k2"]

    def test_triangle_operator_is_its_block_averages(self):
        # the quadrature's averages are applied as they are made, with no
        # second m x m array: at m = 1024 the peak is near their 8 MB
        kernel = on_the_triangle(problem_from_sources(DIFFERENCE_SOURCES)).k1
        m = 1024
        tracemalloc.start()
        try:
            _kernel_operator(kernel, m, "k1", 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * m * m * 8

    def test_memory_at_the_largest_m(self):
        # the triangle path peaks near 270 MB here (two 4096 x 4096
        # arrays); the lag rows and their spectra are O(m)
        prob = problem_from_sources(DIFFERENCE_SOURCES)
        path = sample_path(4096, seed=3)
        tracemalloc.start()
        try:
            solve(prob, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestOneEngine:
    def test_same_problem_object_and_m_reuse_the_engine(self):
        prob = problem_from_sources(DIFFERENCE_SOURCES)
        engine = _batch_solver(prob, 16)
        assert _batch_solver(prob, 16) is engine
        assert _batch_solver(prob, 8) is not engine

    def test_equal_fields_are_another_engine(self):
        # the engine is keyed by identity: a 0-d array x0 makes the spec
        # unhashable, and it still solves
        prob = ProblemSpec(x0=np.array(0.1), k1=-1 / 900, k2=1 / 30, beta=lambda x: x * (1 - x * x),
                           sigma=lambda x: 1 - x * x)
        with pytest.raises(TypeError):
            hash(prob)
        engine = _batch_solver(prob, 16)
        assert _batch_solver(prob, 16) is engine
        twin = dataclasses.replace(prob)
        assert twin.x0 is prob.x0 and _batch_solver(twin, 16) is not engine
        path = sample_path(16, (5, 1))
        want = solve(dataclasses.replace(prob, x0=0.1), path).x_colloc
        assert np.array_equal(solve(prob, path).x_colloc, want)

    def test_the_last_engine_is_dropped_before_the_next_build(self):
        prob = problem_from_sources(DIFFERENCE_SOURCES)
        last = weakref.ref(_batch_solver(prob, 8))
        assert last() is not None
        alive = []

        def k1(s, t):
            alive.append(last() is not None)
            return prob.k1(s, t)

        _batch_solver(dataclasses.replace(prob, k1=k1), 8)
        assert alive and not any(alive)

    @pytest.mark.parametrize("example_id, slots", [(1, 12), (2, 11)])
    def test_builtin_examples_take_their_slots(self, example_id, slots):
        # eight engine arrays and the integrands' slots, which sech, made
        # as two operations, does not widen
        assert _batch_solver(builtin_example(example_id), 16).slots == slots

    @pytest.mark.parametrize("sigma, want", [("1/2", (0.25, 0.5, 0.0)), ("1-x^2", (0.25, 1.0, 0.0))])
    def test_constant_beta_sigma_and_exact_are_compiled(self, sigma, want):
        text = f"x0 = 0\nk1 = 1\nk2 = 1\nbeta = 1/4\nsigma = {sigma}\nexact = 1/10\n"
        prob = problem_from_text(text)
        assert expressions._compiled(prob.beta, prob.sigma)
        integrands, _ = solver._integrands(prob, True)
        assert integrands is expressions._straight_line(((prob.beta, False), (prob.sigma, True)), True)
        x = np.zeros((2, 3))
        slots = [np.full_like(x, np.nan) for _ in range(integrands.slots)]
        assert all(np.array_equal(a, np.full((2, 3), w)) for a, w in zip(integrands(x, *slots), want))
        got = prob.exact(np.array([0.1, 0.3]), np.zeros((3, 2)))
        assert got.shape == (3, 2) and (got == 0.1).all()


class TestItoCorrection:
    def test_time_dependent_kernel_keeps_ito_mean(self):
        # x = 1 + int k2(s,t) x dB with k2 = (1 + t - s)/2: an Ito
        # integral has mean 0, so E x(t) = 1.  The midpoint pairing
        # alone converges to the Stratonovich solution, whose mean at
        # the last midpoint is about 1.2; this checks the
        # k2(s,t) k2(s,s) factor of the correction.
        m = 16
        prob = ProblemSpec(
            x0=1.0,
            k1=0.0,
            k2=lambda s, t: 0.5 * (1.0 + t - s),
            beta=lambda x: 0.0 * x,
            sigma=lambda x: x,
        )
        n = 1000
        last = np.array([solve(prob, sample_path(m, (6000, i))).x_colloc[-1] for i in range(1, n + 1)])
        stderr = last.std(ddof=1) / np.sqrt(n)
        assert abs(last.mean() - 1.0) <= 3.0 * stderr, (last.mean(), stderr)

    @pytest.mark.parametrize(
        "src, slope",
        [
            ("sin(x)", np.cos),
            ("cos(x)", lambda x: -np.sin(x)),
            ("sinh(x)", np.cosh),
            ("exp(x)", np.exp),
            ("tanh(x)", lambda x: 1.0 / np.cosh(x) ** 2),
            ("sech(x)", lambda x: -np.tanh(x) / np.cosh(x)),
            ("asinh(x)", lambda x: 1.0 / np.sqrt(1.0 + x * x)),
            ("atanh(x)", lambda x: 1.0 / (1.0 - x * x)),
            ("sqrt(x+1)", lambda x: 0.5 / np.sqrt(x + 1.0)),
            ("x^3", lambda x: 3.0 * x * x),
            ("1/x", lambda x: -1.0 / (x * x)),
            ("2^x", lambda x: np.log(2.0) * 2.0**x),
            ("x^x", lambda x: x**x * (np.log(x) + 1.0)),
            ("tanh(x)*sech(x)^2", lambda x: (1.0 - 3.0 * np.tanh(x) ** 2) / np.cosh(x) ** 2),
        ],
    )
    def test_expression_sigma_slope(self, src, slope):
        # on the zero path block 0 sees only the Ito drift of its own
        # half block: x = x0 - (h/4) sigma sigma'(x)
        sigma = problem_from_sources({"x0": "0", "k1": "0", "k2": "1", "beta": "0", "sigma": src}).sigma
        m = 64
        h = 1 / m
        prob = ProblemSpec(x0=0.5, k1=0.0, k2=1.0, beta=lambda x: 0.0 * x, sigma=sigma)
        x = solve(prob, np.zeros(2 * m + 1)).x_colloc[0]
        assert abs(x - (0.5 - h / 4 * sigma(x) * slope(x))) <= 1e-12

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_expression_sigma_finite_where_its_value_is(self):
        # 1/cosh(x) is 0 at x = 1e5, where a complex cosh overflows to
        # inf + inf j and the complex step would give nan
        sigma = problem_from_sources({"x0": "0", "k1": "0", "k2": "1", "beta": "0", "sigma": "sech(x)"}).sigma
        value, slope = expressions._straight_line(((sigma, True),))(np.array([[1e5, -1e5]]))
        assert np.array_equal(value, [[0.0, 0.0]])
        assert np.array_equal(slope, [[0.0, 0.0]])

    @pytest.mark.parametrize("example_id", [1, 2])
    def test_compiled_pair_is_one_call_per_sweep(self, example_id, monkeypatch):
        calls = []
        fuse = expressions._straight_line

        def counting(outputs, out=False):
            generated = fuse(outputs, out)

            def call(x, *slots):
                calls.append(x.shape)
                return generated(x, *slots)

            call.slots = generated.slots
            return call

        monkeypatch.setattr(expressions, "_straight_line", counting)
        m = 32
        res = solve(builtin_example(example_id), sample_path(m, seed=4))
        assert calls == [(1, m)] * res.iterations

    def test_callable_sigma_takes_the_complex_step(self):
        # sigma given as a lambda is not fused: it gets complex input
        seen = []

        def sigma(x):
            seen.append(x.dtype)
            return 1.0 - x * x

        prob = builtin_example(2)
        m = 16
        path = sample_path(m, seed=9)
        res = solve(dataclasses.replace(prob, sigma=sigma), path)
        assert set(seen) == {np.dtype(complex)} and len(seen) == res.iterations
        assert np.max(np.abs(res.x_colloc - solve(prob, path).x_colloc)) <= 1e-15

    @pytest.mark.parametrize("sigma", [np.abs, lambda x: math.exp(x)], ids=["np.abs", "math.exp"])
    def test_real_only_sigma_is_refused(self, sigma):
        m = 8
        prob = ProblemSpec(x0=0.5, k1=0.0, k2=1 / 30, beta=lambda x: 0.0 * x, sigma=sigma)
        with pytest.raises(TypeError, match="sigma"):
            solve(prob, sample_path(m, seed=2))

    @pytest.mark.parametrize("sigma", [np.abs], ids=["np.abs"])
    def test_real_only_sigma_without_noise_solves(self, sigma):
        m = 8
        prob = ProblemSpec(x0=0.5, k1=0.0, k2=0.0, beta=lambda x: 0.0 * x, sigma=sigma)
        res = solve(prob, sample_path(m, seed=2))
        assert np.array_equal(res.x_colloc, np.full(8, 0.5))

    def test_folded_constant_sigma_solves(self):
        # sigma = 2 folds to a constant, compiled like any expression,
        # whose slope is 0, generated or by the complex step
        prob = problem_from_sources({"x0": "0", "k1": "0", "k2": "1/30", "beta": "0", "sigma": "2"})
        assert np.iscomplexobj(prob.sigma(np.zeros(3) + 0j))
        value, slope = expressions._straight_line(((prob.sigma, True),))(np.ones((2, 3)))
        assert np.array_equal(value, np.full((2, 3), 2.0))
        assert np.array_equal(slope, np.zeros((2, 3)))
        m = 8
        path = sample_path(m, seed=13)
        res = solve(prob, path)
        assert np.allclose(res.x_colloc, (2 / 30) * path[1::2], rtol=0, atol=1e-15)
        # wrapped in a Python callable, as a tracer does, it takes the complex step
        wrapped = dataclasses.replace(prob, sigma=lambda x: prob.sigma(x))
        assert np.array_equal(solve(wrapped, path).x_colloc, res.x_colloc)

    @pytest.mark.parametrize("src", ["1 + sqrt(x-x)", "1 + (x-x)^0.5", "1 + sqrt(2*(x-x))"])
    def test_sigma_part_that_cannot_vary_has_slope_zero(self, src):
        # sqrt' is infinite at x - x = 0, but that part cannot vary with
        # x, so sigma' is 0 and sigma is the constant 1
        sources = {"x0": "1/10", "k1": "-1/900", "k2": "1/30", "beta": "x*(1-x^2)"}
        prob = problem_from_sources({**sources, "sigma": src})
        value, slope = expressions._straight_line(((prob.sigma, True),))(np.full(3, 0.25))
        assert np.array_equal(value, np.ones(3)) and np.array_equal(slope, np.zeros(3))
        path = sample_path(64, (7, 1))
        expected = solve(problem_from_sources({**sources, "sigma": "1"}), path).x_colloc
        assert np.array_equal(solve(prob, path).x_colloc, expected)


class TestExactMoments:
    """Weak error of every kernel form against a closed form.

    x = 1 + int k1(s,t) x(s) ds + int k2(s,t) dB(s) with k1 = c e^(-mu(t-s))
    and k2 = sigma0 e^(-mu(t-s)) makes y = x - 1 an Ornstein-Uhlenbeck
    process, dy = (c + a y) dt + sigma0 dB with a = c - mu, so
    E x(t) = 1 + c (e^(at) - 1)/a and Var x(t) = sigma0^2 (e^(2at) - 1)/(2a);
    here c = -1, sigma0 = 1/2 and mu = 1, or mu = 0 for constant kernels.
    The collocated system is affine in the path's normals, so the mean
    of x_m is its solution on the zero path and its variance is the sum
    of the squared changes that each unit normal's path makes: one
    engine call on 2m + 1 paths gives both, with no sampling noise.  On
    these problems the weak order is 2 (measured, not a claim of the
    paper, which proves strong order 1).
    """

    # kernels, a, and the bounds of the mean and variance errors at m = 64
    FORMS = {
        "difference": ("-exp(-(t-s))", "(1/2)*exp(-(t-s))", -2.0, 1.3e-5, 3e-6),
        "triangle": ("-exp(s)*exp(-t)", "(1/2)*exp(s)*exp(-t)", -2.0, 1.3e-5, 3e-6),
        "constant": ("-1", "1/2", -1.0, 3.5e-5, 1.7e-5),
    }
    RESOLUTIONS = (16, 32, 64, 128, 256)

    @pytest.mark.parametrize("form", FORMS)
    def test_weak_order_two(self, form):
        k1, k2, a, mean_bound, var_bound = self.FORMS[form]
        prob = problem_from_sources({"x0": "1", "k1": k1, "k2": k2, "beta": "x", "sigma": "1"})
        assert getattr(prob.k1, "difference_kernel", False) == (form == "difference")
        mean_errors, var_errors = [], []
        for m in self.RESOLUTIONS:
            normals = np.vstack([np.zeros(2 * m), np.eye(2 * m)])
            x, _, _, codes = _batch_solver(prob, m)(_path_values(normals, 1 / m))
            assert not codes.any()
            t = midpoints(m)
            mean_errors.append(np.max(np.abs(x[0] - (1.0 - (np.exp(a * t) - 1.0) / a))))
            var = np.sum((x[1:] - x[0]) ** 2, axis=0)
            var_errors.append(np.max(np.abs(var - 0.25 * (np.exp(2 * a * t) - 1.0) / (2 * a))))
        assert mean_errors[2] <= mean_bound and var_errors[2] <= var_bound
        for e in (mean_errors, var_errors):
            orders = np.log2(np.array(e[:-1]) / e[1:])
            assert np.all((1.9 <= orders) & (orders <= 2.1)), orders


class TestFailureModes:
    def test_non_convergence(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITER", 2)
        m = 16
        with pytest.raises(NonConvergenceError) as err:
            solve(exponential_problem(), np.zeros(2 * m + 1))
        assert err.value.iterations == 2
        assert np.isfinite(err.value.residual)

    def test_non_finite_iterate(self):
        m = 8
        prob = ProblemSpec(
            x0=2.0,
            k1=50.0,
            k2=0.0,
            beta=lambda x: np.exp(x * x),
            sigma=lambda x: 0.0 * x,
        )
        with pytest.raises(NonFiniteIterateError):
            solve(prob, np.zeros(2 * m + 1))

    def test_sigma_outside_its_real_domain(self):
        # sqrt'(0) is infinite and sqrt(x) is nan for x < 0: a failure,
        # not the real part of an imaginary root
        prob = problem_from_sources({"x0": "0", "k1": "0", "k2": "1", "beta": "0", "sigma": "sqrt(x)"})
        m = 8
        with pytest.raises(NonFiniteIterateError, match="^sigma\\(x\\) is not finite"):
            solve(prob, sample_path(m, (1, 1)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [16, 256])
    def test_blown_up_rows_fail_without_warnings(self, m):
        # example 2 at a = 2 blows up on some paths: x^3 in beta and
        # sigma sigma' overflow, which numpy would warn of from the
        # expression and from the update.  The engine reports each such
        # row with its cause instead, and the other rows converge
        prob = builtin_example(2, a="2")
        paths = np.stack([sample_path(m, (31, trial)) for trial in range(1, 9)])
        x, sweeps, _, codes = _batch_solver(prob, m)(paths)
        assert codes.any() and not codes.all()
        for row, code in enumerate(codes):
            if code == 0:
                assert sweeps[row] > 0 and np.isfinite(x[row]).all()
            else:
                assert code == 1
                with pytest.raises(NonFiniteIterateError, match=r"^beta\(x\) is not finite at the current iterate$"):
                    solve(prob, paths[row])
                assert sweeps[row] == 0 and np.isnan(x[row]).all()

    @pytest.mark.parametrize(
        "key, changes",
        [
            ("beta", {"beta": lambda x: math.tanh(x)}),
            ("sigma", {"sigma": lambda x: math.exp(x), "k2": 0.0}),
            ("k1", {"k1": lambda s, t: math.exp(s - t)}),
            ("k2", {"k2": lambda s, t: math.exp(s - t)}),
        ],
        ids=["beta", "sigma", "k1", "k2"],
    )
    def test_scalar_only_callables_are_refused(self, key, changes):
        # beta, sigma and the kernels are called on arrays; one that
        # refuses them is an error naming its key, never retried one
        # point at a time
        prob = dataclasses.replace(builtin_example(2), **changes)
        m = 8
        with pytest.raises(TypeError, match=f"^{key} must take numpy arrays"):
            solve(prob, sample_path(m, seed=2))


class TestWorkspace:
    """The engine works in a workspace its caller lends: a flat float64
    array of at least slots * n * m values, whose contents never reach
    the results."""

    FORMS = {
        "constant": ("{c1}", "{c2}"),
        "difference": ("{c1}*exp(-(t-s))", "{c2}*exp(-(t-s))"),
        "triangle": ("{c1}*exp(-(t-s))", "{c2}*exp(-(t-s))"),
    }
    # per problem: x0, the kernels' factors, beta and sigma
    PROBLEMS = {
        "example 1, a = 1/2": ("0", "-1/8", "1/2", "tanh(x)*sech(x)^2", "sech(x)"),
        "example 2, a = 2": ("1/10", "-4", "2", "x*(1-x^2)", "1-x^2"),
        "sqrt sigma": ("1/10", "0", "1", "0*x", "sqrt(x)"),
        "exp(x*x) beta": ("1", "1/4", "1", "exp(x*x)", "1"),
        "exp(x*x) beta, varying sigma": ("1", "1/4", "1", "exp(x*x)", "1 + x/4"),
    }
    # each row's outcome on the paths (31, 1..12) at m = 16: converged
    # (.), no convergence (C), or a non-finite beta (B) or sigma (S), the
    # letters of the engine's codes 0, 4, 1 and 2
    OUTCOMES = {
        ("example 2, a = 2", "constant"): "......BBB...",
        ("example 2, a = 2", "difference"): "...C...B....",
        ("example 2, a = 2", "triangle"): "...C...B....",
        ("sqrt sigma", "constant"): "SSSSSSS.SSSS",
        ("sqrt sigma", "difference"): "SSSSSSS.SSSS",
        ("sqrt sigma", "triangle"): "SSSSSSS.SSSS",
        ("exp(x*x) beta", "constant"): "BBB...BBBBBB",
        ("exp(x*x) beta", "difference"): "BBB...BBBBBB",
        ("exp(x*x) beta", "triangle"): "BBB...BBBBBB",
        ("exp(x*x) beta, varying sigma", "constant"): ".BB...BBBBBB",
        ("exp(x*x) beta, varying sigma", "difference"): ".BB...BBBBBB",
        ("exp(x*x) beta, varying sigma", "triangle"): ".BB...BBBBBB",
    }
    CODES = {
        "beta(x) is not finite at the current iterate": "B",
        "sigma(x) is not finite at the current iterate": "S",
    }

    @classmethod
    def problem(cls, name, form):
        x0, c1, c2, beta, sigma = cls.PROBLEMS[name]
        k1, k2 = (k.format(c1=c1, c2=c2) for k in cls.FORMS[form])
        prob = problem_from_sources({"x0": x0, "k1": k1, "k2": k2, "beta": beta, "sigma": sigma})
        return on_the_triangle(prob) if form == "triangle" else prob

    @staticmethod
    def paths(m, n=12, key=31):
        return np.stack([sample_path(m, (key, trial)) for trial in range(1, n + 1)])

    LETTERS = ".BSIC"

    @classmethod
    def code(cls, error):
        """The letter of the failure that ``solve`` raised."""
        return "C" if isinstance(error, NonConvergenceError) else cls.CODES[str(error)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, form", sorted(OUTCOMES))
    def test_failed_rows_and_their_messages(self, name, form):
        prob, paths = self.problem(name, form), self.paths(16)
        engine = _batch_solver(prob, 16)
        workspace = np.full(engine.slots * paths.size, np.nan)
        x, sweeps, residuals, codes = engine(paths, workspace)
        assert codes.dtype == np.int8
        assert "".join(self.LETTERS[c] for c in codes) == self.OUTCOMES[name, form]
        for row, code in enumerate(codes):
            if code == 0:
                assert sweeps[row] > 0 and np.isfinite(x[row]).all() and residuals[row] <= solver._TOL
                continue
            assert sweeps[row] == 0 and np.isnan(x[row]).all()
            with pytest.raises((NonConvergenceError, NonFiniteIterateError)) as failed:
                solve(prob, paths[row])
            assert self.code(failed.value) == self.LETTERS[code]
            if code == solver._NO_CONVERGENCE:
                assert residuals[row] == failed.value.residual > solver._TOL
            else:
                assert np.isnan(residuals[row])

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("name", ["example 1, a = 1/2", "example 2, a = 2"])
    def test_what_the_workspace_held_does_not_matter(self, name, form):
        prob = self.problem(name, form)
        coarse = _batch_solver(prob, 16)
        fine = _batch_solver(prob, 32)
        paths = self.paths(32)
        alone = fine(paths)
        workspace = np.full(fine.slots * paths.size, np.nan)
        with_nan = fine(paths, workspace)
        # another rung worked in the same workspace before
        coarse(self.paths(16, n=24, key=5), workspace)
        after_another = fine(paths, workspace)
        for got in (with_nan, after_another):
            assert got[0].tobytes() == alone[0].tobytes()
            assert np.array_equal(got[1], alone[1]) and got[2].tobytes() == alone[2].tobytes()
            assert got[3].tobytes() == alone[3].tobytes()
        # nothing returned is a view of the workspace
        x, _, residuals, _ = fine(paths, workspace)
        workspace[:] = np.inf
        assert x.tobytes() == alone[0].tobytes() and residuals.tobytes() == alone[2].tobytes()

    @pytest.mark.parametrize(
        "beta, sigma",
        [
            ("1-x^2", "1-x^2"), ("x", "x"), ("x*(1-x^2)", "2"), ("x*(1-x^2)", "3*x - 1"),
            ("tanh(x)*sech(x)^2", "sech(x)"),
        ],
        ids=["beta is sigma", "sigma is x", "constant sigma", "constant slope", "example 1"],
    )
    def test_integrands_and_iterate_are_only_read(self, beta, sigma, monkeypatch):
        # the integrands, which may be the iterate or one slot twice, and
        # the iterate are handed to the sweep read-only here, so a write
        # into either would raise
        prob = problem_from_sources({"x0": "1/10", "k1": "-1/4", "k2": "1/2", "beta": beta, "sigma": sigma})
        m = 32
        paths = self.paths(32, n=8)
        expected = _batch_solver(prob, m)(paths)
        integrands = solver._integrands

        def frozen(a):
            if isinstance(a, np.ndarray):
                a = a.view()
                a.flags.writeable = False
            return a

        def read_only(problem, ito):
            evaluate, slots = integrands(problem, ito)

            def guarded(x, *lent):
                x.flags.writeable = False
                return tuple(map(frozen, evaluate(x, *lent)))

            return guarded, slots

        monkeypatch.setattr(solver, "_integrands", read_only)
        got = _batch_solver(prob, m)(paths)
        assert not expected[3].any()
        assert got[0].tobytes() == expected[0].tobytes()

    def test_a_sweep_allocates_no_block(self):
        # numpy reports its data buffers to tracemalloc.  With a lent
        # workspace a block solve allocates its solutions, one block, and
        # arrays of one value per row, whatever its sweep count; a
        # temporary of the block's size made in a sweep would show here
        m = 64
        paths = self.paths(64, n=512, key=7)
        block = paths.shape[0] * m * 8
        peaks, sweeps = [], []
        for a in ("1/30", "1"):
            engine = _batch_solver(builtin_example(2, a=a), m)
            workspace = np.empty(engine.slots * paths.shape[0] * m)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                _, counts, _, codes = engine(paths, workspace)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert not codes.any()
            sweeps.append(counts.sum())
        assert sweeps[1] > 4 * sweeps[0]
        assert max(peaks) < 1.5 * block
        assert abs(peaks[1] - peaks[0]) < 0.1 * block


class TestNonFiniteScreen:
    # _non_finite_codes checks its arrays one by one, in order; it must
    # warn nothing and miss nothing
    CODES = (1, 2, 3, 4)

    @staticmethod
    def finite(n, m, seed, scale):
        # at scale 1.7e308 every sum of the values overflows
        return np.random.default_rng(seed).choice([-1.0, 1.0], (n, m)) * scale

    @pytest.mark.filterwarnings("error")
    def test_overflowing_finite_values_fail_no_row(self):
        arrays = [self.finite(5, 8, seed, 1.7e308) for seed in range(4)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(sum(np.add.reduce(a, axis=None) for a in arrays))
        codes = solver._non_finite_codes(tuple(zip(arrays, self.CODES)), 5)
        assert codes.dtype == np.int8 and codes.tolist() == [0] * 5

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [(np.inf, -np.inf), (np.nan, np.nan)], ids=["inf", "nan"])
    @pytest.mark.parametrize("first", range(4), ids=("beta", "sigma", "slope", "iterate"))
    @pytest.mark.parametrize("scale", [0.5, 1.7e308])
    def test_fails_exactly_the_non_finite_rows(self, scale, first, bad):
        n, m = 6, 4
        arrays = [self.finite(n, m, seed, scale) for seed in range(4)]
        arrays[first][1, 2], arrays[first][4, 0] = bad
        for later in arrays[first + 1 :]:
            later[4, 3] = np.nan  # a row keeps the first cause in check order
        codes = solver._non_finite_codes(tuple(zip(arrays, self.CODES)), n)
        assert codes.tolist() == [0, self.CODES[first], 0, 0, self.CODES[first], 0]


class TestOutcomeCodes:
    # each outcome of a row, its code, and the exception that solve
    # raises for it: type, message and attributes
    @staticmethod
    def problem(x0, k1, k2, beta, sigma):
        return problem_from_sources({"x0": x0, "k1": k1, "k2": k2, "beta": beta, "sigma": sigma})

    OUTCOMES = {
        "solved": (0, None, None, {}),
        "beta": (1, NonFiniteIterateError, "beta(x) is not finite at the current iterate", {}),
        "sigma": (2, NonFiniteIterateError, "sigma(x) is not finite at the current iterate", {}),
        "slope": (2, NonFiniteIterateError, "sigma(x) is not finite at the current iterate", {}),
        "iterate": (3, NonFiniteIterateError, "iterate is not finite", {}),
        "no convergence": (
            4,
            NonConvergenceError,
            "no convergence after 200 iterations (residual 8.198e+01)",
            {"residual": 81.98470914353894, "iterations": 200},
        ),
    }

    def case(self, name):
        path = sample_path(16, (1, 1))
        return {
            "solved": (builtin_example(2), path),
            "beta": (self.problem("0", "1", "0", "1/x", "1"), path),
            "sigma": (self.problem("-1", "0", "1", "0", "sqrt(x)"), path),  # sqrt(-1)
            "slope": (self.problem("0", "0", "1", "0", "sqrt(x)"), path),  # sqrt'(0)
            "iterate": (self.problem("10^308", "1", "0", "10^308", "0"), path),
            "no convergence": (builtin_example(1), sample_path(16, (42, 3)) * 3000),
        }[name]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", OUTCOMES)
    def test_code_and_exception(self, name):
        code, kind, message, attributes = self.OUTCOMES[name]
        prob, path = self.case(name)
        _, _, residuals, codes = _batch_solver(prob, 16)(path[None])
        assert codes.dtype == np.int8 and codes.tolist() == [code]
        if kind is None:
            assert solve(prob, path).residual == residuals[0] <= solver._TOL
            return
        with pytest.raises(kind) as raised:
            solve(prob, path)
        assert type(raised.value) is kind and str(raised.value) == message
        assert vars(raised.value) == attributes
        # a row that did not converge keeps its last residual
        assert residuals[0] == attributes["residual"] if attributes else np.isnan(residuals[0])


class TestBuiltins:
    def test_metadata(self):
        p1 = builtin_example(1)
        p2 = builtin_example(2)
        assert p1.label == "example-1"
        assert p2.label == "example-2"
        assert p1.x0 == 0.0
        assert p2.x0 == 0.1

    def test_constant_kernels_fold(self):
        p2 = builtin_example(2)
        assert isinstance(p2.k1, float)
        assert p2.k1 == -((1 / 30) ** 2)
        assert p2.k2 == 1 / 30

    def test_invalid_id(self):
        with pytest.raises(ValueError) as err:
            builtin_example(3)
        assert "1, 2" in str(err.value)

    def test_constant_exact_broadcasts(self):
        # exact = 1/2 folds to a constant, which takes the shape of (t, B)
        sources = {"x0": "0", "k1": "0", "k2": "0", "beta": "0", "sigma": "0", "exact": "1/2"}
        exact = problem_from_sources(sources).exact
        got = exact(np.array([0.1, 0.3]), np.zeros((3, 2)))
        assert got.shape == (3, 2)
        assert (got == 0.5).all()

    @pytest.mark.parametrize("example_id", [1, 2])
    def test_exact_on_arrays_matches_scalars(self, example_id):
        exact = builtin_example(example_id).exact
        m = 256
        B = np.stack([sample_path(m, (3, trial))[1::2] for trial in range(1, 5)])
        got = exact(midpoints(m), B)
        assert got.shape == B.shape
        scalar = [[exact(float(t), float(b)) for t, b in zip(midpoints(m), row)] for row in B]
        assert np.array_equal(got, np.array(scalar))

    def test_nonlinearities(self):
        p1 = builtin_example(1)
        assert abs(p1.beta(0.3) - np.tanh(0.3) / np.cosh(0.3) ** 2) < 1e-15
        assert abs(p1.sigma(0.3) - 1 / np.cosh(0.3)) < 1e-15
        p2 = builtin_example(2)
        assert p2.beta(0.5) == 0.375
        assert p2.sigma(0.5) == 0.75
