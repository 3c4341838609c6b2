"""Collocation assembly and the fixed point solver."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from walshvie import solver
from walshvie.brownian import _path_values, sample_path
from walshvie.operational import integration_matrix, stochastic_matrix
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
from walshvie.walsh import BasisConfig, project_kernel


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
    cfg = BasisConfig.from_resolution((len(path) - 1) // 2)
    m, h = cfg.m, cfg.h
    G1 = m**3 * (project_kernel(problem.k1, cfg) * integration_matrix(cfg))
    K2 = project_kernel(problem.k2, cfg)
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
        cfg = BasisConfig.from_resolution(16)
        res = solve(exponential_problem(), np.zeros(2 * cfg.m + 1))
        h = cfg.h
        direct = np.empty(16)
        acc = 0.0
        for j in range(16):
            direct[j] = (1.0 + h * acc) / (1.0 - h / 2.0)
            acc += direct[j]
        assert np.allclose(res.x_colloc, direct, rtol=0, atol=1e-10)

    def test_exponential_accuracy(self):
        cfg = BasisConfig.from_resolution(32)
        res = solve(exponential_problem(), np.zeros(2 * cfg.m + 1))
        err = np.max(np.abs(res.x_colloc - np.exp(cfg.midpoints)))
        assert err <= 0.05

    def test_callable_constant_kernel_agrees(self):
        cfg = BasisConfig.from_resolution(8)
        res_const = solve(exponential_problem(), np.zeros(2 * cfg.m + 1))
        prob = ProblemSpec(
            x0=1.0,
            k1=lambda s, t: np.ones_like(s * t),
            k2=0.0,
            beta=lambda x: x,
            sigma=lambda x: 0.0 * x,
        )
        res_callable = solve(prob, np.zeros(2 * cfg.m + 1))
        assert np.allclose(res_const.x_colloc, res_callable.x_colloc, rtol=0, atol=1e-12)


class TestStochasticFixedPoints:
    def test_example1_zero_path(self):
        # on the zero path the solution of example 1 is identically 0
        cfg = BasisConfig.from_resolution(16)
        prob = builtin_example(1)
        path = np.zeros(2 * cfg.m + 1)
        res = solve(prob, path)
        assert np.max(np.abs(res.x_colloc)) <= 1e-10
        for j, t in enumerate(cfg.midpoints):
            assert abs(prob.exact(t, path[2 * j + 1])) <= 1e-15

    def test_example2_degenerate_noise(self):
        # a = 0 freezes example 2 at its initial value 0.1
        cfg = BasisConfig.from_resolution(16)
        prob = builtin_example(2, a="0")
        path = sample_path(cfg, seed=99)
        res = solve(prob, path)
        assert np.max(np.abs(res.x_colloc - 0.1)) <= 1e-10
        for j, t in enumerate(cfg.midpoints):
            assert abs(prob.exact(t, path[2 * j + 1]) - 0.1) <= 1e-12

    def test_example1_degenerate_noise(self):
        cfg = BasisConfig.from_resolution(8)
        res = solve(builtin_example(1, a="0"), sample_path(cfg, seed=1))
        assert np.max(np.abs(res.x_colloc)) <= 1e-10


class TestSolveOnSampledPaths:
    def test_example1_accuracy(self):
        cfg = BasisConfig.from_resolution(16)
        prob = builtin_example(1)
        path = sample_path(cfg, seed=42)
        res = solve(prob, path)
        exact = prob.exact(cfg.midpoints, path[1::2])
        assert np.max(np.abs(res.x_colloc - exact)) <= 1e-3

    def test_causality(self):
        # x at block j only sees the path up to that block: perturbing
        # later path values must not move earlier solution values
        cfg = BasisConfig.from_resolution(16)
        prob = builtin_example(2)
        base = sample_path(cfg, seed=7)
        j = 9
        bumped = base.copy()
        bumped[2 * j + 2 :] += 0.5
        res_a = solve(prob, base)
        res_b = solve(prob, bumped)
        assert np.allclose(res_a.x_colloc[: j + 1], res_b.x_colloc[: j + 1], rtol=0, atol=1e-10)
        assert not np.allclose(res_a.x_colloc[j + 1 :], res_b.x_colloc[j + 1 :], atol=1e-10)

    def test_determinism(self):
        cfg = BasisConfig.from_resolution(16)
        prob = builtin_example(2)
        a = solve(prob, sample_path(cfg, seed=5))
        b = solve(prob, sample_path(cfg, seed=5))
        assert np.array_equal(a.x_colloc, b.x_colloc)
        assert a.iterations == b.iterations


class TestDenseReference:
    @pytest.mark.parametrize("m", [8, 256])
    def test_callable_kernel_operators_match_dense(self, m, monkeypatch):
        # the engine builds G1 and the strict upper K2 operator straight
        # from the projected triangle; applied to the identity they must
        # equal the dense products of the same projection bit for bit.
        # The kernels use s outside t - s, so they are not difference
        # kernels and take the triangle.  A negative k2 checks that its
        # diagonal is set to +0.0, which array_equal cannot tell from
        # -0.0, in the operator's matrix as well as in its product
        matrices = []
        by_row = solver._by_row
        monkeypatch.setattr(solver, "_by_row", lambda a, M: matrices.append(M) or by_row(a, M))
        cfg = BasisConfig.from_resolution(m)
        for sign in ("", "-"):
            prob = problem_from_sources({
                "x0": "1/10",
                "k1": "-(1/30)^2*exp(-t)*(1+s)",
                "k2": sign + "(1/30)*exp(-t)*(1+s)",
                "beta": "x*(1-x^2)",
                "sigma": "1-x^2",
            })
            assert not prob.k1.difference_kernel and not prob.k2.difference_kernel
            drift, k1_ss = _kernel_operator(prob.k1, cfg, "k1", 0.5)
            noise, k2_ss = _kernel_operator(prob.k2, cfg, "k2", 0.0)
            K1 = project_kernel(prob.k1, cfg)
            K2 = project_kernel(prob.k2, cfg)
            assert np.array_equal(drift(np.eye(m)), m**3 * (K1 * integration_matrix(cfg)))
            assert np.array_equal(np.diagonal(drift(np.eye(m))), 0.5 * (m * m * np.diagonal(K1)))
            assert np.array_equal(k1_ss, m * m * np.diagonal(K1))
            assert np.array_equal(noise(np.eye(m)), m * m * np.triu(K2, 1))
            assert np.diagonal(noise(np.eye(m))).tobytes() == np.zeros(m).tobytes()
            assert np.diagonal(matrices[-1]).tobytes() == np.zeros(m).tobytes()
            assert np.array_equal(k2_ss, m * m * np.diagonal(K2))

    @pytest.mark.parametrize("example_id", [1, 2])
    @pytest.mark.parametrize("m", [8, 256, 1024])
    def test_cumulative_sums_match_dense_operators(self, example_id, m):
        prob = builtin_example(example_id)
        cfg = BasisConfig.from_resolution(m)
        for trial in range(1, 4):
            path = sample_path(cfg, (11, trial))
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
        cfg = BasisConfig.from_resolution(64)
        for trial in range(1, 4):
            path = sample_path(cfg, (12, trial))
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
        cfg = BasisConfig.from_resolution(m)
        for k2 in (DIFFERENCE_SOURCES["k2"], "-" + DIFFERENCE_SOURCES["k2"]):
            prob = problem_from_sources({**DIFFERENCE_SOURCES, "k2": k2})
            lag_rows.clear()
            drift, k1_ss = _kernel_operator(prob.k1, cfg, "k1", 0.5)
            noise, k2_ss = _kernel_operator(prob.k2, cfg, "k2", 0.0)
            K1 = project_kernel(prob.k1, cfg)
            K2 = project_kernel(prob.k2, cfg)
            for got, dense in [
                (drift(np.eye(m)), m**3 * (K1 * integration_matrix(cfg))),
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
        cfg = BasisConfig.from_resolution(m)
        paths = np.stack([sample_path(cfg, (19, trial)) for trial in range(1, 5)])
        fast, fast_sweeps, _, _ = _batch_solver(prob, cfg)(paths)
        slow, slow_sweeps, _, _ = _batch_solver(on_the_triangle(prob), cfg)(paths)
        for a, b, a_sweeps, b_sweeps in zip(fast, slow, fast_sweeps, slow_sweeps):
            assert np.max(np.abs(a - b)) <= 1e-14
            assert a_sweeps == b_sweeps

    def test_builds_no_triangle(self, monkeypatch):
        calls = []
        monkeypatch.setattr(solver, "project_kernel", lambda *args: calls.append(args) or project_kernel(*args))
        prob = problem_from_sources(DIFFERENCE_SOURCES)
        cfg = BasisConfig.from_resolution(16)
        _kernel_operator(prob.k1, cfg, "k1", 0.5)
        _kernel_operator(prob.k2, cfg, "k2", 0.0)
        assert calls == []
        triangle = on_the_triangle(prob)
        _kernel_operator(triangle.k1, cfg, "k1", 0.5)
        _kernel_operator(triangle.k2, cfg, "k2", 0.0)
        assert [name for _, _, name in calls] == ["k1", "k2"]

    def test_memory_at_the_largest_m(self):
        # the triangle path peaks near 270 MB here (two 4096 x 4096
        # arrays); the lag rows and their spectra are O(m)
        prob = problem_from_sources(DIFFERENCE_SOURCES)
        path = sample_path(BasisConfig.from_resolution(4096), seed=3)
        tracemalloc.start()
        try:
            solve(prob, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestItoCorrection:
    def test_time_dependent_kernel_keeps_ito_mean(self):
        # x = 1 + int k2(s,t) x dB with k2 = (1 + t - s)/2: an Ito
        # integral has mean 0, so E x(t) = 1.  The midpoint pairing
        # alone converges to the Stratonovich solution, whose mean at
        # the last midpoint is about 1.2; this checks the
        # k2(s,t) k2(s,s) factor of the correction.
        cfg = BasisConfig.from_resolution(16)
        prob = ProblemSpec(
            x0=1.0,
            k1=0.0,
            k2=lambda s, t: 0.5 * (1.0 + t - s),
            beta=lambda x: 0.0 * x,
            sigma=lambda x: x,
        )
        n = 1000
        last = np.array([solve(prob, sample_path(cfg, (6000, i))).x_colloc[-1] for i in range(1, n + 1)])
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
        cfg = BasisConfig.from_resolution(64)
        prob = ProblemSpec(x0=0.5, k1=0.0, k2=1.0, beta=lambda x: 0.0 * x, sigma=sigma)
        x = solve(prob, np.zeros(2 * cfg.m + 1)).x_colloc[0]
        assert abs(x - (0.5 - cfg.h / 4 * sigma(x) * slope(x))) <= 1e-12

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_expression_sigma_finite_where_its_value_is(self):
        # 1/cosh(x) is 0 at x = 1e5, where a complex cosh overflows to
        # inf + inf j and the complex step would give nan
        sigma = problem_from_sources({"x0": "0", "k1": "0", "k2": "1", "beta": "0", "sigma": "sech(x)"}).sigma
        value, slope = solver._sigma_with_slope(sigma, np.array([[1e5, -1e5]]))
        assert np.array_equal(value, [[0.0, 0.0]])
        assert np.array_equal(slope, [[0.0, 0.0]])

    @pytest.mark.parametrize("sigma", [np.abs, lambda x: math.exp(x)], ids=["np.abs", "math.exp"])
    def test_real_only_sigma_is_refused(self, sigma):
        cfg = BasisConfig.from_resolution(8)
        prob = ProblemSpec(x0=0.5, k1=0.0, k2=1 / 30, beta=lambda x: 0.0 * x, sigma=sigma)
        with pytest.raises(TypeError, match="sigma"):
            solve(prob, sample_path(cfg, seed=2))

    @pytest.mark.parametrize("sigma", [np.abs], ids=["np.abs"])
    def test_real_only_sigma_without_noise_solves(self, sigma):
        cfg = BasisConfig.from_resolution(8)
        prob = ProblemSpec(x0=0.5, k1=0.0, k2=0.0, beta=lambda x: 0.0 * x, sigma=sigma)
        res = solve(prob, sample_path(cfg, seed=2))
        assert np.array_equal(res.x_colloc, np.full(8, 0.5))

    def test_folded_constant_sigma_solves(self):
        # sigma = 2 folds to a constant, whose slope is 0, by with_slope
        # or by the complex step
        prob = problem_from_sources({"x0": "0", "k1": "0", "k2": "1/30", "beta": "0", "sigma": "2"})
        assert np.iscomplexobj(prob.sigma(np.zeros(3) + 0j))
        value, slope = prob.sigma.with_slope(np.ones((2, 3)))
        assert np.array_equal(value, np.full((2, 3), 2.0))
        assert np.array_equal(slope, np.zeros((2, 3)))
        cfg = BasisConfig.from_resolution(8)
        path = sample_path(cfg, seed=13)
        res = solve(prob, path)
        assert np.allclose(res.x_colloc, (2 / 30) * path[1::2], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("src", ["1 + sqrt(x-x)", "1 + (x-x)^0.5", "1 + sqrt(2*(x-x))"])
    def test_sigma_part_that_cannot_vary_has_slope_zero(self, src):
        # sqrt' is infinite at x - x = 0, but that part cannot vary with
        # x, so sigma' is 0 and sigma is the constant 1
        sources = {"x0": "1/10", "k1": "-1/900", "k2": "1/30", "beta": "x*(1-x^2)"}
        prob = problem_from_sources({**sources, "sigma": src})
        value, slope = prob.sigma.with_slope(np.full(3, 0.25))
        assert np.array_equal(value, np.ones(3)) and np.array_equal(slope, np.zeros(3))
        path = sample_path(BasisConfig.from_resolution(64), (7, 1))
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
            cfg = BasisConfig.from_resolution(m)
            normals = np.vstack([np.zeros(2 * m), np.eye(2 * m)])
            x, _, _, errors = _batch_solver(prob, cfg)(_path_values(normals, cfg.h))
            assert errors == [None] * (2 * m + 1)
            t = cfg.midpoints
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
        cfg = BasisConfig.from_resolution(16)
        with pytest.raises(NonConvergenceError) as err:
            solve(exponential_problem(), np.zeros(2 * cfg.m + 1))
        assert err.value.iterations == 2
        assert np.isfinite(err.value.residual)

    def test_non_finite_iterate(self):
        cfg = BasisConfig.from_resolution(8)
        prob = ProblemSpec(
            x0=2.0,
            k1=50.0,
            k2=0.0,
            beta=lambda x: np.exp(x * x),
            sigma=lambda x: 0.0 * x,
        )
        with pytest.raises(NonFiniteIterateError):
            solve(prob, np.zeros(2 * cfg.m + 1))

    def test_sigma_outside_its_real_domain(self):
        # sqrt'(0) is infinite and sqrt(x) is nan for x < 0: a failure,
        # not the real part of an imaginary root
        prob = problem_from_sources({"x0": "0", "k1": "0", "k2": "1", "beta": "0", "sigma": "sqrt(x)"})
        cfg = BasisConfig.from_resolution(8)
        with pytest.raises(NonFiniteIterateError, match="^sigma\\(x\\) is not finite"):
            solve(prob, sample_path(cfg, (1, 1)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [16, 256])
    def test_blown_up_rows_fail_without_warnings(self, m):
        # example 2 at a = 2 blows up on some paths: x^3 in beta and
        # sigma sigma' overflow, which numpy would warn of from the
        # expression and from the update.  The engine reports each such
        # row with its cause instead, and the other rows converge
        cfg = BasisConfig.from_resolution(m)
        paths = np.stack([sample_path(cfg, (31, trial)) for trial in range(1, 9)])
        x, sweeps, _, errors = _batch_solver(builtin_example(2, a="2"), cfg)(paths)
        failed = [e is not None for e in errors]
        assert any(failed) and not all(failed)
        for row, error in enumerate(errors):
            if error is None:
                assert sweeps[row] > 0 and np.isfinite(x[row]).all()
            else:
                assert isinstance(error, NonFiniteIterateError)
                assert str(error) == "beta(x) is not finite at the current iterate"
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
        cfg = BasisConfig.from_resolution(8)
        with pytest.raises(TypeError, match=f"^{key} must take numpy arrays"):
            solve(prob, sample_path(cfg, seed=2))


class TestNonFiniteScreen:
    # _fail_non_finite screens its arrays with one sum before checking
    # them array by array; the screen must warn nothing and miss nothing
    MESSAGES = ("beta", "sigma", "slope", "iterate")

    @staticmethod
    def finite(n, m, seed, scale):
        # at scale 1.7e308 every sum of the values overflows
        return np.random.default_rng(seed).choice([-1.0, 1.0], (n, m)) * scale

    @pytest.mark.filterwarnings("error")
    def test_overflowing_finite_values_fail_no_row(self):
        arrays = [self.finite(5, 8, seed, 1.7e308) for seed in range(4)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(sum(np.add.reduce(a, axis=None) for a in arrays))
        errors = [None] * 5
        failed = solver._fail_non_finite(np.arange(5), tuple(zip(arrays, self.MESSAGES)), errors)
        assert not failed.any()
        assert errors == [None] * 5

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [(np.inf, -np.inf), (np.nan, np.nan)], ids=["inf", "nan"])
    @pytest.mark.parametrize("first", range(4), ids=MESSAGES)
    @pytest.mark.parametrize("scale", [0.5, 1.7e308])
    def test_fails_exactly_the_non_finite_rows(self, scale, first, bad):
        n, m = 6, 4
        arrays = [self.finite(n, m, seed, scale) for seed in range(4)]
        arrays[first][1, 2], arrays[first][4, 0] = bad
        for later in arrays[first + 1 :]:
            later[4, 3] = np.nan  # a row keeps the first cause in check order
        rows = np.arange(10, 10 + n)
        errors = [None] * (10 + n)
        failed = solver._fail_non_finite(rows, tuple(zip(arrays, self.MESSAGES)), errors)
        assert failed.tolist() == [False, True, False, False, True, False]
        assert errors[:11] == [None] * 11 and errors[12:14] == [None] * 2 and errors[15] is None
        for r in (11, 14):
            assert isinstance(errors[r], NonFiniteIterateError)
            assert str(errors[r]) == self.MESSAGES[first]


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
        cfg = BasisConfig.from_resolution(256)
        B = np.stack([sample_path(cfg, (3, trial))[1::2] for trial in range(1, 5)])
        got = exact(cfg.midpoints, B)
        assert got.shape == B.shape
        scalar = [[exact(float(t), float(b)) for t, b in zip(cfg.midpoints, row)] for row in B]
        assert np.array_equal(got, np.array(scalar))

    def test_nonlinearities(self):
        p1 = builtin_example(1)
        assert abs(p1.beta(0.3) - np.tanh(0.3) / np.cosh(0.3) ** 2) < 1e-15
        assert abs(p1.sigma(0.3) - 1 / np.cosh(0.3)) < 1e-15
        p2 = builtin_example(2)
        assert p2.beta(0.5) == 0.375
        assert p2.sigma(0.5) == 0.75
