"""Collocation assembly and the fixed point solver."""

import dataclasses
import math

import numpy as np
import pytest

from walshvie.brownian import sample_path, zero_path
from walshvie.operational import integration_matrix, stochastic_matrix
from walshvie.solver import (
    NonConvergenceError,
    NonFiniteIterateError,
    ProblemSpec,
    SolverOptions,
    _volterra_sums,
    builtin_example,
    problem_from_sources,
    reconstruct,
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


def dense_solve(problem, path, options=None):
    """Reference: the dense formulation of solve(), with the operators
    G1 = m^3 K1 o P, m^2 triu(K2, 1) and m^2 diag(K2) built as m x m
    arrays and applied by matrix products.  Returns the solution and
    the sweep count."""
    opts = options or SolverOptions()
    cfg = BasisConfig.from_resolution(path.m)
    m, h = cfg.m, cfg.h
    G1 = m**3 * (project_kernel(problem.k1, cfg) * integration_matrix(cfg))
    K2 = project_kernel(problem.k2, cfg)
    upper2 = m * m * np.triu(K2, 1)
    k2_ss = m * m * np.diagonal(K2)
    v = path.values
    full, dB1, dB2 = v[2::2] - v[:-2:2], v[1::2] - v[:-2:2], v[2::2] - v[1::2]
    c_full = k2_ss * 0.5 * (dB2**2 - dB1**2 - h)
    c_half = k2_ss * (-0.5 * dB1**2 - h / 4.0)
    x0 = float(problem.x0)
    x = np.full(m, x0)
    previous, damped = np.inf, False
    for sweep in range(1, opts.max_iter + 1):
        z1 = h * problem.beta(x)
        s = problem.sigma(x + 1e-20j)
        sig, slope = s.real, s.imag / 1e-20
        w = sig * (full + slope * c_full)
        u = sig * (dB1 + slope * c_half)
        candidate = x0 + z1 @ G1 + w @ upper2 + k2_ss * u
        residual = np.max(np.abs(candidate - x))
        damped = damped or residual > previous
        if damped:
            candidate = x + opts.damping * (candidate - x)
            residual = np.max(np.abs(candidate - x))
        x = candidate
        if residual <= opts.tol:
            return x, sweep
        previous = residual
    raise NonConvergenceError(residual=residual, iterations=opts.max_iter)


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
        res = solve(exponential_problem(), zero_path(cfg))
        h = cfg.h
        direct = np.empty(16)
        acc = 0.0
        for j in range(16):
            direct[j] = (1.0 + h * acc) / (1.0 - h / 2.0)
            acc += direct[j]
        assert np.allclose(res.x_colloc, direct, rtol=0, atol=1e-10)

    def test_exponential_accuracy(self):
        cfg = BasisConfig.from_resolution(32)
        res = solve(exponential_problem(), zero_path(cfg))
        err = np.max(np.abs(res.x_colloc - np.exp(cfg.midpoints)))
        assert err <= 0.05

    def test_callable_constant_kernel_agrees(self):
        cfg = BasisConfig.from_resolution(8)
        res_const = solve(exponential_problem(), zero_path(cfg))
        prob = ProblemSpec(
            x0=1.0,
            k1=lambda s, t: np.ones_like(s * t),
            k2=0.0,
            beta=lambda x: x,
            sigma=lambda x: 0.0 * x,
        )
        res_callable = solve(prob, zero_path(cfg))
        assert np.allclose(res_const.x_colloc, res_callable.x_colloc, rtol=0, atol=1e-12)


class TestStochasticFixedPoints:
    def test_example1_zero_path(self):
        # on the zero path the solution of example 1 is identically 0
        cfg = BasisConfig.from_resolution(16)
        prob = builtin_example(1)
        res = solve(prob, zero_path(cfg))
        assert np.max(np.abs(res.x_colloc)) <= 1e-10
        for j, t in enumerate(cfg.midpoints):
            assert abs(prob.exact(t, zero_path(cfg).values[2 * j + 1])) <= 1e-15

    def test_example2_degenerate_noise(self):
        # a = 0 freezes example 2 at its initial value 0.1
        cfg = BasisConfig.from_resolution(16)
        prob = builtin_example(2, a="0")
        path = sample_path(cfg, seed=99)
        res = solve(prob, path)
        assert np.max(np.abs(res.x_colloc - 0.1)) <= 1e-10
        for j, t in enumerate(cfg.midpoints):
            assert abs(prob.exact(t, path.values[2 * j + 1]) - 0.1) <= 1e-12

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
        exact = prob.exact(cfg.midpoints, path.values[1::2])
        assert np.max(np.abs(res.x_colloc - exact)) <= 1e-3

    def test_causality(self):
        # x at block j only sees the path up to that block: perturbing
        # later path values must not move earlier solution values
        cfg = BasisConfig.from_resolution(16)
        prob = builtin_example(2)
        base = sample_path(cfg, seed=7)
        j = 9
        bumped_values = base.values.copy()
        bumped_values[2 * j + 2 :] += 0.5
        bumped = type(base)(values=bumped_values)
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
    def test_callable_kernel_operators_match_dense(self, m):
        # the engine builds G1 and the strict upper K2 operator straight
        # from the projected triangle; applied to the identity they must
        # equal the dense products of the same projection bit for bit
        prob = problem_from_sources({
            "x0": "1/10",
            "k1": "-(1/30)^2*exp(-(t-s))",
            "k2": "(1/30)*exp(-(t-s)/2)",
            "beta": "x*(1-x^2)",
            "sigma": "1-x^2",
        })
        cfg = BasisConfig.from_resolution(m)
        drift, noise, k2_ss = _volterra_sums(prob, cfg)
        K1 = project_kernel(prob.k1, cfg)
        K2 = project_kernel(prob.k2, cfg)
        assert np.array_equal(drift(np.eye(m)), m**3 * (K1 * integration_matrix(cfg)))
        assert np.array_equal(noise(np.eye(m)), m * m * np.triu(K2, 1))
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
            ("exp(x)", np.exp),
            ("tanh(x)", lambda x: 1.0 / np.cosh(x) ** 2),
            ("sech(x)", lambda x: -np.tanh(x) / np.cosh(x)),
            ("asinh(x)", lambda x: 1.0 / np.sqrt(1.0 + x * x)),
            ("atanh(x)", lambda x: 1.0 / (1.0 - x * x)),
            ("sqrt(x+1)", lambda x: 0.5 / np.sqrt(x + 1.0)),
            ("x^3", lambda x: 3.0 * x * x),
            ("1/x", lambda x: -1.0 / (x * x)),
        ],
    )
    def test_expression_sigma_slope(self, src, slope):
        # on the zero path block 0 sees only the Ito drift of its own
        # half block: x = x0 - (h/4) sigma sigma'(x)
        sigma = problem_from_sources({"x0": "0", "k1": "0", "k2": "1", "beta": "0", "sigma": src}).sigma
        cfg = BasisConfig.from_resolution(64)
        prob = ProblemSpec(x0=0.5, k1=0.0, k2=1.0, beta=lambda x: 0.0 * x, sigma=sigma)
        x = solve(prob, zero_path(cfg)).x_colloc[0]
        assert abs(x - (0.5 - cfg.h / 4 * sigma(x) * slope(x))) <= 1e-12

    @pytest.mark.parametrize("sigma", [np.abs, lambda x: math.exp(x)], ids=["np.abs", "math.exp"])
    def test_real_only_sigma_is_refused(self, sigma):
        cfg = BasisConfig.from_resolution(8)
        prob = ProblemSpec(x0=0.5, k1=0.0, k2=1 / 30, beta=lambda x: 0.0 * x, sigma=sigma)
        with pytest.raises(TypeError, match="sigma"):
            solve(prob, sample_path(cfg, seed=2))

    @pytest.mark.parametrize("sigma", [np.abs, lambda x: math.exp(x)], ids=["np.abs", "math.exp"])
    def test_real_only_sigma_without_noise_solves(self, sigma):
        cfg = BasisConfig.from_resolution(8)
        prob = ProblemSpec(x0=0.5, k1=0.0, k2=0.0, beta=lambda x: 0.0 * x, sigma=sigma)
        res = solve(prob, sample_path(cfg, seed=2))
        assert np.array_equal(res.x_colloc, np.full(8, 0.5))

    def test_folded_constant_sigma_solves(self):
        # sigma = 2 folds to a constant, whose complex-step slope is 0
        prob = problem_from_sources({"x0": "0", "k1": "0", "k2": "1/30", "beta": "0", "sigma": "2"})
        assert np.iscomplexobj(prob.sigma(np.zeros(3) + 0j))
        cfg = BasisConfig.from_resolution(8)
        path = sample_path(cfg, seed=13)
        res = solve(prob, path)
        assert np.allclose(res.x_colloc, (2 / 30) * path.values[1::2], rtol=0, atol=1e-15)


class TestFailureModes:
    def test_non_convergence(self):
        cfg = BasisConfig.from_resolution(16)
        with pytest.raises(NonConvergenceError) as err:
            solve(exponential_problem(), zero_path(cfg), SolverOptions(max_iter=2))
        assert err.value.iterations == 2
        assert np.isfinite(err.value.residual)

    @pytest.mark.filterwarnings("ignore:overflow")
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
            solve(prob, zero_path(cfg))


class TestReconstruct:
    def test_block_constant(self):
        cfg = BasisConfig.from_resolution(4)
        res = solve(exponential_problem(), zero_path(cfg))
        assert reconstruct(res, 0.0) == res.x_colloc[0]
        assert reconstruct(res, 0.26) == res.x_colloc[1]
        assert reconstruct(res, 0.999) == res.x_colloc[3]

    def test_domain(self):
        cfg = BasisConfig.from_resolution(4)
        res = solve(exponential_problem(), zero_path(cfg))
        with pytest.raises(ValueError):
            reconstruct(res, 1.0)


class TestBuiltins:
    def test_metadata(self):
        p1 = builtin_example(1)
        p2 = builtin_example(2)
        assert p1.label == "example-1"
        assert p2.label == "example-2"
        assert p1.x0 == 0.0
        assert p2.x0 == 0.1
        assert p1.sources["beta"] == "tanh(x)*sech(x)^2"

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
        B = np.stack([sample_path(cfg, (3, trial)).values[1::2] for trial in range(1, 5)])
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
