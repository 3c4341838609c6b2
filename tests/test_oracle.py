"""Euler-Maruyama reference integrator."""

import dataclasses
import math
import warnings
from numbers import Real

import numpy as np
import pytest

from walshvie import expressions
from walshvie.brownian import sample_path
from walshvie.oracle import euler_maruyama
from walshvie.problemfile import problem_from_text
from walshvie.solver import NonFiniteIterateError, ProblemSpec, builtin_example, solve

# the time-dependent kernels of the benchmark's kernel-file workload
KERNEL_FILE = """\
label = kernel-file
x0    = 1/10
k1    = -(1/30)^2*exp(-(t-s))
k2    = (1/30)*exp(-(t-s)/2)
beta  = x*(1-x^2)
sigma = 1-x^2
"""


def scalar_loop(problem, path):
    """Reference: the oracle's steps with one scalar call of each kernel,
    beta and sigma per step.  Returns (values, midpoint_values)."""
    m = (len(path) - 1) // 2
    h = 1.0 / m

    def as_kernel(k):
        return (lambda s, t: float(k)) if isinstance(k, Real) else k

    k1, k2 = as_kernel(problem.k1), as_kernel(problem.k2)
    y = np.empty(m + 1)
    y[0] = float(problem.x0)
    for j in range(m):
        s = j * h
        t_next = (j + 1) * h
        dB = path[2 * j + 2] - path[2 * j]
        y[j + 1] = (
            y[j]
            + float(k1(s, t_next)) * float(problem.beta(y[j])) * h
            + float(k2(s, t_next)) * float(problem.sigma(y[j])) * dB
        )
        if not np.isfinite(y[j + 1]):
            raise NonFiniteIterateError(f"oracle iterate is not finite at step {j + 1}")
    return y, 0.5 * (y[:-1] + y[1:])


def exponential_problem():
    return ProblemSpec(x0=1.0, k1=1.0, k2=0.0, beta=lambda x: x, sigma=lambda x: 0.0 * x)


class TestDeterministicStepping:
    def test_compound_growth_recursion(self):
        # k1=1, beta=x, sigma=0 steps as y_{j+1} = y_j (1+h) exactly
        values, _ = euler_maruyama(exponential_problem(), np.zeros(33))
        y = 1.0
        for j in range(16):
            y = y * (1 + 1 / 16)
            assert values[j + 1] == y

    def test_approaches_e(self):
        values, _ = euler_maruyama(exponential_problem(), np.zeros(129))
        assert abs(values[-1] - np.e) <= 0.03

    def test_kernel_frozen_at_step_target(self):
        # k1(s,t) = t evaluated at t_{j+1}: hand-computed at m=4
        prob = ProblemSpec(
            x0=1.0, k1=lambda s, t: t, k2=0.0, beta=lambda x: x, sigma=lambda x: 0.0 * x
        )
        values, _ = euler_maruyama(prob, np.zeros(9))
        assert values[1] == 1.0625
        assert values[2] == 1.1953125
        assert values[3] == 1.419433593750
        assert values[4] == 1.77429199218750

    def test_shapes_and_grid(self):
        values, midpoint_values = euler_maruyama(exponential_problem(), np.zeros(17))
        assert values.shape == (9,)
        assert midpoint_values.shape == (8,)

    def test_arrays_are_read_only(self):
        for a in euler_maruyama(exponential_problem(), np.zeros(17)):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_midpoints_average_adjacent(self):
        values, midpoint_values = euler_maruyama(exponential_problem(), np.zeros(17))
        assert (midpoint_values == 0.5 * (values[:-1] + values[1:])).all()


class TestStochasticFixedPoints:
    def test_example1_zero_path(self):
        values, _ = euler_maruyama(builtin_example(1), np.zeros(65))
        assert (values == 0.0).all()

    def test_example2_degenerate_noise(self):
        values, _ = euler_maruyama(builtin_example(2, a="0"), sample_path(32, seed=4))
        assert np.max(np.abs(values - 0.1)) <= 1e-12


class TestCrossValidation:
    def test_tracks_collocation_solution(self):
        # independent schemes on the same path stay close; the gap is
        # dominated by EM's midpoint averaging, scale a*sqrt(h)/2
        prob = builtin_example(1)
        path = sample_path(32, seed=12)
        res = solve(prob, path)
        _, midpoint_values = euler_maruyama(prob, path)
        disc = np.max(np.abs(res.x_colloc - midpoint_values))
        assert disc <= 0.05

    def test_discrepancy_shrinks_with_resolution(self):
        # averaged over seeds, halving h reduces the gap roughly by sqrt(2)^2
        prob = builtin_example(2)
        mean_disc = {}
        for m in (16, 64):
            gaps = []
            for seed in range(10):
                path = sample_path(m, (100, seed))
                res = solve(prob, path)
                _, midpoint_values = euler_maruyama(prob, path)
                gaps.append(np.max(np.abs(res.x_colloc - midpoint_values)))
            mean_disc[m] = np.mean(gaps)
        assert mean_disc[64] < mean_disc[16]
        assert 1.2 <= mean_disc[16] / mean_disc[64] <= 3.5


class TestMatchesScalarLoop:
    # kernels evaluated once on arrays give the bits of one scalar call
    # per step, also where an iterate turns non-finite (example 2, a = 4,
    # at m = 16)
    PROBLEMS = {
        "kernel-file": lambda: problem_from_text(KERNEL_FILE),
        "example-1": lambda: builtin_example(1),
        "example-2": lambda: builtin_example(2),
        "example-1-a2": lambda: builtin_example(1, a="2"),
        "example-2-a2": lambda: builtin_example(2, a="2"),
        "example-2-a4": lambda: builtin_example(2, a="4"),
        "lambdas": lambda: ProblemSpec(
            x0=0.2,
            k1=lambda s, t: -0.5 * np.exp(-s * t),
            k2=lambda s, t: np.cos(s * t) + t,
            beta=np.sin,
            sigma=np.cos,
        ),
    }

    @pytest.mark.parametrize("m", [2, 16, 2048])
    @pytest.mark.parametrize("name", PROBLEMS)
    def test_same_bits(self, name, m):
        prob = self.PROBLEMS[name]()
        for seed in range(3):
            path = sample_path(m, (31, seed))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    values, midpoints = scalar_loop(prob, path)
            except NonFiniteIterateError as exc:
                with pytest.raises(NonFiniteIterateError) as err:
                    euler_maruyama(prob, path)
                assert str(err.value) == str(exc)
                continue
            got_values, got_midpoints = euler_maruyama(prob, path)
            assert got_values.tobytes() == values.tobytes()
            assert got_midpoints.tobytes() == midpoints.tobytes()

    @pytest.mark.parametrize("m", [64, 2048])
    @pytest.mark.parametrize("name", ["kernel-file", "example-1", "example-2"])
    def test_one_generated_call_per_step(self, name, m):
        # compiled beta and sigma are evaluated by one generated function
        # per step, the same pair wrapped in lambdas by two calls; both
        # give the bits of the scalar loop
        prob = self.PROBLEMS[name]()
        assert expressions._compiled(prob.beta, prob.sigma)
        wrapped = dataclasses.replace(prob, beta=lambda x: prob.beta(x), sigma=lambda x: prob.sigma(x))
        assert not expressions._compiled(wrapped.beta, wrapped.sigma)
        for seed in range(3):
            path = sample_path(m, (37, seed))
            values, midpoints = scalar_loop(prob, path)
            for problem in (prob, wrapped):
                got_values, got_midpoints = euler_maruyama(problem, path)
                assert got_values.tobytes() == values.tobytes()
                assert got_midpoints.tobytes() == midpoints.tobytes()


class TestValidation:
    @staticmethod
    def exploding_problem():
        # exp(x^2) drift from x0 = 2 overflows within a few steps
        return ProblemSpec(
            x0=2.0, k1=500.0, k2=0.0, beta=lambda x: np.exp(x * x), sigma=lambda x: 0.0 * x
        )

    def test_non_finite_surfaces(self):
        prob = ProblemSpec(
            x0=2.0, k1=500.0, k2=0.0, beta=lambda x: np.exp(x * x), sigma=lambda x: 0.0 * x
        )
        with pytest.raises(NonFiniteIterateError):
            euler_maruyama(prob, np.zeros(17))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_raises_without_warnings(self):
        # the same step and message as the scalar loop, and no numpy warning
        path = np.zeros(17)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NonFiniteIterateError) as want:
                scalar_loop(self.exploding_problem(), path)
        with pytest.raises(NonFiniteIterateError) as got:
            euler_maruyama(self.exploding_problem(), path)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("key", ["k1", "k2"])
    def test_kernel_refusing_arrays_is_a_type_error(self, key):
        kernel = lambda s, t: math.exp(-(t - s))
        prob = dataclasses.replace(builtin_example(2), **{key: kernel})
        with pytest.raises(TypeError, match=key):
            euler_maruyama(prob, sample_path(8, 3))
