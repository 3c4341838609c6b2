"""Euler-Maruyama reference integrator."""

import numpy as np
import pytest

from walshvie.brownian import sample_path, zero_path
from walshvie.oracle import euler_maruyama
from walshvie.solver import NonFiniteIterateError, ProblemSpec, builtin_example, solve
from walshvie.walsh import BasisConfig


def exponential_problem():
    return ProblemSpec(x0=1.0, k1=1.0, k2=0.0, beta=lambda x: x, sigma=lambda x: 0.0 * x)


class TestDeterministicStepping:
    def test_compound_growth_recursion(self):
        # k1=1, beta=x, sigma=0 steps as y_{j+1} = y_j (1+h) exactly
        cfg = BasisConfig.from_resolution(16)
        out = euler_maruyama(exponential_problem(), zero_path(cfg))
        y = 1.0
        for j in range(16):
            y = y * (1 + cfg.h)
            assert out.values[j + 1] == y

    def test_approaches_e(self):
        cfg = BasisConfig.from_resolution(64)
        out = euler_maruyama(exponential_problem(), zero_path(cfg))
        assert abs(out.values[-1] - np.e) <= 0.03

    def test_kernel_frozen_at_step_target(self):
        # k1(s,t) = t evaluated at t_{j+1}: hand-computed at m=4
        cfg = BasisConfig.from_resolution(4)
        prob = ProblemSpec(
            x0=1.0, k1=lambda s, t: t, k2=0.0, beta=lambda x: x, sigma=lambda x: 0.0 * x
        )
        out = euler_maruyama(prob, zero_path(cfg))
        assert out.values[1] == 1.0625
        assert out.values[2] == 1.1953125
        assert out.values[3] == 1.419433593750
        assert out.values[4] == 1.77429199218750

    def test_shapes_and_grid(self):
        cfg = BasisConfig.from_resolution(8)
        out = euler_maruyama(exponential_problem(), zero_path(cfg))
        assert out.values.shape == (9,)
        assert out.midpoint_values.shape == (8,)

    def test_midpoints_average_adjacent(self):
        cfg = BasisConfig.from_resolution(8)
        out = euler_maruyama(exponential_problem(), zero_path(cfg))
        assert (out.midpoint_values == 0.5 * (out.values[:-1] + out.values[1:])).all()


class TestStochasticFixedPoints:
    def test_example1_zero_path(self):
        cfg = BasisConfig.from_resolution(32)
        out = euler_maruyama(builtin_example(1), zero_path(cfg))
        assert (out.values == 0.0).all()

    def test_example2_degenerate_noise(self):
        cfg = BasisConfig.from_resolution(32)
        out = euler_maruyama(builtin_example(2, a="0"), sample_path(cfg, seed=4))
        assert np.max(np.abs(out.values - 0.1)) <= 1e-12


class TestCrossValidation:
    def test_tracks_collocation_solution(self):
        # independent schemes on the same path stay close; the gap is
        # dominated by EM's midpoint averaging, scale a*sqrt(h)/2
        cfg = BasisConfig.from_resolution(32)
        prob = builtin_example(1)
        path = sample_path(cfg, seed=12)
        res = solve(prob, path)
        out = euler_maruyama(prob, path)
        disc = np.max(np.abs(res.x_colloc - out.midpoint_values))
        assert disc <= 0.05

    def test_discrepancy_shrinks_with_resolution(self):
        # averaged over seeds, halving h reduces the gap roughly by sqrt(2)^2
        prob = builtin_example(2)
        mean_disc = {}
        for m in (16, 64):
            cfg = BasisConfig.from_resolution(m)
            gaps = []
            for seed in range(10):
                path = sample_path(cfg, (100, seed))
                res = solve(prob, path)
                out = euler_maruyama(prob, path)
                gaps.append(np.max(np.abs(res.x_colloc - out.midpoint_values)))
            mean_disc[m] = np.mean(gaps)
        assert mean_disc[64] < mean_disc[16]
        assert 1.2 <= mean_disc[16] / mean_disc[64] <= 3.5


class TestValidation:
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_surfaces(self):
        cfg = BasisConfig.from_resolution(8)
        prob = ProblemSpec(
            x0=2.0, k1=500.0, k2=0.0, beta=lambda x: np.exp(x * x), sigma=lambda x: 0.0 * x
        )
        with pytest.raises(NonFiniteIterateError):
            euler_maruyama(prob, zero_path(cfg))
