"""Seeded Brownian path sampling."""

import numpy as np
import pytest

from walshvie.brownian import BrownianPath, sample_path, zero_path
from walshvie.operational import stochastic_matrix
from walshvie.oracle import euler_maruyama
from walshvie.solver import builtin_example, solve
from walshvie.walsh import BasisConfig


class TestSampling:
    def test_deterministic(self):
        cfg = BasisConfig.from_resolution(16)
        a = sample_path(cfg, seed=42)
        b = sample_path(cfg, seed=42)
        assert (a.values == b.values).all()

    def test_distinct_seeds_differ(self):
        cfg = BasisConfig.from_resolution(16)
        a = sample_path(cfg, seed=42)
        b = sample_path(cfg, seed=43)
        assert not (a.values == b.values).all()

    def test_tuple_seed_streams(self):
        # per-trial streams keyed (base, trial) are mutually distinct
        cfg = BasisConfig.from_resolution(8)
        p1 = sample_path(cfg, (42, 1))
        p2 = sample_path(cfg, (42, 2))
        p3 = sample_path(cfg, 42)
        assert not (p1.values == p2.values).all()
        assert not (p1.values == p3.values).all()

    def test_starts_at_zero(self):
        path = sample_path(BasisConfig.from_resolution(4), seed=0)
        assert path.values[0] == 0.0
        assert len(path.values) == 9
        assert path.m == 4

    def test_zero_path(self):
        cfg = BasisConfig.from_resolution(8)
        path = zero_path(cfg)
        assert (path.values == 0.0).all()
        assert path.m == 8


class TestLookups:
    def test_value_at_grid_points(self):
        cfg = BasisConfig.from_resolution(8)
        path = sample_path(cfg, seed=7)
        for j in range(17):
            assert path.value_at(j * cfg.h / 2.0) == path.values[j]

    def test_value_at_off_grid_rejected(self):
        cfg = BasisConfig.from_resolution(8)
        path = sample_path(cfg, seed=7)
        with pytest.raises(ValueError):
            path.value_at(3 * cfg.h / 7.0)

    def test_last_midpoint_value(self):
        cfg = BasisConfig.from_resolution(16)
        path = sample_path(cfg, seed=11)
        # 0.9 falls between midpoints 27/32 and 29/32
        assert path.last_midpoint_value(0.9) == path.values[27]
        assert path.last_midpoint_value(27 / 32) == path.values[27]
        assert path.last_midpoint_value(0.0) == path.values[1]

    def test_midpoint_lookup_matches_value_at(self):
        cfg = BasisConfig.from_resolution(8)
        path = sample_path(cfg, seed=3)
        for j, t in enumerate(cfg.midpoints):
            assert path.last_midpoint_value(t) == path.value_at(t)


class TestValidation:
    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            BrownianPath(values=np.zeros(4), seed=None)

    def test_nonzero_origin_rejected(self):
        with pytest.raises(ValueError):
            BrownianPath(values=np.ones(5), seed=None)

    @pytest.mark.parametrize(
        "consumer",
        [
            lambda path: solve(builtin_example(1), path),
            lambda path: euler_maruyama(builtin_example(1), path),
            stochastic_matrix,
        ],
        ids=["solve", "euler_maruyama", "stochastic_matrix"],
    )
    def test_non_power_of_two_resolution_rejected(self, consumer):
        # the path is the only source of m; 7 values give m = 3
        path = BrownianPath(values=np.linspace(0.0, 0.3, 7), seed=None)
        assert path.m == 3
        with pytest.raises(ValueError):
            consumer(path)


class TestDistribution:
    def test_terminal_variance(self):
        # B(1) ~ N(0, 1): over 10000 seeds the sample variance is close
        cfg = BasisConfig.from_resolution(16)
        finals = np.array([sample_path(cfg, seed=s).values[-1] for s in range(10000)])
        assert abs(finals.mean()) <= 0.03
        assert 0.94 <= finals.var() <= 1.06

    def test_increment_scale_and_independence(self):
        # one long path: increments ~ N(0, h/2), lag-1 correlation ~ 0
        cfg = BasisConfig.from_resolution(2048)
        path = sample_path(cfg, seed=2024)
        inc = np.diff(path.values)
        target = cfg.h / 2.0
        assert abs(inc.var() / target - 1.0) < 0.1
        rho = np.corrcoef(inc[:-1], inc[1:])[0, 1]
        assert abs(rho) < 0.05
