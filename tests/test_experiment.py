"""Monte Carlo error statistics and convergence studies."""

import tracemalloc

import numpy as np
import pytest

from walshvie.brownian import BrownianPath, sample_path
from walshvie.experiment import (
    _CHUNK_ELEMENTS,
    DEGENERATE_RMS,
    REPORT_TIMES,
    ErrorStats,
    _trial_errors,
    coefficient_error_norm,
    convergence_study,
    error_at,
    monte_carlo,
)
from walshvie.solver import (
    NonConvergenceError,
    NonFiniteIterateError,
    ProblemSpec,
    SolveResult,
    SolverOptions,
    _batch_solver,
    builtin_example,
    solve,
)
from walshvie.walsh import BasisConfig


def exp_problem():
    # deterministic e^t with its exact solution attached
    return ProblemSpec(
        x0=1.0,
        k1=1.0,
        k2=0.0,
        beta=lambda x: x,
        sigma=lambda x: 0.0 * x,
        exact=lambda t, B: np.exp(t),
        label="exp",
    )


def feedback_problem():
    # positive feedback makes solve diverge on wide paths only
    return ProblemSpec(
        x0=0.5,
        k1=0.0,
        k2=0.8,
        beta=lambda x: 0.0 * x,
        sigma=lambda x: np.exp(x * x),
        exact=lambda t, B: 0.5,
        label="feedback",
    )


def outcome(problem, path, options=None):
    """The SolveResult of one path alone, or the failure that ended it."""
    try:
        return solve(problem, path, options)
    except (NonConvergenceError, NonFiniteIterateError) as exc:
        return exc


def constant_problem():
    return ProblemSpec(
        x0=0.5,
        k1=0.0,
        k2=0.0,
        beta=lambda x: 0.0 * x,
        sigma=lambda x: 0.0 * x,
        exact=lambda t, B: 0.5,
        label="const",
    )


class TestErrorAt:
    def test_uses_last_midpoint(self):
        cfg = BasisConfig.from_resolution(16)
        prob = builtin_example(1)
        path = sample_path(cfg, seed=21)
        res = solve(prob, path)
        # 0.9 maps to midpoint index 13 (27/32)
        expected = abs(prob.exact(0.9, path.values[2 * 13 + 1]) - res.x_colloc[13])
        assert error_at(res, prob, path, 0.9) == expected

    def test_at_exact_midpoint(self):
        cfg = BasisConfig.from_resolution(8)
        prob = builtin_example(2)
        path = sample_path(cfg, seed=2)
        res = solve(prob, path)
        t = cfg.midpoints[5]
        assert error_at(res, prob, path, t) == abs(prob.exact(t, path.values[2 * 5 + 1]) - res.x_colloc[5])

    def test_requires_exact(self):
        cfg = BasisConfig.from_resolution(8)
        prob = ProblemSpec(x0=0.0, k1=0.0, k2=0.0, beta=lambda x: x, sigma=lambda x: x)
        path = sample_path(cfg, seed=2)
        res = solve(prob, path)
        with pytest.raises(ValueError):
            error_at(res, prob, path, 0.5)

    def test_domain(self):
        cfg = BasisConfig.from_resolution(8)
        prob = constant_problem()
        path = sample_path(cfg, seed=2)
        res = solve(prob, path)
        with pytest.raises(ValueError):
            error_at(res, prob, path, 1.0)


class TestCoefficientErrorNorm:
    def test_zero_for_equal(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert coefficient_error_norm(x, x) == 0.0

    def test_single_block_difference(self):
        # Walsh column for block 0 is all ones, so the norm is the gap
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.25, 2.0, 3.0, 4.0])
        assert abs(coefficient_error_norm(x, y) - 0.25) < 1e-15

    def test_resolution_mismatch(self):
        with pytest.raises(ValueError):
            coefficient_error_norm(
                np.zeros(2), np.zeros(4)
            )


class TestMonteCarlo:
    def test_report_times_default(self):
        assert REPORT_TIMES == (0.1, 0.3, 0.5, 0.7, 0.9)

    def test_stats_shape_and_accounting(self):
        cfg = BasisConfig.from_resolution(16)
        stats = monte_carlo(builtin_example(1), cfg, 10, base_seed=42)
        assert len(stats) == 5
        for s, t in zip(stats, REPORT_TIMES):
            assert s.t == t
            assert s.n == 10
            assert s.failures == 0
            assert s.ci_lower <= s.mean <= s.ci_upper
            assert s.sd >= 0.0

    def test_reproducible(self):
        cfg = BasisConfig.from_resolution(8)
        a = monte_carlo(builtin_example(2), cfg, 6, base_seed=7)
        b = monte_carlo(builtin_example(2), cfg, 6, base_seed=7)
        assert [s.mean for s in a] == [s.mean for s in b]
        assert [s.sd for s in a] == [s.sd for s in b]

    def test_trial_keying_matches_manual_loop(self):
        # trial i draws path (base, i); the mean must equal a hand loop
        cfg = BasisConfig.from_resolution(8)
        prob = builtin_example(1)
        stats = monte_carlo(prob, cfg, 5, base_seed=31, report_times=(0.5,))
        manual = []
        for trial in range(1, 6):
            path = sample_path(cfg, (31, trial))
            res = solve(prob, path)
            manual.append(error_at(res, prob, path, 0.5))
        assert stats[0].mean == np.mean(manual)

    def test_degenerate_problem_errors_vanish(self):
        cfg = BasisConfig.from_resolution(16)
        stats = monte_carlo(builtin_example(2, a="0"), cfg, 5, base_seed=3)
        for s in stats:
            assert s.mean <= 1e-12

    def test_needs_two_trials(self):
        cfg = BasisConfig.from_resolution(8)
        with pytest.raises(ValueError):
            monte_carlo(builtin_example(1), cfg, 1, base_seed=0)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failures_counted_not_absorbed(self):
        cfg = BasisConfig.from_resolution(8)
        stats = monte_carlo(feedback_problem(), cfg, 12, base_seed=0)
        assert stats[0].failures >= 1
        assert stats[0].n >= 2
        assert stats[0].n + stats[0].failures == 12

    def test_zero_trials_rejected(self):
        cfg = BasisConfig.from_resolution(8)
        with pytest.raises(ValueError):
            monte_carlo(exp_problem(), cfg, 0, base_seed=1)

    def test_ci_width_shrinks_like_sqrt_n(self):
        # doubling trials narrows the mean CI width by roughly sqrt(2)
        cfg = BasisConfig.from_resolution(8)
        prob = builtin_example(1)
        ratios = []
        for base in (50, 51, 52):
            w20 = np.mean([s.ci_upper - s.ci_lower for s in monte_carlo(prob, cfg, 20, base)])
            w40 = np.mean([s.ci_upper - s.ci_lower for s in monte_carlo(prob, cfg, 40, base)])
            ratios.append(w20 / w40)
        assert 1.25 <= np.mean(ratios) <= 1.6


    def test_peak_allocation_stays_small_at_large_m(self):
        # constant kernels need no m x m operator and trials are solved
        # in bounded chunks; dense per-trial operators peaked at 768 MB
        prob = builtin_example(2)
        cfg = BasisConfig.from_resolution(4096)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            monte_carlo(prob, cfg, 16, base_seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak


class TestBatchInvariance:
    # Path scales, per (example, m), that make a row engage damping,
    # diverge, and (example 1 only) stall at max_iter.
    SCALES = {
        (1, 16): (300, 1e5, 3000),
        (1, 256): (3000, 1e5, 2000),
        (2, 16): (68, 100, None),
        (2, 256): (60, 100, None),
    }

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("example_id, m", sorted(SCALES))
    def test_trial_alone_equals_trial_in_chunk(self, example_id, m):
        prob = builtin_example(example_id)
        cfg = BasisConfig.from_resolution(m)
        paths = [sample_path(cfg, (42, trial)) for trial in range(1, _CHUNK_ELEMENTS // m + 1)]
        damped, diverging, stalled = self.SCALES[example_id, m]
        base = paths[2].values
        paths[1] = BrownianPath(values=base * damped)
        paths[2] = BrownianPath(values=base * diverging)
        if stalled is not None:
            paths[3] = BrownianPath(values=base * stalled)
        chunk = _batch_solver(prob, cfg)(paths)
        for path, in_chunk in zip(paths, chunk):
            alone = outcome(prob, path)
            assert type(alone) is type(in_chunk)
            if isinstance(alone, SolveResult):
                assert np.array_equal(alone.x_colloc, in_chunk.x_colloc)
                assert alone.iterations == in_chunk.iterations
                assert alone.residual == in_chunk.residual
            elif isinstance(alone, NonConvergenceError):
                assert (alone.residual, alone.iterations) == (in_chunk.residual, in_chunk.iterations)
        # the chunk holds a row that engaged damping, one that diverged
        # and, for example 1, one that stalled
        undamped = outcome(prob, paths[1], SolverOptions(damping=1.0))
        assert isinstance(chunk[1], SolveResult)
        assert not (isinstance(undamped, SolveResult) and undamped.iterations == chunk[1].iterations)
        assert isinstance(chunk[2], NonFiniteIterateError)
        if stalled is not None:
            assert isinstance(chunk[3], NonConvergenceError)
        assert sum(isinstance(r, SolveResult) for r in chunk) >= len(chunk) - 3

    def test_kernels_that_are_not_constant(self):
        # applied with one GEMV per row: a GEMM over the chunk rounds
        # most rows differently from the same row solved alone
        prob = ProblemSpec(
            x0=0.1,
            k1=lambda s, t: -((1 / 30) ** 2) * np.exp(s - t),
            k2=lambda s, t: (1 / 30) * np.exp((s - t) / 2),
            beta=lambda x: x * (1 - x * x),
            sigma=lambda x: 1 - x * x,
        )
        cfg = BasisConfig.from_resolution(64)
        paths = [sample_path(cfg, (5, trial)) for trial in range(1, _CHUNK_ELEMENTS // 64 + 1)]
        for path, in_chunk in zip(paths, _batch_solver(prob, cfg)(paths)):
            alone = solve(prob, path)
            assert np.array_equal(alone.x_colloc, in_chunk.x_colloc)
            assert alone.iterations == in_chunk.iterations

    @pytest.mark.parametrize("example_id", [1, 2])
    @pytest.mark.parametrize("m", [16, 256])
    def test_trial_errors_match_trials_solved_alone(self, example_id, m):
        # two chunks and a part of a third
        prob = builtin_example(example_id)
        cfg = BasisConfig.from_resolution(m)
        n = 2 * (_CHUNK_ELEMENTS // m) + 3
        errors, failures = _trial_errors(prob, cfg, n, 17, REPORT_TIMES)
        rows = []
        for trial in range(1, n + 1):
            path = sample_path(cfg, (17, trial))
            res = solve(prob, path)
            rows.append([error_at(res, prob, path, t) for t in REPORT_TIMES])
        assert failures == 0
        assert np.array_equal(errors, np.asarray(rows, dtype=float))


class TestErrorStatsValidation:
    def test_rejects_single_trial(self):
        with pytest.raises(ValueError):
            ErrorStats(t=0.5, mean=0.0, sd=0.0, ci_lower=0.0, ci_upper=0.0, n=1, failures=0)


class TestConvergenceStudy:
    def test_deterministic_order_near_one(self):
        # block-constant reconstruction at fixed report times: order 1
        report = convergence_study(exp_problem(), (8, 16, 32, 64, 128), 2, base_seed=1)
        assert report.resolutions == (8, 16, 32, 64, 128)
        assert len(report.rms_errors) == 5
        assert all(e > 0 for e in report.rms_errors)
        assert 0.8 <= report.estimated_order <= 1.2

    def test_rms_decreases(self):
        report = convergence_study(exp_problem(), (8, 32, 128), 2, base_seed=1)
        assert report.rms_errors[0] > report.rms_errors[1] > report.rms_errors[2]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failures_reported_per_resolution(self):
        prob = feedback_problem()
        resolutions, n = (4, 8, 16), 12
        report = convergence_study(prob, resolutions, n, base_seed=0)
        assert len(report.failures) == len(resolutions)
        for m, failed, rms in zip(resolutions, report.failures, report.rms_errors):
            cfg = BasisConfig.from_resolution(m)
            rows = []
            for trial in range(1, n + 1):
                path = sample_path(cfg, (0, trial))
                res = outcome(prob, path)
                if isinstance(res, SolveResult):
                    rows.append([error_at(res, prob, path, t) for t in REPORT_TIMES])
            assert 0 < failed < n
            assert failed + len(rows) == n
            assert rms == float(np.sqrt(np.mean(np.square(np.asarray(rows)))))

    def test_degenerate_study_has_no_order(self):
        report = convergence_study(constant_problem(), (4, 8, 16), 3, base_seed=5)
        assert max(report.rms_errors) <= DEGENERATE_RMS
        assert report.estimated_order is None

    def test_needs_three_increasing_resolutions(self):
        with pytest.raises(ValueError):
            convergence_study(exp_problem(), (8, 16), 2, base_seed=1)
        with pytest.raises(ValueError):
            convergence_study(exp_problem(), (16, 8, 32), 2, base_seed=1)
