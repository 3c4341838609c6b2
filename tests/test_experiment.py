"""Monte Carlo error statistics and convergence studies."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from walshvie import experiment, solver
from walshvie.brownian import sample_path
from walshvie.experiment import (
    _CHUNK_ELEMENTS,
    _DRAW_ELEMENTS,
    DEGENERATE_RMS,
    REPORT_TIMES,
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
    _batch_solver,
    builtin_example,
    problem_from_sources,
    solve,
)
from walshvie.walsh import BasisConfig, midpoint_floor_index


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


def outcome(problem, path):
    """The SolveResult of one path alone, or the failure that ended it."""
    try:
        return solve(problem, path)
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
        expected = abs(prob.exact(0.9, path[2 * 13 + 1]) - res.x_colloc[13])
        assert error_at(res, prob, path, 0.9) == expected

    def test_at_exact_midpoint(self):
        cfg = BasisConfig.from_resolution(8)
        prob = builtin_example(2)
        path = sample_path(cfg, seed=2)
        res = solve(prob, path)
        t = cfg.midpoints[5]
        assert error_at(res, prob, path, t) == abs(prob.exact(t, path[2 * 5 + 1]) - res.x_colloc[5])

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

    @pytest.mark.parametrize("path_m", [8, 32])
    def test_path_of_another_resolution_rejected(self, path_m):
        # an m = 32 path read at the m = 16 indices gave a wrong error
        # silently, an m = 8 path an IndexError
        prob = builtin_example(1)
        res = solve(prob, sample_path(BasisConfig.from_resolution(16), (1, 1)))
        path = sample_path(BasisConfig.from_resolution(path_m), (1, 1))
        with pytest.raises(ValueError, match=f"m={path_m} does not match the result's m=16"):
            error_at(res, prob, path, 0.9)


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
        stats = monte_carlo(prob, cfg, 5, base_seed=31)
        manual = []
        for trial in range(1, 6):
            path = sample_path(cfg, (31, trial))
            res = solve(prob, path)
            manual.append(error_at(res, prob, path, 0.5))
        assert stats[2].t == 0.5
        assert stats[2].mean == np.mean(manual)

    def test_degenerate_problem_errors_vanish(self):
        cfg = BasisConfig.from_resolution(16)
        stats = monte_carlo(builtin_example(2, a="0"), cfg, 5, base_seed=3)
        for s in stats:
            assert s.mean <= 1e-12

    def test_needs_two_trials(self):
        cfg = BasisConfig.from_resolution(8)
        with pytest.raises(ValueError):
            monte_carlo(builtin_example(1), cfg, 1, base_seed=0)

    def test_failures_counted_not_absorbed(self):
        cfg = BasisConfig.from_resolution(8)
        stats = monte_carlo(feedback_problem(), cfg, 12, base_seed=0)
        assert stats[0].failures >= 1
        assert stats[0].n >= 2
        assert stats[0].n + stats[0].failures == 12

    def test_fewer_than_two_successes_rejected(self):
        # of the feedback problem's trials (0, 1..4) at m = 8, only trial 2
        # converges: one error is no statistic
        cfg = BasisConfig.from_resolution(8)
        solved = [isinstance(outcome(feedback_problem(), sample_path(cfg, (0, i))), SolveResult) for i in range(1, 5)]
        assert solved == [False, True, False, False]
        with pytest.raises(ValueError, match="only 1 of 4 trials succeeded"):
            monte_carlo(feedback_problem(), cfg, 4, base_seed=0)

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
    # diverge, and (example 1 only) stall at max_iter.  sech(x) is
    # finite at every real x, so example 1 diverges only once the
    # squared increments of its path overflow.
    SCALES = {
        (1, 16): (300, 1e160, 3000),
        (1, 256): (3000, 1e160, 2000),
        (2, 16): (68, 100, None),
        (2, 256): (60, 100, None),
    }

    @pytest.mark.parametrize("example_id, m", sorted(SCALES))
    def test_trial_alone_equals_trial_in_chunk(self, example_id, m, monkeypatch):
        prob = builtin_example(example_id)
        cfg = BasisConfig.from_resolution(m)
        paths = np.stack([sample_path(cfg, (42, trial)) for trial in range(1, _CHUNK_ELEMENTS // m + 1)])
        damped, diverging, stalled = self.SCALES[example_id, m]
        base = paths[2].copy()
        paths[1] = base * damped
        paths[2] = base * diverging
        if stalled is not None:
            paths[3] = base * stalled
        x, sweeps, residuals, errors = _batch_solver(prob, cfg)(paths)
        for path, row, sweep, residual, error in zip(paths, x, sweeps, residuals, errors):
            alone = outcome(prob, path)
            if error is None:
                assert isinstance(alone, SolveResult)
                assert np.array_equal(alone.x_colloc, row)
                assert alone.iterations == sweep
                assert alone.residual == residual
            else:
                assert type(alone) is type(error)
                if isinstance(alone, NonConvergenceError):
                    assert (alone.residual, alone.iterations) == (error.residual, error.iterations)
        # the chunk holds a row that engaged damping, one that diverged
        # and, for example 1, one that stalled
        monkeypatch.setattr(solver, "_DAMPING", 1.0)
        undamped = outcome(prob, paths[1])
        assert errors[1] is None
        assert not (isinstance(undamped, SolveResult) and undamped.iterations == sweeps[1])
        assert isinstance(errors[2], NonFiniteIterateError)
        if stalled is not None:
            assert isinstance(errors[3], NonConvergenceError)
        assert sum(e is None for e in errors) >= len(errors) - 3

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
        paths = np.stack([sample_path(cfg, (5, trial)) for trial in range(1, _CHUNK_ELEMENTS // 64 + 1)])
        x, sweeps, _, _ = _batch_solver(prob, cfg)(paths)
        for path, row, sweep in zip(paths, x, sweeps):
            alone = solve(prob, path)
            assert np.array_equal(alone.x_colloc, row)
            assert alone.iterations == sweep

    @pytest.mark.parametrize("m", [64, 128])
    def test_difference_kernels(self, m):
        # applied as one FFT convolution per row of the chunk: a row's
        # transforms do not depend on how many rows share the call
        prob = problem_from_sources({
            "x0": "1/10",
            "k1": "-(1/30)^2*exp(-(t-s))",
            "k2": "(1/30)*exp(-(t-s)/2)",
            "beta": "x*(1-x^2)",
            "sigma": "1-x^2",
        })
        assert prob.k1.difference_kernel and prob.k2.difference_kernel
        cfg = BasisConfig.from_resolution(m)
        paths = np.stack([sample_path(cfg, (5, trial)) for trial in range(1, _CHUNK_ELEMENTS // m + 1)])
        x, sweeps, residuals, _ = _batch_solver(prob, cfg)(paths)
        assert len(x) >= 16
        for path, row, sweep, residual in zip(paths, x, sweeps, residuals):
            alone = solve(prob, path)
            assert np.array_equal(alone.x_colloc, row)
            assert alone.iterations == sweep
            assert alone.residual == residual

    @pytest.mark.parametrize("example_id", [1, 2])
    @pytest.mark.parametrize("m", [16, 256])
    def test_trial_errors_match_trials_solved_alone(self, example_id, m):
        # two chunks and a part of a third
        prob = builtin_example(example_id)
        cfg = BasisConfig.from_resolution(m)
        n = 2 * (_CHUNK_ELEMENTS // m) + 3
        [(errors, failures)] = _trial_errors(prob, [cfg], n, 17)
        rows = []
        for trial in range(1, n + 1):
            path = sample_path(cfg, (17, trial))
            res = solve(prob, path)
            rows.append([error_at(res, prob, path, t) for t in REPORT_TIMES])
        assert failures == 0
        assert np.array_equal(errors, np.asarray(rows, dtype=float))


class TestOneDrawPerTrial:
    # convergence_study draws each trial's normals once, in chunks of
    # _DRAW_ELEMENTS // (2 m_max) trials, and derives every resolution's
    # path from them.
    def test_study_equals_each_resolution_sampled_and_solved_alone(self):
        prob = feedback_problem()
        resolutions = (8, 32, 256)
        n = 2 * (_DRAW_ELEMENTS // (2 * 256)) + 5  # two draw chunks and part of a third
        cfgs = [BasisConfig.from_resolution(m) for m in resolutions]
        per_resolution = _trial_errors(prob, cfgs, n, 3)
        report = convergence_study(prob, resolutions, n, base_seed=3)
        for cfg, (errors, failed), rms, reported in zip(
            cfgs, per_resolution, report.rms_errors, report.failures
        ):
            rows = []
            for trial in range(1, n + 1):
                path = sample_path(cfg, (3, trial))
                res = outcome(prob, path)
                if isinstance(res, SolveResult):
                    rows.append([error_at(res, prob, path, t) for t in REPORT_TIMES])
            rows = np.asarray(rows, dtype=float)
            assert 0 < failed < n
            assert failed == reported == n - len(rows)
            assert np.array_equal(errors, rows)
            assert rms == float(np.sqrt(np.mean(np.square(rows))))

    def test_each_trial_drawn_once_by_one_generator_per_study(self, monkeypatch):
        # every trial's key is drawn once for all resolutions, and a study
        # sets the keys of all its draws into one generator; 300 trials at
        # m = 32 take three draws of _DRAW_ELEMENTS // 64 = 128
        drawn, made = [], []
        trial_normals, philox = experiment._trial_normals, np.random.Philox

        def counting_trial_normals(seed):
            draw = trial_normals(seed)

            def counting_draw(out, trials):
                drawn.append(trials)
                return draw(out, trials)

            return counting_draw

        def counting_philox(*args, **kwargs):
            made.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(experiment, "_trial_normals", counting_trial_normals)
        monkeypatch.setattr(np.random, "Philox", counting_philox)
        monte_carlo(builtin_example(1), BasisConfig.from_resolution(32), 300, base_seed=4)
        convergence_study(builtin_example(1), (8, 16, 32), 300, base_seed=4)
        assert drawn == [range(1, 129), range(129, 257), range(257, 301)] * 2
        assert len(made) == 2

    def test_draw_buffer_does_not_grow_with_trials(self):
        # drawing every trial at once would add n * 2 * 1024 * 8 bytes,
        # 4 MB for the 256 extra trials; the error rows add 30 KB
        prob = constant_problem()
        resolutions = (64, 256, 1024)
        convergence_study(prob, resolutions, 4, base_seed=1)  # warm-up
        peaks = []
        for n in (64, 320):
            tracemalloc.start()
            try:
                convergence_study(prob, resolutions, n, base_seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2**18, peaks


class TestBlockSizes:
    # Each resolution gathers its rows across draws into blocks of
    # _CHUNK_ELEMENTS // m rows; these sizes cut blocks and draws at
    # other offsets than the defaults, which TestOneDrawPerTrial checks
    # on the same trials, down to one row each.
    RESOLUTIONS = (8, 32, 256)
    N = 37

    @pytest.fixture(scope="class")
    def alone(self):
        """Per resolution, the error rows of the trials that succeed
        when each is sampled and solved alone, in trial order."""
        prob = feedback_problem()
        per_resolution = []
        with np.errstate(over="ignore"):
            for m in self.RESOLUTIONS:
                cfg = BasisConfig.from_resolution(m)
                rows = []
                for trial in range(1, self.N + 1):
                    path = sample_path(cfg, (3, trial))
                    res = outcome(prob, path)
                    if isinstance(res, SolveResult):
                        rows.append([error_at(res, prob, path, t) for t in REPORT_TIMES])
                per_resolution.append(np.asarray(rows, dtype=float))
        return per_resolution

    @pytest.mark.parametrize("chunk, draw", [(48, 96), (1, 1), (1 << 13, 64), (200, 1536)])
    def test_block_size_changes_no_bits(self, monkeypatch, alone, chunk, draw):
        monkeypatch.setattr(experiment, "_CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(experiment, "_DRAW_ELEMENTS", draw)
        base = feedback_problem()
        calls = []

        def exact(t, B):
            calls.append(len(B))
            return base.exact(t, B)

        prob = dataclasses.replace(base, exact=exact)
        cfgs = [BasisConfig.from_resolution(m) for m in self.RESOLUTIONS]
        for (errors, failed), rows in zip(_trial_errors(prob, cfgs, self.N, 3), alone):
            assert 0 < failed < self.N
            assert failed == self.N - len(rows)
            assert np.array_equal(errors, rows)
        # a block in which every row failed calls no exact
        assert min(calls) >= 1
        if chunk == 1:
            assert sum(calls) == len(calls) == sum(len(rows) for rows in alone)


class TestMidpointIndices:
    @pytest.mark.parametrize("m", [2**k for k in range(13)])
    def test_equals_midpoint_floor_index(self, m):
        mids = BasisConfig.from_resolution(m).midpoints
        times = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], mids, np.nextafter(mids, 0.0)])
        expected = [midpoint_floor_index(m, t) for t in times]
        assert all(type(j) is int for j in expected)
        assert midpoint_floor_index(m, times).tolist() == expected

    @pytest.mark.parametrize("t", [1.0, -0.1, np.nan])
    def test_times_outside_the_interval_rejected(self, t):
        with pytest.raises(ValueError, match="must lie in \\[0, 1\\)"):
            midpoint_floor_index(16, (0.5, t))
        with pytest.raises(ValueError, match="must lie in \\[0, 1\\)"):
            midpoint_floor_index(16, t)


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
        assert math.isnan(report.estimated_order)

    def test_rms_that_overflows_is_an_error(self):
        # errors of 1e200 are finite, but their squares are not: an
        # infinite RMS would give an order of nan, which means degenerate
        prob = dataclasses.replace(constant_problem(), exact=lambda t, B: 1e200 + 0.0 * B)
        with pytest.raises(ValueError, match="RMS error at m=4 is not finite"):
            convergence_study(prob, (4, 8, 16), 2, base_seed=5)

    def test_needs_three_increasing_resolutions(self):
        with pytest.raises(ValueError):
            convergence_study(exp_problem(), (8, 16), 2, base_seed=1)
        with pytest.raises(ValueError):
            convergence_study(exp_problem(), (16, 8, 32), 2, base_seed=1)
