"""Monte Carlo error statistics and convergence studies."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from walshvie import brownian, experiment, solver
from walshvie.brownian import _BLOCK_ELEMENTS, sample_path
from walshvie.experiment import (
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
from walshvie.walsh import midpoint_floor_index


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


def failure(code, residual):
    """The exception that ``solve`` raises for a row that ended with
    ``code`` and ``residual``."""
    if code == solver._NO_CONVERGENCE:
        return NonConvergenceError(residual=float(residual), iterations=solver._MAX_ITER)
    return NonFiniteIterateError(solver._NON_FINITE[code])


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
        prob = builtin_example(1)
        path = sample_path(16, seed=21)
        res = solve(prob, path)
        # 0.9 maps to midpoint index 13 (27/32)
        expected = abs(prob.exact(0.9, path[2 * 13 + 1]) - res.x_colloc[13])
        assert error_at(res, prob, path, 0.9) == expected

    def test_at_exact_midpoint(self):
        prob = builtin_example(2)
        path = sample_path(8, seed=2)
        res = solve(prob, path)
        t = 11 / 16  # t_5 at m = 8
        assert error_at(res, prob, path, t) == abs(prob.exact(t, path[2 * 5 + 1]) - res.x_colloc[5])

    def test_requires_exact(self):
        prob = ProblemSpec(x0=0.0, k1=0.0, k2=0.0, beta=lambda x: x, sigma=lambda x: x)
        path = sample_path(8, seed=2)
        res = solve(prob, path)
        with pytest.raises(ValueError):
            error_at(res, prob, path, 0.5)

    def test_domain(self):
        prob = constant_problem()
        path = sample_path(8, seed=2)
        res = solve(prob, path)
        with pytest.raises(ValueError):
            error_at(res, prob, path, 1.0)

    @pytest.mark.parametrize("path_m", [8, 32])
    def test_path_of_another_resolution_rejected(self, path_m):
        # an m = 32 path read at the m = 16 indices gave a wrong error
        # silently, an m = 8 path an IndexError
        prob = builtin_example(1)
        res = solve(prob, sample_path(16, (1, 1)))
        path = sample_path(path_m, (1, 1))
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
        stats = monte_carlo(builtin_example(1), 16, 10, base_seed=42)
        assert stats.shape == (5,)
        assert stats.dtype.names == ("t", "mean", "sd", "ci_lower", "ci_upper", "n", "failures")
        assert tuple(stats["t"]) == REPORT_TIMES
        assert (stats["n"] == 10).all()
        assert (stats["failures"] == 0).all()
        assert (stats["ci_lower"] <= stats["mean"]).all() and (stats["mean"] <= stats["ci_upper"]).all()
        assert (stats["sd"] >= 0.0).all()

    def test_stats_are_read_only(self):
        stats = monte_carlo(builtin_example(1), 8, 3, base_seed=42)
        assert not stats.flags.writeable
        with pytest.raises(ValueError):
            stats["mean"][0] = 0.0
        with pytest.raises(ValueError):
            stats[0] = stats[1]

    def test_each_statistic_reduces_one_column(self):
        # the bits of np.mean / np.std over each report time's column of
        # errors, in trial order, and the interval from them; reducing
        # the (n, 5) errors along axis 0 rounds differently here
        prob = builtin_example(1)
        stats = monte_carlo(prob, 8, 256, base_seed=2)
        [(errors, _)] = _trial_errors(prob, [8], 256, 2)
        for row, col in zip(stats, errors.T):
            mean, sd = float(np.mean(col)), float(np.std(col, ddof=1))
            half = 1.96 * sd / math.sqrt(256)
            assert row.tolist() == (row["t"], mean, sd, mean - half, mean + half, 256, 0)
        assert (errors.mean(axis=0) != stats["mean"]).any()
        assert (errors.std(axis=0, ddof=1) != stats["sd"]).any()

    def test_reproducible(self):
        a = monte_carlo(builtin_example(2), 8, 6, base_seed=7)
        b = monte_carlo(builtin_example(2), 8, 6, base_seed=7)
        assert a.tobytes() == b.tobytes()

    def test_trial_keying_matches_manual_loop(self):
        # trial i draws path (base, i); the mean must equal a hand loop
        m = 8
        prob = builtin_example(1)
        stats = monte_carlo(prob, m, 5, base_seed=31)
        manual = []
        for trial in range(1, 6):
            path = sample_path(m, (31, trial))
            res = solve(prob, path)
            manual.append(error_at(res, prob, path, 0.5))
        assert stats["t"][2] == 0.5
        assert stats["mean"][2] == np.mean(manual)

    def test_degenerate_problem_errors_vanish(self):
        stats = monte_carlo(builtin_example(2, a="0"), 16, 5, base_seed=3)
        assert (stats["mean"] <= 1e-12).all()

    def test_needs_two_trials(self):
        with pytest.raises(ValueError):
            monte_carlo(builtin_example(1), 8, 1, base_seed=0)

    def test_failures_counted_not_absorbed(self):
        stats = monte_carlo(feedback_problem(), 8, 12, base_seed=0)
        assert stats["failures"][0] >= 1
        assert stats["n"][0] >= 2
        assert stats["n"][0] + stats["failures"][0] == 12

    def test_fewer_than_two_successes_rejected(self):
        # of the feedback problem's trials (0, 1..4) at m = 8, only trial 2
        # converges: one error is no statistic
        m = 8
        solved = [isinstance(outcome(feedback_problem(), sample_path(m, (0, i))), SolveResult) for i in range(1, 5)]
        assert solved == [False, True, False, False]
        with pytest.raises(ValueError, match="only 1 of 4 trials succeeded"):
            monte_carlo(feedback_problem(), m, 4, base_seed=0)

    @pytest.mark.parametrize("bad", [5.0, True], ids=repr)
    def test_trial_count_must_be_an_integer(self, bad, monkeypatch):
        # refused at the entry, before any engine is built
        monkeypatch.setattr(experiment, "_batch_solver", None)  # would fail if called
        with pytest.raises(ValueError, match=f"^the number of trials must be an integer, got {bad!r}$"):
            monte_carlo(builtin_example(1), 16, bad, 1)

    def test_takes_a_numpy_trial_count(self):
        got = monte_carlo(builtin_example(1), 16, np.int64(5), 1)
        assert got.tobytes() == monte_carlo(builtin_example(1), 16, 5, 1).tobytes()

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo(exp_problem(), 8, 0, base_seed=1)

    def test_ci_width_shrinks_like_sqrt_n(self):
        # doubling trials narrows the mean CI width by roughly sqrt(2)
        prob = builtin_example(1)

        def width(n, base):
            stats = monte_carlo(prob, 8, n, base)
            return np.mean(stats["ci_upper"] - stats["ci_lower"])

        ratios = [width(20, base) / width(40, base) for base in (50, 51, 52)]
        assert 1.25 <= np.mean(ratios) <= 1.6


    def test_peak_allocation_stays_small_at_large_m(self):
        # constant kernels need no m x m operator and trials are solved
        # in bounded chunks; dense per-trial operators peaked at 768 MB
        prob = builtin_example(2)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            monte_carlo(prob, 4096, 16, base_seed=42)
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
        paths = np.stack([sample_path(m, (42, trial)) for trial in range(1, _BLOCK_ELEMENTS // m + 1)])
        damped, diverging, stalled = self.SCALES[example_id, m]
        base = paths[2].copy()
        paths[1] = base * damped
        paths[2] = base * diverging
        if stalled is not None:
            paths[3] = base * stalled
        x, sweeps, residuals, codes = _batch_solver(prob, m)(paths)
        for path, row, sweep, residual, code in zip(paths, x, sweeps, residuals, codes):
            alone = outcome(prob, path)
            if code == 0:
                assert isinstance(alone, SolveResult)
                assert np.array_equal(alone.x_colloc, row)
                assert alone.iterations == sweep
                assert alone.residual == residual
            else:
                error = failure(code, residual)
                assert type(alone) is type(error) and str(alone) == str(error)
                if isinstance(alone, NonConvergenceError):
                    assert (alone.residual, alone.iterations) == (error.residual, error.iterations)
        # the chunk holds a row that engaged damping, one that diverged
        # and, for example 1, one that stalled
        monkeypatch.setattr(solver, "_DAMPING", 1.0)
        undamped = outcome(prob, paths[1])
        assert codes[1] == 0
        assert not (isinstance(undamped, SolveResult) and undamped.iterations == sweeps[1])
        assert isinstance(failure(codes[2], residuals[2]), NonFiniteIterateError)
        if stalled is not None:
            assert codes[3] == solver._NO_CONVERGENCE
        assert (codes == 0).sum() >= len(codes) - 3

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
        m = 64
        paths = np.stack([sample_path(m, (5, trial)) for trial in range(1, _BLOCK_ELEMENTS // 64 + 1)])
        x, sweeps, _, _ = _batch_solver(prob, m)(paths)
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
        paths = np.stack([sample_path(m, (5, trial)) for trial in range(1, _BLOCK_ELEMENTS // m + 1)])
        x, sweeps, residuals, _ = _batch_solver(prob, m)(paths)
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
        n = 2 * (_BLOCK_ELEMENTS // m) + 3
        [(errors, failures)] = _trial_errors(prob, [m], n, 17)
        rows = []
        for trial in range(1, n + 1):
            path = sample_path(m, (17, trial))
            res = solve(prob, path)
            rows.append([error_at(res, prob, path, t) for t in REPORT_TIMES])
        assert failures == 0
        assert np.array_equal(errors, np.asarray(rows, dtype=float))


class TestOneDrawPerTrial:
    # convergence_study draws each trial's normals once, in draws of
    # _BLOCK_ELEMENTS // (2 m_max) trials, and derives every resolution's
    # path from them.
    def test_study_equals_each_resolution_sampled_and_solved_alone(self):
        prob = feedback_problem()
        resolutions = (8, 32, 256)
        n = 2 * (_BLOCK_ELEMENTS // (2 * 256)) + 5  # two draws and part of a third
        per_resolution = _trial_errors(prob, resolutions, n, 3)
        rms_errors, failures, _ = convergence_study(prob, resolutions, n, base_seed=3)
        for m, (errors, failed), rms, reported in zip(resolutions, per_resolution, rms_errors, failures):
            rows = []
            for trial in range(1, n + 1):
                path = sample_path(m, (3, trial))
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
        # m = 32 take three draws of _BLOCK_ELEMENTS // 64 = 128
        drawn, made = [], []
        trial_draws, philox = experiment._trial_draws, np.random.Philox

        def counting_trial_draws(seed, n, width):
            for trials, normals in trial_draws(seed, n, width):
                drawn.append(trials)
                yield trials, normals

        def counting_philox(*args, **kwargs):
            made.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(experiment, "_trial_draws", counting_trial_draws)
        monkeypatch.setattr(np.random, "Philox", counting_philox)
        monte_carlo(builtin_example(1), 32, 300, base_seed=4)
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
    # Each resolution copies whole draws of D = _BLOCK_ELEMENTS // (2 m_max)
    # rows into blocks of D * (_BLOCK_ELEMENTS // (m D)) rows, at most N;
    # these sizes cut blocks and draws at other offsets than the default,
    # which TestOneDrawPerTrial checks on the same trials: one-row draws
    # and blocks (1), one-row draws in blocks of 25, 6 and 1 rows (200),
    # draws of 3 rows, which do not divide N, in blocks of N, N and 6 rows
    # (1536), and draws of 9 rows in blocks of N, N and 18 rows (5000).
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
                rows = []
                for trial in range(1, self.N + 1):
                    path = sample_path(m, (3, trial))
                    res = outcome(prob, path)
                    if isinstance(res, SolveResult):
                        rows.append([error_at(res, prob, path, t) for t in REPORT_TIMES])
                per_resolution.append(np.asarray(rows, dtype=float))
        return per_resolution

    @pytest.mark.parametrize("elements", [1, 200, 1536, 5000, 1 << 13])
    def test_block_size_changes_no_bits(self, monkeypatch, alone, elements):
        monkeypatch.setattr(brownian, "_BLOCK_ELEMENTS", elements)
        monkeypatch.setattr(experiment, "_BLOCK_ELEMENTS", elements)
        base = feedback_problem()
        calls = []

        def exact(t, B):
            calls.append(len(B))
            return base.exact(t, B)

        prob = dataclasses.replace(base, exact=exact)
        for (errors, failed), rows in zip(_trial_errors(prob, self.RESOLUTIONS, self.N, 3), alone):
            assert 0 < failed < self.N
            assert failed == self.N - len(rows)
            assert np.array_equal(errors, rows)
        # a block in which every row failed calls no exact
        assert min(calls) >= 1
        if elements == 1:
            assert sum(calls) == len(calls) == sum(len(rows) for rows in alone)


    def test_engine_calls_per_rung(self, monkeypatch):
        # converge-small-m's ladder at n = 1000: blocks of min(n, 8192 // m)
        # rows, so each rung's engine is called ceil(n / block) times
        calls = []

        def counting_solver(problem, m):
            engine = _batch_solver(problem, m)

            def solve_paths(values, workspace=None):
                calls.append(m)
                return engine(values, workspace)

            solve_paths.slots = engine.slots
            return solve_paths

        monkeypatch.setattr(experiment, "_batch_solver", counting_solver)
        resolutions = (8, 16, 32, 64, 128, 256)
        convergence_study(builtin_example(1), resolutions, 1000, base_seed=42)
        assert [calls.count(m) for m in resolutions] == [1, 2, 4, 8, 16, 32]


class TestMidpointIndices:
    @pytest.mark.parametrize("m", [2**k for k in range(13)])
    def test_equals_midpoint_floor_index(self, m):
        mids = (2 * np.arange(m) + 1) / (2 * m)
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
        rms_errors, failures, order = convergence_study(exp_problem(), (8, 16, 32, 64, 128), 2, base_seed=1)
        assert rms_errors.shape == failures.shape == (5,)
        assert (rms_errors > 0).all() and (failures == 0).all()
        assert 0.8 <= order <= 1.2

    def test_arrays_are_read_only(self):
        rms_errors, failures, order = convergence_study(exp_problem(), (8, 16, 32), 2, base_seed=1)
        assert type(order) is float
        for a in (rms_errors, failures):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_rms_decreases(self):
        rms_errors, _, _ = convergence_study(exp_problem(), (8, 32, 128), 2, base_seed=1)
        assert rms_errors[0] > rms_errors[1] > rms_errors[2]

    def test_failures_reported_per_resolution(self):
        prob = feedback_problem()
        resolutions, n = (4, 8, 16), 12
        rms_errors, failures, _ = convergence_study(prob, resolutions, n, base_seed=0)
        assert len(failures) == len(resolutions)
        for m, failed, rms in zip(resolutions, failures, rms_errors):
            rows = []
            for trial in range(1, n + 1):
                path = sample_path(m, (0, trial))
                res = outcome(prob, path)
                if isinstance(res, SolveResult):
                    rows.append([error_at(res, prob, path, t) for t in REPORT_TIMES])
            assert 0 < failed < n
            assert failed + len(rows) == n
            assert rms == float(np.sqrt(np.mean(np.square(np.asarray(rows)))))

    def test_degenerate_study_has_no_order(self):
        rms_errors, _, order = convergence_study(constant_problem(), (4, 8, 16), 3, base_seed=5)
        assert max(rms_errors) <= DEGENERATE_RMS
        assert math.isnan(order)

    def test_rms_that_overflows_is_an_error(self):
        # errors of 1e200 are finite, but their squares are not: an
        # infinite RMS would give an order of nan, which means degenerate
        prob = dataclasses.replace(constant_problem(), exact=lambda t, B: 1e200 + 0.0 * B)
        with pytest.raises(ValueError, match="RMS error at m=4 is not finite"):
            convergence_study(prob, (4, 8, 16), 2, base_seed=5)

    @pytest.mark.parametrize("bad", [4.5, True, np.float64(5.0)], ids=repr)
    def test_trial_count_must_be_an_integer(self, bad, monkeypatch):
        monkeypatch.setattr(experiment, "_batch_solver", None)  # would fail if called
        with pytest.raises(ValueError, match=f"^the number of trials must be an integer, got {re.escape(repr(bad))}$"):
            convergence_study(builtin_example(1), (8, 16, 32), bad, 1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_needs_at_least_one_trial(self, n, monkeypatch):
        # refused at the entry, before any engine is built
        monkeypatch.setattr(experiment, "_batch_solver", None)  # would fail if called
        with pytest.raises(ValueError, match="^need at least one trial$"):
            convergence_study(builtin_example(1), (8, 16, 32), n, 1)

    def test_takes_a_numpy_trial_count(self):
        got = convergence_study(builtin_example(1), (8, 16, 32), np.int32(3), 1)
        want = convergence_study(builtin_example(1), (8, 16, 32), 3, 1)
        assert got[0].tobytes() == want[0].tobytes() and got[2] == want[2]

    def test_needs_three_increasing_resolutions(self):
        with pytest.raises(ValueError):
            convergence_study(exp_problem(), (8, 16), 2, base_seed=1)
        with pytest.raises(ValueError):
            convergence_study(exp_problem(), (16, 8, 32), 2, base_seed=1)
