"""Seeded Brownian path sampling."""

import warnings

import numpy as np
import pytest

from walshvie import brownian
from walshvie.brownian import _KEY_BLOCK, _key_block, _normals, _path_config, _path_values, _trial_normals, sample_path
from walshvie.cli import main
from walshvie.experiment import error_at
from walshvie.operational import stochastic_matrix
from walshvie.oracle import euler_maruyama
from walshvie.solver import builtin_example, solve
from walshvie.walsh import BasisConfig


class TestSampling:
    def test_deterministic(self):
        cfg = BasisConfig.from_resolution(16)
        a = sample_path(cfg, seed=42)
        b = sample_path(cfg, seed=42)
        assert (a == b).all()

    def test_distinct_seeds_differ(self):
        cfg = BasisConfig.from_resolution(16)
        a = sample_path(cfg, seed=42)
        b = sample_path(cfg, seed=43)
        assert not (a == b).all()

    def test_tuple_seed_streams(self):
        # per-trial streams keyed (base, trial) are mutually distinct
        cfg = BasisConfig.from_resolution(8)
        p1 = sample_path(cfg, (42, 1))
        p2 = sample_path(cfg, (42, 2))
        p3 = sample_path(cfg, 42)
        assert not (p1 == p2).all()
        assert not (p1 == p3).all()

    def test_starts_at_zero(self):
        path = sample_path(BasisConfig.from_resolution(4), seed=0)
        assert path[0] == 0.0
        assert len(path) == 9

    def test_zero_path(self):
        # a path is any array of the 2m + 1 values, here B = 0 at m = 8
        assert _path_config(np.zeros(17)).m == 8


class TestArrays:
    @pytest.mark.parametrize("m", [1, 8, 256])
    def test_paths_are_read_only_float_arrays(self, m):
        cfg = BasisConfig.from_resolution(m)
        for path in (sample_path(cfg, (3, 1)),):
            assert isinstance(path, np.ndarray)
            assert path.dtype == np.float64
            assert path.shape == (2 * m + 1,)
            assert not path.flags.writeable
            with pytest.raises(ValueError):
                path[1] = 1.0

    def test_solution_does_not_alias_the_path(self):
        prob = builtin_example(2)
        path = sample_path(BasisConfig.from_resolution(16), (3, 1))
        copy = path.copy()
        res = solve(prob, copy)
        assert np.array_equal(res.x_colloc, solve(prob, path).x_colloc)
        kept = res.x_colloc.copy()
        copy[1:] += 1.0
        assert np.array_equal(res.x_colloc, kept)
        assert not res.x_colloc.flags.writeable


class TestPrefix:
    # A path at m is made from the first 2m normals of its key's stream;
    # convergence_study draws each key once at the finest m and takes
    # every coarser path from the prefix, so a numpy release that broke
    # this would silently change `converge` output.
    KEYS = [0, 42, (42, 1), (7, 1000), (2**40, 3)]
    RESOLUTIONS = [1, 2, 8, 256, 4096]

    def test_paths_are_prefixes_of_the_longest_draw(self):
        # reference: each key's stream drawn alone; the block holds every
        # key's normals as convergence_study draws them
        streams = [np.random.Generator(np.random.Philox(np.random.SeedSequence(key))) for key in self.KEYS]
        reference = [gen.standard_normal(2 * 4096) for gen in streams]
        block = np.empty((len(self.KEYS), 2 * 4096))
        for row, key in zip(block, self.KEYS):
            _normals(key, out=row)
        for m in self.RESOLUTIONS:
            cfg = BasisConfig.from_resolution(m)
            from_block = _path_values(block[:, : 2 * m], cfg.h)
            for key, normals, row in zip(self.KEYS, reference, from_block):
                expected = np.concatenate([[0.0], np.cumsum(normals[: 2 * m] * np.sqrt(cfg.h / 2.0))])
                assert np.array_equal(sample_path(cfg, key), expected), (key, m)
                assert np.array_equal(row, expected), (key, m)

    def test_resolutions_of_one_key_are_brownian_rescalings(self):
        # the 2m path on [0, 1/2] is the m path scaled by 1/sqrt(2)
        coarse = sample_path(BasisConfig.from_resolution(8), (3, 1))
        fine = sample_path(BasisConfig.from_resolution(16), (3, 1))
        assert np.allclose(fine[: len(coarse)], coarse / np.sqrt(2.0), rtol=1e-14, atol=1e-15)


def _seeded(key, n):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key))).standard_normal(n)


class TestBulkKeys:
    # trial keys (base, i) with both words in [0, 2^32) are derived in
    # bulk with SeedSequence's hash and set into one reused generator
    WORDS = [0, 1, 42, _KEY_BLOCK - 1, _KEY_BLOCK, 2**31, 2**32 - 1]

    @pytest.mark.parametrize("base", WORDS)
    def test_keys_equal_seed_sequence(self, base):
        for trial in self.WORDS + [2**32 - _KEY_BLOCK, 3 * _KEY_BLOCK + 17]:
            key = _key_block(base, trial // _KEY_BLOCK)[trial % _KEY_BLOCK]
            assert np.array_equal(key, np.random.SeedSequence((base, trial)).generate_state(2, np.uint64))

    @pytest.mark.parametrize("base, first", [(0, 1), (42, _KEY_BLOCK - 25), (2**32 - 1, 2**32 - 50)])
    def test_normals_are_bit_equal(self, base, first):
        # 50 trials, across a key-block boundary for the second, in two
        # draws by one generator
        trials = range(first, first + 50)
        draw, block = _trial_normals(base), np.empty((len(trials), 64))
        draw(block[:20], trials[:20])
        draw(block[20:], trials[20:])
        for row, trial in zip(block, trials):
            assert np.array_equal(row, _seeded((base, trial), 64)), trial

    @pytest.mark.parametrize("base, trials", [(2**40, range(3, 4)), (2**32, range(1, 3)), (7, range(2**32 - 1, 2**32 + 1))])
    def test_keys_outside_one_word_take_seed_sequence(self, base, trials, monkeypatch):
        monkeypatch.setattr(brownian, "_key_block", None)  # would fail if called
        block = _trial_normals(base)(np.empty((len(trials), 16)), trials)
        for row, trial in zip(block, trials):
            assert np.array_equal(row, _seeded((base, trial), 16))

    def test_negative_seed_is_refused(self, tmp_path, capsys):
        assert main(["converge", "--example", "1", "--seed", "-1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: expected non-negative integer\n"

    def test_wraparound_raises_no_warning(self):
        _key_block.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keys = _key_block(2**32 - 1, 2**32 // _KEY_BLOCK - 1)
        assert keys.dtype == np.uint64 and keys.shape == (_KEY_BLOCK, 2) and not keys.flags.writeable


def _error_at_on(path):
    # a valid m = 4 result, so only the path can be at fault
    prob = builtin_example(1)
    return error_at(solve(prob, np.zeros(9)), prob, path, 0.5)


class TestValidation:
    # every consumer reads m from the path and checks it the same way
    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((5, 1)),  # a column of 2m + 1 values
            np.zeros(4),
            np.ones(5),
            np.linspace(0.0, 0.3, 7),  # m = 3
        ],
        ids=["two_dimensional", "even_length", "nonzero_origin", "non_power_of_two"],
    )
    @pytest.mark.parametrize(
        "consumer",
        [
            lambda path: solve(builtin_example(1), path),
            lambda path: euler_maruyama(builtin_example(1), path),
            stochastic_matrix,
            _error_at_on,
        ],
        ids=["solve", "euler_maruyama", "stochastic_matrix", "error_at"],
    )
    def test_invalid_path_rejected(self, consumer, bad):
        with pytest.raises(ValueError):
            consumer(bad)


class TestDistribution:
    def test_terminal_variance(self):
        # B(1) ~ N(0, 1): over 10000 seeds the sample variance is close
        cfg = BasisConfig.from_resolution(16)
        finals = np.array([sample_path(cfg, seed=s)[-1] for s in range(10000)])
        assert abs(finals.mean()) <= 0.03
        assert 0.94 <= finals.var() <= 1.06

    def test_increment_scale_and_independence(self):
        # one long path: increments ~ N(0, h/2), lag-1 correlation ~ 0
        cfg = BasisConfig.from_resolution(2048)
        path = sample_path(cfg, seed=2024)
        inc = np.diff(path)
        target = cfg.h / 2.0
        assert abs(inc.var() / target - 1.0) < 0.1
        rho = np.corrcoef(inc[:-1], inc[1:])[0, 1]
        assert abs(rho) < 0.05
