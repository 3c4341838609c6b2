"""Command-line interface behaviour."""

import csv
import io
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from walshvie.brownian import sample_path
from walshvie import cli
from walshvie.cli import (
    _ascii_words,
    _csv_rows,
    _run_lines,
    _scientific,
    _sparse_runs,
    _triangular_runs,
    _walsh_runs,
    _write,
    _write_matrix,
    main,
)
from walshvie.expressions import FUNCTIONS
from walshvie.operational import integration_matrix, stochastic_matrix, walsh_domain
from walshvie.solver import builtin_example
from walshvie.walsh import BasisConfig, build_walsh_matrix

EXAMPLE2_TEXT = """\
label = file-problem
x0 = 1/10
k1 = -(1/30)^2
k2 = 1/30
beta = x*(1-x^2)
sigma = 1-x^2
exact = tanh((1/30)*B + atanh(1/10))
"""


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [l for l in lines if l.startswith("#")]
    rows = [l.split(",") for l in lines if l and not l.startswith("#")]
    return rows, comments


def reference_matrix_csv(matrix, integer=False):
    """The matrix as csv.writer wrote it, one cell formatted at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([str(int(v)) if integer else f"{float(v):.8e}" for v in row] for row in matrix)
    return buf.getvalue().encode("utf-8")


class TestRun:
    def test_stats_shape(self, tmp_path):
        rc = main(
            ["run", "--example", "1", "--m", "16", "--trials", "5", "--seed", "42", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows, _ = read_rows(tmp_path / "stats_example-1_m16.csv")
        assert rows[0] == ["t", "mean", "sd", "ci_lower", "ci_upper", "n_effective", "failures"]
        assert len(rows) == 6  # header + 5 report times
        assert all(len(r) == 7 for r in rows)
        assert [float(r[0]) for r in rows[1:]] == [0.1, 0.3, 0.5, 0.7, 0.9]
        assert rows[1][5] == "5"

    def test_solution_table(self, tmp_path):
        rc = main(
            ["run", "--example", "2", "--m", "8", "--trials", "3", "--seed", "1", "--oracle", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows, comments = read_rows(tmp_path / "solution_example-2_m8.csv")
        assert rows[0] == ["t", "x_m", "exact", "em_oracle"]
        assert len(rows) == 9
        assert any(c.startswith("# coefficient_error_inf =") for c in comments)
        # midpoint grid in the first column
        ts = [float(r[0]) for r in rows[1:]]
        assert ts == [(2 * j + 1) / 16 for j in range(8)]
        # exact reads trial 1's path at the same midpoints
        cfg = BasisConfig.from_resolution(8)
        want = builtin_example(2).exact(cfg.midpoints, sample_path(cfg, (1, 1))[1::2])
        assert [r[2] for r in rows[1:]] == [f"{v:.8e}" for v in want]

    def test_oracle_column_off_by_default(self, tmp_path):
        main(["run", "--example", "2", "--m", "8", "--trials", "3", "--seed", "1", "--out", str(tmp_path)])
        rows, _ = read_rows(tmp_path / "solution_example-2_m8.csv")
        assert rows[0] == ["t", "x_m", "exact"]

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            rc = main(
                ["run", "--example", "1", "--m", "8", "--trials", "4", "--seed", "7", "--oracle", "--out", str(out)]
            )
            assert rc == 0
        for name in ("stats_example-1_m8.csv", "solution_example-1_m8.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_dump_paths(self, tmp_path):
        main(
            ["run", "--example", "1", "--m", "4", "--trials", "3", "--seed", "2", "--dump-paths", "--out", str(tmp_path)]
        )
        for trial in (1, 2, 3):
            rows, _ = read_rows(tmp_path / f"path_{trial:03d}.csv")
            assert rows[0] == ["t", "B"]
            assert len(rows) == 10  # header + 2m+1 grid points
            assert float(rows[1][1]) == 0.0

    def test_problem_file(self, tmp_path):
        f = tmp_path / "prob.txt"
        f.write_text(EXAMPLE2_TEXT, encoding="utf-8")
        rc = main(
            ["run", "--problem", str(f), "--m", "8", "--trials", "3", "--seed", "1", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "stats_file-problem_m8.csv").exists()

    def test_no_exact_skips_stats(self, tmp_path, capsys):
        f = tmp_path / "prob.txt"
        f.write_text("x0 = 0\nk1 = 1\nk2 = 1/30\nbeta = x\nsigma = 1\n", encoding="utf-8")
        rc = main(["run", "--problem", str(f), "--m", "8", "--trials", "3", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert "skipping error statistics" in capsys.readouterr().err
        assert not list(tmp_path.glob("stats_*.csv"))
        rows, _ = read_rows(tmp_path / "solution_problem_m8.csv")
        assert rows[0] == ["t", "x_m"]


    def test_trial_1_failure_writes_nothing(self, tmp_path, capsys):
        # with seed 4 the path of trial 1 blows this problem up and trials
        # 2-5 solve, so statistics alone could have been written
        f = tmp_path / "edge.txt"
        f.write_text("x0 = 1/2\nk1 = 1\nk2 = 1\nbeta = x^2\nsigma = 1\nexact = 0\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["run", "--problem", str(f), "--m", "8", "--trials", "5", "--seed", "4", "--out", str(out)])
        assert rc == 1
        assert "solve failed on trial 1" in capsys.readouterr().err
        assert not any(out.iterdir())


class TestConverge:
    def test_report_and_footer(self, tmp_path):
        rc = main(
            ["converge", "--example", "2", "--resolutions", "4,8,16", "--trials", "3", "--seed", "4", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows, comments = read_rows(tmp_path / "converge_example-2.csv")
        assert rows[0] == ["m", "h", "rms_error"]
        assert [r[0] for r in rows[1:]] == ["4", "8", "16"]
        assert float(rows[1][1]) == 0.25
        assert len(comments) == 2
        assert comments[0].startswith("# estimated_order =")
        assert comments[1] == "# failures = 0"

    def test_requires_exact(self, tmp_path, capsys):
        f = tmp_path / "prob.txt"
        f.write_text("x0 = 0\nk1 = 1\nk2 = 0\nbeta = x\nsigma = x\n", encoding="utf-8")
        rc = main(["converge", "--problem", str(f), "--out", str(tmp_path)])
        assert rc == 1
        assert "exact" in capsys.readouterr().err


# Problems whose exact solution is a constant and a function of t alone,
# with the outputs of `run --m 4 --trials 3 --seed 1` and
# `converge --resolutions 2,4,8 --trials 2 --seed 1` they must give.
EXACT_FORMS = {
    "half": (
        "label = half\nx0 = 1/2\nk1 = 0\nk2 = 1/30\nbeta = 0\nsigma = 0\nexact = 1/2\n",
        {
            "solution_half_m4.csv": """\
t,x_m,exact
1.25000000e-01,5.00000000e-01,5.00000000e-01
3.75000000e-01,5.00000000e-01,5.00000000e-01
6.25000000e-01,5.00000000e-01,5.00000000e-01
8.75000000e-01,5.00000000e-01,5.00000000e-01
# coefficient_error_inf = 0.00000000e+00
""",
            "stats_half_m4.csv": """\
t,mean,sd,ci_lower,ci_upper,n_effective,failures
1.00000000e-01,0.00000000e+00,0.00000000e+00,0.00000000e+00,0.00000000e+00,3,0
3.00000000e-01,0.00000000e+00,0.00000000e+00,0.00000000e+00,0.00000000e+00,3,0
5.00000000e-01,0.00000000e+00,0.00000000e+00,0.00000000e+00,0.00000000e+00,3,0
7.00000000e-01,0.00000000e+00,0.00000000e+00,0.00000000e+00,0.00000000e+00,3,0
9.00000000e-01,0.00000000e+00,0.00000000e+00,0.00000000e+00,0.00000000e+00,3,0
""",
            "converge_half.csv": """\
m,h,rms_error
2,5.00000000e-01,0.00000000e+00
4,2.50000000e-01,0.00000000e+00
8,1.25000000e-01,0.00000000e+00
# estimated_order = nan
# failures = 0
""",
        },
    ),
    "expt": (
        "label = expt\nx0 = 1\nk1 = 1\nk2 = 0\nbeta = x\nsigma = 0\nexact = exp(t)\n",
        {
            "solution_expt_m4.csv": """\
t,x_m,exact
1.25000000e-01,1.14285714e+00,1.13314845e+00
3.75000000e-01,1.46938776e+00,1.45499141e+00
6.25000000e-01,1.88921283e+00,1.86824596e+00
8.75000000e-01,2.42898792e+00,2.39887529e+00
# coefficient_error_inf = 1.87961321e-02
""",
            "stats_expt_m4.csv": """\
t,mean,sd,ci_lower,ci_upper,n_effective,failures
1.00000000e-01,3.76862248e-02,0.00000000e+00,3.76862248e-02,3.76862248e-02,3,0
3.00000000e-01,2.07001665e-01,0.00000000e+00,2.07001665e-01,2.07001665e-01,3,0
5.00000000e-01,1.79333516e-01,0.00000000e+00,1.79333516e-01,1.79333516e-01,3,0
7.00000000e-01,1.24539879e-01,0.00000000e+00,1.24539879e-01,1.24539879e-01,3,0
9.00000000e-01,3.06151895e-02,0.00000000e+00,3.06151895e-02,3.06151895e-02,3,0
""",
            "converge_expt.csv": """\
m,h,rms_error
2,5.00000000e-01,3.66366194e-01
4,2.50000000e-01,1.36292276e-01
8,1.25000000e-01,1.18863793e-01
# estimated_order = 8.11988532e-01
# failures = 0
""",
        },
    ),
}


class TestExactForms:
    @pytest.mark.parametrize("name", sorted(EXACT_FORMS))
    def test_run_and_converge_outputs(self, tmp_path, name):
        text, expected = EXACT_FORMS[name]
        f = tmp_path / "prob.txt"
        f.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        common = ["--problem", str(f), "--seed", "1", "--out", str(out)]
        assert main(["run", "--m", "4", "--trials", "3"] + common) == 0
        assert main(["converge", "--resolutions", "2,4,8", "--trials", "2"] + common) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)
        for fname, want in expected.items():
            assert (out / fname).read_text(encoding="utf-8") == want


class TestMatrices:
    def test_m2_blocks(self, tmp_path):
        rc = main(["matrices", "--m", "2", "--seed", "7", "--out", str(tmp_path)])
        assert rc == 0
        p_rows, _ = read_rows(tmp_path / "p.csv")
        P = np.array([[float(v) for v in row] for row in p_rows])
        assert (P == np.array([[0.25, 0.5], [0.0, 0.25]])).all()
        tw_rows, _ = read_rows(tmp_path / "tw.csv")
        assert tw_rows == [["1", "1"], ["1", "-1"]]
        lam_rows, _ = read_rows(tmp_path / "lambda.csv")
        L = np.array([[float(v) for v in row] for row in lam_rows])
        assert np.allclose(L, [[0.5, -0.25], [0.25, 0.0]], rtol=0, atol=1e-15)

    def test_all_five_files(self, tmp_path):
        main(["matrices", "--m", "4", "--seed", "1", "--out", str(tmp_path)])
        for name in ("tw.csv", "p.csv", "ps.csv", "lambda.csv", "lambda_s.csv"):
            assert (tmp_path / name).exists()

    def test_no_m_by_m_array(self, tmp_path, monkeypatch):
        # one m x m float64 array is 32 MB at m = 2048; the chunks are
        # consumed but not written
        monkeypatch.setattr(cli, "_write", lambda outdir, name, chunks: sum(map(len, chunks)))
        tracemalloc.start()
        try:
            assert main(["matrices", "--m", "2048", "--seed", "3", "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_ps_consistent_with_seeded_path(self, tmp_path):
        from walshvie.brownian import sample_path
        from walshvie.walsh import BasisConfig

        main(["matrices", "--m", "4", "--seed", "11", "--out", str(tmp_path)])
        rows, _ = read_rows(tmp_path / "ps.csv")
        PS = np.array([[float(v) for v in row] for row in rows])
        path = sample_path(BasisConfig.from_resolution(4), 11)
        v = path
        # CSV carries 9 significant digits
        assert abs(PS[0, 0] - (v[1] - v[0])) < 1e-8
        assert abs(PS[0, 1] - (v[2] - v[0])) < 1e-8


def formatted(values, cols=1):
    """The bytes the block formatter writes for values, cols per row."""
    return b"".join(_csv_rows(np.asarray(values, dtype=float).reshape(-1, cols)))


def reference_values_csv(values, cols=1):
    return reference_matrix_csv(np.asarray(values, dtype=float).reshape(-1, cols))


def ulps_around(x, n):
    """The 2n + 1 doubles from n ulps below the positive double x to n above."""
    return (np.float64(x).view(np.int64) + np.arange(-n, n + 1)).view(np.float64)


# 1.220703125e-4 is 2**-13: its nine-digit y = 122070312.5 is an exact
# tie, which Python breaks to even.
TIE = 2.0**-13
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, -1e-310,
    np.inf, -np.inf, np.nan, -np.nan, 1e-100, -1e-100, 1e300, -1e300, 1.7976931348623157e308,
    1e-15, 9.99999999e-16, 1e9, 999999999.4, 999999999.6, -999999999.6,
    9.9999999995e-3, 9.9999999994e-3, -9.9999999996e-3, 0.99999999996, 9.99999999951e-15,
    TIE, -TIE, 1.5, 0.1, 0.30000000000000004, 12345.6789, -2.5e-7,
]


class TestFloatFormatter:
    def test_word_tables_match_formatted_strings(self):
        def words(strings):
            return np.array(strings, dtype="S4").view(np.uint8).view(np.uint32)

        want = (
            words([f"{s}{d // 10}.{d % 10}" for s in ("\0", "-") for d in range(100)]),
            words([f"{d:04d}" for d in range(10**4)]),
            words([f"{d:03d}e" for d in range(10**3)]),
            words([f"{d:+03d}\0" for d in range(-99, 100)]),
        )
        for got, table in zip(_ascii_words(), want, strict=True):
            assert got.dtype == np.uint32 and not got.flags.writeable
            assert np.array_equal(got, table)

    def test_edge_values(self):
        assert formatted(EDGE_VALUES) == reference_values_csv(EDGE_VALUES)
        assert formatted(EDGE_VALUES[:-1], cols=3) == reference_values_csv(EDGE_VALUES[:-1], cols=3)

    def test_ulps_around_powers_of_ten(self):
        values = np.concatenate([ulps_around(float(f"1e{k}"), 64) for k in range(-15, 11)])
        values = np.concatenate([values, -values])
        assert formatted(values, cols=258) == reference_values_csv(values, cols=258)

    def test_carries_into_the_exponent(self):
        values = [9.9999999995e-3, 9.99999999951e-3, 0.99999999996, 99999.9999951, 999999999.7, 1e-14 * 0.99999999996]
        for v in values:
            assert formatted([v, -v]) == reference_values_csv([v, -v])
        assert formatted([999999999.7]) == b"1.00000000e+09\n"

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(10).integers(0, 2**64, size=200_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert formatted(values, cols=100) == reference_values_csv(values, cols=100)

    def test_random_decimals_near_ties(self):
        # ten significant digits ending in 5: y lies near a half-integer
        rng = np.random.default_rng(11)
        text = [f"{d}5e{e}" for d, e in zip(rng.integers(10**8, 10**9, 5000), rng.integers(-16, 11, 5000))]
        values = np.array([float(t) for t in text])
        assert formatted(values, cols=50) == reference_values_csv(values, cols=50)

    @pytest.mark.parametrize(
        "value",
        [np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072e-309, 1e-100, 1e300, 9e-16, 1e9, -2e12, TIE, -TIE],
        ids=["nan", "inf", "-inf", "subnormal", "-subnormal", "e=-100", "e=300", "e=-16", "e=9", "e=12", "tie", "-tie"],
    )
    def test_each_fallback_reason_is_taken(self, value):
        # non-finite, subnormal, exponent outside [-14, 8], and a rounding
        # too close to a half to decide: each goes to Python's "%.8e"
        _, _, fast = _scientific(np.array([value]))
        assert not fast[0]
        assert formatted([value]) == reference_values_csv([value])

    @pytest.mark.parametrize("value", [0.0, -0.0, 1e-14, 9.9999999e8, -0.1, 1.5, 123456789.0])
    def test_ordinary_values_take_the_fast_path(self, value):
        _, _, fast = _scientific(np.array([value]))
        assert fast[0]

    def test_no_runtime_warnings(self, tmp_path):
        M = np.array(EDGE_VALUES[:-1]).reshape(3, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _write_matrix(tmp_path, "edge.csv", [M])
            assert main(["matrices", "--m", "64", "--seed", "2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "edge.csv").read_bytes() == reference_matrix_csv(M)


class TestMatrixWriter:
    # T_W, P, P_S and Lambda are written from runs, Lambda_S from dense
    # blocks of rows.  m = 512 spans eight run blocks of 64 rows and four
    # dense blocks of 128; below m = 64 a row of T_W is narrower than the
    # 64-column Hadamard block, m = 2 gives Lambda only its row 0 and one
    # row of its top octave, and the last row of P and P_S has no run
    # right of the diagonal.
    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64, 256, 512])
    def test_matrices_match_reference(self, tmp_path, m):
        cfg = BasisConfig.from_resolution(m)
        P = integration_matrix(cfg)
        for seed in (5, 6):
            assert main(["matrices", "--m", str(m), "--seed", str(seed), "--out", str(tmp_path)]) == 0
            PS = stochastic_matrix(sample_path(cfg, seed))
            expected = {
                "tw.csv": reference_matrix_csv(build_walsh_matrix(cfg), integer=True),
                "p.csv": reference_matrix_csv(P),
                "ps.csv": reference_matrix_csv(PS),
                "lambda.csv": reference_matrix_csv(walsh_domain(P)),
                "lambda_s.csv": reference_matrix_csv(walsh_domain(PS)),
            }
            for name, want in expected.items():
                assert (tmp_path / name).read_bytes() == want, (name, seed)

    def test_signed_zeros_repeats_and_subnormals(self, tmp_path):
        tiny = 5e-324
        M = np.array(
            [
                [-0.0, 0.0, -0.0, 0.0, 1.5, 1.5],
                [tiny, -tiny, tiny, 2.2250738585072014e-309, -0.0, -0.0],
                [np.inf, -np.inf, np.nan, 0.1, 0.1 + 2e-17, 0.30000000000000004],
                [1e-300, -2.5, 3.0, 7e12, -8.5e-5, 0.25],
            ]
        )
        _write_matrix(tmp_path, "m.csv", [M])
        assert (tmp_path / "m.csv").read_bytes() == reference_matrix_csv(M)

        # The same values, and TIE and 1e300 that Python formats, in runs
        # of 16, four a row, and in one column: the dense writer yields one
        # chunk a block of rows.  NaNs with other payloads or sign and -0.0
        # next to 0.0 keep their own text.
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64)
        values = np.concatenate([M.ravel(), nans.view(np.float64), [TIE, -TIE, 1e300, -1e300, TIE, 0.0, -0.0, 0.0]])
        runs = np.repeat(values, 16).reshape(-1, 64)
        blocks = np.repeat(np.arange(2 * cli._BLOCK_VALUES // 64 + 3) / 7, 64).reshape(-1, 64)
        for A, chunks in ((runs, 1), (values[:, None], 1), (blocks, 3)):
            assert len(list(_csv_rows(A))) == chunks
            _write_matrix(tmp_path, "m.csv", [A])
            assert (tmp_path / "m.csv").read_bytes() == reference_matrix_csv(A)

        # The run writers take the same values as the diagonal and the
        # runs right of it, and, but for the zeros, as the nonzeros of a
        # sparse matrix.
        m = len(values)
        T = np.zeros((m, m))
        np.copyto(T, values[::-1, None], where=np.triu(np.ones((m, m), dtype=bool), 1))
        np.fill_diagonal(T, values)
        _write(tmp_path, "t.csv", _run_lines(m, _triangular_runs(values[::-1], values)))
        assert (tmp_path / "t.csv").read_bytes() == reference_matrix_csv(T)
        nonzero = values[values != 0]
        m = len(nonzero)
        S = np.zeros((m, m))
        entries = [sorted({i, 7 * i % m, m - 1}) for i in range(m)]
        for i, columns in enumerate(entries):
            S[i, columns] = nonzero[i]
        _write(tmp_path, "s.csv", _run_lines(m, _sparse_runs(m, lambda i: [(c, nonzero[i]) for c in entries[i]])))
        assert (tmp_path / "s.csv").read_bytes() == reference_matrix_csv(S)

    def test_integer_signs(self, tmp_path):
        # m = 128 and 512 join two and eight doubled Hadamard rows of 64
        for m in (1, 2, 16, 64, 128, 512):
            T = build_walsh_matrix(BasisConfig.from_resolution(m))
            _write(tmp_path, "tw.csv", _run_lines(m, _walsh_runs(m)))
            assert (tmp_path / "tw.csv").read_bytes() == reference_matrix_csv(T, integer=True), m

    def test_memory_is_per_row(self, tmp_path):
        # 1024**2 distinct values: their strings take over 100 MB, so a
        # cache across rows would show here.
        M = np.random.default_rng(3).standard_normal((1024, 1024))
        tracemalloc.start()
        try:
            _write_matrix(tmp_path, "big.csv", [M])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_memory_of_runs_is_per_row(self, tmp_path):
        # P at m = 1024 is 16 MB of text in 3070 runs
        m = 1024
        above, diagonal = np.full(m, 1.0 / m), np.full(m, 0.5 / m)
        tracemalloc.start()
        try:
            _write(tmp_path, "p.csv", _run_lines(m, _triangular_runs(above, diagonal)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestPaths:
    def test_bytes_match_reference(self, tmp_path):
        assert main(["paths", "--m", "64", "--trials", "3", "--seed", "8", "--out", str(tmp_path)]) == 0
        cfg = BasisConfig.from_resolution(64)
        grid = [i * cfg.h / 2.0 for i in range(2 * cfg.m + 1)]
        for trial in (1, 2, 3):
            values = sample_path(cfg, (8, trial))
            want = "t,B\n" + "".join(f"{t:.8e},{v:.8e}\n" for t, v in zip(grid, values))
            assert (tmp_path / f"path_{trial:03d}.csv").read_bytes() == want.encode("ascii")

    def test_one_generator_per_dump(self, tmp_path, monkeypatch):
        # at m = 4096 paths are drawn two at a time: 5 trials take three
        # draws, by one generator
        made, philox = [], np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda *args: made.append(args) or philox(*args))
        assert main(["paths", "--m", "4096", "--trials", "5", "--seed", "8", "--out", str(tmp_path)]) == 0
        assert len(made) == 1
        rows, _ = read_rows(tmp_path / "path_005.csv")
        want = [f"{v:.8e}" for v in sample_path(BasisConfig.from_resolution(4096), (8, 5))]
        assert [b for _, b in rows[1:]] == want

    def test_shapes_and_origin(self, tmp_path):
        rc = main(["paths", "--m", "8", "--trials", "2", "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        rows, _ = read_rows(tmp_path / "path_002.csv")
        assert rows[0] == ["t", "B"]
        assert len(rows) == 18
        assert float(rows[1][0]) == 0.0
        assert float(rows[1][1]) == 0.0
        assert float(rows[-1][0]) == 1.0

    def test_trials_match_run_seeding(self, tmp_path):
        # the paths command shows exactly the paths run would consume
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["paths", "--m", "8", "--trials", "2", "--seed", "3", "--out", str(a)])
        main(["run", "--example", "1", "--m", "8", "--trials", "2", "--seed", "3", "--dump-paths", "--out", str(b)])
        assert (a / "path_001.csv").read_bytes() == (b / "path_001.csv").read_bytes()


class TestErrorsAndSeeds:
    def test_invalid_example_names_valid_ids(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--example", "3", "--m", "8"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "1" in err and "2" in err

    def test_non_power_of_two_m(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--example", "1", "--m", "12"])
        assert exc.value.code == 2
        assert "power of two" in capsys.readouterr().err

    def test_example_and_problem_exclusive(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("x0 = 0\nk1 = 1\nk2 = 0\nbeta = x\nsigma = x\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--example", "1", "--problem", str(f)])
        assert exc.value.code == 2

    def test_missing_problem_file(self, tmp_path, capsys):
        rc = main(["run", "--problem", str(tmp_path / "ghost.txt"), "--m", "8", "--out", str(tmp_path)])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_position_surfaced(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("x0 = 0\nk1 = 1\nk2 = 0\nbeta = x*(1-y^2)\nsigma = x\n", encoding="utf-8")
        rc = main(["run", "--problem", str(f), "--m", "8", "--out", str(tmp_path)])
        assert rc == 1
        assert "line 4" in capsys.readouterr().err

    def test_complex_constant_is_one_error_line(self, tmp_path, capsys):
        f = tmp_path / "complex.txt"
        f.write_text("x0 = (-8)^(1/3)\nk1 = 1\nk2 = 0\nbeta = x\nsigma = x\n", encoding="utf-8")
        rc = main(["run", "--problem", str(f), "--m", "8", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "not real" in err[0] and "line 1" in err[0]

    @pytest.mark.parametrize("beta", ["x + 0^-1*x", "x*3^1e308"])
    def test_constant_part_that_raises_is_one_error_line(self, tmp_path, capsys, beta):
        # 0^-1 raises ZeroDivisionError and 3^1e308 OverflowError in
        # Python floats: both are found when the expression compiles
        f = tmp_path / "raises.txt"
        f.write_text(f"x0 = 0\nk1 = 1\nk2 = 1\nbeta = {beta}\nsigma = 1\n", encoding="utf-8")
        rc = main(["run", "--problem", str(f), "--m", "8", "--trials", "2", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: constant expression is not finite (line 4, column 8)"]
        assert not list(tmp_path.glob("*.csv"))

    def test_sigma_part_that_cannot_vary_runs(self, tmp_path):
        # sqrt' is infinite at x - x = 0; that part's slope is 0, not nan
        f = tmp_path / "sqrt.txt"
        f.write_text("x0 = 1/10\nk1 = -1/900\nk2 = 1/30\nbeta = x*(1-x^2)\nsigma = 1 + sqrt(x-x)\n", encoding="utf-8")
        assert main(["run", "--problem", str(f), "--m", "8", "--trials", "2", "--out", str(tmp_path)]) == 0

    def test_rms_that_overflows_is_one_error_line(self, tmp_path, capsys):
        f = tmp_path / "overflow.txt"
        f.write_text("x0 = 0\nk1 = 0\nk2 = 0\nbeta = 0\nsigma = 0\nexact = 1e200\n", encoding="utf-8")
        argv = ["converge", "--problem", str(f), "--resolutions", "8,16,32", "--trials", "2", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: the RMS error at m=8 is not finite"]
        assert not list(tmp_path.glob("*.csv"))

    def test_singular_kernel_is_one_error_line_naming_it(self, tmp_path, capsys):
        # 1/(t-s) is infinite where quadrature nodes of s and t coincide
        f = tmp_path / "singular.txt"
        f.write_text("x0 = 0\nk1 = 1/(t-s)\nk2 = 0\nbeta = x\nsigma = 1\nexact = 0\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--problem", str(f), "--m", "8", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: k1 ") and "non-finite" in err[0]

    def test_env_seed_default(self, tmp_path, monkeypatch):
        a = tmp_path / "a"
        b = tmp_path / "b"
        monkeypatch.setenv("WALSHVIE_SEED", "11")
        main(["paths", "--m", "4", "--out", str(a)])
        monkeypatch.delenv("WALSHVIE_SEED")
        main(["paths", "--m", "4", "--seed", "11", "--out", str(b)])
        assert (a / "path_001.csv").read_bytes() == (b / "path_001.csv").read_bytes()

    def test_flag_overrides_env_seed(self, tmp_path, monkeypatch):
        a = tmp_path / "a"
        b = tmp_path / "b"
        monkeypatch.setenv("WALSHVIE_SEED", "99")
        main(["paths", "--m", "4", "--seed", "11", "--out", str(a)])
        monkeypatch.delenv("WALSHVIE_SEED")
        main(["paths", "--m", "4", "--seed", "11", "--out", str(b)])
        assert (a / "path_001.csv").read_bytes() == (b / "path_001.csv").read_bytes()

    def test_bad_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WALSHVIE_SEED", "not-a-number")
        rc = main(["paths", "--m", "4", "--out", str(tmp_path)])
        assert rc == 1
        assert "WALSHVIE_SEED" in capsys.readouterr().err

    def test_nonpositive_trials(self, tmp_path, capsys):
        rc = main(["run", "--example", "1", "--m", "8", "--trials", "0", "--out", str(tmp_path)])
        assert rc == 1


# The leaves of fuzzed expressions: every variable of the key, and
# literals at the edges of the float range and of the real functions.
FUZZ_LITERALS = ("0", "1", "2", "0.5", "1e308", "1e-300", "(-8)")
FUZZ_VARIABLES = {"x0": (), "k1": ("s", "t"), "k2": ("s", "t"), "beta": ("x",), "sigma": ("x",), "exact": ("t", "B")}


def fuzz_expression(rng, variables, depth=3):
    """A random expression of the problem-file grammar: its functions,
    binary operators, unary minus and parentheses over FUZZ_LITERALS
    and ``variables``."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(FUZZ_LITERALS + variables * 2)
    form = rng.randrange(4)
    if form == 0:
        return f"{rng.choice(sorted(FUNCTIONS))}({fuzz_expression(rng, variables, depth - 1)})"
    if form == 1:
        return "-" + fuzz_expression(rng, variables, depth - 1)
    if form == 2:
        return f"({fuzz_expression(rng, variables, depth - 1)})"
    operator = rng.choice("+-*/^")
    return fuzz_expression(rng, variables, depth - 1) + operator + fuzz_expression(rng, variables, depth - 1)


class TestGrammarFuzz:
    # Seeded problem files over the whole grammar, half of them with an
    # exact solution.  The warnings filter of the test run turns a numpy
    # warning that leaks out of the package into a failure too.
    @pytest.mark.parametrize("seed", range(200))
    def test_exits_cleanly_or_with_one_error_line(self, tmp_path, capsys, seed):
        rng = random.Random(seed)
        text = "".join(
            f"{key} = {fuzz_expression(rng, variables)}\n"
            for key, variables in FUZZ_VARIABLES.items()
            if key != "exact" or rng.random() < 0.5
        )
        f = tmp_path / "fuzz.txt"
        f.write_text(text, encoding="utf-8")
        commands = [["run", "--m", "8", "--trials", "2", "--oracle"]]
        if "exact" in text:
            commands.append(["converge", "--resolutions", "2,4,8", "--trials", "2"])
        for command in commands:
            rc = main([*command, "--problem", str(f), "--out", str(tmp_path)])
            err = capsys.readouterr().err.splitlines()
            if rc != 0:
                assert len(err) == 1 and err[0].startswith("error: "), (command, text, err)
