"""Command-line interface behaviour."""

import numpy as np
import pytest

from walshvie.cli import main

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

    def test_ps_consistent_with_seeded_path(self, tmp_path):
        from walshvie.brownian import sample_path
        from walshvie.walsh import BasisConfig

        main(["matrices", "--m", "4", "--seed", "11", "--out", str(tmp_path)])
        rows, _ = read_rows(tmp_path / "ps.csv")
        PS = np.array([[float(v) for v in row] for row in rows])
        path = sample_path(BasisConfig.from_resolution(4), 11)
        v = path.values
        # CSV carries 9 significant digits
        assert abs(PS[0, 0] - (v[1] - v[0])) < 1e-8
        assert abs(PS[0, 1] - (v[2] - v[0])) < 1e-8


class TestPaths:
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
