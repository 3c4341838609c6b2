"""Problem-file parsing."""

import numpy as np
import pytest

from walshvie import problemfile
from walshvie.brownian import sample_path
from walshvie.expressions import ExpressionError
from walshvie.problemfile import parse_problem_file, problem_from_text
from walshvie.solver import builtin_example, solve


def midpoints(m):
    return (2 * np.arange(m) + 1) / (2 * m)

EXAMPLE2_TEXT = """\
# benchmark with multiplicative noise
label = example-2
x0    = 1/10
k1    = -(1/30)^2
k2    = 1/30
beta  = x*(1-x^2)
sigma = 1-x^2

exact = tanh((1/30)*B + atanh(1/10))
"""


class TestParsing:
    def test_example2_matches_builtin(self):
        parsed = problem_from_text(EXAMPLE2_TEXT)
        builtin = builtin_example(2)
        assert parsed.label == "example-2"
        assert parsed.x0 == builtin.x0
        assert parsed.k1 == builtin.k1
        assert parsed.k2 == builtin.k2
        for x in np.linspace(-0.9, 0.9, 13):
            assert parsed.beta(x) == builtin.beta(x)
            assert parsed.sigma(x) == builtin.sigma(x)
        m = 8
        path = sample_path(m, seed=17)
        for j, t in enumerate(midpoints(m)):
            B = path[2 * j + 1]
            assert parsed.exact(t, B) == builtin.exact(t, B)

    def test_solve_agrees_with_builtin(self):
        path = sample_path(16, seed=5)
        a = solve(problem_from_text(EXAMPLE2_TEXT), path)
        b = solve(builtin_example(2), path)
        assert np.array_equal(a.x_colloc, b.x_colloc)

    def test_comments_and_blanks_ignored(self):
        text = "x0 = 0 # inline comment\n\n# full line\nk1 = 1\nk2 = 0\nbeta = x\nsigma = x\n"
        prob = problem_from_text(text)
        assert prob.x0 == 0.0
        assert prob.exact is None
        assert prob.label == "problem"

    def test_exact_optional(self):
        text = "x0 = 0\nk1 = 1\nk2 = 0\nbeta = x\nsigma = x\n"
        assert problem_from_text(text).exact is None

    def test_constant_nonlinearities_solve(self):
        # additive noise: sigma folds to a constant but must stay usable
        text = "x0 = 0\nk1 = 0\nk2 = 1/30\nbeta = 0\nsigma = 1\nexact = (1/30)*B\n"
        prob = problem_from_text(text)
        assert prob.sigma(0.7) == 1.0
        assert (prob.sigma(np.zeros(4)) == 1.0).all()
        m = 8
        path = sample_path(m, seed=13)
        res = solve(prob, path)
        # x(t_j) = (1/30) B(t_j) exactly: the integrand is constant
        expect = prob.exact(midpoints(m), path[1::2])
        assert np.allclose(res.x_colloc, expect, rtol=0, atol=1e-14)


class TestParseErrors:
    def test_missing_keys_named(self):
        with pytest.raises(ValueError) as err:
            problem_from_text("x0 = 0\nk1 = 1\n")
        msg = str(err.value)
        assert "k2" in msg and "beta" in msg and "sigma" in msg

    def test_unknown_key_with_line(self):
        with pytest.raises(ValueError) as err:
            problem_from_text("x0 = 0\nbogus = 1\n")
        assert "line 2" in str(err.value)
        assert "bogus" in str(err.value)

    def test_duplicate_key(self):
        text = "x0 = 0\nx0 = 1\nk1 = 1\nk2 = 0\nbeta = x\nsigma = x\n"
        with pytest.raises(ValueError) as err:
            problem_from_text(text)
        assert "line 2" in str(err.value)
        assert "duplicate" in str(err.value)

    def test_missing_equals(self):
        with pytest.raises(ValueError) as err:
            problem_from_text("x0 0\n")
        assert "line 1" in str(err.value)

    def test_empty_value(self):
        with pytest.raises(ValueError) as err:
            problem_from_text("x0 =\n")
        assert "line 1" in str(err.value)

    def test_expression_error_reports_file_position(self):
        text = "x0 = 0\nk1 = 1\nk2 = 0\nbeta = x*(1-y^2)\nsigma = x\n"
        with pytest.raises(ExpressionError) as err:
            problem_from_text(text)
        assert err.value.line == 4
        # 'y' sits at column 13 of the raw line
        assert err.value.col == 13
        assert "y" in err.value.bare_message

    def test_expression_error_located_at_failing_key(self):
        # two bad keys: the error raised is beta's, so its position must
        # be beta's line, not that of the first bad key in file order
        text = "sigma = q\nx0 = 0\nk1 = 1\nk2 = 0\nbeta = x + y\n"
        with pytest.raises(ExpressionError) as err:
            problem_from_text(text)
        assert err.value.line == 5
        assert err.value.col == 12
        assert "y" in err.value.bare_message

    def test_non_constant_x0_rejected(self):
        text = "x0 = x\nk1 = 1\nk2 = 0\nbeta = x\nsigma = x\n"
        with pytest.raises((ValueError, ExpressionError)):
            problem_from_text(text)


class TestFiles:
    def test_parse_from_disk(self, tmp_path):
        f = tmp_path / "prob.txt"
        f.write_text(EXAMPLE2_TEXT, encoding="utf-8")
        prob = parse_problem_file(f)
        assert prob.label == "example-2"

    def test_file_name_in_errors(self, tmp_path):
        f = tmp_path / "broken.txt"
        f.write_text("x0 = 0\nwhat = 1\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            parse_problem_file(f)
        assert "broken.txt" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_problem_file(tmp_path / "nope.txt")


class TestRoundTrip:
    def test_docstring_problem_solves_like_builtin(self):
        # the file format's documented example is built-in example 2
        doc = "\n".join(line for line in problemfile.__doc__.splitlines() if line.startswith("    "))
        parsed = problem_from_text(doc)
        builtin = builtin_example(2)
        assert parsed.label == builtin.label
        path = sample_path(16, seed=23)
        a = solve(builtin, path)
        b = solve(parsed, path)
        assert np.array_equal(a.x_colloc, b.x_colloc)
        assert a.iterations == b.iterations
        assert np.array_equal(parsed.exact(midpoints(16), path[1::2]), builtin.exact(midpoints(16), path[1::2]))
