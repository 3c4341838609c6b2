"""Expression language used by problem files."""

import math

import numpy as np
import pytest

from walshvie.expressions import FUNCTIONS, ExpressionError, _Parser, compile_expression


def _evaluate(node, env):
    """Reference: a walk of the parse tree that the compiled callables
    must match operation for operation."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -_evaluate(node[1], env)
    if kind == "call":
        return FUNCTIONS[node[1]](_evaluate(node[2], env))
    op, left, right = node[1], _evaluate(node[2], env), _evaluate(node[3], env)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    return left**right


def same_bits(a, b):
    same_type = type(a) is type(b) and np.shape(a) == np.shape(b)
    return same_type and np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestConstantFolding:
    @pytest.mark.parametrize(
        "src,value",
        [
            ("1+2*3", 7.0),
            ("(1+2)*3", 9.0),
            ("7/2", 3.5),
            ("1-2-3", -4.0),
            ("2^3^2", 512.0),  # right associative
            ("-2^2", -4.0),  # unary minus binds looser than ^
            ("(-2)^2", 4.0),
            ("2^-1", 0.5),
            ("1/10", 0.1),
            ("1.5e-2", 0.015),
            ("+3", 3.0),
            ("--2", 2.0),
        ],
    )
    def test_arithmetic(self, src, value):
        out = compile_expression(src)
        assert isinstance(out, float)
        assert out == value

    @pytest.mark.parametrize(
        "src,value",
        [
            ("sech(0)", 1.0),
            ("sqrt(4)", 2.0),
            ("exp(0)", 1.0),
            ("sin(0)", 0.0),
            ("cos(0)", 1.0),
            ("tanh(0)", 0.0),
            ("sinh(0)", 0.0),
            ("asinh(0)", 0.0),
        ],
    )
    def test_functions_exact(self, src, value):
        assert compile_expression(src) == value

    def test_atanh(self):
        assert abs(compile_expression("atanh(1/10)") - math.atanh(0.1)) < 1e-15

    def test_nested(self):
        got = compile_expression("sqrt(exp(2)^2)")
        assert abs(got - math.exp(2)) < 1e-12

    def test_non_finite_constant_rejected(self):
        with pytest.raises(ExpressionError):
            compile_expression("1/0")
        with pytest.raises(ExpressionError):
            compile_expression("atanh(2)")
        # a negative base under a fractional exponent folds to a complex
        for src in ["(-8)^(1/3)", "exp((-8)^(1/3))", "(-8)^(1/3) * 0"]:
            with pytest.raises(ExpressionError) as err:
                compile_expression(src)
            assert err.value.bare_message == "constant expression is not real"

    @pytest.mark.parametrize("src", ["1/0", "atanh(2)", "1e999", "1e999 - 1e999", "2^2000"])
    def test_non_finite_constant_message(self, src):
        with pytest.raises(ExpressionError) as err:
            compile_expression(src)
        assert err.value.bare_message == "constant expression is not finite"


class TestCallables:
    def test_single_variable(self):
        f = compile_expression("x*(1-x^2)", ("x",))
        assert f(0.5) == 0.375
        assert f.variables == ("x",)
        assert f.source == "x*(1-x^2)"

    def test_two_variables_positional(self):
        k = compile_expression("s*t - s", ("s", "t"))
        assert k(2.0, 3.0) == 4.0

    def test_accepts_arrays(self):
        f = compile_expression("tanh(x)*sech(x)^2", ("x",))
        x = np.linspace(-1, 1, 7)
        expect = np.tanh(x) / np.cosh(x) ** 2
        assert np.allclose(f(x), expect, rtol=1e-15, atol=1e-18)

    def test_unused_variable_still_callable(self):
        # a kernel constant in s must stay a function of (s, t)
        k = compile_expression("t", ("s", "t"))
        assert callable(k)
        assert k(5.0, 2.0) == 2.0


class TestMatchesTreeWalk:
    # a real point inside every function's domain, for each input type
    INPUTS = {
        "float": 0.3,
        "float64": np.float64(0.3),
        "array": np.array([[0.15], [0.4], [0.65], [0.9]]),
        "complex": 0.3 + 0.2j,
        "complex-array": np.array([0.3 + 0.2j, 0.7 - 0.1j]),
    }

    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize(
        "src",
        [f"{name}(x)" for name in FUNCTIONS]
        + [
            "x + 2", "x - 2", "2 * x", "x / 3", "x ^ 3", "2 ^ x", "-x", "+x", "--x", "x - -x",
            "1 - x - x", "1 - (x - x)", "x / x / 2", "x / (x / 2)", "2 ^ 3 ^ x", "(2 ^ 3) ^ x",
            "-x ^ 2", "(-x) ^ 2", "x ^ -x", "x ^ -2 ^ 2", "x * -x", "(x + 1) * (x - 1) / -(x ^ 2)",
            "x*(1-x^2)", "tanh(x)*sech(x)^2", "sqrt(exp(x)^2) - sin(cos(x))",
            # a negative base under a constant exponent
            "(x - 1) ^ 3", "(x - 1) ^ -2", "(x - 1) ^ 0.5", "(-x) ^ (1/3)",
            # a long chain compiles as one left-nested expression
            " + ".join(["x"] * 500),
        ],
    )
    def test_one_variable(self, src, kind):
        x = self.INPUTS[kind]
        f = compile_expression(src, ("x",))
        with np.errstate(all="ignore"):
            assert same_bits(f(x), _evaluate(_Parser(src, 1).parse(), {"x": x}))

    @pytest.mark.parametrize("kind", ["float", "float64", "array", "complex"])
    @pytest.mark.parametrize(
        "src",
        [
            "-(1/30)^2*exp(-(t-s))", "(1/30)*exp(-(t-s)/2)",
            "s*t - s", "exp(-s*t)", "cos(s*t) + t", "t^s", "s/t",
        ],
    )
    def test_two_variables(self, src, kind):
        s = self.INPUTS[kind]
        t = s.T * 2.0 if kind == "array" else s * 2.0
        k = compile_expression(src, ("s", "t"))
        assert same_bits(k(s, t), _evaluate(_Parser(src, 1).parse(), {"s": s, "t": t}))

    @pytest.mark.parametrize("src", ["2^-1", "-(1/30)^2/2", "atanh(1/10)", "sech(1/3)^3 - 1e-300"])
    def test_constants_fold_to_the_tree_walk(self, src):
        assert same_bits(compile_expression(src), float(_evaluate(_Parser(src, 1).parse(), {})))

    def test_globals_hold_only_constants_and_functions(self):
        f = compile_expression("exp(-(t-s)) * 2", ("s", "t"))
        assert set(f.__globals__) == {"_c", "_f", "__builtins__"}
        assert f.__globals__["__builtins__"] == {}
        assert f.__globals__["_f"] is FUNCTIONS
        assert f.__globals__["_c"] == (2.0,)


class TestSlopes:
    # every point lies inside every function's real domain
    X = np.array([0.15, 0.4, 0.65, 0.9])

    @pytest.mark.parametrize(
        "src",
        [f"{name}(x)" for name in FUNCTIONS]
        + [
            "x + sin(x)",
            "x - cos(x)",
            "x*exp(x)",
            "sinh(x)/(2 + x)",
            "-tanh(x)",
            "x^3",
            "sqrt(x)^-1.5",
            "2^x",
            "x^x",
            "(1 + x)^sech(x)",
        ],
    )
    def test_matches_complex_step(self, src):
        f = compile_expression(src, ("x",))
        value, slope = f.with_slope(self.X)
        assert np.array_equal(value, f(self.X))
        reference = f(self.X + 1e-20j).imag / 1e-20
        assert np.allclose(slope, reference, rtol=1e-13, atol=0)

    def test_slope_has_the_shape_of_x(self):
        value, slope = compile_expression("2 + x", ("x",)).with_slope(np.zeros((2, 3)))
        assert value.shape == (2, 3)
        assert np.array_equal(slope, np.ones((2, 3)))
        assert not hasattr(compile_expression("t - s", ("s", "t")), "with_slope")


class TestDifferenceKernels:
    @pytest.mark.parametrize(
        "src, marked",
        [
            ("exp(-(t-s))", True),
            ("(s-t)^2", True),
            ("cos(3*(t-s))", True),
            ("-(1/30)^2*exp(-(t-s))", True),
            ("(1/30)*exp(-(t-s)/2)", True),
            ("(t - s) - 1", True),
            ("(t-s)*(s-t) + 2", True),
            ("s*t - s", False),
            ("-s + t", False),
            ("exp(s)*exp(-t)", False),
            ("t", False),
            ("s", False),
            ("t - s - s", False),
            ("1 - t - s", False),
            ("(t-s) + s", False),
            ("exp(-(t-s))*(1+s)", False),
        ],
    )
    def test_truth_table(self, src, marked):
        # the rule reads the parse tree: each variable reference must be
        # an operand of a t - s or s - t node, however the lag is used
        assert compile_expression(src, ("s", "t")).difference_kernel is marked

    def test_only_two_variables_are_marked(self):
        assert compile_expression("x - x", ("x",)).difference_kernel is False
        assert compile_expression("t - B", ("t", "B")).difference_kernel is True
        assert compile_expression("t - s", ("s", "t", "u")).difference_kernel is False


class TestErrors:
    def test_unknown_function(self):
        with pytest.raises(ExpressionError) as err:
            compile_expression("foo(3)")
        assert "foo" in str(err.value)
        assert err.value.col == 1

    def test_unknown_name(self):
        with pytest.raises(ExpressionError) as err:
            compile_expression("x + y", ("x",))
        assert "y" in str(err.value)
        assert err.value.col == 5

    @pytest.mark.parametrize("src", ["__import__", "_c", "_f", "abs", "exp", "x + s"])
    def test_names_of_the_compiled_lambda_are_unknown(self, src):
        # names the compiled code could see, or builtins, are not variables
        with pytest.raises(ExpressionError, match="unknown name"):
            compile_expression(src, ("x", "t"))

    def test_trailing_input(self):
        with pytest.raises(ExpressionError):
            compile_expression("1 2")

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionError):
            compile_expression("(1+2")

    def test_bad_character(self):
        with pytest.raises(ExpressionError) as err:
            compile_expression("1 @ 2")
        assert err.value.col == 3

    def test_empty(self):
        with pytest.raises(ExpressionError):
            compile_expression("")

    def test_line_offset_carried(self):
        with pytest.raises(ExpressionError) as err:
            compile_expression("bar(1)", line=12)
        assert err.value.line == 12
        assert "line 12" in str(err.value)
