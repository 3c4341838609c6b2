"""Expression language used by problem files."""

import math
import operator

import numpy as np
import pytest

from walshvie.expressions import (
    _SLOPE_FUNCTIONS,
    FUNCTIONS,
    ExpressionError,
    _Parser,
    _compiled,
    _function,
    _shaped,
    _straight_line,
    compile_expression,
)


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


# d/da f(a) of each function, given a and the value v = f(a)
_DERIVATIVES = {
    "sin": lambda a, v: np.cos(a),
    "cos": lambda a, v: -np.sin(a),
    "exp": lambda a, v: v,
    "tanh": lambda a, v: 1.0 - v * v,
    "sech": lambda a, v: -v * np.tanh(a),
    "sinh": lambda a, v: np.cosh(a),
    "asinh": lambda a, v: 1.0 / np.hypot(1.0, a),
    "atanh": lambda a, v: 1.0 / ((1.0 - a) * (1.0 + a)),
    "sqrt": lambda a, v: 0.5 / v,
}


def _varies(slope):
    """Whether a slope may be nonzero: every slope but the scalar 0.0."""
    return np.ndim(slope) != 0 or slope != 0.0


def _reads(node):
    """Whether a tree reads a variable."""
    return node[0] == "var" or any(isinstance(child, tuple) and _reads(child) for child in node[1:])


def _evaluate_with_slope(node, x):
    """Reference: (value, d value / dx) of a one-variable tree at x by a
    recursive walk, forward differentiation in real arithmetic that the
    generated slopes must match operation for operation.  Each largest
    sub-tree that reads no variable takes its value from ``_evaluate``,
    with slope 0.  A node none of whose operands' slopes varies has the
    scalar slope 0.0."""
    if not _reads(node):
        return _evaluate(node, {}), 0.0
    kind = node[0]
    if kind == "var":
        return x, 1.0
    if kind == "neg":
        v, dv = _evaluate_with_slope(node[1], x)
        return -v, -dv
    if kind == "call":
        a, da = _evaluate_with_slope(node[2], x)
        v = FUNCTIONS[node[1]](a)
        return v, _DERIVATIVES[node[1]](a, v) * da if _varies(da) else 0.0
    op = node[1]
    a, da = _evaluate_with_slope(node[2], x)
    b, db = _evaluate_with_slope(node[3], x)
    v = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow}[op](a, b)
    if not (_varies(da) or _varies(db)):
        return v, 0.0
    if op == "+":
        return v, da + db
    if op == "-":
        return v, da - db
    if op == "*":
        return v, da * b + a * db
    if op == "/":
        return v, (da - v * db) / b
    if not _varies(db):
        return v, b * a ** (b - 1.0) * da
    return v, v * (db * np.log(a) + b * da / a)


def _reference_with_slope(src, x):
    """(value, slope) of the one-variable ``src`` by the reference walk, its
    slope in x's shape."""
    value, slope = _evaluate_with_slope(_Parser(src).parse(), x)
    return value, slope if np.shape(slope) == np.shape(x) else np.broadcast_to(slope, np.shape(x))


def _with_slope(f, x):
    """(value, slope) of a one-variable compiled f at x, from the generated
    function that differentiates its tree."""
    return _straight_line(((f, True),))(x)


def _integrands(beta, sigma, sloped):
    """The engine's generated function of a compiled beta and sigma."""
    return _straight_line(((beta, False), (sigma, sloped)))


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
            assert same_bits(f(x), _evaluate(_Parser(src).parse(), {"x": x}))

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
        assert same_bits(k(s, t), _evaluate(_Parser(src).parse(), {"s": s, "t": t}))

    @pytest.mark.parametrize("src", ["2^-1", "-(1/30)^2/2", "atanh(1/10)", "sech(1/3)^3 - 1e-300"])
    def test_constants_fold_to_the_tree_walk(self, src):
        assert same_bits(compile_expression(src), float(_evaluate(_Parser(src).parse(), {})))

    @pytest.mark.parametrize("src, x", [
        ("x * 1", complex(1, math.inf)), ("1 * x", np.array([1, 2])), ("x * (2-1)", 3),
    ])
    def test_a_written_product_with_one_is_made(self, src, x):
        # x * 1.0 is not x for every input: not for a complex infinity or an int
        assert same_bits(compile_expression(src, ("x",))(x), _evaluate(_Parser(src).parse(), {"x": x}))

    def test_globals_hold_only_constants_and_functions(self):
        # no builtin is reachable; every other global is a function of the
        # language or of its slopes, a folded constant or the function itself
        f = compile_expression("exp(-(t-s)) * 2 + sech(1/3)", ("s", "t"))
        functions = {**FUNCTIONS, **_SLOPE_FUNCTIONS, "_shaped": _shaped}
        constants = set()
        for name, value in f.__globals__.items():
            if name == "__builtins__":
                assert value == {}
            elif name in functions:
                assert value is functions[name]
            elif value is not f:
                assert type(value) in (float, np.float64), name
                constants.add(name)
        # the code reads the two folded parts and nothing it could not find
        assert set(f.__code__.co_names) <= set(f.__globals__)
        read = {f.__globals__[name] for name in constants & set(f.__code__.co_names)}
        assert read == {2.0, FUNCTIONS["sech"](1 / 3)}

    @pytest.mark.parametrize("name", ["_c", "_f", "k0", "t0", "v0", "generated", "exp"])
    def test_variables_do_not_shadow_the_generated_names(self, name):
        # a declared variable is a parameter of its own, whatever its name
        x = self.INPUTS["array"]
        for src, names, values in [
            (f"{name} + 2 * exp({name}) - sin({name} / 3)", (name,), (x,)),
            (f"exp(-(s - {name})) * {name} + 1/3", ("s", name), (x, x.T * 2.0)),
            (f"exp(-(s - {name})) * {name} + 1/3", (name, "s"), (x.T * 2.0, x)),
        ]:
            got = compile_expression(src, names)(*values)
            assert same_bits(got, _evaluate(_Parser(src).parse(), dict(zip(names, values))))

    @pytest.mark.parametrize("src", ["-(1/30)^2*exp(-(t-s))", "exp(-s*t)/4"])
    def test_a_tree_without_shared_parts_is_one_expression(self, src):
        # an operation used once is written inside its user, so numpy may
        # reuse its temporary in place: the function has no local but its
        # parameters
        assert compile_expression(src, ("s", "t")).__code__.co_varnames == ("v0", "v1")

    def test_a_shared_part_is_assigned_once(self):
        # t - s is used twice, so it is the one local beside the parameters
        k = compile_expression("(t-s) * exp(-(t-s))", ("s", "t"))
        assert len(k.__code__.co_varnames) == 3

    def test_constant_parts_are_computed_once(self):
        # 1/exp(1000) folds to 0.0 here; evaluating it per call would warn
        # of the overflow in exp, which the suite raises as an error
        f = compile_expression("x + 1/exp(1000)", ("x",))
        assert f(2.0) == 2.0
        assert _with_slope(f, np.full(3, 2.0))[0].tolist() == [2.0] * 3
        s, t = np.array([[0.1], [0.3]]), np.array([[0.2, 0.4]])
        k = compile_expression("exp(-(t-s)) + 1/exp(1000)", ("s", "t"))
        assert same_bits(k(s, t), np.exp(-(t - s)))


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
        value, slope = _with_slope(f, self.X)
        assert np.array_equal(value, f(self.X))
        reference = f(self.X + 1e-20j).imag / 1e-20
        assert np.allclose(slope, reference, rtol=1e-13, atol=0)

    def test_slope_has_the_shape_of_x(self):
        value, slope = _with_slope(compile_expression("2 + x", ("x",)), np.zeros((2, 3)))
        assert value.shape == (2, 3)
        assert np.array_equal(slope, np.ones((2, 3)))
        assert not _compiled(compile_expression("t - s", ("s", "t")))


class TestGeneratedSlopes:
    # the slope and the engine's fused beta/sigma/sigma' function are
    # generated code that must match the tree walk bit for bit
    INPUTS = {
        "float": 0.3,
        "float64": np.float64(0.3),
        "array": np.array([[0.15, 0.4], [0.65, 0.9]]),
        # x * 0.0 is not 0.0 here, so no such product may be folded
        "non-finite": np.array([[np.inf, -np.inf], [np.nan, 0.0]]),
    }
    SOURCES = [f"{name}(x)" for name in FUNCTIONS] + [
        # the five operators, either side varying
        "x + 2", "2 + x", "x - 2", "2 - x", "2 * x", "x * x", "x / 3", "3 / x", "x / x", "-x", "--x",
        # a constant exponent, also of a negative base, and a varying one
        "x ^ 3", "(x - 1) ^ 3", "(x - 1) ^ -2", "(-x) ^ (1/3)", "2 ^ x", "x ^ x", "(1 + x) ^ sech(x)",
        "x ^ -x",
        # products with 1.0, folded constants and slopes that do not vary
        "1 * x", "x * 1", "sech(1/3) * x", "x - x + x", "1 + sqrt(x-x)", "1 + (x-x)^0.5",
        # an np.float64 fold and a float constant of equal value stay apart
        "exp(0) + 1 * x",
        "x*(1-x^2)", "tanh(x)*sech(x)^2", "sqrt(exp(x)^2) - sin(cos(x))", "(x + 1) * (x - 1) / -(x ^ 2)",
        "atanh(x/2) + asinh(x)^2",
    ]

    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize("src", SOURCES)
    def test_with_slope_matches_the_tree_walk(self, src, kind):
        x = self.INPUTS[kind]
        f = compile_expression(src, ("x",))
        with np.errstate(all="ignore"):
            (value, slope), (want_value, want_slope) = _with_slope(f, x), _reference_with_slope(src, x)
            assert same_bits(value, f(x))
        assert same_bits(value, want_value)
        assert same_bits(slope, want_slope)

    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize(
        "beta, sigma",
        [
            ("tanh(x)*sech(x)^2", "sech(x)"),
            ("x*(1-x^2)", "1-x^2"),
            ("sin(x) * cos(x)", "cos(x) + sin(x)^2"),
            ("x", "x"),
            ("x*(1-x^2)", "1 + sqrt(x-x)"),
        ],
    )
    def test_integrands_match_the_tree_walk(self, beta, sigma, kind):
        x = self.INPUTS[kind]
        b, s = compile_expression(beta, ("x",)), compile_expression(sigma, ("x",))
        with np.errstate(all="ignore"):
            want_sigma, want_slope = _reference_with_slope(sigma, x)
            got, want_beta, pair = _integrands(b, s, True)(x), b(x), _integrands(b, s, False)(x)
            # the compiled lambdas themselves still take complex input
            assert np.iscomplexobj(b(x + 0.1j)) and np.iscomplexobj(s(x + 0.1j))
        assert all(same_bits(a, w) for a, w in zip(got, (want_beta, want_sigma, want_slope)))
        assert len(pair) == 2 and same_bits(pair[0], want_beta) and same_bits(pair[1], want_sigma)

    def test_shared_sub_trees_are_computed_once(self, monkeypatch):
        # example 1: sech(x) = 1.0 / cosh(x) is in beta and sigma, tanh(x)
        # in beta and sech'
        beta, sigma = compile_expression("tanh(x)*sech(x)^2", ("x",)), compile_expression("sech(x)", ("x",))
        calls = []
        for table, name in ((FUNCTIONS, "tanh"), (_SLOPE_FUNCTIONS, "cosh")):
            fn = table[name]
            monkeypatch.setitem(table, name, lambda a, name=name, fn=fn: calls.append(name) or fn(a))
        _integrands(beta, sigma, True)(np.full((2, 3), 0.25))
        assert sorted(calls) == ["cosh", "tanh"]

    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize("src", ["sech(x)", "sech(2 - x)", "sinh(x) * sech(x)", "sech(sech(x))"])
    def test_sech_in_both_renderings_matches_the_tree_walk(self, src, kind):
        # sech is generated as cosh, then 1.0 / it, and FUNCTIONS["sech"]
        # is the reference; sinh' shares the cosh
        x = self.INPUTS[kind]
        f = compile_expression(src, ("x",))
        out = _straight_line(((f, True),), True)
        with np.errstate(all="ignore"):
            want = _reference_with_slope(src, x)
            got = _with_slope(f, x)
            lent = out(x, *[np.full_like(x, np.nan) for _ in range(out.slots)])
        assert all(same_bits(a, w) for a, w in zip(got, want))
        # the out rendering writes a numpy scalar's value into a 0-d slot
        assert all(same_bits(a, np.asarray(w)) if np.ndim(x) == 0 else same_bits(a, w) for a, w in zip(lent, want))

    @pytest.mark.parametrize("src", ["x / -3", "-sech(x) / (-30)", "-asinh(0) / sinh(8-x) - 30", "cos(x) * -2"])
    def test_negated_constant_part_has_the_slope_plus_zero(self, src):
        # a part that reads no variable has the slope +0.0, also under a
        # minus sign; -0.0 would flip signed zeros and nans at x = inf or 0
        x = self.INPUTS["non-finite"]
        with np.errstate(all="ignore"):
            got, want = _with_slope(compile_expression(src, ("x",)), x), _reference_with_slope(src, x)
        assert all(same_bits(a, w) for a, w in zip(got, want))

    def test_a_long_product_has_a_slope(self):
        # its product-rule terms nest parentheses, of which Python allows 200
        src, x = " * ".join(["sin(x)"] * 300), self.INPUTS["array"]
        got, want = _with_slope(compile_expression(src, ("x",)), x), _reference_with_slope(src, x)
        assert all(same_bits(a, w) for a, w in zip(got, want))

    def test_slope_that_cannot_vary_is_the_scalar_zero(self):
        # sqrt' is infinite at x - x = 0, so it is never evaluated
        f = compile_expression("1 + sqrt(x-x)", ("x",))
        value, slope = _with_slope(f, 0.25)
        assert value == 1.0 and type(slope) is float and slope == 0.0
        value, slope = _with_slope(f, np.full((2, 3), 0.25))
        assert np.array_equal(slope, np.zeros((2, 3)))


class TestOutRendering:
    # the engine evaluates beta, sigma and sigma' by the out rendering,
    # which must give the bits of the expression rendering on arrays,
    # whatever its slots held before
    X = np.array([
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan],
        [0.3, -0.3, 1.5, -2.0, 0.999, 1e300, -1e-300, 7.0],
    ])
    SOURCES = [f"{name}(x)" for name in FUNCTIONS] + [
        "x + 2", "2 + x", "x - 2", "2 - x", "2 * x", "x * x", "x / 3", "3 / x", "x / x", "-x", "--x",
        # the constant exponents numpy may treat apart, and varying ones
        "x ^ 2", "x ^ 0.5", "x ^ 1", "x ^ -1", "x ^ 3", "(x - 1) ^ 2", "(-x) ^ 0.5", "2 ^ x", "x ^ x",
        "(1 + x) ^ sech(x)",
        "x", "3*x - 1", "1 + sqrt(x-x)", "exp(0) + 1 * x",
        "x*(1-x^2)", "tanh(x)*sech(x)^2", "sqrt(exp(x)^2) - sin(cos(x))", "atanh(x/2) + asinh(x)^2",
    ]

    @staticmethod
    def render(outputs, x):
        """Both renderings of ``outputs`` at x, as tuples, and the slots the
        out rendering was lent, filled with nan beforehand."""
        out = _straight_line(outputs, True)
        slots = [np.full_like(x, np.nan) for _ in range(out.slots)]
        with np.errstate(all="ignore"):
            want, got = _straight_line(outputs)(x), out(x, *slots)
        return (want, got, slots) if isinstance(want, tuple) else ((want,), (got,), slots)

    @pytest.mark.parametrize("sloped", [False, True], ids=["value", "slope"])
    @pytest.mark.parametrize("src", SOURCES)
    def test_matches_the_expression_rendering(self, src, sloped):
        f = compile_expression(src, ("x",))
        want, got, slots = self.render(((f, sloped),), self.X)
        assert len(got) == len(want) == 1 + sloped
        assert all(same_bits(a, w) for a, w in zip(got, want))
        # each array is x, a lent slot or a view of a constant slope
        for a in got:
            assert a is self.X or any(a is s for s in slots) or not a.flags.writeable

    @pytest.mark.parametrize("beta, sigma", [
        ("tanh(x)*sech(x)^2", "sech(x)"), ("x*(1-x^2)", "1-x^2"), ("sin(x) * cos(x)", "cos(x) + sin(x)^2"),
    ])
    def test_integrands_match_the_expression_rendering(self, beta, sigma):
        b, s = compile_expression(beta, ("x",)), compile_expression(sigma, ("x",))
        for sloped in (False, True):
            want, got, _ = self.render(((b, False), (s, sloped)), self.X)
            assert all(same_bits(a, w) for a, w in zip(got, want))

    def test_one_function_twice_is_one_slot(self):
        # beta = sigma: the engine reads both and writes neither
        f = compile_expression("1 - x^2", ("x",))
        want, (b, s, slope), slots = self.render(((f, False), (f, True)), self.X)
        assert b is s and any(b is slot for slot in slots)
        assert all(same_bits(a, w) for a, w in zip((b, s, slope), want))

    def test_sigma_x_is_the_iterate(self):
        f = compile_expression("x", ("x",))
        want, (b, s, slope), _ = self.render(((f, False), (f, True)), self.X)
        assert b is s is self.X
        assert all(same_bits(a, w) for a, w in zip((b, s, slope), want))
        assert not slope.flags.writeable and np.all(slope == 1.0)

    def test_a_constant_and_its_slope(self):
        # a constant is a generated function that carries its number's
        # tree, whose value and slope are read-only views in x's shape
        f, constant = _function("2", ("x",))
        assert constant == 2.0 and _compiled(f)
        want, got, slots = self.render(((f, True),), self.X)
        assert slots == [] and np.all(got[0] == 2.0) and np.all(got[1] == 0.0)
        assert not any(a.flags.writeable for a in got)
        assert all(same_bits(a, w) for a, w in zip(got, want))

    def test_slots_are_reused(self):
        # a term's slot is free once it is added, so a long sum of
        # distinct terms needs two slots, and each term is made in place
        f = compile_expression(" + ".join(f"sin(x + {k})" for k in range(1, 41)), ("x",))
        assert _straight_line(((f, False),), True).slots == 2
        want, got, _ = self.render(((f, True),), self.X[1:])
        assert all(same_bits(a, w) for a, w in zip(got, want))


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

    def test_repeated_variable(self):
        # it would be two parameters of which only the last is read
        with pytest.raises(ExpressionError, match="variable 'x' is declared twice"):
            compile_expression("x", ("x", "x"))
        with pytest.raises(ExpressionError, match="variable 't' is declared twice"):
            compile_expression("s - t", ("s", "t", "t"))

    def test_unknown_name(self):
        with pytest.raises(ExpressionError) as err:
            compile_expression("x + y", ("x",))
        assert "y" in str(err.value)
        assert err.value.col == 5

    @pytest.mark.parametrize(
        "src", ["__import__", "_c", "_f", "abs", "exp", "x + s", "v0", "k0", "t0", "generated", "_shaped", "hypot"]
    )
    def test_names_of_the_generated_code_are_unknown(self, src):
        # names the compiled code could see, or builtins, are not variables
        with pytest.raises(ExpressionError, match="unknown name"):
            compile_expression(src, ("x", "t"))

    @pytest.mark.parametrize(
        "src, message",
        [
            # an unknown name comes first, then any operation on constants
            # that raised, then each largest constant part in tree order
            ("y + 1/0", "unknown name 'y'"),
            ("(x + (-8)^(1/3)) * (x + 0^-1)", "constant expression is not finite"),
            # 0^-1 raises, so its nan^0 = 1 is not a value
            ("x + (0^-1)^0", "constant expression is not finite"),
            ("(x+1e999)*(x+(-8)^(1/3))", "constant expression is not finite"),
            ("(x+(-8)^(1/3))*(x+1e999)", "constant expression is not real"),
        ],
    )
    def test_error_order(self, src, message):
        with pytest.raises(ExpressionError) as err:
            compile_expression(src, ("x",))
        assert err.value.bare_message == message

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
