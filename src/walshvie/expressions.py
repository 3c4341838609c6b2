"""Small arithmetic expression language for problem files.

Grammar (standard precedence, ^ is right associative and binds tighter
than unary minus):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Numbers are decimal literals with optional fraction and exponent.  The
callable names sin, cos, exp, tanh, sech, sinh, asinh, atanh and sqrt
are recognised; any other NAME must be one of the variables declared by
the caller.  Expressions that reference no variable fold to a float at
compile time.
"""

import functools
import operator

import numpy as np

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "sech": lambda x: 1.0 / np.cosh(x),
    "sinh": np.sinh,
    "asinh": np.arcsinh,
    "atanh": np.arctanh,
    "sqrt": np.sqrt,
}

class ExpressionError(ValueError):
    """Parse or evaluation failure, carrying a 1-based line and column.

    ``key`` names the problem key whose expression failed, when the
    error comes from building a problem.
    """

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.bare_message = message
        self.line = line
        self.col = col
        self.key = None


def _tokenize(src):
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c in " \t":
            i += 1
            continue
        col = i + 1
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExpressionError(f"bad number {text!r}", 1, col) from None
            yield ("num", value, col)
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            yield ("name", src[i:j], col)
            i = j
        elif c in "+-*/^()":
            yield (c, c, col)
            i += 1
        else:
            raise ExpressionError(f"unexpected character {c!r}", 1, col)
    yield ("end", None, n + 1)


class _Parser:
    def __init__(self, src):
        self.tokens = list(_tokenize(src))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok[1]!r}", 1, tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(f"unexpected trailing input {tok[1]!r}", 1, tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in "*/":
            op = self.take()[0]
            node = ("bin", op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok[0] == "-":
            self.take()
            return ("neg", self.unary())
        if tok[0] == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.take()
            node = ("bin", "^", node, self.unary())
        return node

    def atom(self):
        tok = self.take()
        kind, value, col = tok
        if kind == "num":
            return ("num", value)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise ExpressionError(f"unknown function {value!r}", 1, col)
                self.take()
                arg = self.expr()
                self.expect(")")
                return ("call", value, arg)
            return ("var", value, col)
        raise ExpressionError(f"expected a value, found {value!r}", 1, col)


# Per binary operator: its Python spelling, how tightly it binds and how
# tightly its operands must bind to go without parentheses (atoms 5, unary
# minus 3); the module's grammar is Python's with ^ for **.
_BINARY = {"+": ("+", 1, 1, 2), "-": ("-", 1, 1, 2), "*": ("*", 2, 2, 3), "/": ("/", 2, 2, 3),
           "^": ("**", 4, 5, 3)}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow}


def _source(node, constants, reads, folds, binding=0):
    """Python source of a tree, in parentheses if it binds less tightly
    than ``binding``.  Numbers are appended to ``constants`` and read as
    ``_c[i]``, so Python folds none of the tree's operations; variable
    references are appended to ``reads`` as (name, column).  Each
    largest sub-tree that reads no variable, within a tree that does, is
    appended to ``folds`` with its source."""
    kind = node[0]
    if kind == "num":
        constants.append(node[1])
        return f"_c[{len(constants) - 1}]"
    if kind == "var":
        reads.append(node[1:])
        return node[1]
    if kind == "call":
        return f"_f[{node[1]!r}]({_source(node[2], constants, reads, folds)})"
    if kind == "neg":
        text, strength = "-" + _source(node[1], constants, reads, folds, 3), 3
    else:
        op, strength, left, right = _BINARY[node[1]]
        start = len(reads)
        a = _source(node[2], constants, reads, folds, left)
        middle = len(reads)
        b = _source(node[3], constants, reads, folds, right)
        # exactly one operand reads a variable: the other is a largest
        # variable-free sub-tree
        if start == middle < len(reads):
            folds.append((node[2], a))
        elif start < middle == len(reads):
            folds.append((node[3], b))
        text = f"{a} {op} {b}"
    return text if strength >= binding else f"({text})"


# The functions the slopes call besides FUNCTIONS, and every operation of
# the generated code, with the source of those that are not calls
_SLOPE_FUNCTIONS = {"cosh": np.cosh, "hypot": np.hypot, "log": np.log}
_OPERATIONS = {**_ARITHMETIC, "neg": operator.neg, **FUNCTIONS, **_SLOPE_FUNCTIONS}
_TEMPLATES = {**{op: f"{{}} {spelling} {{}}" for op, (spelling, *_) in _BINARY.items()}, "neg": "-{}"}

# d/da f(a) of each function, as operations of an _Emitter e on the names
# of a and of the value v = f(a)
_DERIVATIVES = {
    "sin": lambda e, a, v: e.op("cos", a),
    "cos": lambda e, a, v: e.op("neg", e.op("sin", a)),
    "exp": lambda e, a, v: v,
    "tanh": lambda e, a, v: e.op("-", 1.0, e.op("*", v, v)),
    "sech": lambda e, a, v: e.op("*", e.op("neg", v), e.op("tanh", a)),
    "sinh": lambda e, a, v: e.op("cosh", a),
    "asinh": lambda e, a, v: e.op("/", 1.0, e.op("hypot", 1.0, a)),
    "atanh": lambda e, a, v: e.op("/", 1.0, e.op("*", e.op("-", 1.0, a), e.op("+", 1.0, a))),
    "sqrt": lambda e, a, v: e.op("/", 0.5, v),
}


def _shaped(slope, x):
    # a slope that does not depend on x is a scalar (1.0 for x)
    return slope if np.shape(slope) == np.shape(x) else np.broadcast_to(slope, np.shape(x))


class _Emitter:
    """Straight-line Python source of the values and forward-mode slopes
    of one-variable parse trees at ``x``, in real arithmetic.  Each
    distinct operation on distinct operand names is one assignment, so a
    part that trees or derivative terms share is computed once.  An
    operation on constants only (folded sub-trees, the slope 1.0 of x and
    the slopes made from them) is made here with the tree walk's Python
    operation, and a product with the float 1.0 is its other operand,
    which is exact.  A node whose operands' slopes are all the constant
    0.0 has the slope 0.0, so a derivative that is infinite there (sqrt
    at 0) is never taken.  The tree walk judges that per call instead, so
    the two can differ where a scalar x makes another slope exactly 0."""

    def __init__(self):
        self.lines = []
        self.names = {}  # operation or (type, repr) of a constant -> name
        self.constants = {}  # name -> value
        self.scope = {**FUNCTIONS, **_SLOPE_FUNCTIONS, "_shaped": _shaped, "__builtins__": {}}

    def const(self, value):
        key = (type(value), repr(value))
        if key not in self.names:
            name = self.names[key] = f"k{len(self.constants)}"
            self.constants[name] = self.scope[name] = value
        return self.names[key]

    def op(self, symbol, *args):
        """The name of symbol applied to args, names or Python floats."""
        args = tuple(a if isinstance(a, str) else self.const(a) for a in args)
        if all(a in self.constants for a in args):
            with np.errstate(all="ignore"):
                return self.const(_OPERATIONS[symbol](*(self.constants[a] for a in args)))
        one = self.names.get((float, "1.0"))
        if symbol == "*" and one in args:
            return args[1] if args[0] == one else args[0]
        key = (symbol, *args)
        if key not in self.names:
            text = _TEMPLATES[symbol].format(*args) if symbol in _TEMPLATES else f"{symbol}({', '.join(args)})"
            self.names[key] = f"t{len(self.lines)}"
            self.lines.append(f"    {self.names[key]} = {text}\n")
        return self.names[key]

    def varies(self, slope):
        return slope not in self.constants or self.constants[slope] != 0.0

    def walk(self, node, folded, sloped):
        """(value, slope) names of a tree, whose ``folded`` maps the id of
        each largest sub-tree that reads no variable to its value; without
        ``sloped`` the slope is None and no slope is computed."""
        if id(node) in folded:
            return self.const(folded[id(node)]), self.const(0.0) if sloped else None
        kind = node[0]
        if kind == "var":
            return "x", self.const(1.0) if sloped else None
        if kind == "neg":
            a, da = self.walk(node[1], folded, sloped)
            return self.op("neg", a), self.op("neg", da) if sloped else None
        if kind == "call":
            a, da = self.walk(node[2], folded, sloped)
            v = self.op(node[1], a)
            if not sloped:
                return v, None
            if not self.varies(da):
                return v, self.const(0.0)
            return v, self.op("*", _DERIVATIVES[node[1]](self, a, v), da)
        op = node[1]
        (a, da), (b, db) = self.walk(node[2], folded, sloped), self.walk(node[3], folded, sloped)
        v = self.op(op, a, b)
        if not sloped:
            return v, None
        if not (self.varies(da) or self.varies(db)):
            return v, self.const(0.0)
        if op in "+-":
            return v, self.op(op, da, db)
        if op == "*":
            return v, self.op("+", self.op("*", da, b), self.op("*", a, db))
        if op == "/":
            return v, self.op("/", self.op("-", da, self.op("*", v, db)), b)
        if not self.varies(db):
            # the exponent does not vary with x, so a may be negative
            return v, self.op("*", self.op("*", b, self.op("^", a, self.op("-", b, 1.0))), da)
        log_term, power_term = self.op("*", db, self.op("log", a)), self.op("/", self.op("*", b, da), a)
        return v, self.op("*", v, self.op("+", log_term, power_term))


def _compiled(*fns):
    """Whether every fn is a one-variable callable of compile_expression."""
    return all(hasattr(fn, "_tree") for fn in fns)


@functools.lru_cache(maxsize=16)
def _straight_line(outputs):
    """One generated function x -> the value of each one-variable callable
    of compile_expression in ``outputs``, a tuple of (callable, sloped),
    followed by its slope in x's shape when ``sloped``.  It is made once
    per ``outputs``, on first use."""
    e = _Emitter()
    returns = []
    for fn, sloped in outputs:
        value, slope = e.walk(*fn._tree, sloped)
        returns += [value, f"_shaped({slope}, x)"] if sloped else [value]
    source = f"def generated(x):\n{''.join(e.lines)}    return {', '.join(returns)}\n"
    exec(compile(source, "<expression>", "exec"), e.scope)
    return e.scope["generated"]


def _only_in_differences(node, a, b):
    """Whether every variable reference in ``node`` is an operand of an
    ``a - b`` or ``b - a`` subtraction node."""
    kind = node[0]
    if kind == "var":
        return False
    if kind == "num":
        return True
    if kind in ("neg", "call"):
        return _only_in_differences(node[-1], a, b)
    op, left, right = node[1:]
    if op == "-" and left[0] == right[0] == "var" and {left[1], right[1]} == {a, b}:
        return True
    return _only_in_differences(left, a, b) and _only_in_differences(right, a, b)


def compile_expression(src, variables=()):
    """Compile ``src`` to a float (no variables used) or a callable.

    The callable takes the declared variables positionally and accepts
    scalars or numpy arrays.  It is the parsed tree emitted once as a
    Python lambda without builtins that makes the tree's operations in
    the tree's order.  Every largest sub-tree that reads no variable,
    the whole tree for a constant, is evaluated once here from the same
    source, and one that raises or is not a finite real number is an
    ExpressionError at column 1; a constant returns that value.  Its
    ``difference_kernel`` attribute is True when there are two variables
    and the expression reads them only as the operands of their
    difference (``exp(-(t-s))``, not ``-s + t``).
    A one-variable callable also has ``with_slope(x) -> (value, slope)``:
    its value, bit for bit, and its derivative in x's shape, from one
    function generated on first use that makes the forward
    differentiation of the parsed tree in real arithmetic (``_Emitter``)
    and takes each of those sub-trees as its value with slope 0.  Error
    positions are on line 1; callers parsing multi-line files move them
    to the real line.
    """
    node = _Parser(src).parse()
    names, constants, reads, folds = tuple(variables), [], [], []
    body = _source(node, constants, reads, folds)
    for name, col in reads:
        if name not in names:
            raise ExpressionError(f"unknown name {name!r}", 1, col)
    scope = {"_c": tuple(constants), "_f": FUNCTIONS, "__builtins__": {}}
    parts = "".join(f"{text}, " for _, text in folds) if reads else f"{body}, "
    with np.errstate(all="ignore"):
        try:
            values = eval(compile(f"({parts})", "<expression>", "eval"), scope)
        except (ZeroDivisionError, OverflowError, ValueError):
            values = (float("nan"),)
    for value in values:
        if np.iscomplexobj(value):
            raise ExpressionError("constant expression is not real", 1, 1)
        if not np.isfinite(value):
            raise ExpressionError("constant expression is not finite", 1, 1)
    if not reads:
        return float(values[0])
    folded = {id(sub): value for (sub, _), value in zip(folds, values)}
    fn = eval(compile(f"lambda {', '.join(names)}: {body}", "<expression>", "eval"), scope)
    fn.difference_kernel = len(names) == 2 and _only_in_differences(node, *names)
    if len(names) == 1:
        fn._tree = (node, folded)
        fn.with_slope = lambda x: _straight_line(((fn, True),))(x)
    return fn
