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


def _varies(slope):
    """Whether a slope may be nonzero: every slope but the scalar 0.0."""
    return np.ndim(slope) != 0 or slope != 0.0


def _evaluate_with_slope(node, x, folded):
    """(value, d value / dx) of a one-variable tree at x, by forward
    differentiation in real arithmetic.  ``folded`` maps the id of each
    largest sub-tree that reads no variable to its value, whose slope is
    0.  A node none of whose operands' slopes varies has the scalar
    slope 0.0, so a derivative that is infinite there (sqrt at 0) is
    never multiplied by it.  The values are those of the compiled
    callable, operation for operation."""
    if id(node) in folded:
        return folded[id(node)], 0.0
    kind = node[0]
    if kind == "var":
        return x, 1.0
    if kind == "neg":
        v, dv = _evaluate_with_slope(node[1], x, folded)
        return -v, -dv
    if kind == "call":
        a, da = _evaluate_with_slope(node[2], x, folded)
        v = FUNCTIONS[node[1]](a)
        return v, _DERIVATIVES[node[1]](a, v) * da if _varies(da) else 0.0
    op = node[1]
    a, da = _evaluate_with_slope(node[2], x, folded)
    b, db = _evaluate_with_slope(node[3], x, folded)
    v = _ARITHMETIC[op](a, b)
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
        # the exponent does not vary with x, so a may be negative
        return v, b * a ** (b - 1.0) * da
    return v, v * (db * np.log(a) + b * da / a)


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
    pass of forward differentiation over the parsed tree in real
    arithmetic that takes each of those sub-trees as its value with
    slope 0.  Error positions are on line 1; callers parsing
    multi-line files move them to the real line.
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

        def with_slope(x):
            value, slope = _evaluate_with_slope(node, x, folded)
            # a slope that does not depend on x is a scalar (1.0 for x)
            if np.shape(slope) != np.shape(x):
                slope = np.broadcast_to(slope, np.shape(x))
            return value, slope

        fn.with_slope = with_slope
    return fn
