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


# the Python template of each operator
_OPERATORS = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}", "^": "{} ** {}", "neg": "-{}"}
# the functions the slopes call besides FUNCTIONS, and every operation of the generated code
_SLOPE_FUNCTIONS = {"cosh": np.cosh, "hypot": np.hypot, "log": np.log}
_OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow,
               "neg": operator.neg, **FUNCTIONS, **_SLOPE_FUNCTIONS}
# the ufunc of each operator in the out rendering, which calls it by its numpy name
_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power, "neg": np.negative}

# d/da f(a) of each function, as operations of an _Emitter e on a and v = f(a)
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


def _shaped(value, *args):
    # a value or slope that does not depend on the arguments is a scalar
    # (the slope 1.0 of x), read in the shape and type they broadcast to
    shape, dtype = np.broadcast(*args).shape, np.result_type(*args, float)
    return value if np.shape(value) == shape else np.broadcast_to(np.asarray(value, dtype), shape)


class _Emitter:
    """The one generator of Python source: values and forward-mode slopes
    of parse trees in real arithmetic, as functions of v0, v1, ...  Each
    distinct operation on distinct operands is made once.  One on
    constants only (a sub-tree that reads no variable, the slope 1.0 of a
    variable and slopes made from them) is made here by the tree walk's
    Python operation; ``failed`` records a raise, and ``parts`` names each
    largest variable-free sub-tree of a tree that reads one, in tree order;
    such a sub-tree has the slope +0.0, even under a minus.  A node whose
    operands' slopes are all the constant 0.0 has the slope 0.0, so an
    infinite derivative there (sqrt at 0) is never taken; the tree walk
    judges that per call, so the two can differ where a scalar x makes
    another slope exactly 0."""

    def __init__(self):
        self.operations = []  # (symbol, *operand names) of t0, t1, ...
        self.names = {}  # operation or (type, repr) of a constant -> name
        self.constants = {}  # name -> value
        self.parts, self.failed = [], False
        self.scope = {**FUNCTIONS, **_SLOPE_FUNCTIONS, "_shaped": _shaped, "__builtins__": {}}

    def const(self, value):
        key = (type(value), repr(value))
        if key not in self.names:
            name = self.names[key] = f"k{len(self.constants)}"
            self.constants[name] = self.scope[name] = value
        return self.names[key]

    def op(self, symbol, *args, written=False):
        """The name of symbol applied to args, names or Python floats.  A
        product with the float 1.0 is its other operand, which is exact in
        a real slope, unless it is ``written`` in the expression."""
        args = [a if isinstance(a, str) else self.const(a) for a in args]
        if all(map(self.constants.__contains__, args)):
            try:
                with np.errstate(all="ignore"):
                    value = _OPERATIONS[symbol](*map(self.constants.get, args))
            except (ZeroDivisionError, OverflowError, ValueError):
                self.failed, value = True, float("nan")
            return self.const(value)
        one = self.names.get((float, "1.0"))
        if symbol == "*" and one in args and not written:
            return args[1] if args[0] == one else args[0]
        key = (symbol, *args)
        if key not in self.names:
            self.names[key] = f"t{len(self.operations)}"
            self.operations.append(key)
        return self.names[key]

    def varies(self, slope):
        return slope not in self.constants or self.constants[slope] != 0.0

    def walk(self, node, params, sloped):
        """(value, slope) names of a tree whose variables ``params`` names; no slope unless sloped."""
        kind = node[0]
        if kind == "num":
            return self.const(node[1]), self.const(0.0) if sloped else None
        if kind == "var":
            if node[1] not in params:
                raise ExpressionError(f"unknown name {node[1]!r}", 1, node[2])
            return params[node[1]], self.const(1.0) if sloped else None
        if kind == "neg":
            a, da = self.walk(node[1], params, sloped)
            return self.op("neg", a), self.op("neg", da) if sloped and a not in self.constants else da
        if kind == "call":
            a, da = self.walk(node[2], params, sloped)
            # sech(a) is made as FUNCTIONS["sech"] makes it, 1.0 / cosh(a)
            v = self.op("/", 1.0, self.op("cosh", a)) if node[1] == "sech" else self.op(node[1], a)
            if not (sloped and self.varies(da)):
                return v, self.const(0.0) if sloped else None
            return v, self.op("*", _DERIVATIVES[node[1]](self, a, v), da)
        op = node[1]
        (a, da), (b, db) = self.walk(node[2], params, sloped), self.walk(node[3], params, sloped)
        if (a in self.constants) != (b in self.constants):
            self.parts.append(a if a in self.constants else b)
        v = self.op(op, a, b, written=True)
        if not (sloped and (self.varies(da) or self.varies(db))):
            return v, self.const(0.0) if sloped else None
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

    def function(self, arity, returns):
        """The generated function of v0 .. v{arity-1} returning the names
        ``returns``.  An operation used once is written, in parentheses,
        inside the one that uses it (``inline`` holds its source), so
        numpy may reuse its temporary in place and the parse tree alone
        decides the order; one used more often, or holding over 100
        parentheses (Python nests at most 200), is assigned once.  A loop
        writes them in the order they were made, so a long chain does not
        recurse.  One assignment per operation keeps the bits but not that
        reuse: on a 2-CPU Xeon, walsh._block_averages of -exp(-s*t)/900 at
        m = 4096 took 2.2-2.3 s that way against 0.7-0.9 s inlined."""
        uses, params = {}, [f"v{i}" for i in range(arity)]
        for name in returns + [a for _, *args in self.operations for a in args]:
            uses[name] = uses.get(name, 0) + 1
        lines, inline = [f"def generated({', '.join(params)}):\n"], {}

        def operand(name):
            return f"({inline.pop(name)})" if name in inline else name

        for i, (symbol, *args) in enumerate(self.operations):
            template = _OPERATORS.get(symbol, f"{symbol}({', '.join(['{}'] * len(args))})")
            text = template.format(*map(operand, args))
            if uses[f"t{i}"] > 1 or text.count("(") > 100:
                lines.append(f"    t{i} = {text}\n")
            else:
                inline[f"t{i}"] = text
        lines.append(self._return(returns, operand, params))
        return self._define(lines)

    def out_function(self, returns):
        """The out rendering of a one-variable function returning the names
        ``returns``: generated(v0, s0, .., s{k-1}) calls the ufunc of each
        operation with out= one of the k slots, x-shaped arrays that it writes
        before it reads them, and returns slots, v0 or constants in x's shape.
        Each operation is one ufunc call, sech's cosh and 1.0 / it too.  A slot
        is free after the operation that last reads it, which may write into
        it; a returned name keeps its slot to the end, so a name returned twice
        is one slot.  ``slots`` holds k.  On arrays it gives the bits of
        ``function``, where x ** 2.0 is the same np.power call."""
        last = {}
        for i, (_, *args) in enumerate(self.operations):
            last.update(dict.fromkeys(args, i))
        last.update(dict.fromkeys(returns, len(self.operations)))
        slot, free, count, lines = {}, [], 0, []

        def operand(name):
            return f"s{slot[name]}" if name in slot else name

        for i, (symbol, *args) in enumerate(self.operations):
            text = ", ".join(map(operand, args))
            free += sorted({slot[a] for a in args if a in slot and last[a] == i})
            slot[f"t{i}"] = k = free.pop(0) if free else count
            count = max(count, k + 1)
            ufunc = _UFUNCS[symbol].__name__ if symbol in _UFUNCS else symbol
            lines.append(f"    {ufunc}({text}, out=s{k})\n")
        lines.insert(0, f"def generated({', '.join(['v0'] + [f's{k}' for k in range(count)])}):\n")
        lines.append(self._return(returns, operand, ["v0"]))
        self.scope.update((fn.__name__, fn) for fn in _UFUNCS.values())
        generated = self._define(lines)
        generated.slots = count
        return generated

    def _return(self, returns, operand, params):
        """The return line of a generated function of ``params``: each name
        by ``operand``, and a constant in the shape they broadcast to."""
        texts = [f"_shaped({', '.join([name, *params])})" if name in self.constants else operand(name)
                 for name in returns]
        return f"    return {', '.join(texts)}\n"

    def _define(self, lines):
        exec(compile("".join(lines), "<expression>", "exec"), self.scope)
        return self.scope["generated"]


def _compiled(*fns):
    """Whether every fn is a one-variable generated function (``_function``)."""
    return all(hasattr(fn, "_tree") for fn in fns)


@functools.lru_cache(maxsize=16)
def _straight_line(outputs, out=False):
    """One generated function x -> the value of each one-variable generated
    function in ``outputs``, a tuple of (function, sloped), followed by
    its slope when ``sloped``, each in x's shape: the expression
    rendering, or with ``out`` the out rendering of the same operations
    (``_Emitter.out_function``), which writes them into slots that its
    caller lends.  It is made once per ``outputs`` and rendering, on first
    use."""
    e, returns = _Emitter(), []
    for fn, sloped in outputs:
        node, variable = fn._tree
        value, slope = e.walk(node, {variable: "v0"}, sloped)
        returns += [value, slope] if sloped else [value]
    return e.out_function(returns) if out else e.function(1, returns)


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


def _function(src, variables):
    """compile_expression's callable of ``src``, a constant's too (its value
    in the arguments' shape and type), and that value as a float or None."""
    names, e = tuple(variables), _Emitter()
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ExpressionError(f"variable {name!r} is declared twice", 1, 1)
    node = _Parser(src).parse()
    value, _ = e.walk(node, {name: f"v{i}" for i, name in enumerate(names)}, False)
    if e.failed:
        raise ExpressionError("constant expression is not finite", 1, 1)
    constant = value in e.constants
    for part in [e.constants[value]] if constant else map(e.constants.get, e.parts):
        if np.iscomplexobj(part):
            raise ExpressionError("constant expression is not real", 1, 1)
        if not np.isfinite(part):
            raise ExpressionError("constant expression is not finite", 1, 1)
    fn = e.function(len(names), [value])
    fn.difference_kernel = len(names) == 2 and _only_in_differences(node, *names)
    if len(names) == 1:
        fn._tree = node, names[0]
    return fn, float(e.constants[value]) if constant else None


def compile_expression(src, variables=()):
    """Compile ``src`` to a float (no variables used) or a callable.

    The callable takes the declared variables positionally and accepts
    scalars or numpy arrays: a function without builtins, written by
    ``_Emitter``, that makes the tree's operations in the tree's order.
    Every largest sub-tree that reads no variable, the whole tree for a
    constant, is evaluated once here and never per call; an evaluation
    that raises, or a part that is not a finite real number, is an
    ExpressionError at column 1.  ``difference_kernel`` is True when there
    are two variables, read only as the operands of their difference
    (``exp(-(t-s))``, not ``-s + t``), and a one-variable callable can be
    fused and differentiated (``_straight_line``).  Error positions are
    on line 1; callers parsing multi-line files move them to the real line.
    """
    fn, constant = _function(src, variables)
    return fn if constant is None else constant
