"""Plain-text problem files.

One ``key = expression`` pair per line; blank lines and ``#`` comments
are ignored.  Required keys: x0, k1, k2, beta, sigma.  Optional keys:
exact, label.  Kernels may use the variables s and t, beta and sigma
use x, and exact uses t and B, where B is the path value at the last
collocation midpoint at or below t.

    label = example-2
    x0    = 1/10
    k1    = -(1/30)^2
    k2    = 1/30
    beta  = x*(1-x^2)
    sigma = 1-x^2
    exact = tanh((1/30)*B + atanh(1/10))
"""

from .expressions import ExpressionError
from .solver import REQUIRED_KEYS, problem_from_sources

OPTIONAL_KEYS = ("exact", "label")


def problem_from_text(text, name="problem file"):
    sources = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ValueError(f"{name}: line {lineno}: expected 'key = expression'")
        key, rhs = line.split("=", 1)
        key = key.strip()
        if key not in REQUIRED_KEYS + OPTIONAL_KEYS:
            raise ValueError(f"{name}: line {lineno}: unknown key {key!r}")
        if key in sources:
            raise ValueError(f"{name}: line {lineno}: duplicate key {key!r}")
        expr = rhs.strip()
        if not expr:
            raise ValueError(f"{name}: line {lineno}: empty value for {key!r}")
        sources[key] = expr
        lines[key] = (lineno, 1 + len(raw) - len(raw.split("=", 1)[1].lstrip()))
    label = sources.pop("label", "problem")
    if "label" in lines:
        del lines["label"]
    try:
        return problem_from_sources(sources, label=label)
    except ExpressionError as exc:
        lineno, col0 = lines[exc.key]
        raise ExpressionError(exc.bare_message, lineno, col0 + exc.col - 1) from None
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def parse_problem_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_text(fh.read(), name=str(path))

