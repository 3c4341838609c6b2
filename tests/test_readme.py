"""Documented usage runs: README python blocks and the package quick start,
and the public names stay the ones listed here and in the benchmark."""

import importlib
import json
import re
import textwrap
import types
from pathlib import Path

import pytest

import walshvie

README = Path(__file__).resolve().parents[1] / "README.md"
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_has_python_blocks():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=lambda b: b.splitlines()[0][:40])
def test_readme_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_package_quick_start_runs():
    # the indented block after "Quick start::" in the package docstring
    _, _, rest = walshvie.__doc__.partition("Quick start::\n")
    lines = []
    for line in rest.splitlines()[1:]:
        if line and not line.startswith(" "):
            break
        lines.append(line)
    code = textwrap.dedent("\n".join(lines))
    assert "solve(" in code
    exec(compile(code, "walshvie.__doc__", "exec"), {})


PUBLIC_NAMES = {
    "BasisConfig", "ConvergenceReport", "ErrorStats", "ExpressionError",
    "NonConvergenceError", "NonFiniteIterateError", "OracleResult", "ProblemSpec",
    "REPORT_TIMES", "SolveResult", "build_walsh_matrix",
    "builtin_example", "coefficient_error_norm", "compile_expression",
    "convergence_study", "error_at", "euler_maruyama", "fast_walsh_transform",
    "integration_matrix", "monte_carlo", "parse_problem_file", "problem_from_sources",
    "problem_from_text", "project_kernel", "sample_path", "solve", "stochastic_matrix",
    "walsh_domain",
}


def test_public_names_are_pinned():
    # a name added to or dropped from __all__ has to be added or dropped
    # here as well
    assert len(walshvie.__all__) == len(PUBLIC_NAMES) == 28
    assert set(walshvie.__all__) == PUBLIC_NAMES
    for name in walshvie.__all__:
        assert getattr(walshvie, name) is not None


# The benchmark's per-layer metrics X.Y.* time the public function Y of
# walshvie.X; expressions.eval is the tracer's own span.
TRACED_LAYERS = sorted(
    metric["name"].removesuffix(".calls")
    for metric in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    if metric["name"].endswith(".calls") and metric["name"] != "expressions.eval.calls"
)


@pytest.mark.parametrize("layer", TRACED_LAYERS)
def test_traced_layers_are_public_functions(layer):
    module, name = layer.split(".")
    fn = getattr(importlib.import_module(f"walshvie.{module}"), name, None)
    assert not name.startswith("_")
    assert isinstance(fn, types.FunctionType) and fn.__module__ == f"walshvie.{module}"
