"""Documented usage runs: README python blocks and the package quick start,
and the public names stay the ones listed here and in the benchmark."""

import dataclasses
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
    "ExpressionError", "NonConvergenceError", "NonFiniteIterateError", "ProblemSpec",
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
    assert len(walshvie.__all__) == len(PUBLIC_NAMES) == 24
    assert set(walshvie.__all__) == PUBLIC_NAMES
    for name in walshvie.__all__:
        assert getattr(walshvie, name) is not None


# the one result record left: the benchmark's tracer reads the sweep
# count of every solve from its ``iterations``
RECORD_FIELDS = {
    "SolveResult": ("x_colloc", "iterations", "residual"),
}


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_result_records_are_read_only_named_tuples(name):
    cls = getattr(walshvie, name)
    assert issubclass(cls, tuple) and cls._fields == RECORD_FIELDS[name]
    record = cls(*range(len(cls._fields)))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], -1)
    assert record._replace(**{cls._fields[0]: -1}) == (-1, *range(1, len(cls._fields)))


def test_problem_spec_stays_a_dataclass():
    # callers vary one of its fields with dataclasses.replace
    prob = walshvie.builtin_example(1)
    assert dataclasses.is_dataclass(prob)
    assert dataclasses.replace(prob, x0=0.5).x0 == 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.x0 = 0.5


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
