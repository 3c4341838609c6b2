"""Documented usage runs: README python blocks and the package quick start."""

import re
import textwrap
from pathlib import Path

import pytest

import walshvie

README = Path(__file__).resolve().parents[1] / "README.md"
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
