"""The benchmark child runs the CLI in its traced and allocation modes.

``bench/child.py`` wraps every public package function and reads the
sweep count of each ``solve`` from ``SolveResult.iterations``, so a
change to what the package returns can break the benchmark without
breaking the CLI.  Each case runs the child as the benchmark does, from
the root of the checkout, on a small command.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = {
    "run": ["run", "--example", "2", "--m", "16", "--trials", "4", "--oracle"],
    "converge": ["converge", "--example", "1", "--resolutions", "8,16,32", "--trials", "4"],
}


@pytest.mark.parametrize("mode", ["trace", "alloc"])
@pytest.mark.parametrize("command", COMMANDS)
def test_child_runs_the_cli(tmp_path, command, mode):
    result = tmp_path / "result.json"
    # no bytecode is written under bench/
    env = {key: value for key, value in os.environ.items() if key != "WALSHVIE_SEED"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    spawn = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
    argv = [sys.executable, "bench/child.py", spawn, str(result), mode, *COMMANDS[command], "--out", str(tmp_path)]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text(encoding="utf-8"))
    assert record["status"] == 0
    assert Path(record["cli_file"]).resolve() == ROOT / "src" / "walshvie" / "cli.py"
    if mode == "trace":
        solves = [extra for name, _, _, _, extra in record["spans"] if name == "solver.solve"]
        # run solves trial 1 with solve; converge solves every trial in the engine
        assert len(solves) == (command == "run")
        assert all(type(extra["sweeps"]) is int and extra["sweeps"] > 0 for extra in solves)
        assert f"experiment.{'monte_carlo' if command == 'run' else 'convergence_study'}" in record["hooked"]
    else:
        assert record["hooked"] == ["solver.solve"]
        assert len(record["solve_peaks"]) == (command == "run")
