"""Benchmark of the walshvie command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/walshvie``; without
one it exits with status 2 and prints no result.  Every invocation of
the program is ``walshvie.cli.main(argv)`` in a fresh child process
(``bench/child.py``) with BLAS and OpenMP pinned to ``BLAS_THREADS``
threads, so the numbers stay comparable while the package's internal
API changes.  The seed reaches the program only as the CLI's
``--seed``; every input file is generated here.

``--trace 0`` repeats the workload for about ``--seconds`` seconds (at
least ``MIN_INVOCATIONS`` times) and reports medians over the
invocations of ``wall_s`` (time inside ``main``), ``cpu_s`` (user + sys
of that child) and ``peak_rss_mb`` (that child's own peak, from
``os.wait4``), and ``setup_s``, the time from spawn to ``walshvie.cli``
imported, over those children and the ``SETUP_PER_INVOCATION``
import-only children started before each, which spreads the set-up
samples over the run.  ``--trace 1`` runs the workload once untraced, once
with every package function wrapped in a span (``bench/spans.py``) and,
when the command solves anything, once more with tracemalloc inside
``solve``, and reports the per-layer metrics.

Outputs are checked after each child has exited, outside the timed
region: exit status, the set of files written, finite values, accuracy
tolerances, the matrix identities of ``matrices``, and identical
per-file digests across the invocations of one run.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (trials) and ``metrics``, which holds exactly the metrics
BENCHMARK.json lists for the mode.  Lines before it give the
environment, each workload's reason, and the figures that are not
gated there (failed share, accuracy, the wall-time percentile).
"""

import argparse
import dataclasses
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

import numpy as np

import checks

ROOT = os.getcwd()
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
WORK = os.path.join(ROOT, ".bench_work")
BLAS_THREADS = 1  # on 2 cores, 2 threads cost mc-large-m ~40% more CPU for <=10% less wall time
SETUP_PER_INVOCATION = 3
MIN_INVOCATIONS = 3
RUN_LIMIT_S = 165  # a run must end within 180 s

KERNEL_PROBLEM = """\
# Time-dependent kernels: every kernel is projected by quadrature.
label = kernel-file
x0    = 1/10
k1    = -(1/30)^2*exp(-(t-s))
k2    = (1/30)*exp(-(t-s)/2)
beta  = x*(1-x^2)
sigma = 1-x^2
"""


@dataclasses.dataclass(frozen=True)
class Workload:
    why: str
    argv: Callable  # (seed, input directory) -> CLI arguments without --out
    check: Callable  # output directory -> checks.* findings
    figures: dict  # printed, ungated figure -> what it means on this workload
    inputs: dict = dataclasses.field(default_factory=dict)  # file name -> text


WORKLOADS = {
    "mc-large-m": Workload(
        why="large-m Monte Carlo run for accuracy: dense per-path operator build and "
        "sweeps dominate time and decide peak memory",
        argv=lambda seed, _: ["run", "--example", "2", "--m", "4096", "--trials", "16",
                              "--oracle", "--seed", str(seed)],
        check=lambda out: checks.check_run(out, 4096, 16, "example-2", exact=True, oracle=True,
                                           tolerances={"abs_error": 3e-4, "em_gap": 5e-3}),
        figures={"abs_error": "stats mean |exact - x_m| at t = 0.9",
                 "em_gap": "max |x_m - em_oracle| over the trial-1 solution table"},
    ),
    "converge-small-m": Workload(
        why="6000 small solves: per-trial Python overhead dominates and dense operators "
        "almost vanish; the only workload with example 1's nonlinearity",
        argv=lambda seed, _: ["converge", "--example", "1", "--resolutions",
                              "8,16,32,64,128,256", "--trials", "1000", "--seed", str(seed)],
        check=lambda out: checks.check_converge(out, "example-1", (8, 16, 32, 64, 128, 256), 1000,
                                                tolerances={"abs_error": 2e-5}),
        figures={"abs_error": "rms_error at m = 256",
                 "failed_share": "from the exit status only: converge does not report failed "
                                 "trials; the traced run counts them as solver.solve.failures.*"},
    ),
    "kernel-file": Workload(
        why="problem file with time-dependent kernels: quadrature projection of compiled "
        "expressions dominates and every constant-kernel shortcut is bypassed",
        argv=lambda seed, inputs: ["run", "--problem", os.path.join(inputs, "kernel.txt"),
                                   "--m", "2048", "--oracle", "--seed", str(seed)],
        check=lambda out: checks.check_run(out, 2048, 1, "kernel-file", exact=False, oracle=True,
                                           tolerances={"em_gap": 0.1}),
        figures={"em_gap": "max |x_m - em_oracle| over the solution table "
                           "(the oracle freezes t in the kernels, so this is mostly its own error)"},
        inputs={"kernel.txt": KERNEL_PROBLEM},
    ),
    "matrices-dump": Workload(
        why="write-heavy CLI use: CSV formatting of 5.2 M values, and the only caller of "
        "operational.walsh_domain",
        argv=lambda seed, _: ["matrices", "--m", "1024", "--seed", str(seed)],
        check=lambda out: checks.check_matrices(out, 1024),
        figures={},
    ),
}


def child_env():
    env = dict(os.environ)
    env.pop("WALSHVIE_SEED", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def invoke(mode, argv, rundir, deadline, runs):
    """Start one child, wait for it and append its record to ``runs``.

    CPU time and peak RSS come from os.wait4, so they are that child's
    alone.  Outputs of a workload invocation are digested; only the first
    set is kept, for the content checks, and every later set must match
    it byte for byte.
    """
    tag = f"{mode}{sum(r['mode'] == mode for r in runs)}"
    out = os.path.join(rundir, tag)
    result_path = out + ".json"
    cli_argv = argv + ["--out", out] if mode != "setup" else []
    started = _monotonic()
    with open(out + ".err", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, CHILD, repr(started), result_path, mode, *cli_argv],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(max(0.0, deadline - started), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {}
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            record = json.load(fh)
    record.update(
        mode=mode,
        tag=tag,
        out=out,
        elapsed_s=_monotonic() - started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        ok=proc.returncode == 0 and record.get("status", 0) == 0 and "setup_s" in record,
        problems=[],
    )
    if not record["ok"]:
        with open(out + ".err", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-800:].strip()
        record["problems"].append(f"{tag}: exit {proc.returncode}, CLI status {record.get('status')}: {tail}")
    elif not record["cli_file"].startswith(os.path.join(ROOT, "src") + os.sep):
        record["problems"].append(f"{tag}: imported {record['cli_file']}, not this checkout's src/")
    if mode != "setup":
        record["digests"] = digests(out)
        first = next(r for r in runs + [record] if r["mode"] != "setup")
        if first is not record:
            if record["digests"] != first["digests"]:
                record["problems"].append(f"{tag}: outputs differ from {first['tag']} of the same command")
            shutil.rmtree(out, ignore_errors=True)
    runs.append(record)
    return record


def digests(outdir):
    found = {}
    for name in sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []:
        with open(os.path.join(outdir, name), "rb") as fh:
            found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def percentile_note(samples):
    """The highest of p90/p95/p99/p99.9 with >= 10 samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g} = {q:.6g} s of n = {n}"
    return f"n = {n}; no percentile above the median has 10 samples beyond it"


def layer_metrics(traced, plain, alloc, outdir):
    """Per-layer metrics from the traced child's spans; ``outdir`` holds
    the files the command wrote."""
    spans = traced["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    metrics = {}
    for name in traced["hooked"]:
        metrics.update({f"{name}.calls": 0, f"{name}.self_s": 0.0, f"{name}.total_s": 0.0})
    points = 0
    sweeps = []
    failures = defaultdict(int)
    solve_times = []
    for i, (name, start, end, _, extra) in enumerate(spans):
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.total_s"] += end - start
        metrics[f"{name}.self_s"] += end - start - covered[i]
        if name == "expressions.eval":
            points += extra["points"]
        elif name == "solver.solve":
            solve_times.append(end - start)
            if "sweeps" in extra:
                sweeps.append(extra["sweeps"])
            else:
                failures[extra["error"]] += 1
    metrics["expressions.eval.points"] = points
    metrics["expressions.eval.scalar_calls_in_solve"] = traced["scalar_calls_in_solve"]
    if "solver.solve" in traced["hooked"]:
        metrics["solver.solve.sweeps_sum"] = sum(sweeps)
        metrics["solver.solve.sweeps_max"] = max(sweeps, default=0)
        for kind in ("NonConvergenceError", "NonFiniteIterateError", *failures):
            metrics[f"solver.solve.failures.{kind}"] = failures[kind]
        if alloc is not None:
            metrics["solver.solve.peak_alloc_mb"] = max(alloc["solve_peaks"], default=0) / 2**20
        elif not solve_times:
            metrics["solver.solve.peak_alloc_mb"] = 0.0
    sizes = [os.path.getsize(os.path.join(outdir, n)) for n in os.listdir(outdir)]
    metrics["cli.bytes_written"] = sum(sizes)
    metrics["cli.files_written"] = len(sizes)
    self_total = sum(metrics[f"{n}.self_s"] for n in traced["hooked"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["trace.coverage_gap_s"] = traced["wall_s"] - self_total
    metrics["trace.spans"] = len(spans)
    notes = [f"solver.solve duration: median {statistics.median(solve_times):.6g} s, "
             + percentile_note(solve_times)] if solve_times else []
    return metrics, notes


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def environment():
    """Interpreter, library and machine facts printed with every result."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "caches": {},
    }
    try:
        models = [line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")]
        env["cpu"] = models[0] if models else env["cpu"]
        for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
            level, kind, size = (_read(os.path.join(index, f)).strip() for f in ("level", "type", "size"))
            env["caches"][f"L{level} {kind}"] = size
    except OSError:
        pass
    return env


def measure_e2e(argv, rundir, seconds, deadline, runs):
    invoke("setup", argv, rundir, deadline, [])  # warms the bytecode and file caches
    begin = _monotonic()
    rounds = []
    while True:
        started = _monotonic()
        for _ in range(SETUP_PER_INVOCATION):
            invoke("setup", argv, rundir, deadline, runs)
        rec = invoke("plain", argv, rundir, deadline, runs)
        rounds.append(_monotonic() - started)
        if rec["problems"]:
            break
        typical = statistics.median(rounds)
        now = _monotonic()
        if now + typical > deadline or (len(rounds) >= MIN_INVOCATIONS and now - begin + typical > seconds):
            break
    ok = [r for r in runs if r["ok"]]
    metrics = {"setup_s": statistics.median(r["setup_s"] for r in ok)} if ok else {}
    ok = [r for r in ok if r["mode"] == "plain"]
    if ok:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = statistics.median(r[key] for r in ok)
    notes = [f"wall_s: median of {len(ok)} invocations; " + percentile_note([r["wall_s"] for r in ok]),
             "wall_s samples: " + " ".join(f"{r['wall_s']:.4g}" for r in ok),
             f"setup_s: median over the invocations and {SETUP_PER_INVOCATION} import-only children before each"]
    return metrics, notes


def measure_traced(argv, rundir, deadline, runs):
    plain = invoke("plain", argv, rundir, deadline, runs)
    traced = invoke("trace", argv, rundir, deadline, runs)
    if plain["problems"] or traced["problems"]:
        return {}, []
    alloc = None
    if any(span[0] == "solver.solve" for span in traced["spans"]):
        alloc = invoke("alloc", argv, rundir, deadline, runs)
        if alloc["problems"]:
            return {}, []
    metrics, notes = layer_metrics(traced, plain, alloc, plain["out"])
    notes.append(f"tracing overhead {metrics['trace.overhead_s']:.4g} s on an untraced wall of "
                 f"{plain['wall_s']:.4g} s; self times cover the traced wall up to "
                 f"{metrics['trace.coverage_gap_s']:.3g} s")
    return metrics, notes


def main():
    parser = argparse.ArgumentParser(description="walshvie CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so that cleanup runs
    if not os.path.isfile(os.path.join(ROOT, "src", "walshvie", "cli.py")):
        sys.exit("error: run from the root of a walshvie checkout (src/walshvie/cli.py not found)")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    deadline = _monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    rundir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    inputs = os.path.join(rundir, "inputs")
    os.makedirs(inputs)
    try:
        for name, text in workload.inputs.items():
            with open(os.path.join(inputs, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = workload.argv(args.seed, os.path.relpath(inputs, ROOT))
        runs = []
        if args.trace:
            metrics, notes = measure_traced(argv, rundir, deadline, runs)
        else:
            metrics, notes = measure_e2e(argv, rundir, args.seconds, deadline, runs)
        invocations = [r for r in runs if r["mode"] != "setup"]
        found = workload.check(invocations[0]["out"]) if invocations[0]["ok"] else None
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    problems = [p for rec in runs for p in rec["problems"]]
    if found is None:
        attempted = failed = len(invocations)
    else:
        problems += found["problems"]
        attempted = found["attempted"] * len(invocations)
        failed = sum(found["failed"] if r["ok"] else found["attempted"] for r in invocations)

    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {args.workload}: {workload.why}")
    print(f"argv: {' '.join(argv)} --out DIR")
    print(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted} trials"
          + (f"; {workload.figures['failed_share']})" if "failed_share" in workload.figures else ")"))
    for figure in ("abs_error", "em_gap"):
        value = found.get(figure) if found else None
        what = workload.figures.get(figure, "not produced by this workload")
        print(f"{figure} = {'n/a' if value is None else f'{value:.6g}'} ({what})")
    for note in notes:
        print(note)
    units = {m["name"]: m["unit"] for m in wanted}
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {unit}")
    other = sorted(n[: -len(".calls")] for n in metrics if n.endswith(".calls") and n not in units and metrics[n])
    if other:
        print("other spans: " + "; ".join(
            f"{n} {metrics[n + '.calls']} calls {metrics[n + '.self_s']:.3g} s self" for n in other))
    if not problems:
        for name in units:
            if name not in metrics:
                print(f"absent: {name} (no such span or measurement in this run)")
    for problem in problems:
        print(f"problem: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
