"""Paired benchmark runs of two revisions, summarised per workload and metric.

    python tools/bench_pairs.py PARENT CHANGE [--seeds FIRST-LAST] [--out BENCH_n.json]

PARENT and CHANGE are git tree-ishes of the repository in the current
directory: a commit, or the tree that ``git write-tree`` makes of the
staged files.  Each is exported with ``git archive`` into its own
directory, ``parent`` or ``change`` (names of equal length), of a new
temporary directory, and both take PARENT's ``bench/`` and
``BENCHMARK.json``, so the two sides differ in the program alone.  For
every workload of PARENT's BENCHMARK.json and each seed of the range
(default 1-10), both sides run

    python3 bench/run.py --workload W --seed N --seconds S --trace 0

from their directory, S being PARENT's ``run_seconds``: PARENT first on
odd seeds and CHANGE first on even ones.  The last line a run prints is
its JSON result.

It prints, per workload and end-to-end metric, each side's median and
quartiles, the pairs that CHANGE won, the ratio of the medians, the
parent's interquartile range, the bound and a verdict (``compare``,
which ``summarise`` voids for a gain that fails more operations).
With --out it writes that summary and every run as one JSON file, in
the shape of the committed BENCH_<n>.json files.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def _seed_range(text):
    first, sep, last = text.partition("-")
    try:
        seeds = range(int(first), int(last) + 1) if sep else None
    except ValueError:
        seeds = None
    if not seeds:
        raise argparse.ArgumentTypeError(f"seeds must be FIRST-LAST with 0 <= FIRST <= LAST, got {text!r}")
    return seeds


def build_parser():
    parser = argparse.ArgumentParser(description="paired bench/run.py runs of two revisions")
    parser.add_argument("parent", metavar="PARENT", help="git tree-ish of the parent")
    parser.add_argument("change", metavar="CHANGE", help="git tree-ish of the change")
    parser.add_argument("--seeds", type=_seed_range, default=range(1, 11), help="seed range FIRST-LAST (default 1-10)")
    parser.add_argument("--out", default=None, help="write the summary and every run to this JSON file")
    return parser


def quartiles(values):
    """n, q1, median and q3 of values, interpolated linearly between order statistics."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def compare(parent, change, better, bound):
    """The summary of one metric of one workload from its values in the
    paired runs, ``parent[i]`` and ``change[i]`` on one seed, the
    direction that is ``better`` ("lower" or "higher") and the relative
    ``bound``: each side's quartiles, the pairs the change won (ties count
    for neither), the ratio of the medians, the parent's interquartile
    range (IQR), the bound and the verdict, which is

    - "worse" when the change's median is worse than the parent's by more
      than the bound times the parent's median;
    - "gain" when the change won at least nine tenths of the pairs and
      its median is better by more than the parent's IQR;
    - "unresolved" when either side's IQR is wider than the bound times
      the parent's median and not every run of the change is better than
      every run of the parent;
    - "within bound" otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * b < sign * a for a, b in zip(parent, change))
    limit, parent_iqr = bound * abs(p["median"]), p["q3"] - p["q1"]
    if sign * (c["median"] - p["median"]) > limit:
        verdict = "worse"
    elif 10 * wins >= 9 * len(parent) and sign * (p["median"] - c["median"]) > parent_iqr:
        verdict = "gain"
    elif max(parent_iqr, c["q3"] - c["q1"]) > limit and max(sign * v for v in change) >= min(sign * v for v in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": p,
        "change": c,
        "change_better_pairs": f"{wins}/{len(parent)}",
        "median_ratio_change_over_parent": c["median"] / p["median"],
        "bound": bound,
        "parent_iqr": parent_iqr,
        "verdict": verdict,
    }


def summarise(runs, end_to_end):
    """The summary of ``runs`` (records with "side", "workload", "seed"
    and "result", the JSON result of bench/run.py) per workload, over the
    seeds both sides ran: ``compare`` of each metric of ``end_to_end``
    (BENCHMARK.json's), the largest failed share of each side and whether
    every run was correct.  A gain does not count when the change fails
    a larger share of operations than the parent or a run is not
    correct: its verdict becomes "void"."""
    results = {(r["workload"], r["seed"], r["side"]): r["result"] for r in runs}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        seeds = sorted({s for w, s, _ in results if w == workload and all((w, s, side) in results for side in SIDES)})
        sides = [[results[workload, seed, side] for seed in seeds] for side in SIDES]
        failed = [max(r["failed"] / r["attempted"] for r in side) for side in sides]
        correct = all(r["correct"] for side in sides for r in side)
        entry = summary[workload] = {}
        for metric in end_to_end:
            s = compare(*([r["metrics"][metric["name"]]["value"] for r in side] for side in sides),
                        metric["better"], metric["bound"])
            if s["verdict"] == "gain" and (failed[1] > failed[0] or not correct):
                s["verdict"] = "void"
            entry[metric["name"]] = s
        entry["failed_share"] = {f"{name}_max": share for name, share in zip(SIDES, failed)}
        entry["correct"] = correct
    return summary


def _export(revision, dest):
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", revision], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def _run(root, benchmark, workload, seed):
    """The run record of the ``benchmark`` command in ``root`` on one workload and seed."""
    argv = [*benchmark["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {done.returncode}: {done.stderr.strip()}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return {"side": os.path.basename(root), "workload": workload, "seed": seed, "trace": 0,
            "absent_lines": sum(line.startswith("absent:") for line in lines), "env": env,
            "result": json.loads(lines[-1])}


def _print_summary(summary):
    for workload, entry in summary.items():
        print(f"{workload}: failed share {entry['failed_share']}, correct {entry['correct']}")
        for name, s in entry.items():
            if name in ("failed_share", "correct"):
                continue
            p, c = s["parent"], s["change"]
            print(f"  {name}: parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                  f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                  f"  better {s['change_better_pairs']}  ratio {s['median_ratio_change_over_parent']:.4f}"
                  f"  parent IQR {s['parent_iqr']:.3g}  bound {s['bound']}  {s['verdict']}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        roots = {side: os.path.join(work, side) for side in SIDES}
        _export(args.parent, roots["parent"])
        _export(args.change, roots["change"])
        for name in ("bench", "BENCHMARK.json"):
            target = os.path.join(roots["change"], name)
            shutil.rmtree(target) if os.path.isdir(target) else os.remove(target)
            copy = shutil.copytree if name == "bench" else shutil.copy
            copy(os.path.join(roots["parent"], name), target)
        with open(os.path.join(roots["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
            benchmark = json.load(fh)
        runs = []
        for workload in (w["name"] for w in benchmark["workloads"]):
            for seed in args.seeds:
                for side in SIDES if seed % 2 else SIDES[::-1]:
                    runs.append(_run(roots[side], benchmark, workload, seed))
                    print(f"{workload} seed {seed} {side}: {json.dumps(runs[-1]['result']['metrics'])}", flush=True)
    summary = summarise(runs, benchmark["end_to_end"])
    _print_summary(summary)
    if args.out:
        record = {
            "description": "bench/run.py results for the parent and the change, run alternately on the same "
                           "machine by tools/bench_pairs.py; 'env' and 'result' are the lines bench/run.py prints, "
                           "'absent_lines' counts its 'absent:' lines",
            "command": f"{' '.join(benchmark['command'])} --workload W --seed N --seconds {benchmark['run_seconds']}"
                       " --trace 0",
            "parent": args.parent,
            "change": args.change,
            "order": f"runs are listed in the order they were made; for each workload and seed the parent ran "
                     f"first on odd seeds and the change first on even seeds, seeds {args.seeds.start}-"
                     f"{args.seeds.stop - 1}; both sides ran the parent's bench/ and BENCHMARK.json",
            "summary": summary,
            "runs": runs,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
