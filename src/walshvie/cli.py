"""Command-line front end.

Subcommands:

    run       solve a problem over sampled paths; write error statistics
              and a representative per-path solution table
    converge  RMS error across a ladder of resolutions
    matrices  dump the operational matrices for one resolution
    paths     dump sampled Brownian paths

All output files are UTF-8 CSV with LF newlines; floats are printed in
scientific notation with 9 significant digits, so repeating a command
reproduces its outputs byte for byte.  The default seed is 42; the
WALSHVIE_SEED environment variable overrides it and --seed overrides
both.
"""

import argparse
import os
import sys

import numpy as np

from .brownian import sample_path
from .expressions import ExpressionError
from .experiment import coefficient_error_norm, convergence_study, monte_carlo
from .operational import integration_matrix, stochastic_matrix, walsh_domain
from .oracle import euler_maruyama
from .problemfile import parse_problem_file
from .solver import NonConvergenceError, NonFiniteIterateError, builtin_example, solve
from .walsh import BasisConfig, build_walsh_matrix

DEFAULT_SEED = 42
MIN_RESOLUTION = 2
MAX_RESOLUTION = 4096


class CLIError(Exception):
    """Runtime failure reported on stderr with exit status 1."""


def _fmt(x):
    return f"{float(x):.8e}"


def _resolution(text):
    try:
        m = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"resolution must be an integer, got {text!r}")
    if m < MIN_RESOLUTION or m > MAX_RESOLUTION or m & (m - 1):
        raise argparse.ArgumentTypeError(
            f"resolution must be a power of two in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], got {m}"
        )
    return m


def _resolution_list(text):
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("empty resolution list")
    return tuple(_resolution(p.strip()) for p in parts)


def _seed_from_env():
    raw = os.environ.get("WALSHVIE_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise CLIError(f"WALSHVIE_SEED must be an integer, got {raw!r}")


def _slug(label):
    cleaned = "".join(c if c.isalnum() or c in "._-" else "-" for c in label)
    return cleaned or "problem"


def _load_problem(args):
    if args.example is not None:
        return builtin_example(args.example)
    try:
        return parse_problem_file(args.problem)
    except OSError as exc:
        raise CLIError(f"cannot read problem file: {exc}")
    except (ExpressionError, ValueError) as exc:
        raise CLIError(str(exc))


def _write_rows(outdir, name, rows, comments=()):
    # Headers are fixed names and every cell is a formatted number, so no
    # field can hold a comma, quote or newline that would need CSV quoting.
    os.makedirs(outdir, exist_ok=True)
    dest = os.path.join(outdir, name)
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        for row in rows:
            fh.write(",".join(row) + "\n")
        for comment in comments:
            fh.write(f"# {comment}\n")
    print(f"wrote {dest}")
    return dest


def _write_matrix(outdir, name, matrix):
    # Each row formats only its distinct values, in one %-operation, and
    # expands them through the inverse index.  The keys are the int64
    # bits, because float keys would merge -0.0 into 0.0.  Nothing is
    # cached across rows, so memory stays O(m).
    fmt = "%d" if matrix.dtype.kind == "i" else "%.8e"

    def rows():
        for row in matrix:
            _, first, inverse = np.unique(row.view(np.int64), return_index=True, return_inverse=True)
            text = ",".join([fmt] * len(first)) % tuple(row[first].tolist())
            yield np.array(text.split(","), dtype=object)[inverse]

    return _write_rows(outdir, name, rows())


def _dump_paths(outdir, cfg, seed, trials):
    grid = [i * cfg.h / 2.0 for i in range(2 * cfg.m + 1)]
    for trial in range(1, trials + 1):
        path = sample_path(cfg, (seed, trial))
        rows = [["t", "B"]] + [[_fmt(t), _fmt(v)] for t, v in zip(grid, path.values)]
        _write_rows(outdir, f"path_{trial:03d}.csv", rows)


def _cmd_run(args, seed):
    problem = _load_problem(args)
    cfg = BasisConfig.from_resolution(args.m)
    tag = f"{_slug(problem.label)}_m{cfg.m}"

    if problem.exact is not None:
        stats = monte_carlo(problem, cfg, args.trials, seed)
        rows = [["t", "mean", "sd", "ci_lower", "ci_upper", "n_effective", "failures"]] + [
            [_fmt(s.t), _fmt(s.mean), _fmt(s.sd), _fmt(s.ci_lower), _fmt(s.ci_upper), str(s.n), str(s.failures)]
            for s in stats
        ]
        _write_rows(args.out, f"stats_{tag}.csv", rows)
    else:
        print("note: problem has no exact solution; skipping error statistics", file=sys.stderr)

    path = sample_path(cfg, (seed, 1))
    try:
        result = solve(problem, path)
    except (NonConvergenceError, NonFiniteIterateError) as exc:
        raise CLIError(f"solve failed on trial 1 (seed {seed}): {exc}")

    header = ["t", "x_m"]
    columns = [cfg.midpoints, result.x_colloc]
    comments = []
    if problem.exact is not None:
        exact_vals = problem.exact(cfg.midpoints, path.values[1::2])
        header.append("exact")
        columns.append(exact_vals)
        gap = coefficient_error_norm(result.x_colloc * cfg.h, exact_vals * cfg.h)
        comments.append(f"coefficient_error_inf = {_fmt(gap)}")
    if args.oracle:
        try:
            em = euler_maruyama(problem, path)
        except NonFiniteIterateError as exc:
            raise CLIError(f"oracle failed on trial 1 (seed {seed}): {exc}")
        header.append("em_oracle")
        columns.append(em.midpoint_values)
    rows = [[_fmt(col[j]) for col in columns] for j in range(cfg.m)]
    _write_rows(args.out, f"solution_{tag}.csv", [header] + rows, comments)

    if args.dump_paths:
        _dump_paths(args.out, cfg, seed, args.trials)
    return 0


def _cmd_converge(args, seed):
    problem = _load_problem(args)
    if problem.exact is None:
        raise CLIError("convergence study requires a problem with an exact solution")
    try:
        report = convergence_study(problem, args.resolutions, args.trials, seed)
    except ValueError as exc:
        raise CLIError(str(exc))
    rows = [["m", "h", "rms_error"]] + [
        [str(m), _fmt(1.0 / m), _fmt(rms)] for m, rms in zip(report.resolutions, report.rms_errors)
    ]
    order = "nan" if report.estimated_order is None else _fmt(report.estimated_order)
    _write_rows(
        args.out,
        f"converge_{_slug(problem.label)}.csv",
        rows,
        comments=[f"estimated_order = {order}", f"failures = {sum(report.failures)}"],
    )
    return 0


def _cmd_matrices(args, seed):
    cfg = BasisConfig.from_resolution(args.m)
    path = sample_path(cfg, seed)
    P = integration_matrix(cfg)
    PS = stochastic_matrix(path)
    _write_matrix(args.out, "tw.csv", build_walsh_matrix(cfg))
    _write_matrix(args.out, "p.csv", P)
    _write_matrix(args.out, "ps.csv", PS)
    _write_matrix(args.out, "lambda.csv", walsh_domain(P))
    _write_matrix(args.out, "lambda_s.csv", walsh_domain(PS))
    return 0


def _cmd_paths(args, seed):
    cfg = BasisConfig.from_resolution(args.m)
    _dump_paths(args.out, cfg, seed, args.trials)
    return 0


def _add_problem_arguments(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", type=int, choices=(1, 2), help="built-in benchmark problem")
    group.add_argument("--problem", metavar="FILE", help="problem definition file")


def _add_common_arguments(parser, with_m=True):
    if with_m:
        parser.add_argument(
            "--m",
            type=_resolution,
            default=16,
            help=f"blocks per unit interval, power of two in [{MIN_RESOLUTION}, {MAX_RESOLUTION}]",
        )
    parser.add_argument("--seed", type=int, default=None, help="base seed (default 42 or WALSHVIE_SEED)")
    parser.add_argument("--out", default=".", help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="walshvie",
        description="Walsh-basis collocation solver for nonlinear stochastic Volterra integral equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="Monte Carlo error statistics and a sample solution")
    _add_problem_arguments(p_run)
    _add_common_arguments(p_run)
    p_run.add_argument("--trials", type=int, default=50, help="number of sampled paths")
    p_run.add_argument("--oracle", action="store_true", help="add an Euler-Maruyama column to the solution table")
    p_run.add_argument("--dump-paths", action="store_true", help="also write every sampled path as CSV")
    p_run.set_defaults(func=_cmd_run)

    p_conv = sub.add_parser("converge", help="RMS error over a ladder of resolutions")
    _add_problem_arguments(p_conv)
    _add_common_arguments(p_conv, with_m=False)
    p_conv.add_argument(
        "--resolutions",
        type=_resolution_list,
        default=(8, 16, 32, 64, 128),
        help="comma-separated increasing resolutions (default 8,16,32,64,128)",
    )
    p_conv.add_argument("--trials", type=int, default=50, help="paths per resolution")
    p_conv.set_defaults(func=_cmd_converge)

    p_mat = sub.add_parser("matrices", help="dump T_W, P, P_S and their Walsh-domain transforms")
    _add_common_arguments(p_mat)
    p_mat.set_defaults(func=_cmd_matrices)

    p_paths = sub.add_parser("paths", help="dump sampled Brownian paths")
    _add_common_arguments(p_paths)
    p_paths.add_argument("--trials", type=int, default=1, help="number of paths")
    p_paths.set_defaults(func=_cmd_paths)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        seed = args.seed if args.seed is not None else _seed_from_env()
        if getattr(args, "trials", 1) < 1:
            raise CLIError("--trials must be positive")
        return args.func(args, seed)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ExpressionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
