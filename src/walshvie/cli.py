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
import functools
import os
import sys

import numpy as np

from .brownian import _increments, _path_values, _trial_draws, sample_path
from .experiment import coefficient_error_norm, convergence_study, monte_carlo
from .operational import _grid_path, _walsh_integration_nonzeros, _walsh_stochastic_rows
from .oracle import euler_maruyama
from .problemfile import parse_problem_file
from .solver import NonConvergenceError, NonFiniteIterateError, builtin_example, solve
from .walsh import _TEMP_ELEMENTS, _bit_reversal

DEFAULT_SEED = 42
MIN_RESOLUTION = 2
MAX_RESOLUTION = 4096


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
        raise ValueError(f"WALSHVIE_SEED must be an integer, got {raw!r}")


def _slug(label):
    cleaned = "".join(c if c.isalnum() or c in "._-" else "-" for c in label)
    return cleaned or "problem"


def _load_problem(args):
    if args.example is not None:
        return builtin_example(args.example)
    try:
        return parse_problem_file(args.problem)
    except OSError as exc:
        raise ValueError(f"cannot read problem file: {exc}")


def _write(outdir, name, chunks):
    # Every output file is written here, from chunks of bytes.
    os.makedirs(outdir, exist_ok=True)
    dest = os.path.join(outdir, name)
    with open(dest, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    print(f"wrote {dest}")
    return dest


def _lines(rows):
    # Headers are fixed names and every cell is a formatted number, so no
    # field can hold a comma, quote or newline that would need CSV quoting.
    return "".join(",".join(row) + "\n" for row in rows).encode("utf-8")


def _scientific(x):
    """The "%.8e" digits of a flat float64 array, where numpy can decide them.

    Returns the nine significant digits as one integer-valued float, the
    decimal exponent and the mask of entries they are right for: zeros
    (digits 0, exponent 0) and finite x whose exponent e lies in
    [-14, 8], so that 10**(8 - e) is exact and y = |x| * 10**(8 - e)
    carries one rounding of at most 6e-8, unless y lies within 1e-6 of a
    half-integer, where that rounding could decide the last digit.  A
    carry of rint(y) to 10**9 moves into the exponent.
    """
    a = np.abs(x)
    pow10 = np.array([float(10**k) for k in range(23)])
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(a))
        e = np.where(np.isfinite(e), e, 0).astype(np.int64)
        y = a * pow10.take(8 - e, mode="clip")
        e += y >= 1e9  # log10 rounds near powers of ten
        e -= y < 1e8
        y = a * pow10.take(8 - e, mode="clip")
        digits = np.rint(y)
        fast = (e >= -14) & (e <= 8) & (y >= 1e8) & (y < 1e9) & (np.abs(y - np.floor(y) - 0.5) > 1e-6)
    carry = digits == 1e9
    digits[carry] = 1e8
    e += carry
    zero = a == 0
    e[zero] = 0
    fast |= zero
    digits[~fast] = 0
    return digits, e, fast


@functools.cache
def _ascii_words():
    """Four-byte ASCII words as uint32, for gathering by index: sign and
    digits 1-2 ("-d.d", index sign * 100 + dd), digits 3-6, digits 7-9
    with 'e', and the exponent ("+dd" and a spare byte, index e + 99).
    Built on first use from the ASCII digits tiled, one byte column at a time.
    """

    def table(*columns):
        words = np.column_stack(np.broadcast_arrays(*columns)).astype(np.uint8).view(np.uint32).ravel()
        words.setflags(write=False)
        return words

    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    d = np.column_stack([np.tile(np.repeat(digits, 10**p), 10 ** (3 - p)) for p in (3, 2, 1, 0)])  # ASCII digits of d
    e = np.arange(-99, 100)
    return (
        table(np.repeat([0, ord("-")], 100), d[:200, 2], ord("."), d[:200, 3]),
        table(*d.T),
        table(*d[:1000, 1:].T, ord("e")),
        table(np.where(e < 0, ord("-"), ord("+")), *d[abs(e), 2:].T, 0),
    )


def _csv_rows(matrix):
    """Yield the rows of a 2-D float array as "%.8e" CSV lines, in bytes,
    one chunk per block of about _TEMP_ELEMENTS values.

    A field takes a 16-byte slot, the four words of _ascii_words; the
    last byte becomes ',' or '\\n', and a positive value leaves its sign
    byte NUL.  Values that _scientific cannot decide are formatted by
    Python and spliced into their slots, widened to 17 bytes if one
    needs 16 characters, so the bytes equal "%.8e" % x for every double.
    The NUL bytes are dropped at the end.
    """
    heads, quads, tails, exps = _ascii_words()
    step = max(1, _TEMP_ELEMENTS // matrix.shape[1])
    for r in range(0, len(matrix), step):
        block = np.asarray(matrix[r : r + step], dtype=np.float64)
        x = block.ravel()
        digits, e, fast = _scientific(x)
        head = np.floor(digits / 1e7)
        body = np.floor(digits / 1e3)
        words = np.empty((x.size, 4), dtype=np.uint32)
        words[:, 0] = heads[head.astype(np.intp) + 100 * np.signbit(x)]
        words[:, 1] = quads[(body - head * 1e4).astype(np.intp)]
        words[:, 2] = tails[(digits - body * 1e3).astype(np.intp)]
        words[:, 3] = exps.take(e + 99, mode="clip")
        buf = words.view(np.uint8)
        slow = np.flatnonzero(~fast)
        if slow.size:
            text = np.array(["%.8e" % v for v in x[slow].tolist()], dtype="S")
            if text.itemsize == 16:
                buf = np.insert(buf, 15, 0, axis=1)
            width = buf.shape[1] - 1
            buf[slow, :width] = text.astype(f"S{width}").view(np.uint8).reshape(-1, width)
        buf[:, -1] = ord(",")
        buf.reshape(block.shape[0], block.shape[1], -1)[:, -1, -1] = ord("\n")
        yield buf.tobytes().replace(b"\0", b"")


# The matrices with closed forms are written from runs: row i of an m x m
# matrix is a list of (count, cell) pairs, a cell being the "%.8e," bytes
# of one value, which the row repeats count times.
_ZERO = b"%.8e," % 0.0


def _cells(values):
    """The cells of a 1-D float array, formatted by _csv_rows."""
    return b"".join(_csv_rows(np.reshape(values, (-1, 1)))).replace(b"\n", b",\n").split(b"\n")[:-1]


def _run_lines(m, runs):
    """Yield the CSV text of the m x m matrix whose row i is runs(i), one
    bytearray per block of about _TEMP_ELEMENTS / 2 cells (0.5 MB of text),
    so that the block being made and the one being written stay under
    2 MB; the last comma of each row becomes its newline."""
    step = max(1, _TEMP_ELEMENTS // (2 * m))
    for start in range(0, m, step):
        block = bytearray()
        for i in range(start, min(start + step, m)):
            for count, cell in runs(i):
                block += cell * count
            block[-1] = ord("\n")
        yield block


def _walsh_runs(m):
    """The runs of T_W: row n is row rev(n) of Sylvester's Hadamard
    matrix H, since popcount(n & rev(j)) = popcount(rev(n) & j).  The
    texts of the rows of H_W, W = min(m, 64), and of their negations are
    built by doubling, H_2w = [[H_w, H_w], [H_w, -H_w]]; column group g
    of row r of H is the text of row r % W, negated when
    popcount(r // W & g) is odd."""
    width = min(m, 64)
    texts = [(b"1,", b"-1,")]
    while len(texts) < width:
        texts = [(p + p, n + n) for p, n in texts] + [(p + n, n + p) for p, n in texts]
    rev = _bit_reversal(m).tolist()
    groups = range(m // width)

    def runs(n):
        q, u = divmod(rev[n], width)
        return [(1, b"".join([texts[u][(q & g).bit_count() & 1] for g in groups]))]

    return runs


def _triangular_runs(above, diagonal):
    """The runs of the upper triangular matrix with diagonal[i] on the
    diagonal of row i, above[i] right of it and +0.0 left of it."""
    above, diagonal = _cells(above), _cells(diagonal)
    m = len(diagonal)
    return lambda i: ((i, _ZERO), (1, diagonal[i]), (m - 1 - i, above[i]))


def _sparse_runs(m, nonzeros):
    """The runs of the m x m matrix whose row i holds the (column, value)
    pairs nonzeros(i), in column order, and +0.0 elsewhere.  A value is
    formatted when a row first holds it and found again by equality,
    which is exact here: equal nonzero floats have equal bits, and a NaN
    is found only as the object that was formatted."""
    cells = {}

    def runs(i):
        row = nonzeros(i)
        new = [value for _, value in row if value not in cells]
        if new:
            cells.update(zip(new, _cells(new)))
        out, at = [], 0
        for column, value in row:
            out += [(column - at, _ZERO), (1, cells[value])]
            at = column + 1
        out.append((m - at, _ZERO))
        return out

    return runs


def _cmd_run(args, seed):
    problem = _load_problem(args)
    m, h = args.m, 1.0 / args.m
    midpoints = (2 * np.arange(m) + 1) / (2 * m)
    tag = f"{_slug(problem.label)}_m{m}"

    # Trial 1, its oracle and its exact values go first, so that a failure
    # writes no file.
    path = sample_path(m, (seed, 1))
    try:
        result = solve(problem, path)
    except (NonConvergenceError, NonFiniteIterateError) as exc:
        raise ValueError(f"solve failed on trial 1 (seed {seed}): {exc}")
    if args.oracle:
        try:
            _, em_midpoints = euler_maruyama(problem, path)
        except NonFiniteIterateError as exc:
            raise ValueError(f"oracle failed on trial 1 (seed {seed}): {exc}")

    if problem.exact is not None:
        with np.errstate(all="ignore"):
            exact_vals = problem.exact(midpoints, path[1::2])
        if not np.isfinite(exact_vals).all():
            raise ValueError(f"exact solution is not finite on trial 1 (seed {seed})")
        stats = monte_carlo(problem, m, args.trials, seed)
        rows = [["t", "mean", "sd", "ci_lower", "ci_upper", "n_effective", "failures"]] + [
            [*map(_fmt, row[:5]), *map(str, row[5:])] for row in stats.tolist()
        ]
        _write(args.out, f"stats_{tag}.csv", [_lines(rows)])
    else:
        print("note: problem has no exact solution; skipping error statistics", file=sys.stderr)

    header = ["t", "x_m"]
    columns = [midpoints, result.x_colloc]
    comments = []
    if problem.exact is not None:
        header.append("exact")
        columns.append(exact_vals)
        gap = coefficient_error_norm(result.x_colloc * h, exact_vals * h)
        comments.append(f"coefficient_error_inf = {_fmt(gap)}")
    if args.oracle:
        header.append("em_oracle")
        columns.append(em_midpoints)
    table = _csv_rows(np.column_stack(columns))
    _write(args.out, f"solution_{tag}.csv", [_lines([header]), *table, _lines([f"# {c}"] for c in comments)])

    return _cmd_paths(args, seed) if args.dump_paths else 0


def _cmd_converge(args, seed):
    problem = _load_problem(args)
    if problem.exact is None:
        raise ValueError("convergence study requires a problem with an exact solution")
    rms_errors, failures, order = convergence_study(problem, args.resolutions, args.trials, seed)
    rows = [["m", "h", "rms_error"]] + [[str(m), _fmt(1.0 / m), _fmt(e)] for m, e in zip(args.resolutions, rms_errors)]
    rows += [[f"# estimated_order = {_fmt(order)}"], [f"# failures = {failures.sum()}"]]
    _write(args.out, f"converge_{_slug(problem.label)}.csv", [_lines(rows)])
    return 0


def _cmd_matrices(args, seed):
    m = args.m
    path = sample_path(m, seed)
    # T_W, P, P_S and Lambda are written as runs of the cells of their
    # O(m) distinct values; Lambda_S, whose values are all distinct, as
    # dense blocks of rows.  No m x m array is made.
    _write(args.out, "tw.csv", _run_lines(m, _walsh_runs(m)))
    _write(args.out, "p.csv", _run_lines(m, _triangular_runs(*_increments(_grid_path(m))[:2])))
    _write(args.out, "ps.csv", _run_lines(m, _triangular_runs(*_increments(path)[:2])))
    _write(args.out, "lambda.csv", _run_lines(m, _sparse_runs(m, functools.partial(_walsh_integration_nonzeros, m))))
    rows, step = _walsh_stochastic_rows(path), max(1, _TEMP_ELEMENTS // m)
    _write(args.out, "lambda_s.csv", (text for r in range(0, m, step) for text in _csv_rows(rows(r, min(r + step, m)))))
    return 0


def _cmd_paths(args, seed):
    m = args.m
    grid = _grid_path(m)
    for block, normals in _trial_draws(seed, args.trials, 2 * m):
        for trial, path in zip(block, _path_values(normals, 1.0 / m)):
            _write(args.out, f"path_{trial:03d}.csv", [b"t,B\n", *_csv_rows(np.column_stack([grid, path]))])
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
            raise ValueError("--trials must be positive")
        return args.func(args, seed)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
