"""Correctness checks on the files one CLI invocation wrote.

Each check reads an output directory and returns a dict with
``problems`` (a list of messages; empty means the output is correct),
``attempted`` and ``failed`` trial counts, and the accuracy figures
``abs_error`` and ``em_gap`` where the command produces them.  The
tolerances are upper bounds that the current scheme meets with margin
and that a more accurate scheme meets too.
"""

import math
import os

import numpy as np

REPORT_TIMES = (0.1, 0.3, 0.5, 0.7, 0.9)


def _read_csv(path):
    """Header, float rows and ``# key = value`` footer of one CLI table."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    footer = {}
    rows = []
    for line in lines[1:]:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            footer[key.strip()] = float(value)
        else:
            rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header)), footer


def _expect_files(outdir, names, problems):
    found = sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []
    if found != sorted(names):
        problems.append(f"expected files {sorted(names)}, found {found}")
        return False
    return True


def _close(a, b, rel=1e-7, atol=0.0):
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= rel * np.abs(b) + atol))


def check_run(outdir, m, trials, label, exact, oracle, tolerances):
    """``walshvie run``: stats table (when the problem has an exact
    solution) and the trial-1 solution table."""
    problems = []
    tag = f"{label}_m{m}"
    names = [f"solution_{tag}.csv"] + ([f"stats_{tag}.csv"] if exact else [])
    found = {"problems": problems, "attempted": trials if exact else 1, "failed": 0}
    if not _expect_files(outdir, names, problems):
        return found

    header, sol, footer = _read_csv(os.path.join(outdir, names[0]))
    want = ["t", "x_m"] + (["exact"] if exact else []) + (["em_oracle"] if oracle else [])
    midpoints = (2 * np.arange(m) + 1) / (2 * m)
    if header != want or sol.shape[0] != m:
        problems.append(f"solution table has columns {header} and {sol.shape[0]} rows")
        return found
    if not np.all(np.isfinite(sol)):
        problems.append("solution table holds a non-finite value")
    if not _close(sol[:, 0], midpoints, rel=1e-8):
        problems.append("solution table times are not the collocation midpoints")
    if exact and not math.isfinite(footer.get("coefficient_error_inf", math.nan)):
        problems.append("solution footer coefficient_error_inf missing or not finite")
    if oracle:
        found["em_gap"] = float(np.max(np.abs(sol[:, 1] - sol[:, -1])))

    if exact:
        header, stats, _ = _read_csv(os.path.join(outdir, names[1]))
        want = ["t", "mean", "sd", "ci_lower", "ci_upper", "n_effective", "failures"]
        if header != want or stats.shape[0] != len(REPORT_TIMES):
            problems.append(f"stats table has columns {header} and {stats.shape[0]} rows")
            return found
        if not np.all(np.isfinite(stats)):
            problems.append("stats table holds a non-finite value")
        if not _close(stats[:, 0], REPORT_TIMES):
            problems.append("stats table times are not the report times")
        if not np.all((stats[:, 3] <= stats[:, 1]) & (stats[:, 1] <= stats[:, 4])):
            problems.append("a stats mean lies outside its confidence interval")
        if np.any(stats[:, 5] + stats[:, 6] != trials):
            problems.append("n_effective + failures does not account for every trial")
        found["failed"] = int(stats[0, 6])
        found["abs_error"] = float(stats[-1, 1])
    _within(found, tolerances)
    return found


def check_converge(outdir, label, resolutions, trials, tolerances):
    """``walshvie converge``: one RMS error per resolution and the order."""
    problems = []
    found = {"problems": problems, "attempted": trials * len(resolutions), "failed": 0}
    name = f"converge_{label}.csv"
    if not _expect_files(outdir, [name], problems):
        return found
    header, table, footer = _read_csv(os.path.join(outdir, name))
    if header != ["m", "h", "rms_error"] or table.shape[0] != len(resolutions):
        problems.append(f"converge table has columns {header} and {table.shape[0]} rows")
        return found
    if not np.all(np.isfinite(table)) or np.any(table[:, 2] <= 0):
        problems.append("converge table holds a non-finite or non-positive value")
    if list(table[:, 0]) != list(resolutions) or not _close(table[:, 1], 1.0 / table[:, 0]):
        problems.append("converge table resolutions or step sizes are wrong")
    if not math.isfinite(footer.get("estimated_order", math.nan)):
        problems.append("converge footer estimated_order missing or not finite")
    found["abs_error"] = float(table[-1, 2])
    _within(found, tolerances)
    return found


def check_matrices(outdir, m):
    """``walshvie matrices``: the identities the dumped operators satisfy.

    T is symmetric with T @ T = m I; the columns of P sum to the
    midpoints; P_S is upper triangular with rows constant right of the
    diagonal (the full-block increments), its diagonal holds the
    half-block increments, its columns telescope to B(t_j), and the
    increments have the Brownian variances h and h/2; lambda and
    lambda_s are T P T / m and T P_S T / m.
    """
    problems = []
    found = {"problems": problems, "attempted": 1, "failed": 0}
    names = ["lambda.csv", "lambda_s.csv", "p.csv", "ps.csv", "tw.csv"]
    if not _expect_files(outdir, names, problems):
        return found
    mats = {n: np.loadtxt(os.path.join(outdir, n), delimiter=",", ndmin=2) for n in names}
    if any(a.shape != (m, m) for a in mats.values()):
        problems.append("a matrix does not have shape (m, m)")
        return found
    T, P, PS = mats["tw.csv"], mats["p.csv"], mats["ps.csv"]
    h = 1.0 / m
    if not np.all(np.abs(T) == 1) or not np.array_equal(T, T.T):
        problems.append("T_W is not a symmetric +-1 matrix")
    if not np.array_equal(T @ T, m * np.eye(m)):
        problems.append("T_W @ T_W != m I")
    if not _close(P.sum(axis=0), (2 * np.arange(m) + 1) / (2 * m), rel=1e-7):
        problems.append("columns of P do not sum to the midpoints")
    full, half = PS[:-1, -1], np.diag(PS)
    if np.any(np.tril(PS, -1)) or not np.array_equal(np.triu(PS, 1), np.triu(np.repeat(PS[:, -1:], m, axis=1), 1)):
        problems.append("P_S is not upper triangular with constant rows right of the diagonal")
    path_at_midpoints = np.concatenate([[0.0], np.cumsum(full)]) + half
    if not _close(PS.sum(axis=0), path_at_midpoints, rel=1e-6, atol=1e-9):
        problems.append("columns of P_S do not telescope to B(t_j)")
    # Sample variances of m Gaussian increments: relative error ~ sqrt(2/m).
    for what, incs, var in (("full", full, h), ("half", half, h / 2)):
        if abs(np.mean(incs**2) / var - 1) > 8 * math.sqrt(2 / len(incs)):
            problems.append(f"{what}-block increments of P_S do not have variance {var:.3g}")
    for name, op in (("lambda.csv", P), ("lambda_s.csv", PS)):
        ref = T @ op @ T / m
        if not _close(mats[name], ref, rel=0, atol=1e-7 * np.max(np.abs(ref))):
            problems.append(f"{name} differs from T M T / m")
    return found


def _within(found, tolerances):
    for key, limit in tolerances.items():
        value = found.get(key)
        if value is None or not value <= limit:
            found["problems"].append(f"{key} = {value} exceeds its tolerance {limit}")
