"""Acceptance gate: eight criteria, one printed pass/fail line each.

Criterion 6 encodes a target this scheme does not meet against its
reference; it is asserted as stated and is expected to fail.  The
measured value is printed so the gap is visible.  The Euler-Maruyama
oracle steps on the full grid and reports the average of two endpoint
iterates at each midpoint.  That averaging is off by about a*sqrt(h)/2
per midpoint, far more than the solver's own error, so the maximum
discrepancy shrinks like sqrt(h log m) and the doubling ratio sits near
sqrt(2) sqrt(log m / log 2m) ~ 1.3, below the stated window.  Even an
oracle stepping on the half grid would cap the ratio near sqrt(2),
since Euler-Maruyama has strong order 1/2.

Criterion 7 passes: the solver adds the Ito-Taylor correction to the
paper's midpoint pairing of increments and integrand, which on its own
converges to the Stratonovich solution and stalls the convergence
order near zero on both built-in examples.
"""

import time

import numpy as np

from walshvie.brownian import sample_path, zero_path
from walshvie.cli import main as cli_main
from walshvie.experiment import REPORT_TIMES, convergence_study, error_at, monte_carlo
from walshvie.operational import integration_matrix, stochastic_matrix
from walshvie.oracle import euler_maruyama
from walshvie.solver import ProblemSpec, builtin_example, solve
from walshvie.walsh import BasisConfig, build_walsh_matrix


def record(report, number, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}"
    print(line)
    report.append(line)
    assert passed, line


def rms_error(problem, m, n, base_seed):
    cfg = BasisConfig.from_resolution(m)
    sq = []
    for trial in range(1, n + 1):
        path = sample_path(cfg, (base_seed, trial))
        res = solve(problem, path)
        sq.extend(error_at(res, problem, path, t) ** 2 for t in REPORT_TIMES)
    return float(np.sqrt(np.mean(sq)))


def test_criterion_1_exact_algebraic_identities(acceptance_report):
    start = time.perf_counter()
    ps_gap = 0.0
    for m in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        cfg = BasisConfig.from_resolution(m)
        T = build_walsh_matrix(cfg)
        assert (T == T.T).all(), f"T_W not symmetric at m={m}"
        assert (T @ T == m * np.eye(m, dtype=np.int64)).all(), f"T_W^2 != mI at m={m}"
        # orthonormality (1/m) sum_j w_i w_l = delta_il, exact in ints
        assert (T @ T.T == m * np.eye(m, dtype=np.int64)).all()
        P = integration_matrix(cfg)
        assert (P.sum(axis=0) == cfg.midpoints).all(), f"P column sums off at m={m}"
        for seed in range(100):
            path = sample_path(cfg, seed)
            sums = stochastic_matrix(path).sum(axis=0)
            ps_gap = max(ps_gap, float(np.max(np.abs(sums - path.values[1::2]))))
    elapsed = time.perf_counter() - start
    ok = ps_gap <= 1e-13 and elapsed < 1.0
    record(
        acceptance_report,
        1,
        ok,
        f"T_W identities bit-exact for m in 1..256; P column sums exact; "
        f"P_S column sums within {ps_gap:.2e} (<=1e-13, float telescoping) over 100 paths; "
        f"{elapsed:.2f}s (<1s)",
    )


def test_criterion_2_deterministic_reduction(acceptance_report):
    start = time.perf_counter()
    prob = ProblemSpec(
        x0=1.0,
        k1=1.0,
        k2=0.0,
        beta=lambda x: x,
        sigma=lambda x: 0.0 * x,
        exact=lambda t, B: np.exp(t),
        label="exp",
    )
    cfg = BasisConfig.from_resolution(32)
    res = solve(prob, zero_path(cfg))
    sup = float(np.max(np.abs(res.x_colloc - np.exp(cfg.midpoints))))
    report = convergence_study(prob, (8, 16, 32, 64, 128), 2, base_seed=1)
    order = report.estimated_order
    elapsed = time.perf_counter() - start
    ok = sup <= 0.05 and 0.8 <= order <= 1.2 and elapsed < 5.0
    record(
        acceptance_report,
        2,
        ok,
        f"e^t: sup midpoint error {sup:.2e} at m=32 (<=0.05); "
        f"order {order:.3f} in [0.8, 1.2] over m=8..128; {elapsed:.2f}s (<5s)",
    )


def test_criterion_3_trivial_stochastic_fixed_points(acceptance_report):
    worst = 0.0
    for m in (16, 64):
        cfg = BasisConfig.from_resolution(m)
        p1 = builtin_example(1)
        zp = zero_path(cfg)
        res1 = solve(p1, zp)
        gap1 = max(abs(float(res1.x_colloc[j]) - p1.exact(t, zp.values[2 * j + 1])) for j, t in enumerate(cfg.midpoints))
        p2 = builtin_example(2, a="0")
        path = sample_path(cfg, seed=m)
        res2 = solve(p2, path)
        gap2 = max(abs(float(res2.x_colloc[j]) - p2.exact(t, path.values[2 * j + 1])) for j, t in enumerate(cfg.midpoints))
        worst = max(worst, gap1, gap2)
    ok = worst <= 1e-10
    record(
        acceptance_report,
        3,
        ok,
        f"example 1 on the zero path and example 2 with a=0: "
        f"max |x_m - exact| {worst:.2e} (<=1e-10) at all midpoints, m in (16, 64)",
    )


def test_criterion_4_table_reproduction(acceptance_report):
    cfg = BasisConfig.from_resolution(16)
    t0 = time.perf_counter()
    p1 = builtin_example(1)
    rep_means = []
    worst1 = 0.0
    for rep in range(5):
        stats = monte_carlo(p1, cfg, 50, base_seed=1000 + rep)
        means = [s.mean for s in stats]
        rep_means.append(means)
        worst1 = max(worst1, max(means))
    avg = np.mean(rep_means, axis=0)
    monotone = bool(np.all(np.diff(avg) >= 0.0))
    t1 = time.perf_counter() - t0

    t0 = time.perf_counter()
    p2 = builtin_example(2)
    stats2 = monte_carlo(p2, cfg, 50, base_seed=2000)
    worst2 = max(s.mean for s in stats2)
    t2 = time.perf_counter() - t0

    ok = worst1 <= 1e-5 and monotone and worst2 <= 5e-4 and t1 < 30.0 and t2 < 30.0
    record(
        acceptance_report,
        4,
        ok,
        f"example 1 m=16 n=50 x5 reps: max mean error {worst1:.2e} (<=1e-5), "
        f"monotone in t on average: {monotone}; "
        f"example 2: max mean error {worst2:.2e} (<=5e-4); "
        f"{t1:.1f}s/{t2:.1f}s (<30s each)",
    )


def test_criterion_5_m_doubling_consistency(acceptance_report):
    details = []
    ok = True
    for example_id in (1, 2):
        prob = builtin_example(example_id)
        r16 = np.mean([rms_error(prob, 16, 50, 3000 + 10 * example_id + r) for r in range(5)])
        r32 = np.mean([rms_error(prob, 32, 50, 3000 + 10 * example_id + r) for r in range(5)])
        ratio = r32 / r16
        ok = ok and ratio <= 2.0
        details.append(f"example {example_id}: rms(32)/rms(16) = {ratio:.2f}")
    record(
        acceptance_report,
        5,
        ok,
        "; ".join(details) + " (<=2 averaged over 5 repetitions)",
    )


def test_criterion_6_oracle_equivalence(acceptance_report):
    # stated window [1.5, 3] for the per-doubling discrepancy ratio;
    # measured ~1.3 because the gap is dominated by the oracle's
    # midpoint averaging, about a*sqrt(h)/2 per midpoint, which
    # shrinks only as sqrt(h)
    decreasing = True
    ratios = []
    for example_id in (1, 2):
        prob = builtin_example(example_id)
        mean_disc = {}
        for m in (16, 32, 64):
            cfg = BasisConfig.from_resolution(m)
            gaps = []
            for seed in range(20):
                path = sample_path(cfg, (4000 + example_id, seed))
                res = solve(prob, path)
                em = euler_maruyama(prob, path)
                gaps.append(float(np.max(np.abs(res.x_colloc - em.midpoint_values))))
            mean_disc[m] = float(np.mean(gaps))
        decreasing = decreasing and mean_disc[16] > mean_disc[32] > mean_disc[64]
        ratios.append(mean_disc[16] / mean_disc[32])
        ratios.append(mean_disc[32] / mean_disc[64])
    avg_ratio = float(np.mean(ratios))
    ok = decreasing and 1.5 <= avg_ratio <= 3.0
    record(
        acceptance_report,
        6,
        ok,
        f"Walsh vs EM max discrepancy decreases with m: {decreasing}; "
        f"average doubling ratio {avg_ratio:.2f} (required in [1.5, 3])",
    )


def test_criterion_7_convergence_order_study(acceptance_report):
    # stated window [0.5, 1.5]; with the Ito correction the RMS error
    # falls like h on both examples (without it, a resolution-independent
    # error floor held the measured order near zero)
    start = time.perf_counter()
    orders = {}
    for example_id in (1, 2):
        prob = builtin_example(example_id)
        report = convergence_study(prob, (8, 16, 32, 64, 128), 50, base_seed=5000 + example_id)
        orders[example_id] = report.estimated_order
    elapsed = time.perf_counter() - start
    ok = all(0.5 <= o <= 1.5 for o in orders.values()) and elapsed < 120.0
    record(
        acceptance_report,
        7,
        ok,
        f"RMS order over m=8..128, n=50: example 1 {orders[1]:.3f}, "
        f"example 2 {orders[2]:.3f} (required in [0.5, 1.5]); {elapsed:.0f}s (<120s)",
    )


def test_criterion_8_cli_determinism(acceptance_report, tmp_path):
    commands = [
        ["run", "--example", "1", "--m", "16", "--trials", "10", "--seed", "42", "--oracle", "--dump-paths"],
        ["run", "--example", "2", "--m", "8", "--trials", "5", "--seed", "9"],
        ["converge", "--example", "2", "--resolutions", "8,16,32", "--trials", "5", "--seed", "4"],
        ["matrices", "--m", "4", "--seed", "7"],
        ["paths", "--m", "8", "--trials", "3", "--seed", "1"],
    ]
    identical = True
    checked = 0
    for idx, argv in enumerate(commands):
        a = tmp_path / f"a{idx}"
        b = tmp_path / f"b{idx}"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        identical = identical and names_a == names_b
        for name in names_a:
            checked += 1
            if (a / name).read_bytes() != (b / name).read_bytes():
                identical = False
    record(
        acceptance_report,
        8,
        identical,
        f"5 CLI commands repeated: {checked} output files byte-identical across reruns",
    )
