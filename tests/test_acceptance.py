"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines.
Every tolerance is stated inline. Monte Carlo criteria use fixed seeds, so
a failure is a real failure, not noise.
"""

import math
import time

import numpy as np
import pytest

from kfwer import (
    ExperimentConfig,
    canned_study_configs,
    equicorrelated_normal,
    gen_hochberg_critvals,
    gen_simes_critvals,
    independent,
    run_experiment,
    run_study,
)
from kfwer.verify import (
    suite_dominance,
    suite_exactness,
    suite_lemma21,
    suite_monotonicity,
    suite_table1,
    suite_table2,
)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


def summarize(results):
    failed = [r.name for r in results if not r.passed]
    return len(results) - len(failed), len(results), failed


def test_criterion_01_table1_regression():
    t0 = time.time()
    results = suite_table1()
    elapsed = time.time() - t0
    npass, total, failed = summarize(results)
    ok = npass == total and elapsed < 10.0
    verdict(1, ok, f"table-1 critical values: {npass}/{total} columns within "
                   f"5e-4 of the printed entries in {elapsed:.1f}s")
    assert ok, f"failed columns: {failed}, elapsed {elapsed:.1f}s"


def test_criterion_02_closed_form_cross_check():
    worst = 0.0
    checked = 0
    for n in (5, 10, 20, 100, 1000):
        for k in (1, 2, 3, 5):
            closed_s = gen_simes_critvals(n, k, 0.05, independent())
            # rho = 0 is independence reached through quantile inversion
            inv_s = gen_simes_critvals(n, k, 0.05, equicorrelated_normal(0.0))
            closed_h = gen_hochberg_critvals(n, k, 0.05, independent())
            inv_h = gen_hochberg_critvals(n, k, 0.05, equicorrelated_normal(0.0))
            for a, b in ((closed_s, inv_s), (closed_h, inv_h)):
                diffs = np.abs(np.asarray(a.values) - np.asarray(b.values))
                worst = max(worst, float(diffs.max()))
                checked += diffs.size
    ok = worst < 1e-9
    verdict(2, ok, f"closed forms vs quantile inversion: {checked} constants, "
                   f"worst |diff| {worst:.2e} (tolerance 1e-9)")
    assert ok


def test_criterion_03_exactness():
    results = suite_exactness(reps=200_000)
    npass, total, failed = summarize(results)
    ok = npass == total
    verdict(3, ok, f"i.i.d. uniform k-FWER equals alpha: {npass}/{total} checks "
                   "(chain n <= 200 at 1e-8, MC n=10 within 4 SE)")
    assert ok, failed


def test_criterion_04_table2_regression():
    results = suite_table2(reps=50_000)
    npass, total, failed = summarize(results)
    ok = npass == total
    verdict(4, ok, f"table-2 null simulation: {npass}/{total} cells within "
                   "4 binomial SEs of the printed values at 50,000 reps")
    assert ok, failed


def test_criterion_05_probability_identity():
    results = suite_lemma21(reps=200_000)
    npass, total, failed = summarize(results)
    ok = npass == total
    verdict(5, ok, f"union-probability identity: {npass}/{total} model/(n,k) "
                   "pairs, LHS vs RHS within 4 combined SEs at 200,000 reps")
    assert ok, failed


def test_criterion_06_monotonicity():
    results = suite_monotonicity()
    npass, total, failed = summarize(results)
    ok = npass == total
    verdict(6, ok, f"G_k and critical-value monotonicity in rho: {npass}/{total} checks")
    assert ok, failed


def test_criterion_07_dominance():
    results = suite_dominance()
    npass, total, failed = summarize(results)
    ok = npass == total
    verdict(7, ok, f"dominance suite: {npass}/{total} (constant orderings, shared "
                   "top constant, per-replication rejection-set inclusion)")
    assert ok, failed


def test_criterion_08_kfwer_control_under_alternatives():
    rows = []
    ok = True
    seed = 88_000
    for rho in (0.0, 0.5):
        model = independent() if rho == 0.0 else equicorrelated_normal(rho)
        for n0 in (10, 5):
            seed += 1
            cfg = ExperimentConfig(
                n=10, k=2, alpha=0.05, model=model,
                procedures=("gen_hochberg_stepup", "gen_holm_stepdown"),
                reps=100_000, seed=seed, n1=10 - n0, effect=2.0,
                metrics=("kfwer",),
            )
            rep = run_experiment(cfg)
            for proc in cfg.procedures:
                cell = rep.cell(proc, "kfwer")
                bound = 0.05 + 4 * cell.std_error
                ok = ok and cell.estimate <= bound
                rows.append(f"{proc} rho={rho} n0={n0}: {cell.estimate:.4f}<={bound:.4f}")
    detail = (f"k-FWER control at the alternatives: {len(rows)} cells, "
              "all below 0.05 + 4 SE" if ok else "k-FWER exceeded its bound")
    verdict(8, ok, detail)
    assert ok, rows


def test_criterion_09_averaged_gk_study():
    outcomes = {o.config.name: o for o in run_study(canned_study_configs("fig3"))}
    assert all(o.error is None for o in outcomes.values()), outcomes

    null_rep = outcomes["fig3-k2-n1_0"].report
    mod0 = null_rep.value("gen_simes", "power_at_least_k")
    cls0 = null_rep.value("classic_simes", "power_at_least_k")
    band = 0.0046
    clause_a = abs(mod0 - 0.02690) <= band and abs(cls0 - 0.02060) <= band

    # the claimed ordering: modified power >= classic power - band at n1 >= 2
    violations = []
    for name, oc in outcomes.items():
        n1 = int(name.rsplit("_", 1)[1])
        if n1 < 2:
            continue
        mod = oc.report.value("gen_simes", "power_at_least_k_false")
        cls = oc.report.value("classic_simes", "power_at_least_k_false")
        if mod < cls - band:
            violations.append(f"n1={n1}: modified {mod:.4f} < classic {cls:.4f} - {band}")
    clause_b = not violations

    ok = clause_a and clause_b
    detail = (f"averaged-G_k study: null values modified {mod0:.4f} (ref 0.02690), "
              f"classic {cls0:.4f} (ref 0.02060), band {band}")
    if not clause_b:
        detail += f"; ordering clause fails at {len(violations)} grid points"
    verdict(9, ok, detail)
    assert clause_a, (mod0, cls0)
    assert clause_b, (
        "classic Simes genuinely outpowers the averaged-G_k test at small n1 "
        "under this correlation structure; measured: " + "; ".join(violations)
    )


def test_criterion_10_power_orderings():
    msgs = []
    ok = True

    # (a) generalized vs classical power at rho=0, n1 = n/2
    for k in (2, 3):
        cfg = ExperimentConfig(n=10, k=k, alpha=0.05, model=independent(),
                               procedures=("gen_simes", "classic_simes"),
                               reps=20_000, seed=90_000 + k, n1=5,
                               metrics=("power_at_least_k",))
        rep = run_experiment(cfg)
        g = rep.cell("gen_simes", "power_at_least_k")
        c = rep.cell("classic_simes", "power_at_least_k")
        gap = g.estimate - c.estimate
        need = 4 * math.hypot(g.std_error, c.std_error)
        ok = ok and gap > need
        msgs.append(f"simes k={k}: gap {gap:+.4f} > {need:.4f}")
    for k in (2, 3):
        cfg = ExperimentConfig(n=100, k=k, alpha=0.05, model=independent(),
                               procedures=("gen_hochberg_stepup", "classic_hochberg"),
                               reps=20_000, seed=91_000 + k, n1=50,
                               metrics=("ave_power",))
        rep = run_experiment(cfg)
        g = rep.cell("gen_hochberg_stepup", "ave_power")
        c = rep.cell("classic_hochberg", "ave_power")
        gap = g.estimate - c.estimate
        need = 4 * math.hypot(g.std_error, c.std_error)
        ok = ok and gap > need
        msgs.append(f"hochberg k={k}: gap {gap:+.4f} > {need:.4f}")

    # (b) the generalized-vs-classic gap shrinks as rho grows
    gaps = []
    for rho in (0.0, 0.25, 0.5, 0.75):
        model = independent() if rho == 0.0 else equicorrelated_normal(rho)
        cfg = ExperimentConfig(n=10, k=2, alpha=0.05, model=model,
                               procedures=("gen_simes", "classic_simes"),
                               reps=20_000, seed=92_000 + int(100 * rho), n1=5,
                               metrics=("power_at_least_k",))
        rep = run_experiment(cfg)
        g = rep.cell("gen_simes", "power_at_least_k")
        c = rep.cell("classic_simes", "power_at_least_k")
        gaps.append((g.estimate - c.estimate, math.hypot(g.std_error, c.std_error)))
    for (d1, s1), (d2, s2) in zip(gaps, gaps[1:]):
        ok = ok and d2 <= d1 + 4 * math.hypot(s1, s2)
    msgs.append("gap chain " + " > ".join(f"{d:+.3f}" for d, _ in gaps))

    # (c) large n, k > 1/alpha: generalized Hochberg beats the rational rule
    for k in (10, 25):
        cfg = ExperimentConfig(n=1000, k=k, alpha=0.05, model=independent(),
                               procedures=("gen_hochberg_stepup", "lr_stepup"),
                               reps=20_000, seed=93_000 + k, n1=500,
                               metrics=("ave_power",))
        rep = run_experiment(cfg)
        g = rep.cell("gen_hochberg_stepup", "ave_power")
        c = rep.cell("lr_stepup", "ave_power")
        gap = g.estimate - c.estimate
        need = 4 * math.hypot(g.std_error, c.std_error)
        ok = ok and gap > need
        msgs.append(f"n=1000 k={k}: gap {gap:+.4f} > {need:.4f}")

    verdict(10, ok, "power orderings: " + "; ".join(msgs))
    assert ok, msgs
