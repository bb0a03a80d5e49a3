"""Self-check suites behind the verify CLI subcommand.

Each suite returns CheckResult rows; a row records what was estimated,
the tolerance it was held to, and the verdict. Reference numbers are
the published 4-decimal critical-value and error-rate tables, plus
internal identities (closed forms, the exact chain, dominance and
monotonicity relations).
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import CriticalVector, lemma21_rhs_mc, union_prob_exact_smalln, union_prob_mc
from .critvals import (
    critical_value_set,
    gen_hochberg_critvals,
    gen_simes_critvals,
    gen_simes_critvals_closed_form,
    lr_critvals,
)
from .errors import ConfigurationError
from .models import equicorrelated_normal, gk_evaluate, independent
from .procedures import PValueVector, stepup_apply
from .simlab import STUDY_GRIDS, expand_grid, run_study

__all__ = [
    "CheckResult",
    "SUITE_NAMES",
    "run_suite",
    "suite_table1",
    "suite_table2",
    "suite_lemma21",
    "suite_exactness",
    "suite_dominance",
    "suite_monotonicity",
]

DEFAULT_SEED = 1905

# published critical values, n=10, alpha=0.05; key (rho, k), entries i=k..10
TABLE1 = {
    (0.00, 1): (0.0050, 0.0100, 0.0150, 0.0200, 0.0250, 0.0300, 0.0350, 0.0400, 0.0450, 0.0500),
    (0.00, 2): (0.0333, 0.0577, 0.0816, 0.1054, 0.1291, 0.1527, 0.1764, 0.2000, 0.2236),
    (0.00, 3): (0.0747, 0.1186, 0.1609, 0.2027, 0.2443, 0.2857, 0.3271, 0.3684),
    (0.25, 1): (0.0050, 0.0100, 0.0150, 0.0200, 0.0250, 0.0300, 0.0350, 0.0400, 0.0450, 0.0500),
    (0.25, 2): (0.0177, 0.0345, 0.0525, 0.0716, 0.0914, 0.1120, 0.1331, 0.1548, 0.1769),
    (0.25, 3): (0.0297, 0.0573, 0.0882, 0.1220, 0.1581, 0.1965, 0.2367, 0.2784),
    (0.50, 1): (0.0050, 0.0100, 0.0150, 0.0200, 0.0250, 0.0300, 0.0350, 0.0400, 0.0450, 0.0500),
    (0.50, 2): (0.0090, 0.0198, 0.0325, 0.0468, 0.0625, 0.0793, 0.0972, 0.1160, 0.1357),
    (0.50, 3): (0.0108, 0.0257, 0.0449, 0.0686, 0.0961, 0.1273, 0.1619, 0.1998),
    (0.75, 1): (0.0050, 0.0100, 0.0150, 0.0200, 0.0250, 0.0300, 0.0350, 0.0400, 0.0450, 0.0500),
    (0.75, 2): (0.0041, 0.0104, 0.0186, 0.0284, 0.0397, 0.0525, 0.0665, 0.0817, 0.0980),
    (0.75, 3): (0.0033, 0.0098, 0.0200, 0.0340, 0.0519, 0.0739, 0.1000, 0.1303),
}

# published 1..k-1 false-rejection rates at alpha=0.05; key (n, k),
# entries for rho = 0, 0.25, 0.50, 0.75
TABLE2 = {
    (10, 2): (0.2384, 0.1003, 0.0337, 0.0054),
    (10, 3): (0.4905, 0.1833, 0.0458, 0.0042),
    (20, 2): (0.2273, 0.0783, 0.0200, 0.0012),
    (20, 3): (0.4619, 0.1180, 0.0182, 0.0003),
}

_RHOS = (0.00, 0.25, 0.50, 0.75)


@dataclass(frozen=True)
class CheckResult:
    name: str
    estimates: tuple
    tolerance: float
    passed: bool


def suite_table1(seed: int = DEFAULT_SEED):
    """Regenerate the published critical values; one check per (rho, column)."""
    checks = []
    for rho in _RHOS:
        model = equicorrelated_normal(rho)
        values = {k: gen_simes_critvals(10, k, 0.05, model).values for k in (1, 2, 3)}
        for i in range(1, 11):
            worst = 0.0
            for k in (1, 2, 3):
                if i >= k:
                    worst = max(worst, abs(values[k][i - k] - TABLE1[(rho, k)][i - k]))
            checks.append(
                CheckResult(
                    name=f"table1 rho={rho:g} alpha_{i}",
                    estimates=(worst,),
                    tolerance=5e-4,
                    passed=worst <= 5e-4,
                )
            )
    return checks


def suite_table2(seed: int = DEFAULT_SEED, reps: int = 50_000):
    """Reproduce the published partial-rejection rates by simulation, on
    the canned table2 grid with this suite's seeds, names, metric and reps."""
    configs = expand_grid({
        **STUDY_GRIDS["table2"], "seed": seed, "reps": reps,
        "name": "table2 n={n} k={k} rho={rho:g}", "metrics": ["partial_rejections"],
    })
    refs = [TABLE2[(c.n, c.k)][_RHOS.index(c.model.rho)] for c in configs]
    checks = []
    for outcome, ref in zip(run_study(configs), refs):
        tol = 4.0 * math.sqrt(ref * (1.0 - ref) / reps)
        if outcome.report is None:
            checks.append(CheckResult(outcome.config.name, (float("nan"), ref), tol, False))
            continue
        est = outcome.report.value("gen_simes", "partial_rejections")
        checks.append(
            CheckResult(outcome.config.name, (est, ref), tol, abs(est - ref) <= tol)
        )
    return checks


def suite_lemma21(seed: int = DEFAULT_SEED, reps: int = 200_000):
    """Both sides of the union-probability identity, estimated independently."""
    samplers = (
        ("iid-uniform", independent()),
        ("equicorr-0.25", equicorrelated_normal(0.25)),
        ("equicorr-0.5", equicorrelated_normal(0.5)),
    )
    checks = []
    offset = 0
    for label, model in samplers:
        for n, k in ((4, 2), (5, 2), (5, 3)):
            values = gen_simes_critvals_closed_form(n, k, 0.05).values
            cv = CriticalVector(values, k, n)
            lhs = union_prob_mc(model, cv, reps, seed + offset)
            rhs = lemma21_rhs_mc(model, cv, reps, seed + offset + 1)
            tol = 4.0 * math.hypot(lhs.std_error, rhs.std_error)
            checks.append(
                CheckResult(
                    name=f"lemma21 {label} n={n} k={k}",
                    estimates=(lhs.value, rhs.value),
                    tolerance=tol,
                    passed=abs(lhs.value - rhs.value) <= tol,
                )
            )
            offset += 2
    return checks


def suite_exactness(seed: int = DEFAULT_SEED, reps: int = 200_000):
    """Generalized Simes under i.i.d. uniforms hits alpha exactly: the
    binomial chain at every k for n <= 4 and at five k for n up to 200,
    and Monte Carlo at n = 10."""
    alpha = 0.05
    checks = []
    for n in (1, 2, 3, 4, 10, 50, 200):
        for k in range(1, n + 1) if n <= 4 else (1, 2, 3, n // 2, n):
            values = gen_simes_critvals_closed_form(n, k, alpha).values
            est = union_prob_exact_smalln(CriticalVector(values, k, n)).value
            checks.append(
                CheckResult(
                    name=f"exact chain n={n} k={k}",
                    estimates=(est, alpha),
                    tolerance=1e-8,
                    passed=abs(est - alpha) <= 1e-8,
                )
            )
    tol = 4.0 * math.sqrt(alpha * (1.0 - alpha) / reps)
    for k in (2, 3):
        values = gen_simes_critvals_closed_form(10, k, alpha).values
        est = union_prob_mc(independent(), CriticalVector(values, k, 10), reps, seed + k).value
        checks.append(
            CheckResult(
                name=f"exact MC n=10 k={k}",
                estimates=(est, alpha),
                tolerance=tol,
                passed=abs(est - alpha) <= tol,
            )
        )
    return checks


def suite_dominance(seed: int = DEFAULT_SEED):
    """Componentwise constant dominance and per-replication set inclusion."""
    grid = [
        (n, k, alpha)
        for n in (5, 10, 20, 100)
        for k in (2, 3, 5)
        for alpha in (0.05, 0.1)
    ]
    simes_margin = math.inf
    lr_margin = math.inf
    top_gap = 0.0
    for n, k, alpha in grid:
        gs = gen_simes_critvals_closed_form(n, k, alpha).values
        gh = gen_hochberg_critvals(n, k, alpha, independent()).values
        lr = lr_critvals(n, k, alpha).values
        for idx, i in enumerate(range(k, n + 1)):
            simes_margin = min(simes_margin, gs[idx] - i * alpha / n)
            lr_margin = min(lr_margin, gh[idx] - lr[idx])
        top_gap = max(top_gap, abs(gs[-1] - gh[-1]))
    checks = [
        CheckResult(
            name="dominance: gen Simes >= i*alpha/n (k <= 1/alpha)",
            estimates=(simes_margin,),
            tolerance=1e-12,
            passed=simes_margin >= -1e-12,
        ),
        CheckResult(
            name="dominance: gen Hochberg >= LR constants",
            estimates=(lr_margin,),
            tolerance=1e-12,
            passed=lr_margin >= -1e-12,
        ),
        CheckResult(
            name="shared top constant alpha_n = alpha^(1/k)",
            estimates=(top_gap,),
            tolerance=1e-12,
            passed=top_gap <= 1e-12,
        ),
    ]

    n, k, alpha = 10, 2, 0.05
    gh_set = gen_hochberg_critvals(n, k, alpha, independent())
    lr_set = critical_value_set("lr_stepup", n, k, alpha)
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(1000):
        p = rng.random(n)
        pvec = PValueVector(tuple((f"h{j}", p[j]) for j in range(n)))
        gh_rej = stepup_apply(pvec, gh_set).rejected_ids()
        lr_rej = stepup_apply(pvec, lr_set).rejected_ids()
        if not lr_rej <= gh_rej:
            violations += 1
    checks.append(
        CheckResult(
            name="per-replication inclusion gen Hochberg >= LR stepup (1000 inputs)",
            estimates=(float(violations),),
            tolerance=0.0,
            passed=violations == 0,
        )
    )
    return checks


def suite_monotonicity(seed: int = DEFAULT_SEED):
    """G_k grows with rho; critical values therefore shrink with rho."""
    checks = []
    rho_grid = [r / 10 for r in range(0, 10)]
    for k in (2, 3):
        for u in (0.01, 0.05, 0.1, 0.3):
            vals = [gk_evaluate(equicorrelated_normal(r), k, u) for r in rho_grid]
            worst = min(b - a for a, b in zip(vals, vals[1:]))
            checks.append(
                CheckResult(
                    name=f"G_{k}({u:g}) nondecreasing in rho",
                    estimates=(worst,),
                    tolerance=1e-9,
                    passed=worst >= -1e-9,
                )
            )
    for k in (1, 2, 3):
        blocks = [gen_simes_critvals(10, k, 0.05, equicorrelated_normal(r)).values for r in _RHOS]
        worst = min(
            lo[idx] - hi[idx]
            for lo, hi in zip(blocks, blocks[1:])
            for idx in range(len(blocks[0]))
        )
        checks.append(
            CheckResult(
                name=f"critical values k={k} nonincreasing across rho",
                estimates=(worst,),
                tolerance=1e-9,
                passed=worst >= -1e-9,
            )
        )
    return checks


SUITES = {
    "table1": suite_table1,
    "table2": suite_table2,
    "lemma21": suite_lemma21,
    "exactness": suite_exactness,
    "dominance": suite_dominance,
    "monotonicity": suite_monotonicity,
}

SUITE_NAMES = tuple(sorted(SUITES)) + ("all",)


def run_suite(name: str, seed: int | None = None):
    """Run one suite (or all) and return its CheckResult rows."""
    seed = DEFAULT_SEED if seed is None else int(seed)
    if name == "all":
        return [row for suite in SUITES.values() for row in suite(seed)]
    fn = SUITES.get(name)
    if fn is None:
        raise ConfigurationError(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
        )
    return fn(seed)
