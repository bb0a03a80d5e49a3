"""Per-layer measurements for the traced run.

Every traced run ends with the same probe, whatever its workload, so
each per-layer metric has one definition. The probe calls each layer's
public functions directly, on inputs drawn from the benchmark seed and
kept apart from the timed workloads, and times every call with a span.
A per-layer figure is the median of its span durations unless stated.
"""

import contextlib
import json
import os
import statistics
import time

import numpy as np

import kfwer

import workloads as wl


class Tracer:
    """Spans kept in memory: (request id, layer, name, start, end)."""

    def __init__(self):
        self.spans = []
        self.request = None

    @contextlib.contextmanager
    def span(self, layer, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((self.request, layer, name, start, time.perf_counter()))

    def durations(self, layer, name, request=None):
        return [
            end - start
            for req, lay, nam, start, end in self.spans
            if lay == layer and nam == name and (request is None or req == request)
        ]

    def median(self, layer, name, request=None):
        return statistics.median(self.durations(layer, name, request))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for req, layer, name, start, end in self.spans:
                fh.write(json.dumps({
                    "request": req, "layer": layer, "name": name,
                    "start": start, "end": end,
                }) + "\n")


def _timed(tracer, request, layer, name, fn, repeat):
    """Median over ``repeat`` timed calls of ``fn``."""
    tracer.request = request
    for _ in range(repeat):
        with tracer.span(layer, name):
            fn()
    return tracer.median(layer, name, request)


def _simlab_fit(tracer, tag, n, model, procedures, reps, rng):
    """Intercept and slope of run_experiment time against procedure count."""
    seed = int(rng.integers(1, 2**31 - 1))
    alpha = round(float(rng.uniform(0.02, 0.04)), 4)

    def cfg(procs):
        return kfwer.ExperimentConfig(
            n=n, k=2, alpha=alpha, model=model, procedures=procs,
            reps=reps, seed=seed, n1=n // 4,
        )

    one, every = cfg(procedures[:1]), cfg(procedures)
    kfwer.run_experiment(every)  # constants built once, untimed
    for _ in range(3):  # interleaved, so drift hits both sides alike
        for request, c in ((f"fit-{tag}-1", one), (f"fit-{tag}-all", every)):
            tracer.request = request
            with tracer.span("simlab", "run_experiment"):
                kfwer.run_experiment(c)
    t_one = tracer.median("simlab", "run_experiment", f"fit-{tag}-1")
    t_all = tracer.median("simlab", "run_experiment", f"fit-{tag}-all")
    slope = (t_all - t_one) / (len(procedures) - 1)
    per_krep = 1000.0 / reps
    return (t_one - slope) * per_krep, slope * per_krep


def _config_constants(tracer, tag, n, model, procedures, rng):
    """Median over three cold configs of the summed critical_value_set time."""
    totals = []
    for j in range(3):
        alpha = round(float(rng.uniform(0.011, 0.019)), 5)
        request = f"config-constants-{tag}-{j}"
        tracer.request = request
        for proc in procedures:
            with tracer.span("critvals", "critical_value_set"):
                kfwer.critical_value_set(proc, n, 2, alpha, model)
        totals.append(sum(tracer.durations("critvals", "critical_value_set", request)))
    return statistics.median(totals)


def run_probe(seed, workdir, tracer):
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 99]))
    m = {}
    rho = float(rng.choice((0.35, 0.45, 0.55)))
    equicorr = kfwer.equicorrelated_normal(rho)

    # simlab: shared work per replication and added cost per procedure
    large_procs = (
        "gen_simes", "gen_hochberg_stepup", "gen_holm_stepdown", "lr_stepdown", "lr_stepup",
        "classic_simes", "classic_holm", "classic_hochberg", "gen_single_step",
    )
    small_procs = large_procs + ("romano_stepdown",)
    m["simlab.shared_s_per_krep.n10"], m["simlab.per_proc_s_per_krep.n10"] = _simlab_fit(
        tracer, "n10", 10, equicorr, small_procs, 5000, rng)
    m["simlab.shared_s_per_krep.n1000"], m["simlab.per_proc_s_per_krep.n1000"] = _simlab_fit(
        tracer, "n1000", 1000, kfwer.independent(), large_procs, 2000, rng)
    m["simlab.config_constants_s.n10"] = _config_constants(
        tracer, "n10", 10, equicorr, ("gen_simes", "classic_simes"), rng)
    m["simlab.config_constants_s.n1000"] = _config_constants(
        tracer, "n1000", 1000, kfwer.independent(),
        ("gen_hochberg_stepup", "lr_stepup", "classic_hochberg"), rng)

    # cli: one simulate command against run_experiment on the same config,
    # at the smallest replication count so the difference is not lost
    cfg = dict(
        name="probe", n=10, k=2, alpha=0.05, model={"kind": "equicorr", "rho": rho},
        procedures=["gen-simes", "classic-simes"], reps=1000,
        seed=int(rng.integers(1, 2**31 - 1)), n1=3, metrics=["power_at_least_k", "kfwer"],
    )
    path = os.path.join(workdir, "probe-config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(schema_version=1, **cfg), fh)
    lib_cfg = kfwer.ExperimentConfig(
        n=10, k=2, alpha=0.05, model=equicorr, procedures=("gen_simes", "classic_simes"),
        reps=1000, seed=cfg["seed"], n1=3, metrics=("power_at_least_k", "kfwer"),
    )
    kfwer.run_experiment(lib_cfg)
    gaps = []
    for j in range(15):
        tracer.request = f"cli-overhead-{j}"
        with tracer.span("cli", "simulate"):
            wl.run_cli(["simulate", "--config", path])
        with tracer.span("simlab", "run_experiment"):
            kfwer.run_experiment(lib_cfg)
        gaps.append(tracer.durations("cli", "simulate", tracer.request)[0]
                    - tracer.durations("simlab", "run_experiment", tracer.request)[0])
    m["cli.simulate_overhead_s"] = statistics.median(gaps)

    # critvals: cold constant sets by model kind, and their accuracy
    worst = 0.0
    makers = {
        "equicorr": lambda a: wl.ConstantSetOp(
            "gen_simes", 100, 3, a, "equicorr", rho, wl.pvalues(rng, 100)),
        "factor": lambda a: wl.ConstantSetOp(
            "gen_hochberg_stepup", 40, 2, a, "factor", (0.25, 0.7), wl.pvalues(rng, 40)),
        "romano": lambda a: wl.ConstantSetOp(
            "romano_stepdown", 100, 3, a, "independent", 0.0, wl.pvalues(rng, 100)),
    }
    for kind, make in makers.items():
        for j in range(3):
            op = make(round(float(rng.uniform(0.011, 0.019)), 5))
            tracer.request = f"set-{kind}-{j}"
            out = op.run(tracer.span)
            worst = max(worst, max(op.residuals(out[0])))
        m[f"critvals.set_s.{kind}"] = statistics.median(
            d for j in range(3)
            for d in tracer.durations("critvals", "critical_value_set", f"set-{kind}-{j}")
        )
    proc, n, k = wl.FAULT_SETS[0]
    fault = wl.ConstantSetOp(proc, n, k, 0.05, "equicorr", 0.9, wl.pvalues(rng, n))
    tracer.request = "set-fault"
    worst = max(worst, max(fault.residuals(fault.run(tracer.span)[0])))
    m["critvals.max_rel_residual"] = worst

    # models: G_k evaluation and inversion by model kind
    factor = kfwer.factor_normal(wl.two_block(40, 0.25, 0.7))
    for kind, model in (("equicorr", equicorr), ("factor", factor)):
        tracer.request = f"gk-{kind}"
        for u in np.geomspace(1e-6, 1e-2, 25):
            with tracer.span("models", "gk_evaluate"):
                kfwer.gk_evaluate(model, 3, float(u) * (1 + rng.uniform(0, 0.01)))
        for target in np.geomspace(1e-7, 1e-3, 5):
            with tracer.span("models", "gk_quantile"):
                kfwer.gk_quantile(model, 3, float(target) * (1 + rng.uniform(0, 0.01)))
        evaluate = tracer.median("models", "gk_evaluate", tracer.request)
        quantile = tracer.median("models", "gk_quantile", tracer.request)
        m[f"models.gk_evaluate_s.{kind}"] = evaluate
        m[f"models.gk_quantile_s.{kind}"] = quantile
        m[f"numerics.evals_per_root.{kind}"] = quantile / evaluate

    # models: the t sample store, first set against a repeat with the same (dof, k)
    spec = f"t:0.25:5:2000000:{int(rng.integers(1, 2**31 - 1))}"
    tracer.request = "t-store"
    for alpha in ("0.05", "0.1"):
        with tracer.span("cli", f"critvals-alpha{alpha}"):
            wl.run_cli(["critvals", "--procedure", "gen-simes", "--n", "10", "--k", "2",
                     "--alpha", alpha, "--model", spec])
    first = tracer.durations("cli", "critvals-alpha0.05", "t-store")[0]
    repeat = tracer.durations("cli", "critvals-alpha0.1", "t-store")[0]
    m["critvals.set_s.t"] = first
    m["models.t_store_s"] = first - repeat

    # procedures: one application at n = 1000
    cset = kfwer.critical_value_set("gen_hochberg_stepup", 1000, 10, 0.05, kfwer.independent())
    pvec = wl.pvector(wl.pvalues(rng, 1000))
    m["procedures.apply_s"] = _timed(
        tracer, "apply", "procedures", "stepup_apply", lambda: kfwer.stepup_apply(pvec, cset), 5)

    # bounds: each oracle, and the model sampler's share of union_prob_mc
    reps = 100_000
    cv = kfwer.CriticalVector(kfwer.gen_simes_critvals_closed_form(20, 2, 0.05).values, 2, 20)
    seeds = [int(s) for s in rng.integers(1, 2**31 - 1, size=3)]
    it = iter(seeds * 2)
    m["bounds.union_prob_mc_s"] = _timed(
        tracer, "union-mc", "bounds", "union_prob_mc",
        lambda: kfwer.union_prob_mc(equicorr, cv, reps, next(it)), 3)
    fixed = np.random.default_rng(seeds[0]).random((reps, 20))
    m_cb = _timed(tracer, "union-mc-array", "bounds", "union_prob_mc",
                  lambda: kfwer.union_prob_mc(lambda count, s: fixed, cv, reps, 1), 3)
    m["models.block_draw_rows_per_s"] = reps / max(m["bounds.union_prob_mc_s"] - m_cb, 1e-9)
    cv6 = kfwer.CriticalVector(kfwer.gen_simes_critvals_closed_form(6, 2, 0.05).values, 2, 6)
    m["bounds.lemma21_rhs_mc_s"] = _timed(
        tracer, "lemma21", "bounds", "lemma21_rhs_mc",
        lambda: kfwer.lemma21_rhs_mc(equicorr, cv6, reps, next(it)), 3)
    vectors = iter([
        kfwer.CriticalVector(kfwer.gen_simes_critvals_closed_form(4, 2, float(a)).values, 2, 4)
        for a in rng.uniform(0.02, 0.2, size=3)
    ])
    m["bounds.exact_smalln_s"] = _timed(
        tracer, "exact", "bounds", "union_prob_exact_smalln",
        lambda: kfwer.union_prob_exact_smalln(next(vectors)), 3)
    return m


UNITS = {
    "simlab.shared_s_per_krep.n10": "s", "simlab.per_proc_s_per_krep.n10": "s",
    "simlab.shared_s_per_krep.n1000": "s", "simlab.per_proc_s_per_krep.n1000": "s",
    "simlab.config_constants_s.n10": "s", "simlab.config_constants_s.n1000": "s",
    "cli.simulate_overhead_s": "s",
    "critvals.set_s.equicorr": "s", "critvals.set_s.factor": "s",
    "critvals.set_s.romano": "s", "critvals.set_s.t": "s",
    "critvals.max_rel_residual": "ratio",
    "models.gk_evaluate_s.equicorr": "s", "models.gk_quantile_s.equicorr": "s",
    "numerics.evals_per_root.equicorr": "count",
    "models.gk_evaluate_s.factor": "s", "models.gk_quantile_s.factor": "s",
    "numerics.evals_per_root.factor": "count",
    "models.t_store_s": "s",
    "procedures.apply_s": "s",
    "bounds.union_prob_mc_s": "s", "bounds.lemma21_rhs_mc_s": "s",
    "bounds.exact_smalln_s": "s",
    "models.block_draw_rows_per_s": "1/s",
    "trace.overhead_pct": "%",
}
