import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy.special import ndtri

import kfwer
from kfwer import (
    METRICS,
    PROCEDURES,
    ConfigurationError,
    ExperimentConfig,
    PValueVector,
    canned_study_configs,
    canned_study_names,
    critical_value_set,
    draw,
    equicorrelated_normal,
    equicorrelated_t,
    factor_normal,
    gen_hochberg_critvals,
    gk_evaluate,
    independent,
    procedure_id,
    rule_for,
    run_experiment,
    run_study,
    single_step_apply,
    stepdown_apply,
    stepup_apply,
    thread_cap,
)
from kfwer.critvals import REGISTRY
from kfwer.models import BLOCK
from kfwer.simlab import SIMLAB_SALT


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    ok = dict(n=5, k=2, alpha=0.05, model=independent(),
              procedures=("gen_simes",), reps=1000, seed=1)
    ExperimentConfig(**ok)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{**ok, "k": 6})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{**ok, "alpha": 0.0})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{**ok, "reps": 999})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{**ok, "procedures": ("nope",)})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{**ok, "procedures": ("gen_simes", "gen_simes")})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{**ok, "metrics": ("not_a_metric",)})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{**ok, "n1": 2, "mu": (0.0,) * 5})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{**ok, "n1": 6})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{**ok, "model": factor_normal((0.5, 0.5))})


def test_mean_vector_places_effect_on_leading_indices():
    cfg = ExperimentConfig(n=5, k=2, alpha=0.05, model=independent(),
                           procedures=("gen_simes",), reps=1000, seed=1,
                           n1=2, effect=1.5)
    assert cfg.mean_vector().tolist() == [1.5, 1.5, 0.0, 0.0, 0.0]
    cfg = ExperimentConfig(n=3, k=2, alpha=0.05, model=independent(),
                           procedures=("gen_simes",), reps=1000, seed=1,
                           mu=(0.0, 2.0, 0.0))
    assert cfg.mean_vector().tolist() == [0.0, 2.0, 0.0]


def test_rule_mapping_is_total():
    for proc in PROCEDURES:
        assert rule_for(proc) in ("stepup", "stepdown", "single")
        assert critical_value_set(proc, 6, 2, 0.05).procedure == proc
        for name in (*REGISTRY[proc].short_names, proc.replace("_", "-"), proc):
            assert procedure_id(name) == proc
    assert rule_for("gen_simes") == "stepup"
    assert rule_for("gen_holm_stepdown") == "stepdown"
    assert rule_for("gen_single_step") == "single"
    with pytest.raises(ConfigurationError):
        rule_for("mystery")


# ---------------------------------------------------------------------------
# samplers


def sample(model, mu, count, seed):
    """The first count replications of a config's stream, as run_experiment
    draws them: whole blocks from models.draw, trimmed to count rows."""
    whole = -(-count // BLOCK) * BLOCK
    return draw(model, mu, 0, whole, seed, SIMLAB_SALT)[:count]


def statistics_of(p):
    # exact up to rounding for the normal models: p = ndtr(-x)
    return -ndtri(p)


T_MODEL = equicorrelated_t(0.25, 7)


def test_samplers_are_deterministic():
    a = sample(equicorrelated_normal(0.25), np.zeros(4), 200, seed=5)
    b = sample(equicorrelated_normal(0.25), np.zeros(4), 200, seed=5)
    assert np.array_equal(a, b)
    c = sample(T_MODEL, np.zeros(4), 200, seed=5)
    d = sample(T_MODEL, np.zeros(4), 200, seed=5)
    assert np.array_equal(c, d)


def test_sampler_mu_shifts_statistics():
    model = equicorrelated_normal(0.0)
    base = statistics_of(sample(model, np.zeros(3), 100, seed=8))
    shifted = statistics_of(sample(model, (1.0, 0.0, 0.0), 100, seed=8))
    assert shifted[:, 0] == pytest.approx(base[:, 0] + 1.0)
    assert shifted[:, 1:] == pytest.approx(base[:, 1:])


def test_sampler_independent_columns_uncorrelated():
    x = statistics_of(sample(equicorrelated_normal(0.0), np.zeros(2), 100_000, seed=21))
    r = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
    assert abs(r) < 4 / math.sqrt(100_000)


def test_sampler_joint_tail_matches_gk():
    # Pr{max(P1, P2) <= u} should agree with the quadrature G_2
    model = equicorrelated_normal(0.5)
    u, reps = 0.1357, 200_000
    p = sample(model, np.zeros(2), reps, seed=303)
    est = float(((p[:, 0] <= u) & (p[:, 1] <= u)).mean())
    want = gk_evaluate(model, 2, u)
    assert abs(est - want) < 4 * math.sqrt(want * (1 - want) / reps)


def test_factor_sampler_cross_block_correlation():
    lo, hi = math.sqrt(0.25), math.sqrt(0.75)
    x = statistics_of(sample(factor_normal((lo, hi)), np.zeros(2), 200_000, seed=44))
    r = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
    assert r == pytest.approx(lo * hi, abs=0.01)


def test_t_sampler_null_marginals_uniform():
    import scipy.stats

    p = sample(equicorrelated_t(0.25, 5), np.zeros(2), 40_000, seed=66)
    assert scipy.stats.kstest(p[:, 1], "uniform").pvalue > 1e-4


@pytest.mark.parametrize("model,mu", [
    (independent(), (0.0, 1.5, 0.0)),
    (equicorrelated_normal(0.5), (0.0, 1.5, 0.0)),
    (factor_normal((0.3, 0.6, 0.9)), (0.0, 1.5, 0.0)),
    (T_MODEL, (0.0, 1.5, 0.0)),
])
def test_draw_is_independent_of_chunking(model, mu):
    whole = draw(model, mu, 0, 3 * BLOCK, 17, SIMLAB_SALT)
    parts = [draw(model, mu, b * BLOCK, (b + 1) * BLOCK, 17, SIMLAB_SALT) for b in range(3)]
    assert np.array_equal(whole, np.concatenate(parts))


def test_draw_input_checks():
    with pytest.raises(ConfigurationError):
        draw(independent(), np.zeros(3), 0, BLOCK + 1, 1, SIMLAB_SALT)
    with pytest.raises(ConfigurationError):
        draw(independent(), np.zeros(3), BLOCK, BLOCK, 1, SIMLAB_SALT)
    with pytest.raises(ConfigurationError):
        draw(independent(), np.zeros(0), 0, BLOCK, 1, SIMLAB_SALT)
    with pytest.raises(ConfigurationError):
        draw(independent(), (0.0, math.inf), 0, BLOCK, 1, SIMLAB_SALT)
    with pytest.raises(ConfigurationError):
        draw(factor_normal((0.5, 0.5)), np.zeros(3), 0, BLOCK, 1, SIMLAB_SALT)
    empirical = kfwer.gk_empirical_build(independent(), 2, 1000, 1)
    with pytest.raises(ConfigurationError):
        draw(empirical, np.zeros(2), 0, BLOCK, 1, SIMLAB_SALT)


# ---------------------------------------------------------------------------
# the experiment kernel against a per-replication reimplementation


APPLY = {"stepup": stepup_apply, "stepdown": stepdown_apply, "single": single_step_apply}


def mirror_metrics(cfg):
    """Metric estimates recomputed one replication at a time through the
    decision-report API. Slow but uses none of the vectorized kernel."""
    mu = cfg.mean_vector()
    pvalues = sample(cfg.model, mu, cfg.reps, cfg.seed)
    n1 = int((mu != 0).sum())
    out = {}
    for proc in cfg.procedures:
        cset = (gen_hochberg_critvals(cfg.n, cfg.k, cfg.alpha, cfg.model)
                if proc == "gen_single_step"
                else critical_value_set(proc, cfg.n, cfg.k, cfg.alpha, cfg.model))
        counts = dict.fromkeys(METRICS, 0)
        prop_sum = 0.0
        for r in range(cfg.reps):
            entries = tuple((f"h{j:02d}", float(pvalues[r, j]))
                            for j in range(cfg.n))
            rep = APPLY[rule_for(proc)](PValueVector(entries), cset)
            rej = set(rep.rejected_ids())
            false_rej = sum(1 for j in range(cfg.n)
                            if mu[j] != 0 and f"h{j:02d}" in rej)
            true_rej = len(rej) - false_rej
            counts["power_at_least_k"] += len(rej) >= cfg.k
            counts["power_at_least_k_false"] += false_rej >= cfg.k
            counts["kfwer"] += true_rej >= cfg.k
            counts["partial_rejections"] += 1 <= true_rej < cfg.k
            counts["global_reject_rate"] += len(rej) >= 1
            if n1:
                prop_sum += false_rej / n1
        out[proc] = {m: counts[m] / cfg.reps for m in METRICS if m != "ave_power"}
        out[proc]["ave_power"] = prop_sum / cfg.reps if n1 else float("nan")
    return out


@pytest.mark.parametrize("model,procs", [
    (independent(), ("gen_simes", "lr_stepdown", "gen_single_step")),
    (equicorrelated_normal(0.5), ("gen_hochberg_stepup", "romano_stepdown")),
])
def test_run_experiment_matches_decision_reports(model, procs):
    cfg = ExperimentConfig(n=5, k=2, alpha=0.2, model=model, procedures=procs,
                           reps=1000, seed=314, n1=2, effect=1.0)
    report = run_experiment(cfg)
    want = mirror_metrics(cfg)
    for proc in procs:
        for metric in METRICS:
            got = report.value(proc, metric)
            assert got == pytest.approx(want[proc][metric], abs=1e-12), (proc, metric)


def test_run_experiment_t_model_matches_decision_reports():
    cfg = ExperimentConfig(n=4, k=2, alpha=0.2,
                           model=equicorrelated_t(0.25, 6),
                           procedures=("lr_stepup",), reps=1000, seed=11, n1=1)
    report = run_experiment(cfg)
    want = mirror_metrics(cfg)
    for metric in METRICS:
        assert report.value("lr_stepup", metric) == pytest.approx(
            want["lr_stepup"][metric], abs=1e-12, nan_ok=True
        )


def test_run_experiment_reps_not_a_multiple_of_block():
    cfg = ExperimentConfig(n=5, k=2, alpha=0.2, model=equicorrelated_normal(0.25),
                           procedures=("gen_simes", "classic_holm"), reps=BLOCK + 476,
                           seed=27, n1=2, effect=1.0)
    report = run_experiment(cfg)
    want = mirror_metrics(cfg)
    for proc in cfg.procedures:
        for metric in METRICS:
            assert report.cell(proc, metric).reps == BLOCK + 476
            assert report.value(proc, metric) == pytest.approx(
                want[proc][metric], abs=1e-12), (proc, metric)


TIE_PROCEDURES = ("gen_simes", "classic_hochberg", "gen_holm_stepdown", "lr_stepdown",
                  "gen_single_step")


@pytest.mark.parametrize("decimals", [1, 2])
@pytest.mark.parametrize("n1", [0, 2, 5, 6])
def test_run_experiment_exact_under_heavy_ties(monkeypatch, decimals, n1):
    # p-values and constants on one coarse grid tie with each other and with
    # the constants; the kernel must still count exactly what the scalar
    # rules reject, whichever of true and false nulls it counts over
    def rounded_draw(model, mu, start, stop, seed, salt):
        return np.round(draw(model, mu, start, stop, seed, salt), decimals)

    def rounded_constants(proc, cfg):
        cset = critical_value_set(proc, cfg.n, cfg.k, cfg.alpha, cfg.model)
        return dataclasses.replace(
            cset,
            values=tuple(np.round(cset.values, decimals)),
            padded=tuple(np.round(cset.padded, decimals)),
        )

    monkeypatch.setattr(kfwer.simlab, "draw", rounded_draw)
    monkeypatch.setattr(kfwer.simlab, "_constants_for", rounded_constants)
    cfg = ExperimentConfig(n=6, k=2, alpha=0.3, model=equicorrelated_normal(0.5),
                           procedures=TIE_PROCEDURES, reps=1000, seed=41, n1=n1,
                           effect=1.0)
    report = run_experiment(cfg)

    mu = cfg.mean_vector()
    pvalues = rounded_draw(cfg.model, mu, 0, BLOCK, cfg.seed, SIMLAB_SALT)[: cfg.reps]
    assert len(np.unique(pvalues)) <= 10 ** decimals + 1
    for proc in cfg.procedures:
        cset = rounded_constants(proc, cfg)
        counts = dict.fromkeys(set(METRICS) - {"ave_power"}, 0)
        prop_sum = 0.0
        for row in pvalues:
            pvec = PValueVector(tuple((f"h{j}", float(p)) for j, p in enumerate(row)))
            rej = set(APPLY[rule_for(proc)](pvec, cset).rejected_ids())
            false_rej = sum(1 for j in range(cfg.n) if mu[j] != 0 and f"h{j}" in rej)
            true_rej = len(rej) - false_rej
            counts["power_at_least_k"] += len(rej) >= cfg.k
            counts["power_at_least_k_false"] += false_rej >= cfg.k
            counts["kfwer"] += true_rej >= cfg.k
            counts["partial_rejections"] += 1 <= true_rej < cfg.k
            counts["global_reject_rate"] += len(rej) >= 1
            prop_sum += false_rej / n1 if n1 else 0.0
        for metric, count in counts.items():
            assert report.value(proc, metric) == pytest.approx(
                count / cfg.reps, abs=1e-12), (proc, metric)
        want_power = prop_sum / cfg.reps if n1 else float("nan")
        assert report.value(proc, "ave_power") == pytest.approx(
            want_power, abs=1e-12, nan_ok=True), proc


def test_run_experiment_deterministic():
    cfg = ExperimentConfig(n=6, k=2, alpha=0.05, model=equicorrelated_normal(0.25),
                           procedures=("gen_simes",), reps=2000, seed=55, n1=3)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    for metric in METRICS:
        assert a.value("gen_simes", metric) == b.value("gen_simes", metric)


def test_common_random_numbers_across_procedures():
    # procedures inside one config see identical samples, so splitting a
    # config apart must not change any estimate
    shared = dict(n=6, k=2, alpha=0.05, model=independent(), reps=1000,
                  seed=99, n1=3)
    joint = run_experiment(ExperimentConfig(procedures=("gen_simes", "classic_simes"),
                                            **shared))
    solo = run_experiment(ExperimentConfig(procedures=("classic_simes",), **shared))
    assert joint.value("classic_simes", "power_at_least_k") == \
        solo.value("classic_simes", "power_at_least_k")


def test_ave_power_undefined_under_global_null():
    cfg = ExperimentConfig(n=4, k=2, alpha=0.05, model=independent(),
                           procedures=("gen_simes",), reps=1000, seed=3, n1=0)
    rep = run_experiment(cfg)
    assert math.isnan(rep.value("gen_simes", "ave_power"))
    cell = rep.cell("gen_simes", "kfwer")
    assert cell.reps == 1000
    assert 0.0 <= cell.estimate <= 1.0


def test_metrics_report_lookup_errors():
    cfg = ExperimentConfig(n=4, k=2, alpha=0.05, model=independent(),
                           procedures=("gen_simes",), reps=1000, seed=3)
    rep = run_experiment(cfg)
    with pytest.raises(ConfigurationError):
        rep.cell("romano_stepdown", "kfwer")
    with pytest.raises(ConfigurationError):
        rep.cell("gen_simes", "not_a_metric")


# ---------------------------------------------------------------------------
# studies


def test_run_study_preserves_order_and_isolates_failures(monkeypatch):
    cfgs = [
        ExperimentConfig(name="good1", n=4, k=2, alpha=0.05, model=independent(),
                         procedures=("gen_simes",), reps=1000, seed=1),
        ExperimentConfig(name="bad", n=4, k=2, alpha=0.05, model=independent(),
                         procedures=("gen_simes",), reps=1000, seed=2),
        ExperimentConfig(name="good2", n=4, k=2, alpha=0.05, model=independent(),
                         procedures=("gen_simes",), reps=1000, seed=3),
    ]
    real = kfwer.simlab._constants_for

    def flaky(proc, cfg):
        if cfg.name == "bad":
            raise ValueError("synthetic failure")
        return real(proc, cfg)

    monkeypatch.setattr(kfwer.simlab, "_constants_for", flaky)
    outcomes = run_study(cfgs)
    assert [o.config.name for o in outcomes] == ["good1", "bad", "good2"]
    assert outcomes[0].error is None and outcomes[0].report is not None
    assert outcomes[1].report is None and "synthetic failure" in outcomes[1].error
    assert outcomes[2].error is None


def test_thread_cap_env_override(monkeypatch):
    monkeypatch.setenv("KFWER_THREADS", "2")
    assert thread_cap() == 2
    monkeypatch.setenv("KFWER_THREADS", "zero")
    with pytest.raises(ConfigurationError):
        thread_cap()
    monkeypatch.setenv("KFWER_THREADS", "0")
    with pytest.raises(ConfigurationError):
        thread_cap()
    monkeypatch.delenv("KFWER_THREADS")
    assert thread_cap() >= 1


def test_canned_study_catalog():
    names = canned_study_names()
    assert set(names) == {"fig1", "fig2", "fig3", "fig4", "fig5", "table2"}
    for name in names:
        cfgs = canned_study_configs(name)
        assert cfgs, name
        assert all(c.name.startswith(name) for c in cfgs)


# Every canned grid, pinned before the studies became grid specs: the
# config count and the SHA-256 of the repr of the config tuple. A change
# to any field, model, seed, name or the order of a grid shows here.
CANNED_GRID_DIGESTS = {
    "fig1": (88, "c59cbe7dfb71fd59a75f0e1bd77987442614c2c55123da9ba452c3825263fcec"),
    "fig2": (50, "9079ebcf909ef66e68a29cbf7d8eba778fd072262a28a0af22e35a8e166f5cd8"),
    "fig3": (6, "231e7ef68615a0ec01da5aef1d52be960a0ee6d25b827ec23c709ecf32f6a621"),
    "fig4": (20, "fa637140ca0995268b7af7d51990d0dd7b8ec32d3d8cea837a0151d579d80972"),
    "fig5": (10, "c36010b467ba98d508c1d13d9bfb86be4679851670398fee9de24bdc4d95c4fd"),
    "table2": (16, "84a7341dc410bc79c53bbe976a5ae8ae6decf670d88204bda3e50d5c83c253ce"),
}


@pytest.mark.parametrize("name", sorted(CANNED_GRID_DIGESTS))
def test_canned_study_grid_is_pinned(name):
    cfgs = canned_study_configs(name)
    count, digest = CANNED_GRID_DIGESTS[name]
    assert len(cfgs) == count
    assert hashlib.sha256(repr(cfgs).encode()).hexdigest() == digest


def test_canned_study_filters():
    some = canned_study_configs("fig1-rho0.25-k2")
    assert some
    assert all(c.k == 2 and c.model.rho == 0.25 for c in some)
    one_dof = canned_study_configs("fig4-dof5")
    assert one_dof and all(c.model.dof == 5 for c in one_dof)
    with pytest.raises(ConfigurationError):
        canned_study_configs("fig1-rho0.33")
    with pytest.raises(ConfigurationError, match="repeated filter 'k'"):
        canned_study_configs("fig1-k2-k3")
    with pytest.raises(ConfigurationError, match="bad study filter"):
        canned_study_configs("fig1-n10")
    with pytest.raises(ConfigurationError):
        canned_study_configs("fig9")


def test_fig3_study_places_effects_on_high_loading_block():
    cfgs = {c.name: c for c in canned_study_configs("fig3")}
    cfg = cfgs["fig3-k2-n1_2"]
    mu = cfg.mean_vector()
    assert mu.tolist() == [0.0] * 18 + [2.0, 2.0]
    lams = np.asarray(cfg.model.loadings)
    assert lams[:10] == pytest.approx(math.sqrt(0.25))
    assert lams[10:] == pytest.approx(math.sqrt(0.75))


def test_table2_study_is_null_only():
    cfgs = canned_study_configs("table2")
    assert len(cfgs) == 16
    assert all(int((c.mean_vector() != 0).sum()) == 0 for c in cfgs)
