import math
import re
import warnings
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import log_ndtr

from kfwer import (
    ConfigurationError,
    ConvergenceError,
    draw,
    draw_null_pvalues,
    draw_scores,
    equicorrelated_normal,
    equicorrelated_t,
    factor_normal,
    gk_evaluate,
    gk_factor_subset,
    gk_quantile,
    gk_quantiles,
    independent,
    log_gk,
    parse_model,
    pmap,
    score_bands,
    score_model,
)
from kfwer import models
from kfwer.models import BLOCK, ROOT_TOL, TABLE_FLOOR, TABLE_NODES, cutoffs, decide


# ---------------------------------------------------------------------------
# constructors and specs


@pytest.mark.parametrize("model", [
    independent(),
    equicorrelated_normal(0.25),
    equicorrelated_normal(0.1 + 0.2),
    equicorrelated_t(0.1 + 0.2, 5),
], ids=lambda m: m.describe())
def test_describe_round_trips_through_parse_model(model):
    assert parse_model(model.describe()) == model


def test_model_string_and_object_are_one_grammar(tmp_path):
    path = tmp_path / "loadings.txt"
    path.write_text("0.5, 0.6\n")
    assert parse_model(f"factor:{path}") == parse_model({"kind": "factor", "loadings": [0.5, 0.6]})
    assert parse_model("t:0.25:5") == parse_model({"kind": "t", "rho": 0.25, "dof": 5})
    assert parse_model("equicorr:0.5") == parse_model({"kind": "equicorr", "rho": 0.5})
    assert factor_normal([0.5, 0.6]).describe() == "factor:n=2"


def test_model_constructor_validation():
    with pytest.raises(ConfigurationError):
        equicorrelated_normal(-0.1)
    with pytest.raises(ConfigurationError):
        equicorrelated_normal(1.0)
    with pytest.raises(ConfigurationError):
        factor_normal(())
    with pytest.raises(ConfigurationError):
        factor_normal((0.5, 1.0))
    with pytest.raises(ConfigurationError):
        factor_normal((0.0, 0.5))
    with pytest.raises(ConfigurationError):
        equicorrelated_t(0.25, 0)
    with pytest.raises(ConfigurationError):
        equicorrelated_t(1.0, 5)


def test_legacy_t_spec_fields_are_checked_then_dropped_with_a_warning():
    # SAMPLES:SEED named the sample store the t model no longer uses
    legacy = {"kind": "t", "rho": 0.25, "dof": 5, "samples": 2000, "seed": 3}
    for spec in ("t:0.25:5:2000:3", legacy):
        with pytest.warns(FutureWarning, match="unused"):
            assert parse_model(spec) == equicorrelated_t(0.25, 5)
    with pytest.raises(ConfigurationError, match="sample_size must be an integer"):
        parse_model("t:0.25:5:2000.5:3")
    with pytest.raises(ConfigurationError):
        parse_model({"kind": "t", "rho": 0.25, "dof": 5, "samples": 2000})


def test_factor_subset_validation():
    fm = factor_normal((0.5, 0.6, 0.7, 0.8))
    assert gk_factor_subset(fm, (1, 3, 4), 0.1) == gk_factor_subset(fm, [1, 3, 4], 0.1)
    for subset, words in [((), "must not be empty"), ((0, 1), "1-based"),
                          ((2, 2), "strictly increasing"), ((1, 5), "exceeds n=4")]:
        with pytest.raises(ConfigurationError, match=words):
            gk_factor_subset(fm, subset, 0.1)


# ---------------------------------------------------------------------------
# G_k evaluation


def test_gk_independent_is_power():
    m = independent()
    for u in (0.0, 0.001, 0.3, 1.0):
        for k in (1, 2, 5):
            assert gk_evaluate(m, k, u) == pytest.approx(u**k, rel=1e-12, abs=1e-15)


def test_gk_equicorr_zero_rho_matches_independent():
    m = equicorrelated_normal(0.0)
    assert gk_evaluate(m, 3, 0.2) == pytest.approx(0.2**3, rel=1e-10)


def test_gk_equicorr_reference_values():
    # frozen via 40-digit Gauss quadrature of the one-factor integral
    assert gk_evaluate(equicorrelated_normal(0.5), 2, 0.1) == pytest.approx(
        0.032401523218343507, rel=1e-9
    )
    assert gk_evaluate(equicorrelated_normal(0.25), 3, 0.3) == pytest.approx(
        0.058965048005678564, rel=1e-9
    )


def test_gk_bounds_and_monotonicity():
    m = equicorrelated_normal(0.4)
    assert gk_evaluate(m, 2, 0.0) == 0.0
    assert gk_evaluate(m, 2, 1.0) == 1.0
    grid = [gk_evaluate(m, 2, u) for u in np.linspace(0.0, 1.0, 21)]
    assert all(a <= b + 1e-12 for a, b in zip(grid, grid[1:]))


def test_gk_quantile_inverts_evaluate():
    m = equicorrelated_normal(0.5)
    for target in (1e-4, 0.01, 0.2):
        u = gk_quantile(m, 2, target)
        assert gk_evaluate(m, 2, u) == pytest.approx(target, rel=1e-8, abs=1e-12)


def test_gk_quantile_independent_closed_form():
    m = independent()
    assert gk_quantile(m, 3, 0.008) == pytest.approx(0.2, rel=1e-9)


# ---------------------------------------------------------------------------
# G_k inversion of constant sets from a table


def _simes_targets(n, k, alpha=0.05):
    return np.array([alpha * math.comb(i, k) / math.comb(n, k) for i in range(k, n + 1)])


def _bracketed(model, k, targets):
    """Each root by scipy's brentq on log G_k in log u over its bracket
    [log t, log t / k], one target at a time: a reference apart from the
    table and its passes."""
    def f(x, log_t):
        return log_gk(model, k, np.exp([x]))[0] - log_t

    return np.array([math.exp(brentq(f, log_t, log_t / k, args=(log_t,)))
                     for log_t in np.log(targets)])


def _certified(model, k, roots, targets):
    return np.all(np.abs(log_gk(model, k, roots) - np.log(targets)) <= ROOT_TOL)


TABLE_CASES = [  # (model, k, number of targets, alpha)
    (equicorrelated_normal(0.3), 2, 199, 0.05),
    (factor_normal((0.5,) * 100 + (0.8,) * 100), 3, 198, 0.05),
    (equicorrelated_t(0.25, 5), 2, TABLE_NODES + 1, 0.05),
    (equicorrelated_normal(0.99), 10, 991, 0.05),
    (factor_normal((0.3,) * 500 + (0.95,) * 500), 5, 996, 0.05),
]
SMALL_TABLE_CASES = [  # sets of at most TABLE_NODES targets, tables sized to the set
    (equicorrelated_normal(0.3), 2, 9, 0.05),
    (equicorrelated_normal(0.85), 2, 19, 0.05),
    (factor_normal((0.5,) * 20 + (0.8,) * 20), 2, 39, 0.05),
    (equicorrelated_t(0.25, 5), 2, 9, 0.05),
    (equicorrelated_normal(0.3), 2, 2, 0.05),
    (equicorrelated_normal(0.33), 2, 3, 0.3),  # the oracle workload's warm-up set
]


def _logged_log_gk(monkeypatch):
    """Record the number of points of every log_gk call gk_quantiles makes."""
    sizes, exact = [], models.log_gk

    def logged(m, k, u):
        sizes.append(np.size(u))
        return exact(m, k, u)

    monkeypatch.setattr(models, "log_gk", logged)
    return sizes


@pytest.mark.parametrize("model", [equicorrelated_normal(0.3), equicorrelated_t(0.25, 5)],
                         ids=lambda m: m.describe())
def test_a_single_target_keeps_the_bracketed_solve(monkeypatch, model):
    # one target is solved on its table like every set, inside its bracket
    # [t, t^(1/k)], and lands on the brentq reference
    targets = _simes_targets(10, 2)[4:5]
    sizes = _logged_log_gk(monkeypatch)
    got = gk_quantiles(model, 2, targets)
    assert sizes == [TABLE_FLOOR + 2, 1]  # the table, then one exact pass
    assert gk_quantile(model, 2, float(targets[0])) == got[0]
    monkeypatch.undo()
    assert targets[0] <= got[0] <= math.sqrt(targets[0])
    assert _certified(model, 2, got, targets)
    assert abs(got[0] / _bracketed(model, 2, targets)[0] - 1.0) <= 1e-9


@pytest.mark.parametrize("model", [equicorrelated_normal(0.0), independent()],
                         ids=lambda m: m.describe())
def test_a_power_set_is_its_closed_form(monkeypatch, model):
    # G_k(u) = u^k: each root is exp(log t / k), with no evaluation of G_k
    targets = _simes_targets(20, 3)
    sizes = _logged_log_gk(monkeypatch)
    got = gk_quantiles(model, 3, targets)
    assert sizes == []
    assert np.array_equal(got, np.exp(np.log(targets) / 3))


@pytest.mark.parametrize(
    "model, k, size, alpha", TABLE_CASES + SMALL_TABLE_CASES,
    ids=[f"{m.describe()}-{k}-{size}" + (f"-alpha={a}" if a != 0.05 else "")
         for m, k, size, a in TABLE_CASES + SMALL_TABLE_CASES],
)
def test_table_roots_are_certified_and_near_the_bracketed_roots(monkeypatch, model, k, size, alpha):
    targets = _simes_targets(size + k - 1, k, alpha)
    assert targets.size == size
    sizes = _logged_log_gk(monkeypatch)
    got = gk_quantiles(model, k, targets)
    monkeypatch.undo()
    # the table, sized to the set, then one exact pass certifies every root
    assert sizes[0] == min(max(size, TABLE_FLOOR), TABLE_NODES) + 2
    assert sizes[1:] == [size]
    assert _certified(model, k, got, targets)
    assert np.all(np.abs(got / _bracketed(model, k, targets) - 1.0) <= 1e-9)


def test_a_step_outside_its_bracket_bisects(monkeypatch):
    # 14 of these 18 roots stay open after the first exact pass; with every
    # later step of P sent out of its bracket, they are bisected instead
    model, targets = equicorrelated_normal(0.5), _simes_targets(20, 3, 0.3)
    exact, steps = models.monotone_cubic, []

    def far(x, y):
        inverse = exact(x, y)

        def p(q):
            steps.append(np.size(q))
            return inverse(q) + (1e3 if len(steps) > 3 else 0.0)  # after the start and polish

        return p

    monkeypatch.setattr(models, "monotone_cubic", far)
    sizes = _logged_log_gk(monkeypatch)
    got = gk_quantiles(model, 3, targets)
    monkeypatch.undo()
    assert sizes[1] == targets.size and 0 < sizes[2] < targets.size
    assert len(sizes) > 10  # bisection halves a bracket per pass
    assert _certified(model, 3, got, targets)


@pytest.mark.parametrize("call, n", [(0, 200), (1, 200), (0, 20), (1, 20)],
                         ids=["table", "first pass", "table, small set", "first pass, small set"])
def test_a_nan_log_gk_is_never_a_root(monkeypatch, call, n):
    # a NaN in the table starts every root at the midpoint of its bracket;
    # a NaN residual in a pass keeps its root open, and it is bisected
    model, targets = equicorrelated_normal(0.3), _simes_targets(n, 2)
    calls, exact = [], models.log_gk

    def poisoned(m, k, u):
        out = exact(m, k, u)
        if len(calls) == call:
            out[0] = np.nan
        calls.append(u)
        return out

    monkeypatch.setattr(models, "log_gk", poisoned)
    got = gk_quantiles(model, 2, targets)
    monkeypatch.undo()
    assert _certified(model, 2, got, targets)
    if call == 0:
        log_t = np.log(targets)
        assert np.array_equal(calls[1], np.exp(0.5 * (log_t + log_t / 2)))
    else:
        assert calls[-1].size < targets.size  # the open roots only


@pytest.mark.parametrize("fault", ["step", "nan"])
def test_a_residual_never_within_tol_raises_at_the_cap(monkeypatch, fault):
    # a residual that jumps over 0, or is NaN, never certifies its root:
    # the passes bisect the bracket down to adjacent floats, then stop
    model, target = equicorrelated_normal(0.3), 1e-3
    exact, calls = models.log_gk, []

    def never(m, k, u):
        out = exact(m, k, u)
        calls.append(np.size(u))
        if len(calls) == 1:
            return out  # the table
        if fault == "nan":
            return np.full_like(out, np.nan)
        return np.where(out < math.log(target), out - 1e-3, out + 1e-3)

    monkeypatch.setattr(models, "log_gk", never)
    with pytest.raises(ConvergenceError, match=f"1 roots still open after {models.MAX_PASSES} passes"):
        gk_quantiles(model, 2, [target])
    assert len(calls) == 1 + models.MAX_PASSES


def test_a_nan_polished_start_falls_back_to_the_cubic_start(monkeypatch):
    # root 0's polish is poisoned: it starts from the cubic instead and the
    # exact passes certify it
    model, targets = equicorrelated_normal(0.3), _simes_targets(200, 2)
    exact = models.chebyshev_interpolant

    def poisoned(x, y):
        poly = exact(x, y)

        def q(points):
            out = poly(points)
            out[0] = np.nan
            return out

        return q

    monkeypatch.setattr(models, "chebyshev_interpolant", poisoned)
    sizes = _logged_log_gk(monkeypatch)
    got = gk_quantiles(model, 2, targets)
    monkeypatch.undo()
    assert _certified(model, 2, got, targets)
    assert len(sizes) <= 4


@pytest.mark.parametrize("shift, why", [(1e-9, "outside"), (-1e-9, "outside"), (5e-12, None),
                                        (-5e-12, None)], ids=["above", "below", "just above",
                                                              "just below"])
def test_log_gk_outside_its_bounds_raises_or_is_clipped(monkeypatch, shift, why):
    # every kind's log G_k(u) must lie in [k log u, log u]: a value more than
    # LOG_TOL outside raises, one within it is clipped onto the bound
    model, k, u = equicorrelated_normal(0.3), 2, np.array([1e-3, 0.2])
    def off(lam, mult, t):  # log G_k(u) at t = -Phi^-1(u), shifted off its bound
        log_u = log_ndtr(-t)
        return (log_u if shift > 0 else k * log_u) + shift

    monkeypatch.setattr(models, "_log_one_factor", off)
    if why:
        with pytest.raises(ConvergenceError, match=r"u=0\.001: log G_k\(u\) is .*outside"):
            log_gk(model, k, u)
        with pytest.raises(ConvergenceError, match="outside"):
            gk_quantiles(model, k, [1e-4, 1e-3])
    else:
        assert np.array_equal(log_gk(model, k, u), np.log(u) if shift > 0 else k * np.log(u))


def test_t_value_next_to_1_is_at_most_u():
    # the trapezoid sum of a value near 1 carries about 6e-15, which the
    # bounds clip away: G_k(u) <= u, and so <= 1
    u = 1.0 - 2.0**-53
    assert gk_evaluate(equicorrelated_t(0.25, 1), 2, u) <= u


# ---------------------------------------------------------------------------
# factor model: two independent routes to the same quantity


def test_factor_subset_pair_equals_equicorr():
    # a pair with loadings (l, l) is an equicorrelated pair with rho = l^2
    lam = 0.5
    fm = factor_normal((lam, lam, 0.3))
    em = equicorrelated_normal(lam * lam)
    for u in (0.01, 0.1, 0.4):
        got = gk_factor_subset(fm, (1, 2), u)
        want = gk_evaluate(em, 2, u)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_factor_averaged_uniform_loadings_equals_equicorr():
    lam = math.sqrt(0.3)
    fm = factor_normal((lam,) * 6)
    em = equicorrelated_normal(0.3)
    for k in (2, 3):
        for u in (0.02, 0.2):
            assert gk_evaluate(fm, k, u) == pytest.approx(
                gk_evaluate(em, k, u), rel=1e-9, abs=1e-12
            )


def test_factor_averaged_matches_brute_force_mc():
    loadings = (0.3, 0.3, 0.8, 0.8, 0.5, 0.5)
    fm = factor_normal(loadings)
    u, k, reps = 0.15, 2, 200_000
    pv = draw_null_pvalues(fm, len(loadings), reps, seed=515)
    flags = pv <= u
    hits = []
    for a in range(6):
        for b in range(a + 1, 6):
            hits.append((flags[:, a] & flags[:, b]).mean())
    est = float(np.mean(hits))
    want = gk_evaluate(fm, k, u)
    se = math.sqrt(want * (1 - want) / reps)
    assert abs(est - want) < 4 * se


def test_factor_many_distinct_loadings_match_subset_mean():
    # 40 distinct loadings: 780 classes at k = 2, where the filtered product
    # over the loading values walked 2^40 tuples
    fm = factor_normal(np.linspace(0.1, 0.9, 40))
    pairs = list(combinations(range(1, 41), 2))
    for u in (1e-6, 1e-3, 0.05):
        want = np.mean([gk_factor_subset(fm, pair, u) for pair in pairs])
        assert gk_evaluate(fm, 2, u) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_factor_distinct_loadings_at_k3_match_subset_mean():
    # 12 distinct loadings at k = 3: the recursion's middle groups carry
    # every m <= k, checked against the mean of all 220 subsets
    fm = factor_normal(np.linspace(0.15, 0.85, 12))
    triples = list(combinations(range(1, 13), 3))
    for u in (1e-8, 1e-3, 0.1):
        want = np.mean([gk_factor_subset(fm, triple, u) for triple in triples])
        assert gk_evaluate(fm, 3, u) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_factor_rule_past_its_cap_raises(monkeypatch):
    # loadings of 0.9999 settle only after 5 halvings (1536 steps); with
    # the rule capped at 4 no value may be returned, while a set that
    # settles after one keeps its bits
    near_one, two_block = factor_normal((0.9999,) * 10), factor_normal((0.3,) * 5 + (0.7,) * 5)
    u = np.array([1e-6, 1e-3])
    assert np.all(np.isfinite(models.log_gk(near_one, 2, u)))
    want = models.log_gk(two_block, 2, u)
    monkeypatch.setattr(models, "MAX_HALVINGS", 4)
    with pytest.raises(ConvergenceError, match=r"u=1e-06: not settled to 1e-11 in log by step \S+ in Y"):
        models.log_gk(near_one, 2, u)
    assert np.array_equal(models.log_gk(two_block, 2, u), want)


def test_factor_value_that_underflows_raises_convergence_error(monkeypatch):
    # with p_g / max p in [0, 1] and no headroom above 1, the one 4-subset's
    # product underflows at u = 1e-300 at all but a few points, which the
    # halvings never settle: a refusal, not a value or numpy warnings
    monkeypatch.setattr(models, "_SUBSET_EXP", 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"G_4 .* u=1e-300: not settled to 1e-11"):
            models.log_gk(factor_normal((0.01, 0.3, 0.6, 0.999)), 4, np.array([1e-300]))


@pytest.mark.parametrize("model,k", [
    (equicorrelated_normal(0.3), 100),
    (equicorrelated_normal(0.9), 10),
    (equicorrelated_normal(0.99), 10),  # its two cuts take different numbers of steps
    (factor_normal((0.25,) * 20 + (0.75,) * 20), 2),
    (equicorrelated_t(0.25, 5), 2),
    (equicorrelated_t(0.9, 1), 10),  # its windows differ in width from u to u
], ids=["equicorr0.3-k100", "equicorr0.9-k10", "equicorr0.99-k10", "two-block", "t0.25-5-k2",
        "t0.9-1-k10"])
def test_log_gk_of_a_point_does_not_depend_on_its_batch(model, k):
    u = np.geomspace(1e-200, 0.5, 100)
    batch = models.log_gk(model, k, u)
    alone = np.array([models.log_gk(model, k, u[i : i + 1])[0] for i in range(u.size)])
    assert np.array_equal(batch, alone)


@pytest.mark.parametrize("model", [independent(), equicorrelated_normal(0.3),
                                   factor_normal((0.2, 0.5, 0.7)), equicorrelated_t(0.25, 5)],
                         ids=lambda m: m.kind)
def test_no_points_give_no_values(model):
    for call in (models.log_gk, gk_quantiles):
        got = call(model, 2, [])
        assert got.shape == (0,) and got.dtype == np.float64


# ---------------------------------------------------------------------------
# seeded sampling


def _hand_block(model, mu, g):
    """One block's scores built from its generator g in the documented order."""
    n = mu.size
    if model.kind == "independent":
        return g.standard_normal((BLOCK, n)) - mu if mu.any() else g.random((BLOCK, n))
    normals = g.standard_normal((BLOCK, n + 1))
    lam = np.array(model.loadings) if model.kind == "factor_normal" else math.sqrt(model.rho)
    x = lam * normals[:, :1] + np.sqrt(1.0 - lam * lam) * normals[:, 1:]
    if model.kind == "equicorrelated_t":
        x = x / np.sqrt(g.chisquare(model.dof, BLOCK) / model.dof)[:, None]
    return -(x + mu)


@pytest.mark.parametrize("model, mu", [
    (independent(), (0.0, 0.0, 0.0)),
    (independent(), (0.0, 1.5, -2.0)),
    (equicorrelated_normal(0.3), (0.0, 1.5, -2.0)),
    (factor_normal((0.2, 0.5, 0.7)), (0.0, 1.5, -2.0)),
    (equicorrelated_t(0.25, 5), (0.0, 1.5, -2.0)),
], ids=["independent-null", "independent-mu", "equicorr", "factor", "t"])
def test_block_is_its_keyed_sfc64_stream_in_the_documented_order(model, mu):
    # the stream contract: block b of (seed, salt) is SFC64 seeded by
    # SeedSequence((stream_word(seed, salt), b)), drawn in the order that
    # draw_scores documents, bit for bit
    mu, seed, salt, b = np.array(mu), 8, 99, 2
    word = models.stream_word(seed, salt)
    g = np.random.Generator(np.random.SFC64(np.random.SeedSequence((word, b))))
    got = draw_scores(model, mu, b * BLOCK, (b + 1) * BLOCK, seed, salt)
    assert np.array_equal(got, _hand_block(model, mu, g))


def test_draw_null_pvalues_shape_and_determinism():
    m = equicorrelated_normal(0.25)
    a = draw_null_pvalues(m, 4, 500, seed=99)
    b = draw_null_pvalues(m, 4, 500, seed=99)
    c = draw_null_pvalues(m, 4, 500, seed=100)
    assert a.shape == (500, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() > 0.0 and a.max() < 1.0


def test_draw_null_pvalues_uniform_marginals():
    import scipy.stats

    pv = draw_null_pvalues(independent(), 2, 40_000, seed=31)
    stat = scipy.stats.kstest(pv[:, 0], "uniform")
    assert stat.pvalue > 1e-4


def test_draw_null_pvalues_joint_probability_matches_gk():
    m = equicorrelated_normal(0.5)
    u, reps = 0.05, 300_000
    pv = draw_null_pvalues(m, 2, reps, seed=801)
    est = float(((pv[:, 0] <= u) & (pv[:, 1] <= u)).mean())
    want = gk_evaluate(m, 2, u)
    se = math.sqrt(want * (1 - want) / reps)
    assert abs(est - want) < 4 * se


def test_t_model_quadrature_matches_seeded_ecdf():
    # the constants of a gen-Simes set under the t model, each checked
    # against the ECDF of 10^6 seeded max-of-2 t draws to 4 binomial SE
    m = equicorrelated_t(0.25, 10)
    assert gk_evaluate(m, 2, 0.1) == gk_evaluate(equicorrelated_t(0.25, 10), 2, 0.1)
    vals = [gk_evaluate(m, 2, u) for u in (0.01, 0.05, 0.1, 0.5)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    size = 10**6
    store = np.sort(draw_null_pvalues(m, 2, size, seed=77).max(axis=1))
    targets = [0.05 * math.comb(i, 2) / math.comb(10, 2) for i in range(2, 11)]
    for target, q in zip(targets, gk_quantiles(m, 2, targets)):
        assert gk_evaluate(m, 2, q) == pytest.approx(target, rel=1e-8)
        band = 4.0 * math.sqrt(target * (1.0 - target) / size)
        ecdf = np.searchsorted(store, q, side="right") / size
        assert abs(ecdf - target) <= band, (q, target)


def test_t_model_large_dof_approaches_normal():
    # with dof = 400 the t model is close to the normal one
    m = equicorrelated_t(0.25, 400)
    got = gk_evaluate(m, 2, 0.1)
    want = gk_evaluate(equicorrelated_normal(0.25), 2, 0.1)
    assert abs(got - want) < 0.004


@pytest.mark.parametrize("dof, target, why", [
    # the t_1 quantile of u = 1e-320 overflows, so the window of the
    # outer integrand lies past the grid: a clear refusal, not a
    # bracketing failure or numpy warnings
    (1, 1e-320, "u=1e-320: the window of its integrand in log|tau| reaches a grid end"),
    # a chi scale of 10^5 degrees of freedom is narrower than the finest step
    (10**5, 1e-3, "not settled to 1e-11 in log by step 0.00195312 in log|tau|"),
], ids=["dof1-u1e-320", "dof1e5"])
def test_t_values_beyond_the_rule_raise(dof, target, why):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=re.escape(why)):
            gk_quantile(equicorrelated_t(0.25, dof), 2, target)


# ---------------------------------------------------------------------------
# scores and the score-domain kernel

SCORE_MODELS = [independent(), equicorrelated_normal(0.3), factor_normal((0.2, 0.5, 0.7, 0.9)),
                equicorrelated_t(0.25, 5)]


@pytest.mark.parametrize("model", SCORE_MODELS, ids=lambda m: m.describe())
def test_draw_is_the_p_map_of_the_scores(model):
    mu = np.array([0.0, 1.5, 0.0, -2.0])
    scores = draw_scores(model, mu, BLOCK, 3 * BLOCK, 8, 99)
    p = draw(model, mu, BLOCK, 3 * BLOCK, 8, 99)
    assert np.array_equal(pmap(score_model(model, mu), scores.copy()), p)
    # the p-map is nondecreasing: sorting scores sorts the p-values
    order = np.argsort(scores, axis=1, kind="stable")
    assert np.all(np.diff(np.take_along_axis(p, order, axis=1), axis=1) >= 0.0)


def _keys(x):
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(bits < 0, np.int64(-(2**63)) - bits, bits)


def _floats(keys):
    return np.where(keys < 0, np.int64(-(2**63)) - keys, keys).view(np.float64)


BAND_MODELS = [equicorrelated_normal(0.0)] + [equicorrelated_t(0.25, d) for d in (2, 5, 10, 30)]


@pytest.mark.parametrize("model", BAND_MODELS, ids=lambda m: m.describe())
def test_score_bands_are_sound(model):
    # every score within 2^12 ulps of an edge where P(s) <= c disagrees
    # with the band's settled answer must lie inside the band
    c = np.geomspace(1e-15, 0.9, 200)
    lo, hi = score_bands(model, c)
    assert np.all(np.diff(lo) >= 0.0) and np.all(np.diff(hi) >= 0.0)
    s = _floats(_keys(lo)[:, None] + np.arange(-(2**12), 2**12 + 1))
    meets = pmap(model, s.copy()) <= c[:, None]
    wrong = np.where(s < lo[:, None], ~meets, meets)
    inside = (s >= lo[:, None]) & (s <= hi[:, None])
    assert not np.any(wrong & ~inside)
    assert np.all(hi - lo <= 1e-12 * np.abs(lo))  # a band is a few ulps wide


def test_uniform_scores_have_empty_bands():
    c = np.array([0.0, 1e-300, 0.01, 0.5])
    lo, hi = score_bands(independent(), c)
    assert np.all(lo > hi) and np.array_equal(hi, c)
    lo, hi = score_bands(independent(), c, strict=True)
    assert np.array_equal(lo, c)  # p < c reads p < lo


def _banded_constant(model, rule):
    """A constant whose score band for rule holds a score that meets it."""
    for c in np.geomspace(1e-6, 0.5, 4000):
        cut = cutoffs(model, rule, (float(c),) * 3)
        if cut.lo[0] <= cut.hi[0]:
            return float(c), cut
    raise AssertionError("no constant with a nonempty band")


def _p_reference(p, c, rule):
    p = np.sort(p, axis=1)
    if rule == "stepup":
        meets = p <= c
        return np.array([max((i + 1 for i in range(p.shape[1]) if m[i]), default=0) for m in meets])
    if rule == "stepdown":
        passed = p < c
        return np.array([next((i for i in range(p.shape[1]) if not m[i]), p.shape[1]) for m in passed])
    return (p <= c).sum(axis=1)


@pytest.mark.parametrize("rule", ["stepup", "stepdown", "single"])
def test_row_inside_a_band_is_decided_on_p_values(monkeypatch, rule):
    model = equicorrelated_normal(0.3)
    c, cut = _banded_constant(model, rule)
    # hi is a score in the band whose p-value meets c, though it is not below lo
    assert cut.lo[0] <= cut.hi[0] and pmap(model, cut.hi.copy())[0] <= np.nextafter(
        c, -np.inf if rule == "stepdown" else np.inf)
    scores = np.array([[6.0, float(cut.hi[0]), 5.0],
                       [float(cut.lo[0]) - 1.0, 6.0, 5.0]])
    few = scores[:, :2].copy()
    mapped = []
    monkeypatch.setattr(models, "pmap", lambda m, s: mapped.append(s.shape[0]) or pmap(m, s))
    [(nrej, hits)] = decide(scores.copy(), few, [cut])
    assert mapped == [1, 1]  # only the planted row, its sorted and its few columns
    p = pmap(model, scores.copy())
    want = _p_reference(p, c, rule)
    assert nrej.tolist() == want.tolist() == [1, 1]
    # the rejected set is the nrej smallest p-values: the planted score and
    # the low score of the second row, both among few's columns
    assert hits.tolist() == [1, 1]


# ---------------------------------------------------------------------------
# the package's log-sum-exp against scipy's


@pytest.mark.parametrize("model,k", [
    (equicorrelated_normal(0.3), 4),
    (equicorrelated_normal(0.9), 2),
    (factor_normal([0.3] * 4 + [0.7] * 3), 3),  # two loadings, three classes
], ids=["equicorr0.3", "equicorr0.9", "factor"])
def test_gk_keeps_its_bits_with_scipy_logsumexp(monkeypatch, model, k):
    from scipy.special import logsumexp as scipy_logsumexp

    u = np.geomspace(1e-300, 0.9, 31)
    targets = np.geomspace(1e-12, 0.2, 9)
    ours = models.log_gk(model, k, u), gk_quantiles(model, k, targets)
    monkeypatch.setattr(models, "logsumexp", lambda a, axis: scipy_logsumexp(a, axis=axis))
    theirs = models.log_gk(model, k, u), gk_quantiles(model, k, targets)
    assert np.array_equal(ours[0], theirs[0])
    assert np.array_equal(ours[1], theirs[1])
