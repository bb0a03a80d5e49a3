import math

import numpy as np
import pytest

from kfwer import (
    ConfigurationError,
    ConvergenceError,
    SubsetIndex,
    draw_null_pvalues,
    equicorrelated_normal,
    equicorrelated_t,
    factor_normal,
    gk_empirical_build,
    gk_evaluate,
    gk_factor_subset,
    gk_quantile,
    gk_quantiles,
    independent,
    parse_model,
)


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


def test_subset_index_validation():
    assert SubsetIndex((1, 3, 4)).members == (1, 3, 4)
    with pytest.raises(ConfigurationError):
        SubsetIndex(())
    with pytest.raises(ConfigurationError):
        SubsetIndex((0, 1))
    with pytest.raises(ConfigurationError):
        SubsetIndex((2, 2))


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
# factor model: two independent routes to the same quantity


def test_factor_subset_pair_equals_equicorr():
    # a pair with loadings (l, l) is an equicorrelated pair with rho = l^2
    lam = 0.5
    fm = factor_normal((lam, lam, 0.3))
    em = equicorrelated_normal(lam * lam)
    for u in (0.01, 0.1, 0.4):
        got = gk_factor_subset(fm, SubsetIndex((1, 2)), u)
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


# ---------------------------------------------------------------------------
# seeded sampling


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


# ---------------------------------------------------------------------------
# empirical stores


def test_empirical_build_from_callable_is_exact_ecdf():
    def sampler(count, seed):
        return draw_null_pvalues(equicorrelated_normal(0.25), 2, count, seed)

    m = gk_empirical_build(sampler, k=2, sample_size=5000, seed=17)
    draws = sampler(5000, 17)
    maxes = np.sort(draws.max(axis=1))
    u = float(maxes[2499])
    assert gk_evaluate(m, 2, u) == pytest.approx(2500 / 5000)
    # generalized inverse: smallest stored value whose ECDF reaches the target
    q = gk_quantile(m, 2, 0.5)
    assert gk_evaluate(m, 2, q) >= 0.5


def test_empirical_quantile_refuses_targets_below_store_resolution():
    m = gk_empirical_build(independent(), k=2, sample_size=1000, seed=9)
    with pytest.raises(ConvergenceError, match="at least 1000000 draws"):
        gk_quantile(m, 2, 1e-6)
    # at target = 1/N the smallest stored max is the exact generalized inverse
    assert gk_quantile(m, 2, 1e-3) == float(m.sample_store[0])


def test_empirical_build_rejects_wrong_k():
    def sampler(count, seed):
        return draw_null_pvalues(independent(), 3, count, seed)

    m = gk_empirical_build(sampler, k=3, sample_size=2000, seed=5)
    with pytest.raises(ConfigurationError):
        gk_evaluate(m, 2, 0.1)


def test_empirical_build_input_validation():
    with pytest.raises(ConfigurationError):
        gk_empirical_build(independent(), k=2, sample_size=10, seed=1)
    with pytest.raises(ConfigurationError):
        gk_empirical_build("not a sampler", k=2, sample_size=2000, seed=1)
    with pytest.raises(ConfigurationError):
        gk_empirical_build(lambda c, s: np.zeros((c, 3)), k=2, sample_size=2000, seed=1)


def test_t_model_quadrature_matches_seeded_ecdf():
    # the constants of a gen-Simes set under the t model, each checked
    # against the ECDF of 10^6 seeded max-of-2 t draws to 4 binomial SE
    m = equicorrelated_t(0.25, 10)
    assert gk_evaluate(m, 2, 0.1) == gk_evaluate(equicorrelated_t(0.25, 10), 2, 0.1)
    vals = [gk_evaluate(m, 2, u) for u in (0.01, 0.05, 0.1, 0.5)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    size = 10**6
    ecdf = gk_empirical_build(m, 2, size, seed=77)
    targets = [0.05 * math.comb(i, 2) / math.comb(10, 2) for i in range(2, 11)]
    for target, q in zip(targets, gk_quantiles(m, 2, targets)):
        assert gk_evaluate(m, 2, q) == pytest.approx(target, rel=1e-8)
        band = 4.0 * math.sqrt(target * (1.0 - target) / size)
        assert abs(gk_evaluate(ecdf, 2, q) - target) <= band, (q, target)


def test_t_model_large_dof_approaches_normal():
    # with dof = 400 the t model is close to the normal one
    m = equicorrelated_t(0.25, 400)
    got = gk_evaluate(m, 2, 0.1)
    want = gk_evaluate(equicorrelated_normal(0.25), 2, 0.1)
    assert abs(got - want) < 0.004
