"""Critical value constructions: closed forms, frozen references, orderings."""

import math

import numpy as np
import pytest
import scipy.stats

from kfwer import (
    CLASSIC_PROCEDURES,
    PROCEDURES,
    ConfigurationError,
    ConvergenceError,
    ScaleError,
    binomial_tail,
    classic_critvals,
    critical_value_set,
    equicorrelated_normal,
    gen_hochberg_critvals,
    gen_simes_critvals,
    gen_simes_critvals_closed_form,
    independent,
    lr_critvals,
    romano_critvals,
)


def test_gen_simes_independent_closed_form_values():
    cs = gen_simes_critvals(10, 2, 0.05, independent())
    # sqrt(alpha * C(i,2) / C(10,2)) at i = 3 and i = 10
    assert cs.value_at(3) == pytest.approx(0.057735026918962576, rel=1e-12)
    assert cs.value_at(10) == pytest.approx(math.sqrt(0.05), rel=1e-12)
    assert cs.value_at(2) == pytest.approx(math.sqrt(0.05 / 45), rel=1e-12)


def test_gen_simes_k3_top_constant():
    cs = gen_simes_critvals(10, 3, 0.05, independent())
    assert cs.value_at(10) == pytest.approx(0.05 ** (1.0 / 3.0), rel=1e-12)
    assert cs.value_at(10) == pytest.approx(0.36840314986403866, rel=1e-12)


def test_gen_hochberg_independent_closed_form_values():
    cs = gen_hochberg_critvals(10, 2, 0.05, independent())
    # G_k(alpha_i) = alpha / C(n+k-i, k)
    assert cs.value_at(9) == pytest.approx(0.1290994448735806, rel=1e-12)
    assert cs.value_at(10) == pytest.approx(0.22360679774997897, rel=1e-12)
    assert cs.value_at(2) == pytest.approx(math.sqrt(0.05 / math.comb(10, 2)), rel=1e-12)


def test_shared_top_constant_across_stepup_families():
    for n in (5, 10, 50):
        for k in (2, 3):
            a = gen_simes_critvals(n, k, 0.05, independent()).value_at(n)
            b = gen_hochberg_critvals(n, k, 0.05, independent()).value_at(n)
            assert abs(a - b) < 1e-12
            assert a == pytest.approx(0.05 ** (1.0 / k), rel=1e-12)


def test_lr_constants_are_rational_closed_form():
    cs = critical_value_set("lr_stepup", 10, 2, 0.05)
    assert cs.value_at(2) == pytest.approx(0.01, rel=1e-14)
    assert cs.value_at(10) == pytest.approx(0.05, rel=1e-14)
    assert cs.value_at(6) == pytest.approx(2 * 0.05 / 6, rel=1e-14)


def test_lr_label_choices():
    assert lr_critvals(5, 2, 0.1).procedure == "lr_stepdown"
    assert critical_value_set("lr_stepup", 5, 2, 0.1).procedure == "lr_stepup"
    with pytest.raises(ConfigurationError):
        critical_value_set("lr_sideways", 5, 2, 0.1)


def test_romano_constants_solve_binomial_tail():
    cs = romano_critvals(10, 2, 0.05)
    # frozen root of binomial_tail(10, 2, u) = 0.05
    assert cs.value_at(2) == pytest.approx(0.036771437887465084, rel=1e-9)
    for i in range(2, 11):
        m = 10 - i + 2
        assert binomial_tail(m, 2, cs.value_at(i)) == pytest.approx(0.05, abs=1e-9)
    # H_{k,m}(alpha_i) = P(Bin(m, alpha_i) >= k) = alpha, m = n - i + k
    n, k = 1000, 5
    cs = romano_critvals(n, k, 0.05)
    levels = scipy.stats.binom.sf(k - 1, n - np.arange(k, n + 1) + k, cs.values)
    assert levels == pytest.approx(np.full(n - k + 1, 0.05), rel=1e-10)


def test_romano_dominates_lr_componentwise():
    lr = lr_critvals(10, 2, 0.05)
    ro = romano_critvals(10, 2, 0.05)
    for i in range(2, 11):
        assert ro.value_at(i) >= lr.value_at(i) - 1e-12


def test_classic_constants():
    si = classic_critvals("classic_simes", 10, 0.05)
    ho = classic_critvals("classic_hochberg", 10, 0.05)
    hm = classic_critvals("classic_holm", 10, 0.05)
    assert si.value_at(1) == pytest.approx(0.005, rel=1e-14)
    assert si.value_at(10) == pytest.approx(0.05, rel=1e-14)
    assert ho.value_at(1) == pytest.approx(0.005, rel=1e-14)
    assert ho.value_at(10) == pytest.approx(0.05, rel=1e-14)
    assert ho.values == hm.values
    with pytest.raises(ConfigurationError):
        classic_critvals("gen_simes", 10, 0.05)


def test_padding_repeats_the_k_th_constant():
    cs = gen_simes_critvals(6, 3, 0.05, independent())
    assert len(cs.padded) == 6
    assert cs.padded[0] == cs.padded[1] == cs.padded[2] == cs.value_at(3)
    assert cs.padded[3:] == cs.values[1:]


def test_value_at_domain():
    cs = gen_simes_critvals(6, 3, 0.05, independent())
    with pytest.raises(ConfigurationError):
        cs.value_at(2)
    with pytest.raises(ConfigurationError):
        cs.value_at(7)


def test_constants_nondecreasing_in_rank():
    for proc in PROCEDURES:
        if proc in CLASSIC_PROCEDURES:
            cs = classic_critvals(proc, 12, 0.05)
        else:
            cs = critical_value_set(proc, 12, 2, 0.05, equicorrelated_normal(0.25))
        vals = cs.values
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:])), proc


def test_closed_form_matches_inversion_spot():
    a = gen_simes_critvals(10, 2, 0.05, independent())
    b = gen_simes_critvals(10, 2, 0.05, independent(), force_inversion=True)
    for i in range(2, 11):
        assert abs(a.value_at(i) - b.value_at(i)) < 1e-9
    c = gen_hochberg_critvals(10, 3, 0.05, independent())
    d = gen_hochberg_critvals(10, 3, 0.05, independent(), force_inversion=True)
    for i in range(3, 11):
        assert abs(c.value_at(i) - d.value_at(i)) < 1e-9
    e = gen_simes_critvals_closed_form(10, 2, 0.05)
    assert e.values == a.values


def test_printed_table_spot_values():
    # 4-decimal reference entries for n = 10, alpha = 0.05
    cs = gen_simes_critvals(10, 2, 0.05, equicorrelated_normal(0.25))
    assert cs.value_at(2) == pytest.approx(0.0177, abs=5e-4)
    assert cs.value_at(10) == pytest.approx(0.1769, abs=5e-4)
    cs = gen_simes_critvals(10, 3, 0.05, equicorrelated_normal(0.75))
    assert cs.value_at(3) == pytest.approx(0.0033, abs=5e-4)
    assert cs.value_at(10) == pytest.approx(0.1303, abs=5e-4)


def test_dependence_shrinks_small_constants():
    ind = gen_simes_critvals(10, 2, 0.05, independent())
    dep = gen_simes_critvals(10, 2, 0.05, equicorrelated_normal(0.5))
    assert dep.value_at(2) < ind.value_at(2)


def test_dispatcher_and_validation():
    cs = critical_value_set("romano_stepdown", 8, 2, 0.05)
    assert cs.procedure == "romano_stepdown"
    model = equicorrelated_normal(0.25)
    for proc in PROCEDURES:
        assert critical_value_set(proc, 8, 2, 0.05, model).procedure == proc
    cs = critical_value_set("gen_single_step", 8, 2, 0.05, model)
    assert cs.procedure == "gen_single_step"
    assert cs.values == gen_hochberg_critvals(8, 2, 0.05, model).values
    cs = critical_value_set("classic_simes", 8, 2, 0.05)
    assert cs.k == 1
    with pytest.raises(ConfigurationError):
        critical_value_set("unknown_proc", 8, 2, 0.05)
    with pytest.raises(ConfigurationError):
        gen_simes_critvals(1, 2, 0.05, independent())
    with pytest.raises(ConfigurationError):
        gen_simes_critvals(5, 2, 0.0, independent())
    with pytest.raises(ConfigurationError):
        gen_simes_critvals(5, 2, 1.0, independent())
    with pytest.raises(ConfigurationError):
        gen_simes_critvals(5, 2, 0.05, factor_loadings_mismatch())


def factor_loadings_mismatch():
    from kfwer import factor_normal

    return factor_normal((0.5, 0.5, 0.5))


def test_model_description_recorded():
    cs = gen_simes_critvals(5, 2, 0.05, equicorrelated_normal(0.25))
    assert "equicorr" in cs.model_description()
    cs = lr_critvals(5, 2, 0.05)
    assert cs.model_description() == "independent"


def test_decreasing_constants_raise_instead_of_being_patched(monkeypatch):
    # a solver result that falls at i = 5 must not be flattened into a set
    def falling(model, k, targets):
        values = np.linspace(0.01, 0.04, len(targets))
        values[5 - k] = values[5 - k - 1] / 2.0
        return values

    monkeypatch.setattr("kfwer.critvals.gk_quantiles", falling)
    with pytest.raises(ConvergenceError, match="decrease at i=5"):
        gen_simes_critvals(8, 2, 0.0421, equicorrelated_normal(0.37))


def test_tied_constants_stay_legal(monkeypatch):
    # empirical quantiles of a sample store can repeat
    monkeypatch.setattr("kfwer.critvals.gk_quantiles",
                        lambda model, k, targets: np.full(len(targets), 0.02))
    cs = gen_hochberg_critvals(8, 2, 0.0422, equicorrelated_normal(0.37))
    assert cs.values == (0.02,) * 7


@pytest.mark.parametrize("build,n,k", [
    (gen_simes_critvals, 1100, 550),
    (gen_hochberg_critvals, 10_000, 200),
])
def test_binomial_targets_past_the_float_range_raise_scale_error(build, n, k):
    # C(n, k) > 1.8e308 cannot be a float target; this is a usage error, not a crash
    with pytest.raises(ScaleError, match=rf"C\({n}, {k}\) exceeds the largest float"):
        build(n, k, 0.05, equicorrelated_normal(0.3))
