"""Probability identities: the exact binomial chain, Monte Carlo, and bounds."""

import math
import re
from itertools import combinations

import numpy as np
import pytest

from kfwer import (
    ConfigurationError,
    CriticalVector,
    ProbEstimate,
    ScaleError,
    bonferroni_eq23,
    bound_eq22,
    equicorrelated_normal,
    factor_normal,
    gen_simes_critvals,
    gen_simes_critvals_closed_form,
    independent,
    lemma21_rhs_mc,
    union_prob_exact_smalln,
    union_prob_mc,
)
from kfwer.bounds import _draw


def simes_vector(n, k, alpha=0.05):
    cs = gen_simes_critvals(n, k, alpha, independent())
    return CriticalVector(c=cs.values, k=k, n=n)


def test_critical_vector_validation():
    CriticalVector(c=(0.01, 0.02), k=2, n=3)
    with pytest.raises(ConfigurationError):
        CriticalVector(c=(0.01,), k=2, n=3)  # needs n - k + 1 entries
    with pytest.raises(ConfigurationError):
        CriticalVector(c=(0.02, 0.01), k=1, n=2)
    with pytest.raises(ConfigurationError):
        CriticalVector(c=(0.01, float("nan")), k=1, n=2)


def test_prob_estimate_invariant():
    ProbEstimate(0.5, 0.001, 1000, "monte_carlo")
    ProbEstimate(0.5, 0.0, 0, "exact_chain")
    with pytest.raises(ConfigurationError):
        ProbEstimate(0.5, 0.0, 1000, "monte_carlo")
    with pytest.raises(ConfigurationError):
        ProbEstimate(0.5, 0.001, 0, "exact_chain")
    with pytest.raises(ConfigurationError):
        ProbEstimate(0.5, 0.001, 1000, "guesswork")


# ---------------------------------------------------------------------------
# exact binomial chain


def test_exact_two_uniforms_hand_value():
    # Pr{P_(1) <= 0.025 or P_(2) <= 0.05} = 2*0.025*0.95 + 0.05^2 + 2*0.025*0.05
    cv = CriticalVector(c=(0.025, 0.05), k=1, n=2)
    est = union_prob_exact_smalln(cv)
    assert est.method == "exact_chain"
    assert est.std_error == 0.0
    assert est.value == pytest.approx(0.05, abs=1e-12)


def test_exact_max_of_two_uniforms():
    cv = CriticalVector(c=(0.3,), k=2, n=2)
    assert union_prob_exact_smalln(cv).value == pytest.approx(0.09, abs=1e-12)


def test_exact_reproduces_alpha_for_simes_constants():
    for n, k in [(1, 1), (2, 1), (3, 2), (4, 2), (4, 3), (4, 4)]:
        est = union_prob_exact_smalln(simes_vector(n, k))
        assert abs(est.value - 0.05) <= 1e-8, (n, k)


def test_exact_classic_simes_identity():
    # i*alpha/n constants give exactly alpha for independent uniforms
    cv = CriticalVector(c=tuple(i * 0.05 / 4 for i in range(1, 5)), k=1, n=4)
    assert union_prob_exact_smalln(cv).value == pytest.approx(0.05, abs=1e-10)


def test_exact_scale_limit():
    assert union_prob_exact_smalln(simes_vector(5, 2)).value == pytest.approx(0.05, rel=1e-12, abs=0.0)
    with pytest.raises(ScaleError):
        union_prob_exact_smalln(simes_vector(201, 2))


@pytest.mark.parametrize("n", [10, 50, 200])
@pytest.mark.parametrize("alpha", [0.05, 1e-10])
def test_exact_gen_simes_constants_give_alpha(n, alpha):
    # under independence the closed-form constants make the union
    # probability alpha exactly; the chain keeps it to relative accuracy
    for k in (1, 2, 5):
        cv = CriticalVector(gen_simes_critvals_closed_form(n, k, alpha).values, k, n)
        assert union_prob_exact_smalln(cv).value == pytest.approx(alpha, rel=1e-12, abs=0.0), k


def test_exact_classic_simes_identity_at_n200():
    cv = CriticalVector(c=tuple(i * 0.05 / 200 for i in range(1, 201)), k=1, n=200)
    assert union_prob_exact_smalln(cv).value == pytest.approx(0.05, rel=1e-12, abs=0.0)


def test_exact_agrees_with_mc_at_n30():
    cv = simes_vector(30, 3, alpha=0.2)
    exact = union_prob_exact_smalln(cv).value
    est = union_prob_mc(independent(), cv, reps=200_000, seed=30)
    assert abs(est.value - exact) < 4 * est.std_error


# ---------------------------------------------------------------------------
# Monte Carlo


def test_union_mc_validates_reps():
    with pytest.raises(ConfigurationError):
        union_prob_mc(independent(), simes_vector(3, 2), reps=5000, seed=1)


def test_union_mc_agrees_with_exact():
    cv = simes_vector(3, 2)
    exact = union_prob_exact_smalln(cv).value
    est = union_prob_mc(independent(), cv, reps=200_000, seed=42)
    assert est.method == "monte_carlo"
    assert abs(est.value - exact) < 4 * est.std_error


def test_union_mc_certain_event_keeps_positive_se():
    cv = CriticalVector(c=(0.5, 1.0), k=1, n=2)
    est = union_prob_mc(independent(), cv, reps=10_000, seed=9)
    assert est.value == pytest.approx(1.0)
    assert est.std_error > 0.0  # floored, MC never reports exact certainty


def test_union_mc_accepts_callable_sampler():
    def sampler(reps, seed):
        return np.random.default_rng(seed).uniform(size=(reps, 2))

    cv = CriticalVector(c=(0.025, 0.05), k=1, n=2)
    est = union_prob_mc(sampler, cv, reps=100_000, seed=12)
    assert abs(est.value - 0.05) < 4 * est.std_error

    def bad(reps, seed):
        return np.zeros((reps, 3))

    with pytest.raises(ConfigurationError):
        union_prob_mc(bad, cv, reps=100_000, seed=12)


@pytest.mark.parametrize("value, words", [
    (np.nan, "non-finite"), (-3.0, "outside [0, 1]"), (2.5, "outside [0, 1]"),
])
def test_callable_sampler_values_are_checked(value, words):
    # a NaN, a negative value or a value above 1 is no p-value: compared
    # with the constants it would read as a sure hit or as no hit
    def sampler(reps, seed):
        out = np.random.default_rng(seed).uniform(size=(reps, 3))
        out[reps // 2, 1] = value
        return out

    cv = CriticalVector(c=(0.02, 0.03), k=2, n=3)
    with pytest.raises(ConfigurationError, match=re.escape(words)):
        union_prob_mc(sampler, cv, reps=10_000, seed=1)
    with pytest.raises(ConfigurationError, match=re.escape(words)):
        lemma21_rhs_mc(sampler, cv, reps=100_000, seed=1)


def test_union_mc_leaves_callers_array_unsorted():
    fixed = np.random.default_rng(3).uniform(size=(10_000, 4))
    before = fixed.copy()
    cv = CriticalVector(c=(0.02, 0.03, 0.05), k=2, n=4)
    union_prob_mc(lambda reps, seed: fixed, cv, reps=10_000, seed=1)
    assert np.array_equal(fixed, before)


def test_lemma21_identity_small_uniform():
    cv = simes_vector(4, 2)
    lhs = union_prob_mc(independent(), cv, reps=200_000, seed=100)
    rhs = lemma21_rhs_mc(independent(), cv, reps=200_000, seed=101)
    tol = 4 * math.hypot(lhs.std_error, rhs.std_error)
    assert abs(lhs.value - rhs.value) < tol


def test_lemma21_identity_dependent():
    model = equicorrelated_normal(0.5)
    cs = gen_simes_critvals(4, 2, 0.05, model)
    cv = CriticalVector(c=cs.values, k=2, n=4)
    lhs = union_prob_mc(model, cv, reps=200_000, seed=300)
    rhs = lemma21_rhs_mc(model, cv, reps=200_000, seed=301)
    tol = 4 * math.hypot(lhs.std_error, rhs.std_error)
    assert abs(lhs.value - rhs.value) < tol


def test_lemma21_degenerate_n_equals_k():
    # single subset, no telescoping terms: Pr{max of both <= c}
    cv = CriticalVector(c=(0.4,), k=2, n=2)
    est = lemma21_rhs_mc(independent(), cv, reps=100_000, seed=7)
    assert abs(est.value - 0.16) < 4 * est.std_error


def _label_subset_reference(sampler, cv, reps, seed):
    """lemma21_rhs_mc summed over label subsets, each gathered and sorted
    apart; also returns each replication's total over all terms."""
    n, k = cv.n, cv.k
    pv = _draw(sampler, n, reps, seed)
    c = np.asarray(cv.c)  # c[idx] holds the rank-(k+idx) constant
    inv_a = {i: 1.0 / math.comb(i, k) for i in range(k, n + 1)}
    sqrt_reps = math.sqrt(reps)

    lead = np.zeros(reps)
    total = np.zeros(reps)
    value = 0.0
    se = 0.0
    for subset in combinations(range(n), k):
        comp = tuple(sorted(set(range(n)) - set(subset)))
        max_j = pv[:, subset].max(axis=1)
        lead += max_j <= c[-1]
        if not comp:
            continue
        # column j-1 checks the j-th smallest complement value against c_{k+j}
        tail = np.sort(pv[:, comp], axis=1) > c[1:]
        alive = np.logical_and.accumulate(tail[:, ::-1], axis=1)[:, ::-1]
        below = max_j[:, None] <= c[None, :]
        for i in range(k, n):
            ell = i - k + 1
            d = alive[:, ell - 1] * (
                inv_a[i] * below[:, i - k] - inv_a[i + 1] * below[:, i - k + 1]
            )
            total += d
            value += float(d.mean())
            se += float(d.std(ddof=1)) / sqrt_reps
    lead *= inv_a[n]
    total += lead
    value += float(lead.mean())
    se += float(lead.std(ddof=1)) / sqrt_reps
    value = min(max(value, 0.0), 1.0)
    return ProbEstimate(value, max(se, 1.0 / reps), reps, "monte_carlo"), total


_SAMPLERS = {
    "independent": lambda n: independent(),
    "equicorrelated": lambda n: equicorrelated_normal(0.5),
    "two-block factor": lambda n: factor_normal(tuple(0.3 if j < n // 2 else 0.8 for j in range(n))),
    "callable": lambda n: (
        lambda reps, seed: np.random.default_rng(seed).uniform(size=(reps, n))
    ),
}


@pytest.mark.parametrize("kind", list(_SAMPLERS))
@pytest.mark.parametrize("n", range(1, 9))
def test_lemma21_matches_label_subset_reference(kind, n):
    # the rank-indexed sum equals the label-indexed one row by row, so on the
    # same draws the two estimates differ only by rounding; the summed
    # per-term errors bound the error of the row totals (triangle inequality)
    sampler, reps = _SAMPLERS[kind](n), 100_000
    for k in range(1, n + 1):
        cv = CriticalVector(gen_simes_critvals_closed_form(n, k, 0.05).values, k, n)
        est = lemma21_rhs_mc(sampler, cv, reps, seed=40 + k)
        want, total = _label_subset_reference(sampler, cv, reps, seed=40 + k)
        assert type(est.value) is float and type(est.std_error) is float
        assert abs(est.value - want.value) <= 1e-12, (n, k)
        assert est.std_error >= float(total.std(ddof=1)) / math.sqrt(reps), (n, k)


@pytest.mark.parametrize("n", [3, 6])
def test_lemma21_std_error_sums_rank_term_errors(n):
    # on rows already sorted, label subsets are rank subsets, so the
    # reference's per-term errors are the rank-indexed terms' errors
    draws = np.sort(np.random.default_rng(n).uniform(size=(100_000, n)), axis=1)
    for k in range(1, n + 1):
        cv = CriticalVector(gen_simes_critvals_closed_form(n, k, 0.05).values, k, n)
        est = lemma21_rhs_mc(lambda reps, seed: draws, cv, 100_000, seed=0)
        want, _ = _label_subset_reference(lambda reps, seed: draws, cv, 100_000, seed=0)
        assert abs(est.value - want.value) <= 1e-12, k
        assert est.std_error == pytest.approx(want.std_error, rel=1e-9), k


def test_lemma21_guards():
    with pytest.raises(ScaleError):
        lemma21_rhs_mc(independent(), simes_vector(9, 2), reps=100_000, seed=1)
    with pytest.raises(ConfigurationError):
        lemma21_rhs_mc(independent(), simes_vector(4, 2), reps=50_000, seed=1)


# ---------------------------------------------------------------------------
# closed-form bounds


def test_bound_eq22_flat_constants_collapse():
    # with a flat vector the telescoping sum leaves C(n,k) * F_k(c)
    fk = lambda u: u**2
    cv = CriticalVector(c=(0.1, 0.1, 0.1), k=2, n=4)
    got = bound_eq22(fk, cv)
    assert got == pytest.approx(math.comb(4, 2) * 0.01, rel=1e-12)


def test_bound_eq22_is_displayed_value_not_clamped():
    fk = lambda u: u
    cv = CriticalVector(c=(0.9, 0.9, 0.9), k=1, n=3)
    assert bound_eq22(fk, cv) == pytest.approx(3 * 0.9, rel=1e-12)


def test_bound_eq22_dominates_truth_on_simes_constants():
    cv = simes_vector(4, 2)
    truth = union_prob_exact_smalln(cv).value
    bound = bound_eq22(lambda u: u**2, cv)
    assert bound >= truth - 1e-12


def test_bound_eq22_rejects_decreasing_fk_values():
    fk = lambda u: 1.0 - u  # not a CDF on this range
    cv = CriticalVector(c=(0.2, 0.4), k=1, n=2)
    with pytest.raises(ConfigurationError):
        bound_eq22(fk, cv)


def test_bonferroni_eq23():
    assert bonferroni_eq23(0.001, 4, 2) == pytest.approx(0.006, rel=1e-12)
    assert bonferroni_eq23(0.4, 4, 2) == 1.0
    with pytest.raises(ConfigurationError):
        bonferroni_eq23(1.5, 4, 2)
