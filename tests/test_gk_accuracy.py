"""Relative accuracy of the model-calibrated constants, checked by another route.

Each constant alpha_i of a G_k-calibrated set must meet its defining
equation G_k(alpha_i) = target_i to 1e-6 relative, also where the
targets fall far below 1e-10. The reference G_k here is nested adaptive
Gauss-Kronrod quadrature (scipy.integrate.quad) of exp(h(y) - h(y*)),
where h is the log integrand of the one-factor integral and y* its mode,
so the scale of G_k never enters the quadrature. For the equicorrelated
t model a further adaptive quadrature over s = log V, V the chi scale,
runs outside the one-factor one, in log space in the same way.
"""

import math
import warnings
from itertools import product

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq, minimize_scalar
from scipy.special import gammaln, log_ndtr, logsumexp, ndtri, stdtr, stdtrit

from kfwer import (
    ConvergenceError,
    equicorrelated_normal,
    equicorrelated_t,
    factor_normal,
    gen_hochberg_critvals,
    gen_simes_critvals,
    gk_evaluate,
    gk_quantiles,
    log_gk,
)
from kfwer.models import ROOT_TOL

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_class_quad(lams, mults, t):
    """log E_Y[prod_j Phi((lam_j Y - t) / sqrt(1 - lam_j^2))^m_j]."""
    lam, mult = np.asarray(lams, dtype=float), np.asarray(mults, dtype=float)
    s = np.sqrt(1.0 - lam * lam)
    a, b = lam / s, t / s
    # the integrand one scalar term per loading, which keeps quad's many
    # calls cheap
    terms = list(zip(a.tolist(), b.tolist(), mult.tolist()))

    def h(y):
        return sum(m * log_ndtr(a_ * y - b_) for a_, b_, m in terms) - 0.5 * y * y

    def slope(y):
        x = a * y - b
        return float(mult @ (a * np.exp(-0.5 * x * x - _LOG_SQRT_2PI - log_ndtr(x)))) - y

    lo, hi = -1.0, 1.0
    while slope(hi) > 0.0:
        hi *= 2.0
    mode = brentq(slope, lo, hi, xtol=1e-14, rtol=1e-15)
    peak = h(mode)
    # h'' <= -1, so exp(h - peak) < exp(-72) beyond 12 from the mode
    cuts = mode + np.array([-12.0, -1.0, -0.1, -0.01, 0.0, 0.01, 0.1, 1.0, 12.0])
    total = sum(
        integrate.quad(lambda y: math.exp(h(y) - peak), lo_, hi_, epsabs=0.0,
                       epsrel=1e-12, limit=200)[0]
        for lo_, hi_ in zip(cuts, cuts[1:])
    )
    return peak + math.log(total) - _LOG_SQRT_2PI


def _log_gk_quad(loadings, k, u):
    """log of the subset-averaged G_k(u), one quadrature per class of
    subsets that draw the same multiset of loadings."""
    values = sorted(set(loadings))
    counts = [loadings.count(v) for v in values]
    terms = []
    for picks in product(*(range(min(c, k) + 1) for c in counts)):
        if sum(picks) == k:
            weight = math.prod(math.comb(c, j) for c, j in zip(counts, picks))
            kept = [(v, j) for v, j in zip(values, picks) if j]
            terms.append(math.log(weight) + _log_class_quad(*zip(*kept), -ndtri(u)))
    return float(logsumexp(terms)) - math.log(math.comb(len(loadings), k))


def _two_block(n, low, high):
    return tuple([low] * (n // 2) + [high] * (n - n // 2))


CASES = [
    ("hochberg", 100, 10, "equicorr", 0.9),
    ("simes", 200, 8, "equicorr", 0.9),
    ("hochberg", 300, 5, "equicorr", 0.9),
    ("hochberg", 1000, 25, "equicorr", 0.5),
    # once returned alpha_10 = 1.39e-23 with G_10 there 10.9 times its target
    ("hochberg", 1000, 10, "equicorr", 0.99),
    ("hochberg", 100, 10, "factor", (0.6, 0.95)),
    # pairwise correlations up to 0.998, past the equicorrelated range
    ("hochberg", 100, 10, "factor", (0.6, 0.999)),
    # pairwise correlations of 0.99998, where a fixed 48-node split at the
    # mode was 1.5e-5 off
    ("simes", 20, 2, "factor", (0.99999, 0.99999)),
    # far-apart group modes, where 96 nodes over their hull miss by 1.3e-4
    ("hochberg", 40, 5, "factor", (0.1, 0.95)),
    # a sharp near-1 term in a small part of the hull, which takes thousands
    # of steps
    ("simes", 20, 3, "factor", (0.5, 0.9999)),
]


@pytest.mark.parametrize("family,n,k,kind,param", CASES, ids=lambda v: str(v))
def test_constants_meet_their_targets_to_relative_accuracy(family, n, k, kind, param):
    alpha = 0.05
    if kind == "equicorr":
        model, loadings = equicorrelated_normal(param), [math.sqrt(param)] * k
    else:
        loadings = list(_two_block(n, *param))
        model = factor_normal(loadings)
    build = gen_simes_critvals if family == "simes" else gen_hochberg_critvals
    cset = build(n, k, alpha, model)
    for i in (k, (k + n) // 2, n):
        if family == "simes":
            target = alpha * math.comb(i, k) / math.comb(n, k)
        else:
            target = alpha / math.comb(n + k - i, k)
        log_g = _log_gk_quad(loadings, k, cset.value_at(i))
        assert abs(math.expm1(log_g - math.log(target))) <= 1e-6, (i, cset.value_at(i), target)


def test_factor_set_too_sharp_for_the_finest_step_raises():
    # with loadings of 0.99999 beside 0.5 the sum is not settled at the
    # finest step: a refusal, not a value
    with pytest.raises(ConvergenceError, match="not settled to 1e-11 in log"):
        gen_simes_critvals(20, 3, 0.05, factor_normal(_two_block(20, 0.5, 0.99999)))


@pytest.mark.parametrize("loadings,k", [
    ((0.01, 0.5, 0.999), 3),
    ((0.01, 0.3, 0.6, 0.999), 4),
    ((0.05, 0.99) * 2, 2),
], ids=lambda v: str(v))
def test_factor_values_at_tiny_u_match_nested_quad(loadings, k):
    # far-apart loadings at u = 1e-300: the ratios p_g / max p of one subset
    # span more than the float range, which the factor rule must still carry
    u = np.array([1e-300, 1e-100, 1e-20])
    got = log_gk(factor_normal(loadings), k, u)
    for g, x in zip(got, u):
        assert abs(math.expm1(g - _log_gk_quad(list(loadings), k, x))) <= 1e-10, x


def _log_gk_t_quad(rho, dof, k, u, q=None):
    """log G_k(u) of the equicorrelated t: E_V of the one-factor class at
    threshold q_u V / sqrt(dof), V ~ chi_dof, in s = log V. h(s), the log
    of the chi density times V plus that class's log value, is
    integrated as exp(h(s) - h(s*)) around its mode s* by adaptive
    quadrature, out to where h has fallen by 50 on each side, so the
    scale of G_k never enters the quadrature, however small u is. The
    upper-u quantile q_u is -stdtrit(dof, u) unless given."""
    q, lam = -stdtrit(dof, u) if q is None else q, math.sqrt(rho)
    log_norm = (0.5 * dof - 1.0) * math.log(2.0) + gammaln(0.5 * dof)

    def h(s):
        tau = q * math.exp(s) / math.sqrt(dof)
        chi = dof * s - 0.5 * math.exp(2.0 * s) - log_norm
        if tau > 40.0:  # only the bound log Phi(-tau): h lies far below its peak here
            return chi + float(log_ndtr(-min(tau, 1e100)))
        return chi + _log_class_quad([lam], [k], tau)

    # the chi factor peaks at log sqrt(dof), s = centre; the class term
    # moves the mode left at most to where tau is of order one, and for q > 0
    # keeps it below tau = 40
    centre, c = 0.5 * math.log(dof), math.log(abs(q) / math.sqrt(dof)) if q else -math.inf
    bounds = (min(centre, -c) - 10.0, min(centre + 4.0, math.log(40.0) - c if q > 0 else math.inf))
    mode = minimize_scalar(lambda s: -h(s), bounds=bounds, method="bounded",
                           options={"xatol": 1e-3}).x
    peak = h(mode)
    ends = []
    for side in (-1.0, 1.0):
        step = 1.0
        while h(mode + side * step) > peak - 50.0:
            step *= 1.5
        ends.append(mode + side * step)
    cuts = [ends[0], mode - 1.0, mode - 0.1, mode, mode + 0.1, mode + 1.0, ends[1]]
    total = sum(
        integrate.quad(lambda s: math.exp(h(s) - peak), lo_, hi_, epsabs=0.0,
                       epsrel=1e-11, limit=200)[0]
        for lo_, hi_ in zip(cuts, cuts[1:])
    )
    return peak + math.log(total)


# the four fig4 sets, one with stronger correlation, larger k and n, one of
# more than TABLE_NODES roots, which gk_quantiles starts from a table, two
# at one degree of freedom (rho = 0.9 with k = 10, which a fixed tensor
# rule refused, and k = 2, where it was 5e-9 off), and one whose top
# constant, 0.665, lies above 1/2
T_CASES = [(0.25, dof, 10, 2) for dof in (2, 5, 10, 30)] + [
    (0.75, 5, 20, 3), (0.25, 5, 200, 2), (0.9, 1, 30, 10), (0.25, 1, 20, 2), (0.1, 5, 30, 10)]


@pytest.mark.parametrize("rho,dof,n,k", T_CASES, ids=lambda v: str(v))
def test_t_constants_meet_their_targets_to_relative_accuracy(rho, dof, n, k):
    alpha = 0.05
    cset = gen_simes_critvals(n, k, alpha, equicorrelated_t(rho, dof))
    for i in (k, (k + n) // 2, n):
        target = alpha * math.comb(i, k) / math.comb(n, k)
        log_g = _log_gk_t_quad(rho, dof, k, cset.value_at(i))
        assert abs(math.expm1(log_g - math.log(target))) <= 1e-6, (i, cset.value_at(i), target)


@pytest.mark.parametrize("rho,dof,k,u", [
    (0.25, 5, 2, 0.5),  # q_u = 0: G_k is exp L(0)
    (0.25, 5, 2, 0.7),  # q_u < 0
    (0.5, 2, 10, 0.7),
    (0.25, 1, 2, 1e-100),
    (0.25, 1, 2, 1e-300),
], ids=lambda v: str(v))
def test_t_values_match_nested_quad(rho, dof, k, u):
    got = gk_evaluate(equicorrelated_t(rho, dof), k, u)
    want = _log_gk_t_quad(rho, dof, k, u)
    assert abs(math.expm1(math.log(got) - want)) <= 1e-10


@pytest.mark.parametrize("rho,dof,k,targets", [
    # one degree of freedom, rho = 0.9 and k = 10 near 1e-6, where the
    # tensor rule's two node counts disagreed by percents
    (0.9, 1, 10, [1e-6, 2e-6, 4e-6]),
    # a root near 1e-125, where the tensor rule's value underflowed
    (0.25, 1, 2, [1e-250]),
], ids=["rho0.9-dof1-k10", "dof1-target1e-250"])
def test_t_roots_the_tensor_rule_refused_match_nested_quad(rho, dof, k, targets):
    model = equicorrelated_t(rho, dof)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = gk_quantiles(model, k, targets)
    got = log_gk(model, k, roots)
    want = [_log_gk_t_quad(rho, dof, k, u) for u in roots]
    assert np.all(np.abs(np.expm1(got - want)) <= 1e-10)
    assert np.all(np.abs(got - np.log(targets)) <= ROOT_TOL)


def _t_upper_quantile(dof, u):
    """q > 0 with stdtr(dof, -q) = u, for u < 1/3: brentq on log stdtr in
    log q, between whole steps of log q that bracket it."""
    def g(s):
        return math.log(stdtr(dof, -math.exp(s))) - math.log(u)

    hi = 0.0
    while g(hi) > 0.0:
        hi += 1.0
    return math.exp(brentq(g, hi - 1.0, hi, xtol=1e-15))


@pytest.mark.parametrize("dof,k,u", [
    # at u = 1e-300 scipy's stdtrit returns +inf for these dof, the wrong sign
    *(pytest.param(dof, 2, 1e-300, id=str(dof)) for dof in (3, 5, 6, 10)),
    # finite and right-signed but wrong: half the true q_u at dof 3, and
    # 4e-10 relative off at dof 5
    (3, 3, 1e-200),
    (5, 2, 3e-270),
], ids=lambda v: str(v))
def test_t_values_where_stdtrit_fails_match_nested_quad(dof, k, u):
    # the reference takes q_u from brentq on stdtr
    got = log_gk(equicorrelated_t(0.25, dof), k, [u])[0]
    want = _log_gk_t_quad(0.25, dof, k, u, q=_t_upper_quantile(dof, u))
    assert abs(math.expm1(got - want)) <= 1e-10


# near -10^6 in log the reference's quad cannot meet its 1e-12 and says so
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("rho", [1e-5, 1e-4, 1e-3])
@pytest.mark.parametrize("u", [1e-300, 5e-57])
def test_equicorr_mode_far_from_0_matches_nested_quad(rho, u):
    # at k = 10^4 the mode of the one-factor integrand lies at 460 to 1,860,
    # more Newton steps of at most 4 from its start at 0 than the first
    # 200; log G_k is near -10^6 here, where one ulp is already about 1e-10
    got = log_gk(equicorrelated_normal(rho), 10_000, [u])[0]
    want = _log_class_quad([math.sqrt(rho)], [10_000], -ndtri(u))
    assert abs(got - want) <= 1e-10 + 8.0 * np.finfo(float).eps * abs(want)
