"""Relative accuracy of the model-calibrated constants, checked by another route.

Each constant alpha_i of a G_k-calibrated set must meet its defining
equation G_k(alpha_i) = target_i to 1e-6 relative, also where the
targets fall far below 1e-10. The reference G_k here is nested adaptive
Gauss-Kronrod quadrature (scipy.integrate.quad) of exp(h(y) - h(y*)),
where h is the log integrand of the one-factor integral and y* its mode,
so the scale of G_k never enters the quadrature. For the equicorrelated
t model a further adaptive quadrature over the chi scale V runs outside
the one-factor one.
"""

import math
from itertools import product

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import chdtri, gammaln, log_ndtr, logsumexp, ndtri, stdtrit

from kfwer import (
    ConvergenceError,
    equicorrelated_normal,
    equicorrelated_t,
    factor_normal,
    gen_hochberg_critvals,
    gen_simes_critvals,
    gk_quantiles,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_class_quad(lams, mults, t):
    """log E_Y[prod_j Phi((lam_j Y - t) / sqrt(1 - lam_j^2))^m_j]."""
    lam, mult = np.asarray(lams, dtype=float), np.asarray(mults, dtype=float)
    s = np.sqrt(1.0 - lam * lam)
    a, b = lam / s, t / s

    def h(y):
        return float(mult @ log_ndtr(a * y - b)) - 0.5 * y * y

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
    """log of the subset-averaged G_k(u), one quadrature per composition class."""
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


def _log_gk_t_quad(rho, dof, k, u):
    """log G_k(u) of the equicorrelated t: E_V of the one-factor class at
    threshold q_u V / sqrt(dof), V ~ chi_dof, by adaptive quadrature in V
    on either side of the chi median, cut at the 1 - 1e-18 quantile."""
    q, lam = -stdtrit(dof, u), math.sqrt(rho)
    log_norm = (0.5 * dof - 1.0) * math.log(2.0) + gammaln(0.5 * dof)

    def integrand(v):
        log_density = (dof - 1.0) * math.log(v) - 0.5 * v * v - log_norm
        return math.exp(log_density + _log_class_quad([lam], [k], q * v / math.sqrt(dof)))

    cuts = [0.0, math.sqrt(chdtri(dof, 0.5)), math.sqrt(chdtri(dof, 1e-18))]
    return math.log(sum(
        integrate.quad(integrand, lo_, hi_, epsabs=0.0, epsrel=1e-8, limit=200)[0]
        for lo_, hi_ in zip(cuts, cuts[1:])
    ))


# the four fig4 sets, and one with stronger correlation, larger k and n
T_CASES = [(0.25, dof, 10, 2) for dof in (2, 5, 10, 30)] + [(0.75, 5, 20, 3)]


@pytest.mark.parametrize("rho,dof,n,k", T_CASES, ids=lambda v: str(v))
def test_t_constants_meet_their_targets_to_relative_accuracy(rho, dof, n, k):
    alpha = 0.05
    cset = gen_simes_critvals(n, k, alpha, equicorrelated_t(rho, dof))
    for i in (k, (k + n) // 2, n):
        target = alpha * math.comb(i, k) / math.comb(n, k)
        log_g = _log_gk_t_quad(rho, dof, k, cset.value_at(i))
        assert abs(math.expm1(log_g - math.log(target))) <= 1e-6, (i, cset.value_at(i), target)


def test_t_constants_beyond_the_rule_raise():
    # one degree of freedom, rho = 0.9 and k = 10 near 1e-6: the two rules
    # disagree by percents, so no constant may be returned
    with pytest.raises(ConvergenceError, match="256-node rule"):
        gk_quantiles(equicorrelated_t(0.9, 1), 10, [1e-6, 2e-6, 4e-6])
