"""Reference computations made apart from kfwer, from numpy and scipy only.

Every function here re-derives a quantity the program computes, by a
different route, so the benchmark can check the program's outputs:

- ``log_gk_one_factor``: log G_k(u) for one-factor normal models
  (equicorrelated and the class-averaged factor model), by Gauss-Hermite
  quadrature centred on the mode of the log integrand, built from
  ``log_ndtr`` and combined with ``logsumexp``; it keeps full relative
  accuracy at targets far below 1e-10.
- ``gk_equicorr_t``: G_k(u) for the equicorrelated t model, a 2-D
  Gauss-Hermite x generalized Gauss-Laguerre sum over the common normal
  factor and the chi-square scale.
- ``romano_level``: the binomial tail that defines Romano constants,
  from ``scipy.stats.binom``.
- ``TABLE1`` and ``TABLE2``: the published numbers.
- ``step_decisions``: the step-up and step-down rules written out from
  their definitions.
"""

import math
from functools import lru_cache
from itertools import product

import numpy as np
from scipy import stats
from scipy.special import gammaln, log_ndtr, logsumexp, roots_genlaguerre, roots_hermitenorm

# Sarkar, "Generalizing Simes' test and Hochberg's stepup procedure",
# Ann. Statist. 36 (2008), arXiv:0803.1961, Table 1: generalized Simes
# critical values alpha_i, n = 10, alpha = 0.05; key (rho, k), entries
# i = k..10, printed to four decimals.
TABLE1 = {
    (0.00, 2): (0.0333, 0.0577, 0.0816, 0.1054, 0.1291, 0.1527, 0.1764, 0.2000, 0.2236),
    (0.00, 3): (0.0747, 0.1186, 0.1609, 0.2027, 0.2443, 0.2857, 0.3271, 0.3684),
    (0.25, 2): (0.0177, 0.0345, 0.0525, 0.0716, 0.0914, 0.1120, 0.1331, 0.1548, 0.1769),
    (0.25, 3): (0.0297, 0.0573, 0.0882, 0.1220, 0.1581, 0.1965, 0.2367, 0.2784),
    (0.50, 2): (0.0090, 0.0198, 0.0325, 0.0468, 0.0625, 0.0793, 0.0972, 0.1160, 0.1357),
    (0.50, 3): (0.0108, 0.0257, 0.0449, 0.0686, 0.0961, 0.1273, 0.1619, 0.1998),
    (0.75, 2): (0.0041, 0.0104, 0.0186, 0.0284, 0.0397, 0.0525, 0.0665, 0.0817, 0.0980),
    (0.75, 3): (0.0033, 0.0098, 0.0200, 0.0340, 0.0519, 0.0739, 0.1000, 0.1303),
}
TABLE1_TOL = 5e-4  # half a unit in the fourth decimal, plus rounding slack

# Same source, Table 2: probability of rejecting between 1 and k-1 true
# nulls (all nulls true) with the generalized Simes step-up test,
# alpha = 0.05; key (n, k), entries for rho = 0, 0.25, 0.50, 0.75.
TABLE2_RHOS = (0.00, 0.25, 0.50, 0.75)
TABLE2 = {
    (10, 2): (0.2384, 0.1003, 0.0337, 0.0054),
    (10, 3): (0.4905, 0.1833, 0.0458, 0.0042),
    (20, 2): (0.2273, 0.0783, 0.0200, 0.0012),
    (20, 3): (0.4619, 0.1180, 0.0182, 0.0003),
}

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
GH_NODES = 96


@lru_cache(maxsize=8)
def _hermite(count):
    # nodes and log weights for the weight exp(-z^2/2)
    nodes, weights = roots_hermitenorm(count)
    return nodes, np.log(weights)


def _log_one_factor_integral(lam, mult, t, count):
    """log of E_Y[prod_j Phi((lam_j Y - t) / sqrt(1 - lam_j^2))^mult_j].

    The log integrand h(y) = sum mult_j log Phi(a_j y - b_j) - y^2/2 is
    strictly concave; Newton finds its mode, and Gauss-Hermite nodes are
    placed on the normal that matches h at the mode (Liu and Pierce 1994).
    """
    s = np.sqrt(1.0 - np.square(lam))
    a = lam / s
    b = t / s

    def h_terms(y):
        x = a * y - b
        logcdf = log_ndtr(x)
        mills = np.exp(-0.5 * x * x - _LOG_SQRT_2PI - logcdf)
        h = float(mult @ logcdf) - 0.5 * y * y
        d1 = float(mult @ (a * mills)) - y
        d2 = -float(mult @ (a * a * mills * (x + mills))) - 1.0
        return h, d1, d2

    y = 0.0
    for _ in range(200):
        h, d1, d2 = h_terms(y)
        step = -d1 / d2
        # concave h: a Newton step never overshoots by more than a factor
        # the damping below absorbs
        new_y = y + max(-4.0, min(4.0, step))
        if abs(new_y - y) <= 1e-13 * max(1.0, abs(y)):
            y = new_y
            break
        y = new_y
    _, _, d2 = h_terms(y)
    sigma = 1.0 / math.sqrt(-d2)
    z, logw = _hermite(count)
    yy = y + sigma * z
    x = a[None, :] * yy[:, None] - b[None, :]
    h = log_ndtr(x) @ mult - 0.5 * yy * yy
    return math.log(sigma) - _LOG_SQRT_2PI + float(logsumexp(logw + h + 0.5 * z * z))


def _upper_normal_quantile(u):
    # t with 1 - Phi(t) = u, accurate for u far below machine epsilon
    return -float(stats.norm.ppf(u)) if u < 0.5 else float(stats.norm.isf(u))


def log_gk_equicorr(rho, k, u, count=GH_NODES):
    """log G_k(u) for the equicorrelated normal model."""
    if rho == 0.0:
        return k * math.log(u)
    t = _upper_normal_quantile(u)
    return _log_one_factor_integral(
        np.array([math.sqrt(rho)]), np.array([float(k)]), t, count
    )


def _classes(loadings, k):
    values = sorted(set(loadings))
    counts = [sum(1 for v in loadings if v == w) for w in values]
    out = []
    for picks in product(*(range(min(c, k) + 1) for c in counts)):
        if sum(picks) == k:
            log_weight = sum(math.log(math.comb(c, j)) for c, j in zip(counts, picks))
            out.append((log_weight, np.array(values), np.array(picks, dtype=float)))
    return out


def log_gk_factor(loadings, k, u, count=GH_NODES):
    """log of the subset-averaged G~_k(u) for the one-factor normal model."""
    t = _upper_normal_quantile(u)
    terms = []
    for log_weight, lam, mult in _classes(tuple(loadings), k):
        keep = mult > 0
        terms.append(log_weight + _log_one_factor_integral(lam[keep], mult[keep], t, count))
    return float(logsumexp(terms)) - math.log(math.comb(len(loadings), k))


@lru_cache(maxsize=16)
def _laguerre(count, dof):
    # generalized Laguerre rule for the weight x^(dof/2 - 1) exp(-x)
    nodes, weights = roots_genlaguerre(count, 0.5 * dof - 1.0)
    return nodes, np.log(weights)


def gk_equicorr_t(rho, dof, k, u, y_count=128, w_count=128):
    """G_k(u) for X_i = (sqrt(rho) Y + sqrt(1-rho) Z_i) / sqrt(W/dof), W ~ chi2(dof).

    G_k(u) = E_{W,Y}[Phi((sqrt(rho) Y - q sqrt(W/dof)) / sqrt(1-rho))^k]
    with q the upper-u t quantile. W = s x with x on a generalized
    Gauss-Laguerre rule; the scale s = 2 min(1, 4/q^2) puts the nodes
    where small W drives the event, which for small u and few degrees of
    freedom lies far inside the chi-square's own scale. The sum runs in
    log space. Relative accuracy: about 2e-3 at dof = 2 (the integrand
    has a square-root kink at W = 0), 2e-6 at dof = 5, 1e-10 beyond.
    """
    q = float(stats.t.isf(u, dof))
    s = 2.0 * min(1.0, 4.0 / (q * q))
    a = 0.5 * dof - 1.0
    z, logw_y = _hermite(y_count)
    x, logw_x = _laguerre(w_count, dof)
    # chi-square density at W = s x, times s, over the rule's weight
    logw_w = logw_x + (a + 1.0) * math.log(0.5 * s) + x * (1.0 - 0.5 * s) - gammaln(a + 1.0)
    w = s * x
    arg = (math.sqrt(rho) * z[:, None] - q * np.sqrt(w / dof)[None, :]) / math.sqrt(1.0 - rho)
    terms = k * log_ndtr(arg) + logw_y[:, None] + logw_w[None, :]
    return math.exp(float(logsumexp(terms)) - _LOG_SQRT_2PI)


def romano_level(n, k, i, c):
    """H_{k,m}(c) with m = n - i + k: P(Bin(m, c) >= k)."""
    return float(stats.binom.sf(k - 1, n - i + k, c))


def step_decisions(pvalues, padded, rule):
    """(count, positions) rejected by a rule written out from its definition.

    Ranks are by p-value, ties by position; step-up rejects ranks up to
    the largest i with p_(i) <= c_i, step-down stops before the first j
    with p_(j) >= c_j.
    """
    order = sorted(range(len(pvalues)), key=lambda j: (pvalues[j], j))
    ordered = [pvalues[j] for j in order]
    num = 0
    if rule == "stepup":
        for i in range(len(ordered), 0, -1):
            if ordered[i - 1] <= padded[i - 1]:
                num = i
                break
    else:
        num = len(ordered)
        for j in range(1, len(ordered) + 1):
            if ordered[j - 1] >= padded[j - 1]:
                num = j - 1
                break
    return num, frozenset(order[:num])
