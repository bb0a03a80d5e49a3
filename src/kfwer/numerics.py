"""Numerical kernels.

Binomial tail sums, a batched bracketed root finder and a log-sum-exp;
the normal CDF and quantile come from scipy.special (ndtr, ndtri).
"""

import math

import numpy as np
from scipy.special import gammaln

from .errors import BracketingError, ConfigurationError, ConvergenceError, DomainError

__all__ = [
    "find_roots",
    "binomial_tail",
    "logsumexp",
]

# regula falsi steps find_roots takes before it gives up on open roots
MAX_STEPS = 100


def find_roots(f, lo, hi, tol: float) -> np.ndarray:
    """Roots of many increasing functions at once, one per bracket.

    f(x, j) returns the values at the points x of the functions indexed
    by the integer array j; lo and hi bracket the roots, f(lo) <= 0 <=
    f(hi) elementwise. All brackets take regula falsi steps together,
    with the Illinois halving of a stale endpoint value, and a root stops
    once |f| <= tol there. A bracket that does not hold raises
    BracketingError; a root still open after MAX_STEPS steps raises
    ConvergenceError.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    every = np.arange(lo.size)
    flo, fhi = f(lo, every), f(hi, every)
    unbracketed = np.flatnonzero((flo > tol) | (fhi < -tol))
    if unbracketed.size:
        bad = int(unbracketed[0])
        raise BracketingError(
            f"bracket {bad} [{lo[bad]!r}, {hi[bad]!r}] holds no root: "
            f"f(lo)={flo[bad]!r}, f(hi)={fhi[bad]!r}"
        )
    roots = np.where(np.abs(flo) <= np.abs(fhi), lo, hi)
    residual = np.minimum(np.abs(flo), np.abs(fhi))
    moved = np.zeros(lo.size, dtype=int)  # end moved last: -1 lo, +1 hi
    for _ in range(MAX_STEPS):
        j = np.flatnonzero(~(residual <= tol))  # a NaN residual stays open
        if j.size == 0:
            return roots
        a, b, fa, fb = lo[j], hi[j], flo[j], fhi[j]
        x = a - fa * (b - a) / (fb - fa)
        x = np.where((a < x) & (x < b), x, 0.5 * (a + b))
        fx = f(x, j)
        roots[j], residual[j] = x, np.abs(fx)
        left = fx < 0.0
        jl, jr = j[left], j[~left]
        fhi[jl[moved[jl] == -1]] *= 0.5
        flo[jr[moved[jr] == 1]] *= 0.5
        lo[jl], flo[jl], moved[jl] = x[left], fx[left], -1
        hi[jr], fhi[jr], moved[jr] = x[~left], fx[~left], 1
    worst = int(np.argmax(residual))
    raise ConvergenceError(
        f"{int(np.sum(~(residual <= tol)))} roots still open after {MAX_STEPS} steps; "
        f"worst |f|={residual[worst]!r} on [{lo[worst]!r}, {hi[worst]!r}]",
        last_estimates=(lo[worst], hi[worst]),
    )


def logsumexp(a, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along axis for a real array a, by the arithmetic of
    scipy.special.logsumexp (scipy 1.17), so with its bits, without its
    argument handling: the m entries equal to the maximum m0 leave the sum
    s = sum(exp(a - m0)), and the result is log1p(s/m) + log(m) + m0, or
    log(sum(exp(a))) where that is not finite."""
    a = np.asarray(a, dtype=float)
    top = a.max(axis=axis, keepdims=True)
    at_top = a == top
    rest = np.where(at_top, -np.inf, a)  # the maxima leave the sum
    m = np.sum(at_top, axis=axis, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(rest - top), axis=axis, keepdims=True)
        out = np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + top
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)))
    return out.squeeze(axis=axis)


def binomial_tail(m: int, j0: int, u: float) -> float:
    """Upper binomial tail sum_{j=j0}^{m} C(m,j) u^j (1-u)^(m-j).

    Evaluated in log space so large m (the order-statistic constants use
    m up to a few thousand) neither overflows nor underflows.
    """
    if m < 1 or int(m) != m:
        raise ConfigurationError(f"m must be a positive integer, got {m!r}")
    if not (0 <= j0 <= m) or int(j0) != j0:
        raise ConfigurationError(f"j0 must be an integer in [0, {m}], got {j0!r}")
    if not (0.0 <= u <= 1.0):
        raise DomainError(f"u must lie in [0, 1], got {u!r}")
    if j0 == 0:
        return 1.0
    if u == 0.0:
        return 0.0
    if u == 1.0:
        return 1.0
    j = np.arange(j0, m + 1, dtype=float)
    log_terms = (
        gammaln(m + 1.0)
        - gammaln(j + 1.0)
        - gammaln(m - j + 1.0)
        + j * math.log(u)
        + (m - j) * math.log1p(-u)
    )
    return min(1.0, float(np.exp(logsumexp(log_terms, axis=0))))
