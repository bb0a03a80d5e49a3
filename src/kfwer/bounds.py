"""Probability identity and closed-form bounds for k or more rejections.

The subset-decomposition identity rewrites the stepup union probability
Pr{union over i = k..n of (X_{i:n} <= c_i)} term by term over all size-k
index sets. Both sides are estimated by Monte Carlo here; the two
displayed upper bounds are evaluated in closed form, and the i.i.d. union
probability exactly, so this module acts as an independent oracle for the
critical-value and procedure modules.

Each estimator accepts a sampler that is either a NullModel (drawn via
the chunked model streams, deterministic given the seed) or a callable
(reps, seed) -> (reps, n) array of null p-values, which must be finite
and lie in [0, 1] (ConfigurationError otherwise).
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import binom, xlog1py, xlogy

from .errors import ConfigurationError, ScaleError
from .models import (
    MODEL_SALT, NullModel, checked_pvalues, chunk_rows, cutoffs, decide, draw_null_pvalues,
    independent, score_chunks,
)

__all__ = [
    "CriticalVector",
    "ProbEstimate",
    "union_prob_mc",
    "lemma21_rhs_mc",
    "union_prob_exact_smalln",
    "bound_eq22",
    "bonferroni_eq23",
]

_METHODS = ("monte_carlo", "exact_chain", "closed_form")
EXACT_N_MAX = 200  # largest n of union_prob_exact_smalln, whose chain costs O(n^3)


@dataclass(frozen=True)
class CriticalVector:
    """Constants c_k <= ... <= c_n indexed by rank, one per rank k..n."""

    c: tuple
    k: int
    n: int

    def __post_init__(self):
        k, n = int(self.k), int(self.n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        if k < 1 or n < k:
            raise ConfigurationError(f"need 1 <= k <= n, got k={k}, n={n}")
        c = tuple(float(v) for v in self.c)
        object.__setattr__(self, "c", c)
        if len(c) != n - k + 1:
            raise ConfigurationError(
                f"expected {n - k + 1} constants for ranks {k}..{n}, got {len(c)}"
            )
        if not all(math.isfinite(v) for v in c):
            raise ConfigurationError("constants must be finite")
        if any(hi < lo for lo, hi in zip(c, c[1:])):
            raise ConfigurationError("constants must be nondecreasing")


@dataclass(frozen=True)
class ProbEstimate:
    value: float
    std_error: float
    reps: int
    method: str

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}")
        if not (0.0 <= self.value <= 1.0) or self.std_error < 0.0:
            raise ConfigurationError("estimate outside [0, 1] or negative std error")
        if (self.std_error == 0.0) != (self.method != "monte_carlo"):
            raise ConfigurationError(
                "std_error must be zero exactly for non-Monte-Carlo methods"
            )


def _draw(sampler, n, reps, seed):
    """reps x n null p-values in an array the caller owns and may sort in
    place; a callable's values must lie in [0, 1]."""
    if isinstance(sampler, NullModel):
        return draw_null_pvalues(sampler, n, reps, seed)
    return checked_pvalues(sampler(reps, seed), (reps, n))


def _mc_se(phat: float, reps: int) -> float:
    # floored so a degenerate draw (all hits or none) still reads as Monte Carlo
    return max(math.sqrt(phat * (1.0 - phat) / reps), 1.0 / reps)


def union_prob_mc(sampler, cv: CriticalVector, reps: int, seed: int) -> ProbEstimate:
    """Estimate Pr{X_{i:n} <= c_i for some i in k..n} from null draws.

    The event is a step-up rule rejecting k or more, so rows are drawn and
    decided as scores by models.decide, chunk by chunk: the estimate is
    the one the p-values give, without mapping every score to one.
    """
    reps = int(reps)
    if reps < 10_000:
        raise ConfigurationError("union_prob_mc requires at least 10^4 replications")
    if isinstance(sampler, NullModel):
        model, chunks = sampler, score_chunks(sampler, np.zeros(cv.n), reps, seed, MODEL_SALT)
    else:  # a callable's checked p-values, in chunks of the same size
        pv, step = _draw(sampler, cv.n, reps, seed), chunk_rows(cv.n)
        model, chunks = independent(), (pv[at : at + step] for at in range(0, reps, step))
    # ranks below k get c_k: a step-up hit there alone leaves nrej < k
    cut = cutoffs(model, "stepup", (cv.c[0],) * (cv.k - 1) + cv.c)
    hits = 0
    for rows in chunks:
        [(nrej, _)] = decide(rows, None, [cut])
        hits += int(np.count_nonzero(nrej >= cv.k))
    phat = hits / reps
    return ProbEstimate(phat, _mc_se(phat, reps), reps, "monte_carlo")


def lemma21_rhs_mc(sampler, cv: CriticalVector, reps: int, seed: int) -> ProbEstimate:
    """Estimate the subset-decomposition right-hand side term by term.

    Every conditional-probability factor is folded into a joint event
    (tower property), so each term is a plain mean over the shared
    sample. Per replication the right-hand side sums, over the size-k
    label sets S, a function of the values in S (through their maximum)
    and of the sorted values outside S. That sum depends on the row's
    values only, not on their labels, so it equals the same sum over
    the size-k sets R of rank positions of the sorted row: max over S
    becomes the single sorted column max(R), and the sorted complement
    becomes the sorted columns outside R, in order. Each row is
    therefore sorted once, and every term reads fixed rank columns.

    A term for rank i in k..n-1 takes only the values 0, -1/a_{i+1} and
    1/a_i - 1/a_{i+1} (a_i = C(i, k)), so its mean and sample standard
    deviation follow from two event counts; the rank-n lead term weighs
    the rows by C(#{values <= c_n}, k) / C(n, k). The reported standard
    error adds the per-term errors rather than combining them in
    quadrature: the terms share one sample, and the worst case (perfect
    correlation) is assumed, so by the triangle inequality it bounds the
    standard error of the sum. Summed over rank-indexed terms this bound
    is in practice smaller than the same sum over label-indexed terms.
    """
    n, k = cv.n, cv.k
    if n > 8:
        raise ScaleError("subset enumeration is limited to n <= 8")
    reps = int(reps)
    if reps < 100_000:
        raise ConfigurationError("lemma21_rhs_mc requires at least 10^5 replications")
    pv = _draw(sampler, n, reps, seed)
    pv.sort(axis=1)
    c = np.asarray(cv.c)  # c[idx] holds the rank-(k+idx) constant
    # below[r, idx]: the (r+1)-th smallest value is <= c[idx], one contiguous row
    below = np.ascontiguousarray(pv.T)[:, None, :] <= c[None, :, None]
    above = ~below
    inv_a = [1.0 / math.comb(i, k) for i in range(k, n + 1)]  # indexed by i - k
    sqrt_reps = math.sqrt(reps)

    subsets_below = np.array([math.comb(m, k) for m in range(n + 1)], dtype=float)
    lead = subsets_below[np.count_nonzero(below[:, -1], axis=0)] * inv_a[-1]
    value = float(lead.mean())
    se = float(lead.std(ddof=1)) / sqrt_reps
    alive = np.empty(reps, dtype=bool)
    hit = np.empty(reps, dtype=bool)
    for subset in combinations(range(n), k):
        top = subset[-1]
        comp = [r for r in range(n) if r not in subset]
        alive.fill(True)
        # term ell (rank i = k + ell - 1) needs the ell-th and later smallest
        # complement values above their constants, so walk ell downward
        for ell in range(n - k, 0, -1):
            np.logical_and(alive, above[comp[ell - 1], ell], out=alive)
            at_i = int(np.count_nonzero(np.logical_and(alive, below[top, ell - 1], out=hit)))
            at_next = int(np.count_nonzero(np.logical_and(alive, below[top, ell], out=hit)))
            # at_i rows take 1/a_i - 1/a_{i+1}, at_next - at_i rows take -1/a_{i+1}
            hi, lo = inv_a[ell - 1] - inv_a[ell], -inv_a[ell]
            mean = (at_i * hi + (at_next - at_i) * lo) / reps
            square = at_i * hi * hi + (at_next - at_i) * lo * lo
            value += mean
            se += math.sqrt(max(square - reps * mean * mean, 0.0) / (reps - 1)) / sqrt_reps
    value = min(max(value, 0.0), 1.0)
    return ProbEstimate(value, max(se, 1.0 / reps), reps, "monte_carlo")


def union_prob_exact_smalln(cv: CriticalVector) -> ProbEstimate:
    """Exact union probability for i.i.d. uniform p-values, n <= EXACT_N_MAX.

    With b = (0,)*(k-1) + c, the event is N_i >= i at some rank i, N_i the
    count of p-values at or below b_i. Given N_{i-1} = m, N_i - m is
    Binomial(n - m, (b_i - b_{i-1}) / (1 - b_{i-1})) (Noe 1972). The chain
    carries the law of N_i over the states not yet hit and adds the mass
    that first hits at each rank: a sum of positive terms, so a small
    probability keeps its relative accuracy.
    """
    n, k = cv.n, cv.k
    if n > EXACT_N_MAX:
        raise ScaleError(f"the exact binomial chain is limited to n <= {EXACT_N_MAX}")
    edges = np.clip((0.0,) * (k - 1) + cv.c, 0.0, 1.0)
    m, to = np.ogrid[: n + 1, : n + 1]  # from state m to state to >= m
    step = np.maximum(to - m, 0)
    log_comb = np.where(to >= m, np.log(binom(n - m, step)), -np.inf)
    law, prev, value = np.ones(1), 0.0, 0.0
    for i, edge in enumerate(edges, start=1):
        q = (edge - prev) / (1.0 - prev) if prev < 1.0 else 1.0  # b_{i-1} = 1 left no mass
        flow = law @ np.exp(log_comb[: law.size] + xlogy(step[: law.size], q) + xlog1py(n - to, -q))
        value += flow[i:].sum()
        law, prev = flow[:i], edge
    return ProbEstimate(min(value, 1.0), 0.0, 0, "exact_chain")


def bound_eq22(fk, cv: CriticalVector) -> float:
    """Telescoping upper bound C(n,k)[F_k(c_k) + sum a_i^{-1} increments]."""
    vals = [float(fk(v)) for v in cv.c]
    for lo, hi in zip(vals, vals[1:]):
        if hi < lo - 1e-12:
            raise ConfigurationError("F_k must be nondecreasing across the constants")
    k, n = cv.k, cv.n
    total = vals[0]
    for i in range(k + 1, n + 1):
        total += (vals[i - k] - vals[i - k - 1]) / math.comb(i, k)
    return math.comb(n, k) * total


def bonferroni_eq23(gk_at_ck: float, n: int, k: int) -> float:
    """Generalized Bonferroni bound min(1, C(n,k) G_k(c_k))."""
    n, k = int(n), int(k)
    if k < 1 or n < k:
        raise ConfigurationError(f"need 1 <= k <= n, got k={k}, n={n}")
    g = float(gk_at_ck)
    if not (0.0 <= g <= 1.0):
        raise ConfigurationError(f"G_k value outside [0, 1]: {g!r}")
    return min(1.0, math.comb(n, k) * g)
