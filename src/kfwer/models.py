"""Null dependence models and their joint-maximum CDFs.

A NullModel describes the joint null distribution of the p-values. The
quantity everything else consumes is G_k(u), the common CDF of the
maximum of any k of the p-values, together with its quantile inversion.
Supported kinds:

independent
    G_k(u) = u^k.
equicorrelated_normal
    one-factor normal with common correlation rho; G_k by integrating
    the conditional CDF against the factor.
factor_normal
    loadings lambda_i give correlations lambda_i*lambda_j; size-k subsets
    no longer share one G_k, so the subset average G~_k is used: one
    integral of the mean over size-k subsets, built by a recursion over
    the distinct loadings.
equicorrelated_t
    the equicorrelated normal divided by a shared chi scale; G_k is the
    equicorrelated normal's G_k averaged over that scale.

Every kind is analytic: each constant meets G_k(u) = target to a stated
relative accuracy, or ConvergenceError is raised. The factor and t
integrals are certified by one rule: a trapezoid sum whose step is
halved until two sums agree.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np
from scipy.special import (
    betaincinv, gammaln, log_ndtr, ndtr, ndtri, roots_legendre, stdtr, stdtrit,
)

from .errors import ConfigurationError, ConvergenceError, DomainError, as_float, as_floats, as_int
from .numerics import chebyshev_interpolant, logsumexp, monotone_cubic

__all__ = [
    "RHO_MAX",
    "NullModel",
    "independent",
    "equicorrelated_normal",
    "factor_normal",
    "equicorrelated_t",
    "parse_model",
    "gk_evaluate",
    "gk_quantile",
    "gk_quantiles",
    "log_gk",
    "gk_factor_subset",
    "draw",
    "draw_null_pvalues",
    "draw_scores",
    "chunk_rows",
    "score_chunks",
    "checked_pvalues",
    "pmap",
    "score_model",
    "score_bands",
    "cutoffs",
    "decide",
    "stream_word",
    "substream",
    "BLOCK",
    "MODEL_SALT",
]

# The equicorrelated integrand divides by sqrt(1 - rho); values beyond
# 0.99 are outside the supported range rather than silently inaccurate.
RHO_MAX = 0.99

KINDS = (
    "independent",
    "equicorrelated_normal",
    "factor_normal",
    "equicorrelated_t",
)


@dataclass(frozen=True)
class NullModel:
    kind: str
    rho: float = 0.0
    loadings: tuple = ()
    dof: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown model kind {self.kind!r}")
        if self.kind in ("equicorrelated_normal", "equicorrelated_t"):
            if not (0.0 <= self.rho <= RHO_MAX):
                raise ConfigurationError(
                    f"rho must lie in [0, {RHO_MAX}], got {self.rho!r}"
                )
        if self.kind == "factor_normal":
            if not self.loadings:
                raise ConfigurationError("factor model requires at least one loading")
            if not all(0.0 < lam < 1.0 for lam in self.loadings):
                raise ConfigurationError("factor loadings must lie strictly in (0, 1)")
        if self.kind == "equicorrelated_t" and self.dof < 1:
            raise ConfigurationError(f"dof must be a positive integer, got {self.dof!r}")

    def describe(self) -> str:
        """The model as a parse_model string, which parses back to an equal
        model for the independent, equicorrelated and t kinds. A factor
        model's loadings have no string form (the string reads them from a
        file), so it is described by its size, factor:n=N."""
        if self.kind == "equicorrelated_normal":
            return f"equicorr:{self.rho!r}"
        if self.kind == "factor_normal":
            return f"factor:n={len(self.loadings)}"
        if self.kind == "equicorrelated_t":
            return f"t:{self.rho!r}:{self.dof}"
        return self.kind


def independent() -> NullModel:
    return NullModel(kind="independent")


def equicorrelated_normal(rho: float) -> NullModel:
    return NullModel(kind="equicorrelated_normal", rho=as_float("rho", rho))


def factor_normal(loadings) -> NullModel:
    return NullModel(kind="factor_normal", loadings=as_floats("loadings", loadings))


def equicorrelated_t(rho: float, dof: int) -> NullModel:
    """Equicorrelated normal with correlation rho over a shared chi_dof / sqrt(dof)
    scale: every margin is t with dof degrees of freedom."""
    return NullModel(kind="equicorrelated_t", rho=as_float("rho", rho), dof=as_int("dof", dof))


# kind -> (constructor, ordered fields): one grammar for the string form
# kind:f1:f2... and the JSON form {"kind": ..., "f1": ..., ...}
_SPEC_KINDS = {
    "independent": (independent, ()),
    "equicorr": (equicorrelated_normal, ("rho",)),
    "factor": (factor_normal, ("loadings",)),
    "t": (equicorrelated_t, ("rho", "dof")),
}

# t:RHO:DOF:SAMPLES:SEED named the sample store G_k of the t model was once
# estimated from; the two fields are still checked, then dropped with a warning
_LEGACY_T_FIELDS = ("samples", "seed")


def _drop_legacy_t_fields(spec: dict):
    as_int("sample_size", spec["samples"])
    as_int("seed", spec["seed"])
    warnings.warn(
        "the samples and seed fields of a t model are unused (G_k of the t model is "
        "computed by quadrature) and will be refused in a later release; write t:RHO:DOF",
        FutureWarning, stacklevel=3,
    )


def _read_loadings(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().replace(",", " ").split()
    if not tokens:
        raise ConfigurationError(f"{path}: no loadings found")
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}")


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_model(spec) -> NullModel:
    """A NullModel from its string or JSON (dict) spec.

    Strings are independent | equicorr:RHO | factor:FILE | t:RHO:DOF,
    where FILE holds the loadings separated by commas or whitespace; a
    dict names the same fields as keys beside "kind". The constructors
    check each value. The older t:RHO:DOF:SAMPLES:SEED form (keys samples
    and seed) still parses, with a FutureWarning that those are unused.
    """
    if isinstance(spec, str):
        kind, *fields = spec.split(":")
        names = _SPEC_KINDS[kind][1] if kind in _SPEC_KINDS else None
        if kind == "t" and len(fields) == len(names) + len(_LEGACY_T_FIELDS):
            names += _LEGACY_T_FIELDS
        if names is None or len(fields) != len(names):
            raise ConfigurationError(
                f"bad model spec {spec!r}; expected independent | equicorr:RHO | "
                "factor:FILE | t:RHO:DOF"
            )
        convert = _read_loadings if kind == "factor" else _number
        try:
            spec = {"kind": kind, **{name: convert(text) for name, text in zip(names, fields)}}
        except ValueError:
            raise ConfigurationError(f"bad numeric field in model spec {spec!r}")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError("model must be an object with a 'kind' key")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _SPEC_KINDS:
        raise ConfigurationError(
            f"unknown model kind {kind!r}; expected one of {sorted(_SPEC_KINDS)}"
        )
    build, names = _SPEC_KINDS[kind]
    keys = set(spec) - {"kind"}
    if kind == "t" and keys == {*names, *_LEGACY_T_FIELDS}:
        _drop_legacy_t_fields(spec)
        keys -= set(_LEGACY_T_FIELDS)
    if keys != set(names):
        raise ConfigurationError(
            f"model kind {kind!r} takes keys {sorted(names)}, got {sorted(keys)}"
        )
    return build(*(spec[name] for name in names))


# ---------------------------------------------------------------------------
# seeded sampling

# Replications are drawn in fixed blocks of BLOCK rows; block b of a
# (seed, salt) pair has its own SFC64 stream, so any row depends only on
# (model, mu, seed, salt, row), never on n, the chunking or the threads.
BLOCK = 1024

# Distinct salts keep substreams from different subsystems disjoint even
# when a user reuses one seed across them.
MODEL_SALT = 0x6D6F646C


def stream_word(seed: int, salt: int) -> int:
    ss = np.random.SeedSequence((int(seed), int(salt)))
    return int(ss.generate_state(1, np.uint64)[0])


def substream(word: int, index: int) -> np.random.Generator:
    """The substream of (word, index): SFC64 seeded by SeedSequence((word, index))."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((word, index))))


def _fill_scores(model: NullModel, mu: np.ndarray, span: slice, g: np.random.Generator,
                 out: np.ndarray):
    """Fill out (BLOCK rows) with the scores of one block's stream, in the
    order draw_scores documents. mu is subtracted over span, its first to
    its last nonzero entry, only: elsewhere s - 0.0 = s."""
    if model.kind == "independent":
        if span.stop:  # some mu_j != 0
            g.standard_normal(out=out)
            out[:, span] -= mu[span]
        else:
            g.random(out=out)
        return
    normals = g.standard_normal((BLOCK, mu.size + 1))
    lam = np.asarray(model.loadings[: mu.size]) if model.kind == "factor_normal" else math.sqrt(model.rho)
    # s = -x for x = lam f + sqrt(1 - lam^2) e (scaled, plus mu), built with
    # the signs moved inside: rounding is symmetric, so the bits are those of -x
    np.multiply(normals[:, 1:], -np.sqrt(1.0 - np.square(lam)), out=out)
    out -= lam * normals[:, :1]
    if model.kind == "equicorrelated_t":
        out /= np.sqrt(g.chisquare(model.dof, BLOCK) / model.dof)[:, None]
    out[:, span] -= mu[span]


def draw_scores(model: NullModel, mu, start: int, stop: int, seed: int, salt: int) -> np.ndarray:
    """Scores of replications start..stop-1, one row each, len(mu) columns.

    A score s is a monotone statistic of its p-value: p =
    pmap(score_model(model, mu), s), nondecreasing in s. Block b = row // BLOCK draws from
    substream(stream_word(seed, salt), b); start and stop must be multiples
    of BLOCK. Per block, by model kind: independent with mu = 0 draws
    BLOCK x n uniforms, and the score is that null p-value itself;
    independent with any mu_j != 0 draws BLOCK x n standard normals z,
    row-major, and scores s = z - mu; the normal kinds draw BLOCK x (n+1)
    standard normals, row-major with the common factor first, form x, add
    mu and score s = -x; the t kind draws the same normals, then BLOCK
    chi-squares, scales x, adds mu and scores s = -x.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim != 1 or mu.size < 1:
        raise ConfigurationError(f"mu must be a vector of length n >= 1, got shape {mu.shape}")
    if not np.all(np.isfinite(mu)):
        raise ConfigurationError("mu must be finite")
    start, stop = int(start), int(stop)
    if start < 0 or start % BLOCK or stop % BLOCK:
        raise ConfigurationError(
            f"start and stop must be nonnegative multiples of BLOCK={BLOCK}, got {start}, {stop}"
        )
    if stop <= start:
        raise ConfigurationError(f"count must be positive, got stop - start = {stop - start}")
    if not isinstance(model, NullModel):
        raise ConfigurationError(f"cannot sample from {model!r}")
    if model.kind == "factor_normal" and mu.size > len(model.loadings):
        raise ConfigurationError(
            f"factor model has {len(model.loadings)} loadings, requested {mu.size}"
        )
    word = stream_word(seed, salt)
    nonzero = np.flatnonzero(mu)
    span = slice(nonzero[0], nonzero[-1] + 1) if nonzero.size else slice(0, 0)
    out = np.empty((stop - start, mu.size))
    for row in range(0, stop - start, BLOCK):
        _fill_scores(model, mu, span, substream(word, (start + row) // BLOCK),
                     out[row : row + BLOCK])
    return out


def score_model(model: NullModel, mu) -> NullModel:
    """The model whose p-map reads draw_scores(model, mu, ...): the rho = 0
    equicorrelated normal for an independent model with any mu_j != 0,
    whose scores are normal, and the model itself otherwise."""
    if model.kind == "independent" and np.any(mu):
        return equicorrelated_normal(0.0)
    return model


def pmap(model: NullModel, scores: np.ndarray) -> np.ndarray:
    """Map a model's scores to p-values in place and return the array:
    ndtr(s) for the normal kinds, stdtr(dof, s) for the t kind, and the
    identity for the independent kind, whose null-only scores are
    p-values. The scores of draw_scores(model, mu, ...) are read by
    pmap(score_model(model, mu), .)."""
    if model.kind == "equicorrelated_t":
        stdtr(model.dof, scores, out=scores)
    elif model.kind != "independent":
        ndtr(scores, out=scores)
    return scores


def draw(model: NullModel, mu, start: int, stop: int, seed: int, salt: int) -> np.ndarray:
    """P-values of replications start..stop-1: the p-map of
    score_model(model, mu) applied to draw_scores.

    So p = ndtr(-x) for the normal kinds, p = stdtr(dof, -x) for the t
    kind, and for independent the uniforms when mu = 0, else ndtr(z - mu).
    """
    scores = draw_scores(model, mu, start, stop, seed, salt)
    return pmap(score_model(model, mu), scores)


def chunk_rows(n: int) -> int:
    """Replications per pass of a Monte Carlo loop over n columns: whole
    blocks, 1 to 32 of them, about 4 million values at most."""
    return BLOCK * max(1, min(32, 4_000_000 // (n * BLOCK)))


def score_chunks(model: NullModel, mu, reps: int, seed: int, salt: int):
    """The scores of replications 0..reps-1 in passes of chunk_rows(len(mu))
    rows: each pass draws whole blocks and yields its leading rows."""
    step = chunk_rows(len(mu))
    for start in range(0, reps, step):
        stop = -(-min(reps, start + step) // BLOCK) * BLOCK
        yield draw_scores(model, mu, start, stop, seed, salt)[: reps - start]


def draw_null_pvalues(model: NullModel, n_cols: int, count: int, seed: int):
    """count x n_cols null p-values: the first count rows of the model stream."""
    whole = -(-int(count) // BLOCK) * BLOCK
    return draw(model, np.zeros(n_cols), 0, whole, seed, MODEL_SALT)[:count]


def checked_pvalues(values, shape: tuple) -> np.ndarray:
    """A float64 copy of a sampler's output; ConfigurationError unless it
    has the given shape and finite values in [0, 1]."""
    out = np.array(values, dtype=np.float64)
    if out.shape != shape:
        raise ConfigurationError(f"sampler returned shape {out.shape}, expected {shape}")
    if not np.isfinite(out).all():
        raise ConfigurationError("sampler returned non-finite p-values")
    if not ((out >= 0.0) & (out <= 1.0)).all():
        raise ConfigurationError("sampler returned p-values outside [0, 1]")
    return out


# ---------------------------------------------------------------------------
# score-domain decisions
#
# Every rule is a count of p-values at or below constants, and a count
# does not change under the nondecreasing p-map, so the rules decide on
# sorted scores against score edges of the constants. A p-map computed in
# floating point is not monotone everywhere: each edge therefore carries
# a band of scores on which P(s) <= c is not settled, and a row with a
# sorted score inside its rank's band is decided on its p-values.

# A crossing of P(s) <= c is settled from a window of 2 BAND_ULPS floats
# on each side of it. Over 3,000 constants from 1e-15 to 0.9, ndtr and
# stdtr (dof 1 to 100) disagreed with the monotone answer at most 6 ulps
# from the crossing.
BAND_ULPS = 32
_SIGN = np.int64(-(2**63))
_KEY_INF = np.int64(0x7FF0000000000000)  # the key of inf; -_KEY_INF is -inf


def _key(x: np.ndarray) -> np.ndarray:
    """Float64 values as int64 keys in the order of the floats (-0.0 and
    0.0 share key 0); _float inverts it."""
    bits = x.view(np.int64)
    return np.where(bits < 0, _SIGN - bits, bits)


def _float(key: np.ndarray) -> np.ndarray:
    return np.where(key < 0, _SIGN - key, key).view(np.float64)


def score_bands(model: NullModel, c, strict: bool = False):
    """Score edges (lo, hi) of the constants c for P = pmap(model, .).

    P(s) <= c_i for every float s < lo_i, and P(s) > c_i for every s >
    hi_i; scores in [lo_i, hi_i] are unsettled (an empty band has lo_i >
    hi_i). With strict the comparison is P(s) < c_i, taken as P(s) <= the
    float below c_i. Per constant, the 2 BAND_ULPS + 1 floats on each side
    of the quantile of c_i are scanned: lo_i is the first that misses and
    hi_i the last that meets. Where the crossing does not lie BAND_ULPS
    or more inside that window, a bisection over the float bit patterns
    finds a first score with P(s) > c_i and the window is scanned around
    it instead. Lowering lo or raising hi keeps both statements true, so
    the edges are made nondecreasing that way. Uniform scores are
    p-values, with the empty band lo = the float above c, hi = c.
    """
    c = np.array(c, dtype=np.float64, ndmin=1)
    if strict:
        c = np.nextafter(c, -np.inf)
    if model.kind == "independent":
        return np.nextafter(c, np.inf), c
    offsets = np.arange(-2 * BAND_ULPS, 2 * BAND_ULPS + 1)

    def scan(keys, c):
        window = np.clip(keys[:, None] + offsets, -_KEY_INF, _KEY_INF)
        return window, pmap(model, _float(window)) <= c[:, None]

    guess = stdtrit(model.dof, c) if model.kind == "equicorrelated_t" else ndtri(c)
    window, ok = scan(_key(guess), c)
    wide = ~(ok[:, :BAND_ULPS].all(axis=1) & ~ok[:, -BAND_ULPS:].any(axis=1))
    if wide.any():
        # bisection over every float, from P(-inf) = 0 <= c to P(inf) = 1 > c
        far = c[wide]
        lo = np.full(far.size, -_KEY_INF)
        hi = -lo
        while np.any(hi.view(np.uint64) - lo.view(np.uint64) > 1):  # unsigned: no overflow
            mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
            up = pmap(model, _float(mid)) > far
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        window[wide], ok[wide] = scan(hi, far)
    rows = np.arange(c.size)
    first_miss = window[rows, ok.argmin(axis=1)]
    last_meet = window[rows, window.shape[1] - 1 - ok[:, ::-1].argmax(axis=1)]
    lo = _float(np.where(ok.all(axis=1), _KEY_INF, first_miss))
    hi = _float(np.where(ok.any(axis=1), last_meet, -_KEY_INF))
    return np.minimum.accumulate(lo[::-1])[::-1], np.maximum.accumulate(hi)


@dataclass(frozen=True, eq=False)
class Cutoffs:
    """A rule's constants c as score edges of one model (see score_bands);
    every score at or above clear_i = max(lo_i, the float above hi_i) is
    at least lo_i and outside the band of c_i."""

    model: NullModel
    rule: str  # "stepup", "stepdown" or "single"
    c: tuple  # one constant per rank, or the one constant of a single-step rule
    lo: np.ndarray
    hi: np.ndarray
    clear: np.ndarray


@lru_cache(maxsize=256)
def cutoffs(model: NullModel, rule: str, c) -> Cutoffs:
    """The Cutoffs of a rule with constants c (a tuple, or one float):
    step-down compares p < c_i, the other rules p <= c_i."""
    lo, hi = score_bands(model, c, strict=rule == "stepdown")
    clear = np.maximum(lo, np.nextafter(hi, np.inf))
    for edges in (lo, hi, clear):
        edges.setflags(write=False)  # the cache hands these to every caller
    return Cutoffs(model, rule, c, lo, hi, clear)


# Rows of at least this many columns are decided on their leading columns
# only (decide). The column minima cost about one rule's comparisons, so
# the bound pays only where most columns cannot reject. On a 2-CPU x86-64
# host, for the three step-up rules of fig2 and fig5 at n1/n from 0.1 to
# 0.9, it saved 10 % at n = 100 (and lost at n1 = 90) but 35-40 % at
# n = 256 and at n = 1000, at every n1.
BOUND_COLUMNS = 256


def decide(rows: np.ndarray, few, cuts) -> list:
    """Sort rows (scores of cut.model, one replication each) in place, and
    for each Cutoffs in cuts give every row's rejection count nrej and how
    many of few's columns (the same rows' unsorted scores at some
    hypotheses) are rejected, or None without few.

    On a sorted row, step-up rejects the largest i with s_(i) < lo_i,
    step-down the i before the first s_(i) >= lo_i, single-step every
    s_j < lo; the rejected set is {j : s_j <= s_(nrej)}, which the
    no-straddle identities of simlab.run_experiment make exact. If no
    sorted score lies in its rank's band, every rank-matched comparison is
    settled, so these are the counts the p-values give. A row with one
    inside is mapped to p-values and run through this kernel again, with
    the empty bands of p-values.

    Rows of BOUND_COLUMNS or more columns are decided on their first m
    columns only, where m is the last rank i whose column minimum over the
    chunk lies below clear_i (0 if none). Past m every sorted score is at
    least lo_i and above hi_i, so no score there lies in a band; step-up
    rejects at no rank past m; step-down fails at rank m + 1 on every row,
    so nrej <= m, and nrej = m where the first m ranks all pass; and
    single-step counts nothing past m. The p-value fallback decides the
    same m columns and is exact there: as hi is nondecreasing, a score
    past m lies above the hi of its own rank and of every lower one, so
    its p-value misses those constants and is never among the rejected.
    """
    rows.sort(axis=1)
    n = rows.shape[1]
    if n < BOUND_COLUMNS:
        return [_decide_sorted(rows, few, cut) for cut in cuts]
    colmin = rows.min(axis=0)  # nondecreasing, as the rows are sorted
    out = []
    for cut in cuts:
        reach = np.flatnonzero(colmin < cut.clear[:n])
        # m = 0 is decided on one column: it fails on every row
        m = reach[-1] + 1 if reach.size else 1
        out.append(_decide_sorted(rows[:, :m], few, cut))
    return out


def _decide_sorted(rows, few, cut):
    """decide on sorted rows, against the edges of their first n ranks."""
    n = rows.shape[1]
    index = np.arange(rows.shape[0])
    lo, hi = cut.lo[:n], cut.hi[:n]  # a single-step rule has one edge
    if cut.rule == "stepup":
        # the first True of the reversed comparisons is the largest i meeting
        rev = rows[:, ::-1] < lo[::-1]
        last = rev.argmax(axis=1)
        nrej = np.where(rev[index, last], n - last, 0)
    elif cut.rule == "stepdown":
        failed = rows >= lo
        first = failed.argmax(axis=1)
        nrej = np.where(failed[index, first], first, n)
    else:
        nrej = (rows < lo).sum(axis=1)
    hits = None
    if few is not None:
        thr = np.where(nrej > 0, rows[index, nrej - 1], -np.inf)
        hits = (few <= thr[:, None]).sum(axis=1)
    lo, hi = np.broadcast_to(lo, (n,)), np.broadcast_to(hi, (n,))
    band = np.flatnonzero(lo <= hi)
    if band.size:  # never for p-values
        unsettled = np.flatnonzero(
            ((rows[:, band] >= lo[band]) & (rows[:, band] <= hi[band])).any(axis=1))
        if unsettled.size:
            p_few = None if few is None else pmap(cut.model, few[unsettled])
            p_cut = cutoffs(independent(), cut.rule, cut.c)
            [(nrej[unsettled], p_hits)] = decide(pmap(cut.model, rows[unsettled]), p_few, [p_cut])
            if few is not None:
                hits[unsettled] = p_hits
    return nrej, hits


# ---------------------------------------------------------------------------
# G_k evaluation and inversion

# Gauss-Legendre nodes on each side of the mode of the one-factor log
# integrand, and the fall of that log integrand at which each side is cut.
# Against adaptive quadrature the worst relative error of G_k over
# rho <= 0.99, k <= 10^4 and 1e-300 <= u <= 0.9 is 2e-10.
NODES = 48
_DROP = 40.0
_UNIT_NODES, _UNIT_WEIGHTS = 0.5 * (np.array(roots_legendre(NODES)) + [[1.0], [0.0]])  # on [0, 1]
# The factor and t kinds are certified instead by _halved_sum, to LOG_TOL
# in log in at most MAX_HALVINGS halvings, on about _CHUNK floats a pass;
# the factor sum starts at _SUBSET_STEPS steps. Its recursion runs on
# p_g / max p scaled exactly by 2^(_SUBSET_EXP // k), so no k-product
# passes 2^_SUBSET_EXP < the largest float and that much more room lies
# above 0.
LOG_TOL, MAX_HALVINGS, _CHUNK = 1e-11, 7, 1 << 16
_SUBSET_STEPS, _SUBSET_EXP = 48, 1000
# the solver stops on |log G_k(u) - log target| <= ROOT_TOL
ROOT_TOL = 1e-10
# gk_quantiles tables log G_k at clip(m, TABLE_FLOOR, TABLE_NODES) points for
# m targets, polishes its starts on the table's polynomial, then takes at
# most MAX_PASSES exact passes (one certifies most sets); bisection closes a
# bracket [log t, log t / k] onto adjacent floats in about 54 + log2 k
TABLE_FLOOR, TABLE_NODES = 32, 128
MAX_PASSES = 100
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _validate_k(k):
    if int(k) != k or k < 1:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}")
    return int(k)


def _bounded(model: NullModel, k: int, u: np.ndarray, log_g: np.ndarray) -> np.ndarray:
    """log_g clipped into [k log u, log u], the bounds positive dependence
    gives every kind; ConvergenceError where it lies more than LOG_TOL
    outside them."""
    log_u = np.log(u)
    low = k * log_u
    inside = (log_g >= low - LOG_TOL) & (log_g <= log_u + LOG_TOL)
    if not inside.all():
        i = np.flatnonzero(~inside)[0]
        raise ConvergenceError(
            f"model {model.describe()}, k={k}, u={float(u.flat[i])!r}: log G_k(u) is "
            f"{float(log_g.flat[i])!r}, outside [k log u, log u]")
    return np.maximum(np.minimum(log_g, log_u), low)


def _mode_and_cuts(a: np.ndarray, b: np.ndarray, mult: np.ndarray):
    """The mode y* of h(y) = sum_j mult_j log Phi(a_j y - b_j) - y^2/2, per
    row of b, and the distances (d-, d+) from y* at which h has fallen by
    _DROP, as the two columns of an array. h is strictly concave with
    h'' <= -1: Newton finds y*, then both cuts in one loop, each from
    inside sqrt(2 _DROP), which h'' <= -1 makes a bound. Every entry stops
    moving once its own step is small, so it takes the steps it would take
    alone, whatever entries are evaluated beside it.
    """
    # y* < (max(b, 0) + 1) sum_j sqrt(mult_j), over twice the bound the Mills
    # ratio gives, and a step moves y at most 4
    reach = (float(b.max(initial=0.0)) + 1.0) * float(np.sqrt(mult).sum())
    steps = 200 + (int(reach) // 4 if reach < math.inf else 0)
    a, b = a[..., None, :], b[:, None, :]  # one row of x per column of y

    def derivatives(y, second=True):
        x = a * y[..., None] - b
        log_cdf = log_ndtr(x)
        mills = np.exp(-0.5 * x * x - _LOG_SQRT_2PI - log_cdf)
        h, d1 = log_cdf @ mult - 0.5 * y * y, (a * mills) @ mult - y
        if not second:
            return h, d1
        return h, d1, -(a * a * mills * (x + mills)) @ mult - 1.0

    y, done = np.zeros((b.shape[0], 1)), np.zeros((b.shape[0], 1), dtype=bool)
    for _ in range(steps):
        _, d1, d2 = derivatives(y)
        step = np.where(done, 0.0, np.clip(d1 / -d2, -4.0, 4.0))
        y += step
        done |= np.abs(step) <= 1e-10 * (1.0 + np.abs(y))
        if done.all():
            break
    else:
        raise ConvergenceError(f"mode of the one-factor integrand not found in {steps} Newton steps")
    peak, _, d2 = derivatives(y)
    # h - peak + _DROP is concave in d: Newton from either side of its root
    # lands right of it, then falls monotonically onto it
    sign = np.array([-1.0, 1.0])
    d = np.minimum(np.sqrt(2.0 * _DROP / -d2), math.sqrt(2.0 * _DROP)).repeat(2, axis=1)
    done = np.zeros(d.shape, dtype=bool)
    for _ in range(100):
        h, d1 = derivatives(y + sign * d, second=False)
        step = np.where(done, 0.0, (h - peak + _DROP) / (sign * d1))
        d = np.minimum(d - step, math.sqrt(2.0 * _DROP))
        done |= np.abs(step) <= 1e-3 * d
        if done.all():
            break
    return y[:, 0], d


def _log_one_factor(lam: np.ndarray, mult: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log E_Y[prod_j Phi((lam_j Y - t) / sqrt(1 - lam_j^2))^mult_j] for each t:
    each side of the mode of the log integrand, out to its cut
    (_mode_and_cuts), by NODES-point Gauss-Legendre, and the 2 NODES terms
    log d + log w + h of both sides summed by one logsumexp, so the
    relative accuracy holds however small G_k is."""
    s = np.sqrt(1.0 - np.square(lam))
    a = lam / s
    b = t[:, None] / s
    y, d = _mode_and_cuts(a, b, mult)
    yy = y[:, None, None] + (np.array([-1.0, 1.0]) * d)[..., None] * _UNIT_NODES
    h = log_ndtr(a * yy[..., None] - b[:, None, None, :]) @ mult - 0.5 * yy * yy
    terms = np.log(d)[..., None] + np.log(_UNIT_WEIGHTS) + h
    return logsumexp(terms.reshape(t.size, 2 * NODES), axis=1) - _LOG_SQRT_2PI


def _halved_sum(log_f, lo, hi, step, where, unit):
    """log of the trapezoid sum, step times the sum of exp(log_f), of each
    row over its grid points lo..hi (integers, in units of its first step),
    the step halved until two sums agree to LOG_TOL in log; a row still
    open after MAX_HALVINGS raises ConvergenceError, named by where(row).

    log_f(rows, at) is the log integrand of the rows at the points at, one
    column per row, counted in units of step / 2^MAX_HALVINGS (unit names
    that step's variable); a halving takes it only at the new midpoints.
    Each row is summed in order over its own points, so its bits do not
    depend on the rows beside it.
    """
    fine = 1 << MAX_HALVINGS
    lo, hi, step = np.broadcast_arrays(lo, hi, step)

    def log_sum(rows, first, stride, count):  # of the points first + stride c, c < count
        total = np.empty(rows.size)
        size = max(1, _CHUNK // int(count.max(initial=1)))  # rows per pass
        for part in (slice(s, s + size) for s in range(0, rows.size, size)):
            cols = np.arange(count[part].max())[:, None]
            at = first[part] + stride * np.minimum(cols, count[part] - 1)  # pad: its last point
            g = np.where(cols < count[part], log_f(rows[part], at), -np.inf)  # padding adds 0
            # numpy sums a leading axis in order over two or more columns, one pairwise
            wide = g if g.shape[1] > 1 else np.hstack((g, g))
            total[part] = logsumexp(wide, axis=0)[: g.shape[1]]
        return total

    out, rows = np.empty(lo.size), np.arange(lo.size)
    total = log_sum(rows, lo * fine, fine, hi - lo + 1)
    for halving in range(MAX_HALVINGS):
        stride = fine >> (halving + 1)
        mids = log_sum(rows, lo * fine + stride, 2 * stride, (hi - lo) << halving)
        last, total = total, np.logaddexp(total, mids)
        with np.errstate(invalid="ignore"):  # a sum of 0 twice settles, to -inf
            done = ~(np.abs(total - last - math.log(2.0)) > LOG_TOL)
        out[rows[done]] = total[done] + np.log(step[rows[done]] * (stride / fine))
        rows, lo, hi, total = rows[~done], lo[~done], hi[~done], total[~done]
        if not rows.size:
            return out
    raise ConvergenceError(f"{where(rows[0])}: not settled to {LOG_TOL:g} in log by step "
                           f"{step[rows[0]] / fine:g} in {unit}")


def _log_subset_mean(lam: np.ndarray, counts: tuple, k: int, u: np.ndarray) -> np.ndarray:
    """log of the mean over size-k subsets S of E_Y[prod_{j in S} p_j(Y)],
    p_g(y) = Phi((lam_g y - t) / sqrt(1 - lam_g^2)), t = -Phi^-1(u), for
    distinct loadings lam_g held counts[g] times. At each point the mean
    over m-subsets, m <= k, is built group by group with hypergeometric
    weights (Chen, Dempster and Liu, Biometrika 81, 1994), from each p_g
    over the largest, so every term is positive and bounded (see
    _SUBSET_EXP). _halved_sum sums it over the hull of the windows of
    p_g^k phi, from _SUBSET_STEPS steps to _SUBSET_STEPS 2^MAX_HALVINGS,
    or raises ConvergenceError.
    """
    s = np.sqrt(1.0 - np.square(lam))
    a, b = lam / s, -ndtri(u)[:, None] / s
    y, d = _mode_and_cuts(np.tile(a, u.size)[:, None], b.reshape(-1, 1), np.array([float(k)]))
    lo, hi = (y - d[:, 0]).reshape(b.shape).min(axis=1), (y + d[:, 1]).reshape(b.shape).max(axis=1)
    # per group, (j, m0, w): w[i] = C(c, j) C(seen, m - j) / C(seen + c, m),
    # the weight of p_g^j in the mean over m = m0 + i subsets, with C(seen,
    # m - j) > 0; the last group makes only m = k
    steps, seen = [[] for _ in counts], 0
    for g, c in enumerate(counts):
        for j in range(min(c, k) + 1):
            m0 = k if g == len(counts) - 1 else j
            w = [math.comb(c, j) * math.comb(seen, m - j) / math.comb(seen + c, m)
                 for m in range(m0, min(k, seen + j) + 1)]
            if w:
                steps[g].append((j, m0, np.array(w)[:, None]))
        seen += c
    scale = _SUBSET_EXP // k  # q_g = 2^scale p_g / max p, exactly
    size = max(1, _CHUNK // (k + 1))  # points per pass of the recursion

    def log_f(rows, at):
        row = np.broadcast_to(rows, at.shape).ravel()
        points = (lo[rows] + (hi - lo)[rows] * (at / (_SUBSET_STEPS << MAX_HALVINGS))).ravel()
        out = np.empty(points.size)
        for part in (slice(s, s + size) for s in range(0, points.size, size)):
            i, yy = row[part], points[part]

            def arg(g):  # p_g = Phi(arg(g)), made one group at a time
                return a[g] * yy - b[i, g]

            log_top = log_ndtr(reduce(np.maximum, map(arg, range(a.size))))  # the largest p_g
            mean = np.zeros((k + 1, yy.size))
            mean[0] = 1.0
            new, term = np.empty_like(mean), np.empty_like(mean)
            for g, group in enumerate(steps):
                q = np.ldexp(np.exp(log_ndtr(arg(g)) - log_top), scale)
                new.fill(0.0)
                power = None
                for j, m0, w in group:  # consecutive j
                    power = q**j if power is None else np.multiply(power, q, out=power)
                    np.multiply(mean[m0 - j : m0 - j + w.size], power, out=term[: w.size])
                    term[: w.size] *= w
                    new[m0 : m0 + w.size] += term[: w.size]
                mean, new = new, mean
            fraction, exponent = np.frexp(mean[k])  # log of the mean without 2^(k scale)
            with np.errstate(divide="ignore"):  # a mean of 0 adds nothing
                h = np.log(fraction) + (exponent - k * scale) * math.log(2.0)
            out[part] = h + k * log_top - 0.5 * yy * yy - _LOG_SQRT_2PI
        return out.reshape(at.shape)

    def where(row):
        return f"G_{k} of model factor:n={sum(counts)} at u={float(u[row])!r}"

    return _halved_sum(log_f, 0, _SUBSET_STEPS, (hi - lo) / _SUBSET_STEPS, where, "Y")


# The t kind's outer integral is a trapezoid sum in r = log|tau| on the
# grid _T_LO + i T_STEP, halved by _halved_sum. The grid [_T_LO, _T_HI]
# holds the window of every float u, also next to 1/2 and to 1. L is
# taken at |tau| clipped to [e^_T_FLAT, e^_T_TOP]; outside it L is L(0)
# to double precision below, and 0 above for tau < 0, while the grid for
# tau > 0 ends at _T_TOP.
T_STEP, _T_LO, _T_FLAT, _T_TOP, _T_HI = 0.25, -100.0, -50.0, 4.25, 40.0


def _log_gk_t(model: NullModel, k: int, u: np.ndarray) -> np.ndarray:
    """log G_k(u) of the equicorrelated t, the one-factor normal integral
    mixed over the chi scale (Genz and Bretz, Computation of Multivariate
    Normal and t Probabilities, 2009): G_k(u) = E_V[exp L(q_u V / sqrt(dof))],
    V ~ chi_dof, q_u the upper-u t quantile, L(tau) = _log_one_factor(
    sqrt(rho), k, tau). In r the log integrand is L(+-e^r) + dof (r - c_u)
    - e^(2 (r - c_u)) / 2 + const, c_u = log(|q_u| / sqrt(dof)), so one
    table of L serves every u. Each u sums the T_STEP grid points within
    _DROP of its peak, plus one on each side, by _halved_sum; a window
    that reaches a grid end raises ConvergenceError.
    """
    flat_u, dof = u.ravel(), model.dof
    # far in a tail stdtrit can be wrong (by a factor of 2 at dof 3); where the
    # beta quantile x is normal and below 1e-3, q_u comes from x instead
    x = betaincinv(0.5 * dof, 0.5, 2.0 * np.minimum(flat_u, 1.0 - flat_u))
    tail = (x >= np.finfo(float).tiny) & (x < 1e-3)
    q = -stdtrit(dof, flat_u)
    q[tail] = np.sign(0.5 - flat_u[tail]) * np.sqrt(dof * (1.0 - x[tail]) / x[tail])
    one_factor = partial(_log_one_factor, np.array([math.sqrt(model.rho)]), np.array([float(k)]))
    out, zero = np.full(q.size, np.nan), q == 0.0
    if zero.any():  # tau = 0 whatever V is
        out[zero] = one_factor(np.zeros(1))[0]
    with np.errstate(divide="ignore"):
        c = np.log(np.abs(q) / math.sqrt(dof))
    fine = 1 << MAX_HALVINGS  # finest grid points per T_STEP
    h = T_STEP / fine
    lo_table, hi_table = round((_T_FLAT - _T_LO) / h), round((_T_TOP - _T_LO) / h)
    log_norm = (0.5 * dof - 1.0) * math.log(2.0) + gammaln(0.5 * dof)

    def where(i):
        return f"G_{k} of model {model.describe()} at u={float(flat_u[i])!r}"

    for sign in (1.0, -1.0):
        end = hi_table if sign > 0 else round((_T_HI - _T_LO) / h)  # the last grid index
        coarse, table = np.arange(0, end + 1, fine), np.full(hi_table - lo_table + 1, np.nan)

        def log_integrand(i, at):  # rows i at grid indices at, filling the table of L
            j = np.clip(at, lo_table, hi_table) - lo_table
            todo = np.unique(j[np.isnan(table[j])])
            if todo.size:
                table[todo] = one_factor(sign * np.exp(_T_LO + (todo + lo_table) * h))
            x = _T_LO + at * h - c[i]
            return table[j] + dof * x - 0.5 * np.exp(2.0 * x)

        rows, size = np.flatnonzero(sign * q > 0.0), max(1, _CHUNK // coarse.size)
        for i in (rows[start : start + size] for start in range(0, rows.size, size)):
            g = log_integrand(i, coarse[:, None])
            keep = g >= g.max(axis=0) - _DROP
            lo, hi = keep.argmax(axis=0) - 1, coarse.size - keep[::-1].argmax(axis=0)
            bad = np.flatnonzero((lo < 0) | (hi >= coarse.size))
            if bad.size:
                raise ConvergenceError(f"{where(i[bad[0]])}: the window of its integrand in "
                                       "log|tau| reaches a grid end")
            out[i] = _halved_sum(lambda r, at: log_integrand(i[r], at), lo, hi, T_STEP,
                                 lambda r: where(i[r]), "log|tau|") - log_norm
    return out.reshape(u.shape)


def _is_power(model: NullModel) -> bool:
    """Whether G_k(u) = u^k: the independent kind, or rho = 0."""
    return model.kind == "independent" or (
        model.kind == "equicorrelated_normal" and model.rho == 0.0)


def log_gk(model: NullModel, k: int, u) -> np.ndarray:
    """log G_k(u) for a vector of u in (0, 1), for every model kind.

    Independent models (and rho = 0) give k log u. The equicorrelated
    normal is _log_one_factor with one loading sqrt(rho) taken k times;
    the factor model averages over all size-k subsets by _log_subset_mean,
    and the t kind mixes the equicorrelated one over its chi scale by
    _log_gk_t. Both are trapezoid sums (_halved_sum), from 48 steps over
    the factor hull or step 0.25 in log|tau|, halved at most 7 times
    until two sums agree to LOG_TOL in log, or ConvergenceError is raised.
    Every kind's values are then clipped into [k log u, log u], and
    ConvergenceError is raised where one lies more than LOG_TOL outside.
    """
    k = _validate_k(k)
    u = np.asarray(u, dtype=float)
    if model.kind == "equicorrelated_t":
        out = _log_gk_t(model, k, u)
    elif _is_power(model):
        out = k * np.log(u)
    elif model.kind == "equicorrelated_normal":
        out = _log_one_factor(np.array([math.sqrt(model.rho)]), np.array([float(k)]), -ndtri(u))
    else:
        n = len(model.loadings)
        if k > n:
            raise ConfigurationError(f"k={k} exceeds the number of loadings n={n}")
        lam, counts = np.unique(model.loadings, return_counts=True)
        out = _log_subset_mean(lam, tuple(counts.tolist()), k, u)
    return _bounded(model, k, u, out)


def gk_evaluate(model: NullModel, k: int, u: float) -> float:
    """G_k(u): null CDF of the maximum of any k p-values at u.

    Outside (0, 1) the exact endpoint values 0 and 1 are returned. The
    kinds other than u^k are exp(log_gk) at one point, certified as
    log_gk says.
    """
    k = _validate_k(k)
    if not math.isfinite(u):
        raise DomainError(f"u must be finite, got {u!r}")
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    if _is_power(model):
        return u**k
    return float(np.exp(log_gk(model, k, [u])[0]))


def gk_quantiles(model: NullModel, k: int, targets) -> np.ndarray:
    """Solve G_k(q_j) = targets_j for every j, each target in (0, 1).

    A root is returned once |log G_k(q_j) - log target_j| <= ROOT_TOL.
    k = 1 returns the targets and the u^k kinds target^(1/k). Any other
    set starts each root at the cubic inverse P of a table of log G_k,
    polished on the table's polynomial (or, with no finite increasing
    table, at its bracket's midpoint), then takes exact passes that keep
    its bracket [log target, log target / k]: a step of P where it lands
    strictly inside, else the midpoint. README "Accuracy of the
    constants" has the details.
    """
    k = _validate_k(k)
    targets = np.asarray(targets, dtype=float)
    outside = ~((targets > 0.0) & (targets < 1.0))
    if outside.any():
        raise DomainError(f"target must lie in (0, 1), got {float(targets[outside][0])!r}")
    if k == 1:
        return targets.copy()
    log_targets = np.log(targets)
    lo, hi = log_targets.copy(), log_targets / k  # each root's bracket
    if _is_power(model) or not targets.size:
        return np.exp(hi)
    a, b = lo.min(), hi.max()
    size = min(max(lo.size, TABLE_FLOOR), TABLE_NODES)
    chebyshev = np.cos(np.pi * (np.arange(size) + 0.5) / size)
    nodes = np.concatenate(([a], 0.5 * (a + b) - 0.5 * (b - a) * chebyshev, [b]))
    table = log_gk(model, k, np.exp(nodes))
    if np.isfinite(table).all() and (np.diff(table) > 0.0).all():
        inverse = monotone_cubic(table, nodes)
        start = inverse(log_targets)
        x = np.clip(start, lo, hi)
        # the cubic start is about 1e-7 off; two steps on the polynomial q of the
        # Chebyshev points take it to q's accuracy, so one exact pass certifies
        # most sets
        q, polished = chebyshev_interpolant(nodes[1:-1], table[1:-1]), x
        for _ in range(2):
            polished = np.clip(polished + start - inverse(q(polished)), lo, hi)
        x = np.where(np.isfinite(polished), polished, x)
    else:
        inverse, x = None, 0.5 * (lo + hi)
    j = np.arange(lo.size)
    for _ in range(MAX_PASSES):
        f = log_gk(model, k, np.exp(x[j])) - log_targets[j]
        lo[j] = np.where(f < 0.0, x[j], lo[j])
        hi[j] = np.where(f > 0.0, x[j], hi[j])
        open_ = ~(np.abs(f) <= ROOT_TOL)  # a NaN residual stays open
        j, f = j[open_], f[open_]
        if not j.size:
            return np.exp(x)
        step = x[j] + start[j] - inverse(log_targets[j] + f) if inverse else np.nan
        x[j] = np.where((lo[j] < step) & (step < hi[j]), step, 0.5 * (lo[j] + hi[j]))
    raise ConvergenceError(
        f"G_{k} of model {model.describe()}: {j.size} roots still open after {MAX_PASSES} "
        f"passes, the first at target {float(targets[j[0]])!r}, |log G_k - log target| = "
        f"{float(abs(f[0]))!r}")


def gk_quantile(model: NullModel, k: int, target: float) -> float:
    """Solve G_k(q) = target for q in (0, 1): gk_quantiles on one target."""
    return float(gk_quantiles(model, k, [target])[0])


def gk_factor_subset(model: NullModel, subset, u: float) -> float:
    """Pr{max of the p-values indexed by subset <= u} under the factor model.

    subset is a nonempty, strictly increasing tuple of 1-based indices,
    each at most n.
    """
    if model.kind != "factor_normal":
        raise ConfigurationError("gk_factor_subset requires a factor model")
    members = tuple(int(i) for i in subset)
    if not members:
        raise ConfigurationError("subset must not be empty")
    if any(i < 1 for i in members):
        raise ConfigurationError("subset members are 1-based positive indices")
    if any(a >= b for a, b in zip(members, members[1:])):
        raise ConfigurationError("subset members must be strictly increasing")
    n = len(model.loadings)
    if members[-1] > n:
        raise ConfigurationError(f"subset index {members[-1]} exceeds n={n}")
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    lam, mult = np.unique([model.loadings[i - 1] for i in members], return_counts=True)
    return float(np.exp(_log_one_factor(lam, mult.astype(float), -ndtri(np.array([u])))[0]))
