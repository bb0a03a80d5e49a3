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
    no longer share one G_k, so the subset average G~_k is used.
equicorrelated_t
    the equicorrelated normal divided by a shared chi scale; G_k by a
    fixed two-dimensional quadrature over the normal factor and the
    scale, every value checked against a rule of twice the nodes.
empirical
    seeded sample of max-of-k values built by gk_empirical_build.
"""

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np
from scipy.special import (
    chdtri, gammaln, log_ndtr, logsumexp, ndtr, ndtri, roots_hermitenorm, roots_legendre, stdtr,
    stdtrit,
)

from .errors import ConfigurationError, ConvergenceError, DomainError, as_float, as_floats, as_int
from .numerics import find_roots

__all__ = [
    "RHO_MAX",
    "NullModel",
    "SubsetIndex",
    "independent",
    "equicorrelated_normal",
    "factor_normal",
    "equicorrelated_t",
    "parse_model",
    "gk_empirical_build",
    "gk_evaluate",
    "gk_quantile",
    "gk_quantiles",
    "log_gk",
    "gk_factor_subset",
    "gk_factor_averaged",
    "draw",
    "draw_null_pvalues",
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
    "empirical",
)


@dataclass(frozen=True)
class NullModel:
    kind: str
    rho: float = 0.0
    loadings: tuple = ()
    dof: int = 0
    built_k: int = 0
    store_token: tuple = ()
    sample_store: np.ndarray | None = field(default=None, compare=False, repr=False)

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
        if self.kind == "empirical":
            return f"empirical:k={self.built_k}"
        return self.kind


@dataclass(frozen=True)
class SubsetIndex:
    """A size-k subset of {1, ..., n} as a strictly increasing index tuple."""

    members: tuple

    def __post_init__(self):
        members = tuple(int(i) for i in self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ConfigurationError("subset must not be empty")
        if any(i < 1 for i in members):
            raise ConfigurationError("subset members are 1-based positive indices")
        if any(a >= b for a, b in zip(members, members[1:])):
            raise ConfigurationError("subset members must be strictly increasing")


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
# (seed, salt) pair has its own Philox stream, so any row depends only on
# (model, mu, seed, salt, row), never on n, the chunking or the threads.
BLOCK = 1024

# Distinct salts keep substreams from different subsystems disjoint even
# when a user reuses one seed across them.
MODEL_SALT = 0x6D6F646C


def stream_word(seed: int, salt: int) -> int:
    ss = np.random.SeedSequence((int(seed), int(salt)))
    return int(ss.generate_state(1, np.uint64)[0])


def substream(word: int, index: int) -> np.random.Generator:
    """Counter-based substream: one Philox stream per (word, index) pair."""
    return np.random.Generator(np.random.Philox(key=[word, index]))


def _fill_block(model: NullModel, mu: np.ndarray, g: np.random.Generator, out: np.ndarray):
    """Fill out (BLOCK rows) from one block's stream in the order draw documents."""
    if model.kind == "independent":
        g.random(out=out)
        shifted = mu != 0.0
        if shifted.any():
            out[:, shifted] = ndtr(ndtri(out[:, shifted]) - mu[shifted])
        return
    n = mu.size
    normals = g.standard_normal((BLOCK, n + 1))
    lam = np.asarray(model.loadings[:n]) if model.kind == "factor_normal" else math.sqrt(model.rho)
    x = lam * normals[:, :1] + np.sqrt(1.0 - np.square(lam)) * normals[:, 1:]
    if model.kind == "equicorrelated_t":
        x /= np.sqrt(g.chisquare(model.dof, BLOCK) / model.dof)[:, None]
        x += mu
        stdtr(model.dof, -x, out=out)
    else:
        x += mu
        ndtr(-x, out=out)


def draw(model: NullModel, mu, start: int, stop: int, seed: int, salt: int) -> np.ndarray:
    """P-values of replications start..stop-1, one row each, len(mu) columns.

    Block b = row // BLOCK draws from substream(stream_word(seed, salt), b);
    start and stop must be multiples of BLOCK. Per block, by model kind:
    independent draws BLOCK x n uniforms as the null p-values, and a
    column with mu_j != 0 becomes ndtr(ndtri(p) - mu_j); the normal kinds
    draw BLOCK x (n+1) standard normals, row-major with the common factor
    first, add mu and take p = ndtr(-x); the t kind draws the same normals,
    then BLOCK chi-squares, scales, adds mu and takes p = stdtr(dof, -x).
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
    if not isinstance(model, NullModel) or model.kind == "empirical":
        raise ConfigurationError(f"cannot sample from {model!r}")
    if model.kind == "factor_normal" and mu.size > len(model.loadings):
        raise ConfigurationError(
            f"factor model has {len(model.loadings)} loadings, requested {mu.size}"
        )
    word = stream_word(seed, salt)
    out = np.empty((stop - start, mu.size))
    for row in range(0, stop - start, BLOCK):
        _fill_block(model, mu, substream(word, (start + row) // BLOCK), out[row : row + BLOCK])
    return out


def draw_null_pvalues(model: NullModel, n_cols: int, count: int, seed: int):
    """count x n_cols null p-values: the first count rows of the model stream."""
    whole = -(-int(count) // BLOCK) * BLOCK
    return draw(model, np.zeros(n_cols), 0, whole, seed, MODEL_SALT)[:count]


def gk_empirical_build(sampler_spec, k: int, sample_size: int, seed: int) -> NullModel:
    """Build an empirical G_k model from a seeded null sample.

    sampler_spec is either a NullModel to draw from or a callable
    (count, seed) -> array of shape (count, k) of null p-values. The
    sorted max-of-k sample is stored; gk_evaluate becomes the empirical
    CDF and gk_quantile the empirical quantile. At least 10**6 draws are
    recommended.
    """
    if int(k) != k or k < 1:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}")
    if sample_size < 1000:
        raise ConfigurationError("sample_size below 1000 is too small to be useful")
    if callable(sampler_spec):
        draws = np.asarray(sampler_spec(sample_size, seed), dtype=float)
        token_head = f"callable:{getattr(sampler_spec, '__name__', 'sampler')}"
    elif isinstance(sampler_spec, NullModel):
        draws = draw_null_pvalues(sampler_spec, k, sample_size, seed)
        token_head = sampler_spec.describe()
    else:
        raise ConfigurationError(
            "sampler_spec must be a NullModel or a (count, seed) callable"
        )
    if draws.shape != (sample_size, k):
        raise ConfigurationError(
            f"sampler produced shape {draws.shape}, expected {(sample_size, k)}"
        )
    maxes = np.sort(draws.max(axis=1)) if k > 1 else np.sort(draws[:, 0])
    return NullModel(
        kind="empirical",
        built_k=int(k),
        store_token=(token_head, int(k), int(sample_size), int(seed)),
        sample_store=maxes,
    )


# ---------------------------------------------------------------------------
# G_k evaluation and inversion

# Gauss-Legendre nodes on each side of the mode of the one-factor log
# integrand, and the fall of that log integrand at which each side is cut.
# Against adaptive quadrature the worst relative error of G_k over
# rho <= 0.99, k <= 10^4 and 1e-300 <= u <= 0.9 is 2e-10. Factor loadings
# whose products lam_i lam_j pass 0.99 sharpen the integrand past what
# NODES resolve: 6e-9 at loadings of 0.999, 1e-5 at 0.9999.
NODES = 48
_DROP = 40.0
# the solver stops on |log G_k(u) - log target| <= ROOT_TOL
ROOT_TOL = 1e-10
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _validate_k(k):
    if int(k) != k or k < 1:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}")
    return int(k)


@lru_cache(maxsize=1)
def _legendre_unit():
    nodes, weights = roots_legendre(NODES)
    return 0.5 * (nodes + 1.0), np.log(0.5 * weights)


def _log_one_factor(lam: np.ndarray, mult: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log E_Y[prod_j Phi((lam_j Y - t) / sqrt(1 - lam_j^2))^mult_j] for each t.

    The log integrand h(y) = sum_j mult_j log Phi(a_j y - b_j) - y^2/2 is
    strictly concave with h'' <= -1. Newton finds its mode y*. Each side
    of the mode is cut at the distance d where h has fallen by _DROP
    (found by Newton from inside sqrt(2 _DROP), which h'' <= -1 makes a
    bound) and integrated by NODES-point Gauss-Legendre. Terms are summed
    by logsumexp, so the relative accuracy holds however small G_k is.
    """
    s = np.sqrt(1.0 - np.square(lam))
    a = lam / s
    b = t[:, None] / s

    def derivatives(y):
        x = a * y[:, None] - b
        log_cdf = log_ndtr(x)
        mills = np.exp(-0.5 * x * x - _LOG_SQRT_2PI - log_cdf)
        return (log_cdf @ mult - 0.5 * y * y, (a * mills) @ mult - y,
                -(a * a * mills * (x + mills)) @ mult - 1.0)

    y = np.zeros(t.size)
    for _ in range(200):
        _, d1, d2 = derivatives(y)
        step = np.clip(d1 / -d2, -4.0, 4.0)
        y += step
        if np.all(np.abs(step) <= 1e-10 * (1.0 + np.abs(y))):
            break
    else:
        raise ConvergenceError("mode of the one-factor integrand not found in 200 Newton steps")
    peak, _, d2 = derivatives(y)
    nodes, log_weights = _legendre_unit()
    sides = []
    for sign in (-1.0, 1.0):
        # h - peak + _DROP is concave in d: Newton from either side of its
        # root lands right of it, then falls monotonically onto it
        d = np.minimum(np.sqrt(2.0 * _DROP / -d2), math.sqrt(2.0 * _DROP))
        for _ in range(100):
            h, d1, _ = derivatives(y + sign * d)
            step = (h - peak + _DROP) / (sign * d1)
            d = np.minimum(d - step, math.sqrt(2.0 * _DROP))
            if np.all(np.abs(step) <= 1e-3 * d):
                break
        yy = y[:, None] + sign * d[:, None] * nodes
        h = log_ndtr(a * yy[..., None] - b[:, None, :]) @ mult - 0.5 * yy * yy
        sides.append(np.log(d) + logsumexp(log_weights + h, axis=1))
    return np.logaddexp(*sides) - _LOG_SQRT_2PI


@lru_cache(maxsize=None)
def _composition_classes(loadings: tuple, k: int):
    """Group size-k subsets by the multiset of loading values they draw.

    Returns (log weight, values, multiplicities) triples, the log weights
    normalized by log C(n, k): averaging costs one integral per class
    instead of one per subset.
    """
    values = sorted(set(loadings))
    counts = [sum(1 for lam in loadings if lam == v) for v in values]
    classes = []
    for picks in product(*(range(min(c, k) + 1) for c in counts)):
        if sum(picks) != k:
            continue
        weight = math.prod(comb(c, j) for c, j in zip(counts, picks))
        picks = np.array(picks, dtype=float)
        classes.append((weight, np.array(values)[picks > 0], picks[picks > 0]))
    total = sum(w for w, _, _ in classes)
    if total != comb(len(loadings), k):
        raise ConfigurationError("composition class weights failed the counting check")
    return tuple((math.log(w) - math.log(total), v, m) for w, v, m in classes)


# Nodes per axis of the equicorrelated t rule. It is not uniformly
# accurate (one degree of freedom at u near 1e-6: 1e-1; rho = 0.9 with
# k = 10: 5e-4), so every t value is recomputed on a rule of 2 T_NODES
# nodes per axis and must agree with it to T_REL_TOL relative.
T_NODES = 128
T_REL_TOL = 1e-8
# chi-square upper tail left beyond the last scale node
_T_TAIL = 1e-18
# (u, y, v) points held in one pass of the t rule
_T_CHUNK = 1 << 20
# log weight below log u^k at which a point of the t rule is dropped
_T_DROP = 60.0


@lru_cache(maxsize=2)
def _hermite_normal(nodes: int):
    """Nodes and log weights of E[f(Y)], Y ~ N(0, 1)."""
    y, weights = roots_hermitenorm(nodes)
    return y, np.log(weights) - _LOG_SQRT_2PI


@lru_cache(maxsize=32)
def _chi_graded(dof: int, nodes: int):
    """Nodes and log weights of E[f(V)], V ~ chi_dof, cut at the 1 - _T_TAIL
    quantile v_max. Gauss-Legendre in tau with v = v_max tau^2 packs nodes
    near 0, where a small u puts the mass of the t integrand."""
    x, weights = roots_legendre(nodes)
    tau = 0.5 * (x + 1.0)
    v_max = math.sqrt(chdtri(dof, _T_TAIL))
    v = v_max * tau * tau
    log_density = ((dof - 1.0) * np.log(v) - 0.5 * v * v
                   - (0.5 * dof - 1.0) * math.log(2.0) - gammaln(0.5 * dof))
    # dv = 2 v_max tau dtau, and dtau = dx / 2
    return v, np.log(weights * v_max * tau) + log_density


def _log_gk_t(model: NullModel, k: int, u: np.ndarray, nodes: int) -> np.ndarray:
    """log G_k(u) of the equicorrelated t on a nodes x nodes tensor rule.

    G_k(u) = E_{V,Y}[Phi((sqrt(rho) Y - q_u V / sqrt(dof)) / sqrt(1 - rho))^k]
    with Y ~ N(0, 1), V ~ chi_dof and q_u the upper-u t quantile:
    Gauss-Hermite in Y times _chi_graded in V, summed by logsumexp, over
    chunks of u that keep each pass near _T_CHUNK points.
    """
    y, log_wy = _hermite_normal(nodes)
    v, log_wv = _chi_graded(model.dof, nodes)
    s = math.sqrt(1.0 - model.rho)
    # the (y, v) grid flattened to one axis of points
    ay = np.repeat((math.sqrt(model.rho) / s) * y, nodes)
    cv = np.tile(v / (s * math.sqrt(model.dof)), nodes)
    log_w = np.add.outer(log_wy, log_wv).ravel()
    flat = u.ravel()
    q = -stdtrit(model.dof, flat)
    out = np.empty(q.size)
    step = max(1, _T_CHUNK // log_w.size)
    for lo in range(0, q.size, step):
        part = slice(lo, lo + step)
        # G_k(u) >= u^k, and the integrand is at most 1: points whose weight
        # lies _T_DROP below u^k add less than 1e-20 of G_k in all
        keep = log_w >= k * math.log(flat[part].min()) - _T_DROP
        terms = k * log_ndtr(ay[keep] - q[part, None] * cv[keep]) + log_w[keep]
        peak = np.maximum(terms.max(axis=1), np.finfo(float).min)  # -inf stays -inf
        out[part] = peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))
    return out.reshape(u.shape)


def _check_t(model: NullModel, k: int, u, log_want, want: str) -> None:
    """Raise ConvergenceError unless G_k(u) on the 2 T_NODES rule lies
    within T_REL_TOL relative of exp(log_want), the value named by want."""
    u = np.asarray(u, dtype=float)
    rel = np.abs(np.expm1(_log_gk_t(model, k, u, 2 * T_NODES) - log_want))
    bad = np.flatnonzero(~(rel <= T_REL_TOL))
    if bad.size:
        j = int(bad[0])
        raise ConvergenceError(
            f"model {model.describe()}: G_{k}({float(u[j])!r}) on the {2 * T_NODES}-node "
            f"rule is {rel[j]:.2g} relative from its {want}, beyond {T_REL_TOL:g}; the t "
            "quadrature cannot resolve this dof, rho, k and u"
        )


def log_gk(model: NullModel, k: int, u) -> np.ndarray:
    """log G_k(u) for a vector of u in (0, 1), for the analytic model kinds.

    Independent models (and rho = 0) give k log u. The one-factor normal
    kinds sum _log_one_factor over composition classes by logsumexp: the
    equicorrelated model is one class, the factor model averages over
    all size-k subsets. The t kind is _log_gk_t on T_NODES nodes, not
    checked here; gk_evaluate and gk_quantiles check what they return.
    """
    k = _validate_k(k)
    u = np.asarray(u, dtype=float)
    if model.kind == "equicorrelated_t":
        return _log_gk_t(model, k, u, T_NODES)
    if model.kind == "independent" or (model.kind == "equicorrelated_normal" and model.rho == 0.0):
        return k * np.log(u)
    if model.kind == "equicorrelated_normal":
        classes = ((0.0, np.array([math.sqrt(model.rho)]), np.array([float(k)])),)
    elif model.kind == "factor_normal":
        n = len(model.loadings)
        if k > n:
            raise ConfigurationError(f"k={k} exceeds the number of loadings n={n}")
        classes = _composition_classes(model.loadings, k)
    else:
        raise ConfigurationError(f"log_gk needs an analytic model, got {model.kind!r}")
    t = -ndtri(u)
    return logsumexp(np.array([w + _log_one_factor(lam, mult, t) for w, lam, mult in classes]), axis=0)


def _sample_store(model: NullModel, k: int) -> np.ndarray:
    if k != model.built_k:
        raise ConfigurationError(
            f"empirical model was built for k={model.built_k}, asked for k={k}"
        )
    return model.sample_store


def _ecdf(sorted_values: np.ndarray, u: float) -> float:
    return bisect_right(sorted_values, u) / len(sorted_values)


def _ecdf_quantile(sorted_values: np.ndarray, target: float) -> float:
    # generalized inverse: smallest stored value with CDF >= target; below
    # 1/size no stored value has its CDF that low, so none is an answer
    size = len(sorted_values)
    if target * size < 1.0:
        raise ConvergenceError(
            f"target {target:.6g} is below the resolution 1/{size} of a {size}-draw "
            f"sample store; it needs at least {math.ceil(1.0 / target)} draws"
        )
    return float(sorted_values[math.ceil(target * size) - 1])


def gk_evaluate(model: NullModel, k: int, u: float) -> float:
    """G_k(u): null CDF of the maximum of any k p-values at u.

    Outside (0, 1) the exact endpoint values 0 and 1 are returned. The
    analytic kinds other than u^k are exp(log_gk) at one point; a t value
    that a rule of twice the nodes does not confirm to T_REL_TOL raises
    ConvergenceError.
    """
    k = _validate_k(k)
    if not math.isfinite(u):
        raise DomainError(f"u must be finite, got {u!r}")
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    if model.kind == "empirical":
        return _ecdf(_sample_store(model, k), u)
    if model.kind == "independent" or (model.kind == "equicorrelated_normal" and model.rho == 0.0):
        return u**k
    log_g = log_gk(model, k, [u])
    if model.kind == "equicorrelated_t":
        _check_t(model, k, [u], log_g, f"{T_NODES}-node value")
    return float(np.exp(log_g[0]))


def gk_quantiles(model: NullModel, k: int, targets) -> np.ndarray:
    """Solve G_k(q_j) = targets_j for every j, each target in (0, 1).

    Analytic kinds solve all targets in one batched bracketed solve in
    (log u, log target) that stops once |log G_k(q_j) - log target_j| <=
    ROOT_TOL. Positive dependence gives u^k <= G_k(u) <= u, so each root
    lies in [target, target^(1/k)]. A t root at which a rule of twice the
    nodes misses the target by more than T_REL_TOL relative raises
    ConvergenceError. The empirical kind returns empirical quantiles and
    raises ConvergenceError below 1/(store size).
    """
    k = _validate_k(k)
    targets = np.asarray(targets, dtype=float)
    outside = ~((targets > 0.0) & (targets < 1.0))
    if outside.any():
        raise DomainError(f"target must lie in (0, 1), got {float(targets[outside][0])!r}")
    if model.kind == "empirical":
        store = _sample_store(model, k)
        return np.array([_ecdf_quantile(store, float(x)) for x in targets])
    log_targets = np.log(targets)
    log_roots = find_roots(
        lambda x, j: log_gk(model, k, np.exp(x)) - log_targets[j],
        log_targets, log_targets / k, ROOT_TOL,
    )
    roots = np.exp(log_roots)
    if model.kind == "equicorrelated_t":
        _check_t(model, k, roots, log_targets, "target")
    return roots


def gk_quantile(model: NullModel, k: int, target: float) -> float:
    """Solve G_k(q) = target for q in (0, 1): gk_quantiles on one target."""
    return float(gk_quantiles(model, k, [target])[0])


def gk_factor_subset(model: NullModel, subset, u: float) -> float:
    """Pr{max of the p-values indexed by subset <= u} under the factor model."""
    if model.kind != "factor_normal":
        raise ConfigurationError("gk_factor_subset requires a factor model")
    members = subset.members if isinstance(subset, SubsetIndex) else SubsetIndex(tuple(subset)).members
    n = len(model.loadings)
    if members[-1] > n:
        raise ConfigurationError(f"subset index {members[-1]} exceeds n={n}")
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    lam, mult = np.unique([model.loadings[i - 1] for i in members], return_counts=True)
    return float(np.exp(_log_one_factor(lam, mult.astype(float), -ndtri(np.array([u])))[0]))


def gk_factor_averaged(model: NullModel, k: int, u: float) -> float:
    """Average of Pr{max over J <= u} across all size-k subsets J.

    Subsets with the same multiset of loadings share one integral, so
    the cost is the number of composition classes of the distinct
    loading values, not C(n, k).
    """
    if model.kind != "factor_normal":
        raise ConfigurationError("gk_factor_averaged requires a factor model")
    return gk_evaluate(model, k, u)
