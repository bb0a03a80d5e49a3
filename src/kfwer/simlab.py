"""Seeded Monte Carlo laboratory for error rates and power curves.

Every replication's sample comes from models.draw_scores, the package's
one sampler. Replications are grouped into fixed blocks of models.BLOCK
rows, and block b of a config draws from one counter-based Philox
stream keyed by (stream_word(seed, SIMLAB_SALT), b). A replication's
sample therefore depends only on the model, the mean vector, the seed
and its index, never on n, the chunking or the thread count, so
estimates are bit-identical for a fixed seed however the work is
partitioned. Within a replication every configured procedure sees the
same sample (common random numbers). A reps count that is not a
multiple of BLOCK uses the leading rows of its last block.

Draw order per block, fixed by contract (see models.draw_scores): a
sample is a row of scores s, and its p-values are the p-map of the
scores, P(s) = models.pmap(models.score_model(model, mu), s).
  independent        mu = 0: BLOCK x n uniforms are the null p-values;
                     s = p, and P is the identity. Any mu_j != 0: BLOCK
                     x n standard normals z, row-major; s = z - mu and
                     P(s) = ndtr(s), the p-map of the rho = 0
                     equicorrelated model (models.score_model)
  equicorr / factor  BLOCK x (n+1) standard normals, row-major, common
                     factor first, form x; means added, then s = -x and
                     P(s) = ndtr(s)
  t                  the same normals, then BLOCK chi-square draws from
                     the same stream; means added after the t scaling,
                     then s = -x and P(s) = stdtr(dof, s)

Rules decide on the scores (models.decide). Each constant c_i of a rule
becomes score edges (models.score_bands) with P(s) <= c_i for every
s < lo_i and P(s) > c_i for every s > hi_i. A replication whose sorted
score at some rank lies in that rank's band [lo_i, hi_i] is decided on
its p-values instead, so every decision is the one its p-values give.

Two salts keep the streams of different subsystems apart when a user
reuses one seed: SIMLAB_SALT here, models.MODEL_SALT for null-only draws
(draw_null_pvalues: the bounds oracles).

Metrics, all proportions over replications:
  power_at_least_k        k or more rejections in total
  power_at_least_k_false  k or more false nulls rejected
  ave_power               mean fraction of false nulls rejected (NaN if none)
  kfwer                   k or more true nulls rejected
  partial_rejections      between 1 and k-1 true nulls rejected
  global_reject_rate      at least one rejection
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields
from itertools import product

import numpy as np

from .critvals import critical_value_set, procedure_id, rule_for
from .errors import ConfigurationError, as_float, as_floats, as_int
from .models import NullModel, cutoffs, decide, parse_model, score_chunks, score_model

__all__ = [
    "METRICS",
    "SIMLAB_SALT",
    "ExperimentConfig",
    "MetricCell",
    "MetricsReport",
    "StudyOutcome",
    "run_experiment",
    "run_study",
    "parse_configs",
    "expand_grid",
    "STUDY_GRIDS",
    "canned_study_names",
    "canned_study_configs",
    "thread_cap",
]

SIMLAB_SALT = 0x73696D4C

METRICS = (
    "power_at_least_k",
    "power_at_least_k_false",
    "ave_power",
    "kfwer",
    "partial_rejections",
    "global_reject_rate",
)

@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation cell: model, effect layout, procedures, metrics.

    The effect is given either as an explicit length-n mu vector or as
    (n1, effect) placing the effect on the first n1 coordinates. The
    model field is the data-generating side; generalized procedures also
    use it for their critical values.
    """

    n: int
    k: int
    alpha: float
    model: NullModel
    procedures: tuple
    reps: int
    seed: int
    name: str = "custom"
    n1: int | None = None
    effect: float = 2.0
    mu: tuple | None = None
    metrics: tuple = METRICS

    def __post_init__(self):
        n, k = as_int("n", self.n), as_int("k", self.k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        if n < 1 or not (1 <= k <= n):
            raise ConfigurationError(f"need 1 <= k <= n, got k={k}, n={n}")
        alpha = as_float("alpha", self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if not (0.0 < alpha < 1.0):
            raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha!r}")
        if not isinstance(self.name, str):
            raise ConfigurationError(f"name must be a string, got {self.name!r}")
        if not isinstance(self.model, NullModel):
            raise ConfigurationError("model must be a NullModel")
        if self.model.kind == "factor_normal" and len(self.model.loadings) != n:
            raise ConfigurationError(
                f"factor model has {len(self.model.loadings)} loadings, config has n={n}"
            )
        procedures = tuple(self.procedures)
        object.__setattr__(self, "procedures", procedures)
        if not procedures:
            raise ConfigurationError("at least one procedure is required")
        for proc in procedures:
            rule_for(proc)  # raises on unknown ids
        if len(set(procedures)) != len(procedures):
            raise ConfigurationError("duplicate procedure in config")
        reps = as_int("reps", self.reps)
        object.__setattr__(self, "reps", reps)
        if reps < 1000:
            raise ConfigurationError(f"reps must be at least 1000, got {reps}")
        object.__setattr__(self, "seed", as_int("seed", self.seed))
        metrics = tuple(self.metrics)
        object.__setattr__(self, "metrics", metrics)
        if not metrics:
            raise ConfigurationError("at least one metric is required")
        for m in metrics:
            if m not in METRICS:
                raise ConfigurationError(f"unknown metric {m!r}")
        if self.mu is not None and self.n1 is not None:
            raise ConfigurationError("give either an explicit mu vector or n1, not both")
        if self.mu is not None:
            mu = as_floats("mu", self.mu)
            object.__setattr__(self, "mu", mu)
            if len(mu) != n:
                raise ConfigurationError(f"mu must have length n={n}, got {len(mu)}")
            if not all(math.isfinite(v) for v in mu):
                raise ConfigurationError("mu must be finite")
        else:
            n1 = 0 if self.n1 is None else as_int("n1", self.n1)
            object.__setattr__(self, "n1", n1)
            if not (0 <= n1 <= n):
                raise ConfigurationError(f"need 0 <= n1 <= n, got n1={n1}")
            effect = as_float("effect", self.effect)
            object.__setattr__(self, "effect", effect)
            if not math.isfinite(effect):
                raise ConfigurationError("effect must be finite")

    def mean_vector(self) -> np.ndarray:
        if self.mu is not None:
            return np.asarray(self.mu, dtype=np.float64)
        out = np.zeros(self.n)
        out[: self.n1] = self.effect
        return out


@dataclass(frozen=True)
class MetricCell:
    procedure: str
    metric: str
    estimate: float
    std_error: float
    reps: int


@dataclass(frozen=True)
class MetricsReport:
    config: ExperimentConfig
    cells: tuple  # MetricCell, ordered (procedure, metric) per config

    def cell(self, procedure: str, metric: str) -> MetricCell:
        for c in self.cells:
            if c.procedure == procedure and c.metric == metric:
                return c
        raise ConfigurationError(f"no cell for ({procedure!r}, {metric!r})")

    def value(self, procedure: str, metric: str) -> float:
        return self.cell(procedure, metric).estimate


@dataclass(frozen=True)
class StudyOutcome:
    config: ExperimentConfig
    report: MetricsReport | None
    error: str | None


def _constants_for(procedure: str, cfg: ExperimentConfig):
    return critical_value_set(procedure, cfg.n, cfg.k, cfg.alpha, cfg.model)


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Run one config: block-keyed draws, every procedure applied to the
    same sample, metric proportions with binomial standard errors.

    Rows are sorted by value only. On a sorted row sp each rule finds its
    rejection count nrej and rejects the nrej smallest p-values. As the
    padded constants are nondecreasing, no tie straddles sp_nrej and
    sp_{nrej+1}: for step-up, sp_{nrej+1} = sp_nrej <= c_nrej <= c_{nrej+1}
    would make nrej + 1 qualify; step-down has sp_nrej < c_nrej <=
    c_{nrej+1} <= sp_{nrej+1}; single-step has sp_nrej <= c_k < sp_{nrej+1}.
    The rejected set is thus exactly {j : p_j <= sp_nrej} = {j : p_j <=
    c_nrej} (p_j < c_nrej for step-down, p_j <= c_k for single-step; empty
    if nrej = 0), a count against a constant like nrej itself. So both are
    decided on sorted scores (models.decide), with the p-values used only
    for rows that a score band leaves unsettled, and one threshold
    comparison on the unsorted columns counts the true nulls rejected. It
    runs over the smaller of the true and false nulls, so it has no
    columns to compare when n1 = 0 or n1 = n.
    """
    n, k, reps = cfg.n, cfg.k, cfg.reps
    mean = cfg.mean_vector()
    scored = score_model(cfg.model, mean)
    cuts = []
    for proc in cfg.procedures:
        cset = _constants_for(proc, cfg)
        rule = rule_for(proc)
        c = cset.value_at(cfg.k) if rule == "single" else tuple(cset.padded)
        cuts.append(cutoffs(scored, rule, c))

    true_mask = mean == 0.0
    n1 = int(np.count_nonzero(~true_mask))
    few_true = 2 * n1 > n
    few = true_mask if few_true else ~true_mask

    counts = {proc: dict.fromkeys(METRICS, 0) for proc in cfg.procedures}
    pw_sum = dict.fromkeys(cfg.procedures, 0.0)
    pw_sumsq = dict.fromkeys(cfg.procedures, 0.0)

    for scores in score_chunks(cfg.model, mean, reps, cfg.seed, SIMLAB_SALT):
        # few's columns are copied before decide sorts the rows in place
        for proc, (nrej, hits) in zip(cfg.procedures, decide(scores, scores[:, few], cuts)):
            t_rej = hits if few_true else nrej - hits
            f_rej = nrej - t_rej
            c = counts[proc]
            c["power_at_least_k"] += int((nrej >= k).sum())
            c["power_at_least_k_false"] += int((f_rej >= k).sum())
            c["kfwer"] += int((t_rej >= k).sum())
            c["partial_rejections"] += int(((t_rej >= 1) & (t_rej < k)).sum())
            c["global_reject_rate"] += int((nrej >= 1).sum())
            if n1 > 0:
                prop = f_rej / n1
                pw_sum[proc] += float(prop.sum())
                pw_sumsq[proc] += float(prop @ prop)

    cells = []
    for proc in cfg.procedures:
        for metric in cfg.metrics:
            if metric == "ave_power":
                if n1 == 0:
                    est, se = float("nan"), float("nan")
                else:
                    est = pw_sum[proc] / reps
                    var = max(pw_sumsq[proc] - reps * est * est, 0.0) / (reps - 1)
                    se = math.sqrt(var / reps)
            else:
                est = counts[proc][metric] / reps
                se = math.sqrt(est * (1.0 - est) / reps)
            cells.append(MetricCell(proc, metric, est, se, reps))
    return MetricsReport(config=cfg, cells=tuple(cells))


def thread_cap() -> int:
    raw = os.environ.get("KFWER_THREADS")
    if raw is None or raw == "":
        return os.cpu_count() or 1
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigurationError(f"KFWER_THREADS must be an integer, got {raw!r}")
    if cap < 1:
        raise ConfigurationError(f"KFWER_THREADS must be at least 1, got {cap}")
    return cap


def _run_isolated(cfg: ExperimentConfig) -> StudyOutcome:
    try:
        return StudyOutcome(cfg, run_experiment(cfg), None)
    except Exception as exc:  # per-config isolation by contract
        return StudyOutcome(cfg, None, f"{type(exc).__name__}: {exc}")


def run_study(configs) -> tuple:
    """Run a grid of configs, one StudyOutcome each, in input order.

    Configs run in parallel up to thread_cap(); results do not depend on
    the worker count since each config derives its own streams.
    """
    configs = tuple(configs)
    if not configs:
        raise ConfigurationError("no experiment configs given")
    workers = min(thread_cap(), len(configs))
    if workers == 1:
        return tuple(_run_isolated(c) for c in configs)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return tuple(pool.map(_run_isolated, configs))


# ---------------------------------------------------------------------------
# config documents and canned studies

# a config's keys are the ExperimentConfig fields; those without a default are required
_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}
_REQUIRED_KEYS = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}


def _parse_config(obj, index: int) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"config #{index}: must be an object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ConfigurationError(f"config #{index}: unknown keys {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(obj)
    if missing:
        raise ConfigurationError(f"config #{index}: missing keys {sorted(missing)}")
    for key in ("procedures", "metrics"):
        if not isinstance(obj.get(key, []), list):
            raise ConfigurationError(f"config #{index}: {key} must be a list")
    return ExperimentConfig(**{
        **obj,
        "name": obj.get("name", f"config{index}"),
        "model": parse_model(obj["model"]),
        "procedures": tuple(procedure_id(str(p)) for p in obj["procedures"]),
    })


def parse_configs(doc, source: str) -> tuple:
    """The configs of a loaded JSON config document (schema_version 1).

    The document is one config object beside "schema_version", or
    {"schema_version": 1, "configs": [config, ...]}. source names the
    document in error messages.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{source}: top level must be a JSON object")
    version = doc.get("schema_version")
    if isinstance(version, bool) or version != 1:
        raise ConfigurationError(f"{source}: schema_version must be 1")
    if "configs" in doc:
        extra = set(doc) - {"schema_version", "configs"}
        if extra:
            raise ConfigurationError(f"{source}: unknown top-level keys {sorted(extra)}")
        raw = doc["configs"]
        if not isinstance(raw, list) or not raw:
            raise ConfigurationError(f"{source}: configs must be a nonempty list")
    else:
        raw = [{k: v for k, v in doc.items() if k != "schema_version"}]
    return tuple(_parse_config(obj, idx) for idx, obj in enumerate(raw))


def expand_grid(grid) -> tuple:
    """The configs of a grid spec, one per point of the product of its axes
    (the last axis varies fastest), each read by the config-file parser.

    grid["axes"] lists (name, values). A plain value sets the config field
    of that name; a (label, fields) pair merges the fields dict into the
    config. The name template grid["name"] sees each value or label under
    its axis name, and point i gets seed grid["seed"] + i. Every other key
    of grid is a config field shared by all points.
    """
    axes = grid["axes"]
    configs = []
    for idx, point in enumerate(product(*(values for _, values in axes))):
        doc = {key: v for key, v in grid.items() if key != "axes"}
        labels = {}
        for (name, _), value in zip(axes, point):
            labels[name], part = value if isinstance(value, tuple) else (value, {name: value})
            doc.update(part)
        doc.update(seed=grid["seed"] + idx, name=grid["name"].format(**labels))
        configs.append(_parse_config(doc, idx))
    return tuple(configs)


def _equicorr_axis(*rhos):
    return ("rho", [(rho, {"model": {"kind": "equicorr", "rho": rho}}) for rho in rhos])


_FIG3_LOADINGS = [math.sqrt(0.25)] * 10 + [math.sqrt(0.75)] * 10

STUDY_GRIDS = {
    "fig1": {
        "n": 10, "alpha": 0.05, "procedures": ["gen_simes", "classic_simes"], "reps": 50_000,
        "metrics": ["power_at_least_k", "kfwer"],
        "axes": [("k", (2, 3)), _equicorr_axis(0.0, 0.25, 0.5, 0.75), ("n1", range(11))],
        "seed": 101_000, "name": "fig1-rho{rho:g}-k{k}-n1_{n1}",
    },
    "fig2": {
        "n": 100, "alpha": 0.05, "reps": 20_000,
        "procedures": ["gen_hochberg_stepup", "lr_stepup", "classic_hochberg"],
        "metrics": ["ave_power", "kfwer", "power_at_least_k"],
        "axes": [("k", (2, 3)), _equicorr_axis(0.0, 0.1, 0.25, 0.5, 0.75),
                 ("n1", (10, 25, 50, 75, 90))],
        "seed": 102_000, "name": "fig2-rho{rho:g}-k{k}-n1_{n1}",
    },
    # two-block factor model; effects sit on the high-loading (last) block
    "fig3": {
        "n": 20, "k": 2, "alpha": 0.05, "reps": 20_000,
        "model": {"kind": "factor", "loadings": _FIG3_LOADINGS},
        "procedures": ["gen_simes", "classic_simes"],
        "metrics": ["power_at_least_k", "power_at_least_k_false", "kfwer"],
        "axes": [("n1", [(n1, {"mu": [0.0] * (20 - n1) + [2.0] * n1})
                         for n1 in (0, 2, 5, 10, 15, 20)])],
        "seed": 103_000, "name": "fig3-k2-n1_{n1}",
    },
    "fig4": {
        "n": 10, "k": 2, "alpha": 0.05, "reps": 20_000,
        "procedures": ["gen_simes", "classic_simes"], "metrics": ["power_at_least_k", "kfwer"],
        "axes": [("dof", [(dof, {"model": {"kind": "t", "rho": 0.25, "dof": dof}})
                          for dof in (2, 5, 10, 30)]),
                 ("n1", (0, 2, 5, 8, 10))],
        "seed": 104_000, "name": "fig4-rho0.25-k2-dof{dof}-n1_{n1}",
    },
    "fig5": {
        "n": 1000, "alpha": 0.05, "reps": 20_000, "model": {"kind": "independent"},
        "procedures": ["gen_hochberg_stepup", "lr_stepup", "classic_hochberg"],
        "metrics": ["ave_power", "kfwer"],
        "axes": [("k", (10, 25)), ("n1", (100, 250, 500, 750, 900))],
        "seed": 105_000, "name": "fig5-rho0-k{k}-n1_{n1}",
    },
    "table2": {
        "alpha": 0.05, "procedures": ["gen_simes"], "reps": 50_000, "n1": 0,
        "metrics": ["partial_rejections", "kfwer"],
        "axes": [("n", (10, 20)), ("k", (2, 3)), _equicorr_axis(0.0, 0.25, 0.5, 0.75)],
        "seed": 106_000, "name": "table2-rho{rho:g}-k{k}-n{n}",
    },
}


def canned_study_names() -> tuple:
    return tuple(sorted(STUDY_GRIDS))


def canned_study_configs(spec: str) -> tuple:
    """Configs for a canned study name, optionally filtered.

    The grammar is base[-rhoRHO][-kK][-dofDOF], e.g. "fig1-rho0.25-k2".
    Filters select on the model correlation, the config k, and the model
    degrees of freedom; each may appear once.
    """
    parts = spec.split("-")
    base = parts[0]
    if base not in STUDY_GRIDS:
        raise ConfigurationError(
            f"unknown study {base!r}; available: {', '.join(canned_study_names())}"
        )
    convert = {"rho": float, "dof": int, "k": int}
    wanted = {}
    for token in parts[1:]:
        name = next((n for n in convert if token.startswith(n)), "")
        try:
            value = convert[name](token[len(name):])
        except (KeyError, ValueError):
            raise ConfigurationError(f"bad study filter {token!r} in {spec!r}")
        if name in wanted:
            raise ConfigurationError(f"repeated filter {name!r} in {spec!r}")
        wanted[name] = value
    configs = [c for c in expand_grid(STUDY_GRIDS[base])
               if wanted.get("rho", c.model.rho) == c.model.rho
               and wanted.get("k", c.k) == c.k
               and wanted.get("dof", c.model.dof) == c.model.dof]
    if not configs:
        raise ConfigurationError(f"no configs in {base!r} match {spec!r}")
    return tuple(configs)
