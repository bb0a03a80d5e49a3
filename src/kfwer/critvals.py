"""Critical value sets for k-FWER procedures.

Each constructor returns a CriticalValueSet holding the defining
constants alpha_k <= ... <= alpha_n together with the padded length-n
vector c_i = alpha_max(i, k) that the stepwise procedures consume. The
first k - 1 padded entries equal alpha_k: rejections there cannot raise
the count of k or more errors, so the largest monotone choice is used.
"""

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import betaincinv

from .errors import ConfigurationError, ConvergenceError, ScaleError
from .models import NullModel, gk_quantiles, independent

__all__ = [
    "PROCEDURES",
    "REGISTRY",
    "CLI_NAMES",
    "CriticalValueSet",
    "gen_simes_critvals",
    "gen_simes_critvals_closed_form",
    "gen_hochberg_critvals",
    "lr_critvals",
    "romano_critvals",
    "classic_critvals",
    "critical_value_set",
    "procedure_id",
    "rule_for",
]

CLASSIC_PROCEDURES = ("classic_simes", "classic_holm", "classic_hochberg")


@dataclass(frozen=True)
class CriticalValueSet:
    procedure: str
    n: int
    k: int
    alpha: float
    model: NullModel | None
    values: tuple  # alpha_k .. alpha_n
    padded: tuple  # length n, padded[i-1] = alpha_max(i, k)

    def value_at(self, i: int) -> float:
        """The constant alpha_i, defined for i = k .. n."""
        if not (self.k <= i <= self.n):
            raise ConfigurationError(f"alpha_i defined for {self.k} <= i <= {self.n}")
        return self.values[i - self.k]

    def model_description(self) -> str:
        return self.model.describe() if self.model is not None else "independent"


def _validate(n, k, alpha):
    if int(n) != n or n < 1:
        raise ConfigurationError(f"n must be a positive integer, got {n!r}")
    if int(k) != k or k < 1:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}")
    if k > n:
        raise ConfigurationError(f"n must be at least k, got n={n}, k={k}")
    if not (0.0 < alpha < 1.0):
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha!r}")
    return int(n), int(k), float(alpha)


def _package(procedure, n, k, alpha, model, values) -> CriticalValueSet:
    # the targets rise strictly in i, so exact constants rise too; ties are
    # legal, since the decision kernels need only nondecreasing padded constants
    vals = np.asarray(values, dtype=float)
    values = tuple(vals.tolist())  # plain floats, also in the messages
    drops = np.flatnonzero(vals[1:] < vals[:-1])
    if drops.size:
        i = k + 1 + int(drops[0])
        raise ConvergenceError(
            f"critical values decrease at i={i}: alpha_{i}={values[i - k]!r} "
            f"< alpha_{i - 1}={values[i - k - 1]!r}"
        )
    if not (values[0] > 0.0 and values[-1] < 1.0):
        raise ConfigurationError(
            f"critical values escaped (0, 1): alpha_k={values[0]!r}, alpha_n={values[-1]!r}"
        )
    return CriticalValueSet(
        procedure=procedure,
        n=n,
        k=k,
        alpha=alpha,
        model=model,
        values=values,
        padded=(values[0],) * (k - 1) + values,
    )


def _closed_form_simes(n, k, alpha, i):
    # alpha_i = (alpha * prod_{j=1}^{k} (i-k+j)/(n-k+j)) ** (1/k), in log
    # space so the product stays accurate out to n in the thousands
    log_val = math.log(alpha)
    for j in range(1, k + 1):
        log_val += math.log(i - k + j) - math.log(n - k + j)
    return math.exp(log_val / k)


def _closed_form_hochberg(n, k, alpha, i):
    # alpha_i = (alpha * prod_{j=1}^{k} j/(n-i+j)) ** (1/k)
    log_val = math.log(alpha)
    for j in range(1, k + 1):
        log_val += math.log(j) - math.log(n - i + j)
    return math.exp(log_val / k)


@lru_cache(maxsize=512)
def _stepwise_values(family: str, n: int, k: int, alpha: float, model: NullModel | None) -> tuple:
    if model is not None and model.kind == "factor_normal" and len(model.loadings) != n:
        raise ConfigurationError(f"factor model has {len(model.loadings)} loadings but n={n}")
    if model is None or model.kind == "independent":
        closed_form = _closed_form_simes if family == "simes" else _closed_form_hochberg
        return tuple(closed_form(n, k, alpha, i) for i in range(k, n + 1))
    # every binomial coefficient in the targets is at most C(n, k)
    total = comb(n, k)
    if total > sys.float_info.max:
        raise ScaleError(
            f"inverting G_k needs C(n, k) as a float, and C({n}, {k}) exceeds "
            f"the largest float, {sys.float_info.max:.4g}"
        )
    if family == "simes":
        targets = [alpha * comb(i, k) / total for i in range(k, n + 1)]
    else:
        targets = [alpha / comb(n + k - i, k) for i in range(k, n + 1)]
    return tuple(float(v) for v in gk_quantiles(model, k, targets))


def gen_simes_critvals(n, k, alpha, model: NullModel) -> CriticalValueSet:
    """Constants solving G_k(alpha_i) = alpha * C(i,k)/C(n,k), i = k .. n.

    Under the independent model the closed form is evaluated directly.
    """
    n, k, alpha = _validate(n, k, alpha)
    values = _stepwise_values("simes", n, k, alpha, model)
    return _package("gen_simes", n, k, alpha, model, values)


def gen_simes_critvals_closed_form(n, k, alpha) -> CriticalValueSet:
    """Independence closed form of the generalized Simes constants."""
    n, k, alpha = _validate(n, k, alpha)
    values = _stepwise_values("simes", n, k, alpha, None)
    return _package("gen_simes", n, k, alpha, None, values)


def gen_hochberg_critvals(n, k, alpha, model: NullModel) -> CriticalValueSet:
    """Constants solving G_k(alpha_i) = alpha / C(n+k-i, k), i = k .. n.

    One set serves the generalized Holm stepdown, the generalized
    Hochberg stepup and the single-step rule (which uses only alpha_k);
    critical_value_set labels it with the id it is requested for.
    """
    n, k, alpha = _validate(n, k, alpha)
    values = _stepwise_values("hochberg", n, k, alpha, model)
    return _package("gen_hochberg_stepup", n, k, alpha, model, values)


@lru_cache(maxsize=512)
def _lr_values(n, k, alpha):
    return tuple(k * alpha / (n - i + k) for i in range(k, n + 1))


def lr_critvals(n, k, alpha) -> CriticalValueSet:
    """Closed-form constants alpha_i = k * alpha / (n - i + k)."""
    n, k, alpha = _validate(n, k, alpha)
    return _package("lr_stepdown", n, k, alpha, None, _lr_values(n, k, alpha))


@lru_cache(maxsize=128)
def _romano_values(n, k, alpha):
    # H_{k,m}(u) = P(Bin(m, u) >= k) = I_u(k, m - k + 1), and m = n - i + k
    b = np.arange(n - k + 1, 0, -1, dtype=float)
    return tuple(float(v) for v in betaincinv(k, b, alpha))


def romano_critvals(n, k, alpha) -> CriticalValueSet:
    """Order-statistic constants alpha_i with H_{k, n-i+k}(alpha_i) = alpha.

    H_{k,m} is the CDF of the k-th order statistic of m independent
    uniforms, an upper binomial tail. Valid for independent p-values.
    """
    n, k, alpha = _validate(n, k, alpha)
    return _package("romano_stepdown", n, k, alpha, None, _romano_values(n, k, alpha))


def classic_critvals(procedure, n, alpha) -> CriticalValueSet:
    """The k = 1 classics: Simes i*alpha/n, Holm and Hochberg alpha/(n-i+1)."""
    if procedure not in CLASSIC_PROCEDURES:
        raise ConfigurationError(f"unknown classic procedure {procedure!r}")
    n, _, alpha = _validate(n, 1, alpha)
    if procedure == "classic_simes":
        values = tuple(i * alpha / n for i in range(1, n + 1))
    else:
        values = tuple(alpha / (n - i + 1) for i in range(1, n + 1))
    return _package(procedure, n, 1, alpha, None, values)


class Procedure(NamedTuple):
    """One registry entry: how a procedure's constants are built and applied."""

    build: Callable  # (n, k, alpha, model) -> CriticalValueSet
    rule: str  # "stepup", "stepdown" or "single" (every p-value against alpha_k)
    short_names: tuple = ()  # command-line names besides the hyphenated id


def _lr(n, k, alpha, model):
    return lr_critvals(n, k, alpha)


def _romano(n, k, alpha, model):
    return romano_critvals(n, k, alpha)


def _classic(procedure):
    return lambda n, k, alpha, model: classic_critvals(procedure, n, alpha)


# Ids sharing a builder share one constant set (the builders cache their
# values), which critical_value_set labels with the requested id.
REGISTRY = {
    "gen_simes": Procedure(gen_simes_critvals, "stepup"),
    "gen_hochberg_stepup": Procedure(gen_hochberg_critvals, "stepup", ("gen-hochberg",)),
    "gen_holm_stepdown": Procedure(gen_hochberg_critvals, "stepdown", ("gen-holm",)),
    "lr_stepdown": Procedure(_lr, "stepdown"),
    "lr_stepup": Procedure(_lr, "stepup"),
    "romano_stepdown": Procedure(_romano, "stepdown", ("romano",)),
    "classic_simes": Procedure(_classic("classic_simes"), "stepup"),
    "classic_holm": Procedure(_classic("classic_holm"), "stepdown"),
    "classic_hochberg": Procedure(_classic("classic_hochberg"), "stepup"),
    "gen_single_step": Procedure(gen_hochberg_critvals, "single"),
}

PROCEDURES = tuple(REGISTRY)

CLI_NAMES = tuple(name for ident, e in REGISTRY.items()
                  for name in (*e.short_names, ident.replace("_", "-")))

_SHORT_NAMES = {name: ident for ident, e in REGISTRY.items() for name in e.short_names}


def _entry(procedure) -> Procedure:
    try:
        return REGISTRY[procedure]
    except KeyError:
        raise ConfigurationError(f"unknown procedure {procedure!r}")


def rule_for(procedure: str) -> str:
    """Decision-rule kind (stepup, stepdown, single) for a procedure id."""
    return _entry(procedure).rule


def procedure_id(name: str) -> str:
    """The procedure id for a command-line name: a short name, or an id
    written with hyphens or underscores."""
    ident = _SHORT_NAMES.get(name, name.replace("-", "_"))
    if ident not in REGISTRY:
        raise ConfigurationError(
            f"unknown procedure {ident!r}; expected one of: {', '.join(CLI_NAMES)}"
        )
    return ident


def critical_value_set(procedure, n, k, alpha, model: NullModel | None = None) -> CriticalValueSet:
    """Build the critical value set for any procedure id in REGISTRY.

    Classic procedures are their own k = 1 sets and ignore k; the
    closed-form families (Lehmann-Romano, Romano) ignore the model.
    """
    cset = _entry(procedure).build(n, k, alpha, independent() if model is None else model)
    return cset if cset.procedure == procedure else replace(cset, procedure=procedure)
