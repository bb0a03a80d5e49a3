"""Multiple testing procedures that control the k-FWER.

Generalized Simes, Holm and Hochberg constants driven by joint null
distributions of k p-values, decision rules, probability identities and
bounds used as oracles, and a seeded simulation laboratory.
"""

__version__ = "0.1.0"

from .bounds import (
    CriticalVector,
    ProbEstimate,
    bonferroni_eq23,
    bound_eq22,
    lemma21_rhs_mc,
    union_prob_exact_smalln,
    union_prob_mc,
)
from .critvals import (
    CLASSIC_PROCEDURES,
    PROCEDURES,
    CriticalValueSet,
    classic_critvals,
    critical_value_set,
    gen_hochberg_critvals,
    gen_simes_critvals,
    gen_simes_critvals_closed_form,
    lr_critvals,
    procedure_id,
    romano_critvals,
    rule_for,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    KfwerError,
    NumericalError,
    ScaleError,
)
from .models import (
    NullModel,
    draw,
    draw_null_pvalues,
    draw_scores,
    equicorrelated_normal,
    equicorrelated_t,
    factor_normal,
    gk_evaluate,
    gk_factor_subset,
    gk_quantile,
    gk_quantiles,
    independent,
    log_gk,
    parse_model,
    pmap,
    score_bands,
    score_model,
)
from .procedures import (
    DecisionRecord,
    DecisionReport,
    PValueVector,
    global_simes_test,
    single_step_apply,
    stepdown_apply,
    stepup_apply,
)
from .simlab import (
    METRICS,
    ExperimentConfig,
    MetricCell,
    MetricsReport,
    StudyOutcome,
    canned_study_configs,
    canned_study_names,
    parse_configs,
    run_experiment,
    run_study,
    thread_cap,
)
from .verify import CheckResult, run_suite

__all__ = [
    "__version__",
    "NullModel", "independent", "equicorrelated_normal",
    "factor_normal", "equicorrelated_t", "parse_model", "draw", "draw_null_pvalues",
    "draw_scores", "pmap", "score_model", "score_bands",
    "gk_evaluate", "gk_quantile", "gk_quantiles", "log_gk",
    "gk_factor_subset",
    "PROCEDURES", "CLASSIC_PROCEDURES", "CriticalValueSet",
    "gen_simes_critvals", "gen_simes_critvals_closed_form",
    "gen_hochberg_critvals", "lr_critvals", "romano_critvals",
    "classic_critvals", "critical_value_set", "procedure_id", "rule_for",
    "PValueVector", "DecisionRecord", "DecisionReport",
    "stepup_apply", "stepdown_apply", "single_step_apply", "global_simes_test",
    "CriticalVector", "ProbEstimate", "union_prob_mc", "lemma21_rhs_mc",
    "union_prob_exact_smalln", "bound_eq22", "bonferroni_eq23",
    "METRICS", "ExperimentConfig", "MetricCell",
    "MetricsReport", "StudyOutcome", "run_experiment", "run_study", "parse_configs",
    "thread_cap", "canned_study_names", "canned_study_configs",
    "CheckResult", "run_suite",
    "KfwerError", "DomainError", "ConfigurationError", "ScaleError",
    "NumericalError", "ConvergenceError",
]
