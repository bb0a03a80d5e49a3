"""Command-line front end.

Subcommands: critvals (constant tables), apply (decide a p-value file),
simulate (run study configs), verify (self-check suites). All output is
CSV or a plain table on stdout unless --out FILE is given.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 numerical failure.
"""

import argparse
import json
import re
import sys

from .critvals import CLI_NAMES, critical_value_set, procedure_id, rule_for
from .errors import ConfigurationError, KfwerError, NumericalError
from .models import equicorrelated_normal, equicorrelated_t, factor_normal, independent
from .procedures import PValueVector, single_step_apply, stepdown_apply, stepup_apply
from .simlab import (
    ExperimentConfig,
    canned_study_configs,
    canned_study_names,
    run_study,
)
from .verify import SUITE_NAMES, run_suite

__all__ = ["main"]

_ID_PATTERN = re.compile(r"[A-Za-z0-9_-]+")

def _parse_model_spec(spec: str):
    parts = spec.split(":")
    try:
        if parts[0] == "independent" and len(parts) == 1:
            return independent()
        if parts[0] == "equicorr" and len(parts) == 2:
            return equicorrelated_normal(float(parts[1]))
        if parts[0] == "factor" and len(parts) == 2:
            return factor_normal(_read_loadings(parts[1]))
        if parts[0] == "t" and len(parts) == 5:
            return equicorrelated_t(
                float(parts[1]), int(parts[2]), int(parts[3]), int(parts[4])
            )
    except ValueError:
        pass
    else:
        raise ConfigurationError(
            f"bad model spec {spec!r}; expected independent | equicorr:RHO | "
            "factor:FILE | t:RHO:DOF:SAMPLES:SEED"
        )
    raise ConfigurationError(f"bad numeric field in model spec {spec!r}")


def _read_loadings(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().replace(",", " ").split()
    if not tokens:
        raise ConfigurationError(f"{path}: no loadings found")
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}")


def _fmt(value) -> str:
    return format(value, ".10g")


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_critvals(args) -> int:
    procedure = procedure_id(args.procedure)
    model = _parse_model_spec(args.model)
    cset = critical_value_set(procedure, args.n, args.k, args.alpha, model)
    lines = ["i,alpha_i,padded_c_i"]
    for i in range(1, cset.n + 1):
        alpha_i = _fmt(cset.values[i - cset.k]) if i >= cset.k else ""
        lines.append(f"{i},{alpha_i},{_fmt(cset.padded[i - 1])}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _read_pvalue_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "id,p":
        raise ConfigurationError(f"{path}:1: first line must be the header 'id,p'")
    entries = []
    seen = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise ConfigurationError(f"{path}:{lineno}: expected 'id,p', got {raw!r}")
        ident, ptext = parts[0].strip(), parts[1].strip()
        if not _ID_PATTERN.fullmatch(ident):
            raise ConfigurationError(
                f"{path}:{lineno}: id must match [A-Za-z0-9_-]+, got {ident!r}"
            )
        if ident in seen:
            raise ConfigurationError(
                f"{path}:{lineno}: duplicate id {ident!r} (first at line {seen[ident]})"
            )
        seen[ident] = lineno
        try:
            p = float(ptext)
        except ValueError:
            raise ConfigurationError(f"{path}:{lineno}: bad p-value {ptext!r}")
        if not (0.0 <= p <= 1.0):
            raise ConfigurationError(f"{path}:{lineno}: p-value outside [0, 1]: {p!r}")
        entries.append((ident, p))
    if not entries:
        raise ConfigurationError(f"{path}: no data rows")
    return entries


_APPLIERS = {"stepup": stepup_apply, "stepdown": stepdown_apply, "single": single_step_apply}


def _cmd_apply(args) -> int:
    procedure = procedure_id(args.procedure)
    entries = _read_pvalue_file(args.pvalues)
    n = len(entries)
    model = _parse_model_spec(args.model)
    cset = critical_value_set(procedure, n, args.k, args.alpha, model)
    report = _APPLIERS[rule_for(procedure)](PValueVector(tuple(entries)), cset)
    i0 = "none" if report.i0 is None else str(report.i0)
    lines = [
        f"# procedure={procedure}, n={n}, k={cset.k}, alpha={_fmt(cset.alpha)}, i0={i0}",
        "id,p,rank,critical_value,rejected",
    ]
    for rec in report.records:
        rejected = "true" if rec.rejected else "false"
        lines.append(
            f"{rec.id},{_fmt(rec.p)},{rec.rank},{_fmt(rec.critical_value)},{rejected}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_MODEL_KEYS = {
    "independent": set(),
    "equicorr": {"rho"},
    "factor": {"loadings"},
    "t": {"rho", "dof", "samples", "seed"},
}


def _model_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigurationError("model must be an object with a 'kind' key")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise ConfigurationError(
            f"unknown model kind {kind!r}; expected one of {sorted(_MODEL_KEYS)}"
        )
    keys = set(obj) - {"kind"}
    if keys != _MODEL_KEYS[kind]:
        raise ConfigurationError(
            f"model kind {kind!r} takes keys {sorted(_MODEL_KEYS[kind])}, got {sorted(keys)}"
        )
    if kind == "independent":
        return independent()
    if kind == "equicorr":
        return equicorrelated_normal(obj["rho"])
    if kind == "factor":
        return factor_normal(obj["loadings"])
    return equicorrelated_t(obj["rho"], obj["dof"], obj["samples"], obj["seed"])


_CONFIG_KEYS = {
    "name", "n", "k", "alpha", "model", "mu", "n1", "effect",
    "procedures", "reps", "seed", "metrics",
}
_REQUIRED_KEYS = {"n", "k", "alpha", "model", "procedures", "reps", "seed"}


def _config_from_json(obj, index: int) -> ExperimentConfig:
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
    kwargs = dict(
        n=obj["n"],
        k=obj["k"],
        alpha=obj["alpha"],
        model=_model_from_json(obj["model"]),
        procedures=tuple(procedure_id(str(p)) for p in obj["procedures"]),
        reps=obj["reps"],
        seed=obj["seed"],
        name=obj.get("name", f"config{index}"),
    )
    kwargs.update((key, obj[key]) for key in ("mu", "n1", "effect", "metrics") if key in obj)
    return ExperimentConfig(**kwargs)


def _load_config_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: top level must be a JSON object")
    version = doc.get("schema_version")
    if isinstance(version, bool) or version != 1:
        raise ConfigurationError(f"{path}: schema_version must be 1")
    if "configs" in doc:
        extra = set(doc) - {"schema_version", "configs"}
        if extra:
            raise ConfigurationError(f"{path}: unknown top-level keys {sorted(extra)}")
        raw = doc["configs"]
        if not isinstance(raw, list) or not raw:
            raise ConfigurationError(f"{path}: configs must be a nonempty list")
    else:
        raw = [{k: v for k, v in doc.items() if k != "schema_version"}]
    return tuple(_config_from_json(obj, idx) for idx, obj in enumerate(raw))


def _cmd_simulate(args) -> int:
    if bool(args.config) == bool(args.study):
        raise ConfigurationError("give exactly one of --config FILE or --study NAME")
    if args.study:
        configs = canned_study_configs(args.study)
    else:
        configs = _load_config_file(args.config)
    outcomes = run_study(configs)
    lines = ["study,procedure,metric,estimate,std_error,reps,seed"]
    failures = 0
    for oc in outcomes:
        if oc.report is None:
            failures += 1
            lines.append(f"# error study={oc.config.name}: {oc.error}")
            continue
        for cell in oc.report.cells:
            lines.append(
                ",".join(
                    (
                        oc.config.name,
                        cell.procedure,
                        cell.metric,
                        _fmt(cell.estimate),
                        _fmt(cell.std_error),
                        str(cell.reps),
                        str(oc.config.seed),
                    )
                )
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 3 if failures == len(outcomes) else 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, args.seed)
    name_width = max(len(r.name) for r in results)
    header = f"{'check'.ljust(name_width)}  {'estimate(s)'.ljust(26)}  {'tolerance'.ljust(12)}  verdict"
    rows = [header, "-" * len(header)]
    for r in results:
        shown = "/".join(format(e, ".6g") for e in r.estimates)
        verdict = "PASS" if r.passed else "FAIL"
        rows.append(
            f"{r.name.ljust(name_width)}  {shown.ljust(26)}  {format(r.tolerance, '.6g').ljust(12)}  {verdict}"
        )
    passed = sum(1 for r in results if r.passed)
    rows.append(f"{passed}/{len(results)} checks passed")
    sys.stdout.write("\n".join(rows) + "\n")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# parser


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kfwer",
        description="Critical values, decisions, simulations and checks "
        "for k-FWER multiple testing procedures.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("critvals", help="emit a critical-value table as CSV")
    pc.add_argument("--procedure", required=True, help=", ".join(CLI_NAMES))
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--k", type=int, default=1)
    pc.add_argument("--alpha", type=float, required=True)
    pc.add_argument("--model", default="independent")
    pc.add_argument("--out")
    pc.set_defaults(func=_cmd_critvals)

    pa = sub.add_parser("apply", help="apply a procedure to a CSV of p-values")
    pa.add_argument("--procedure", required=True, help=", ".join(CLI_NAMES))
    pa.add_argument("--pvalues", required=True)
    pa.add_argument("--k", type=int, default=1)
    pa.add_argument("--alpha", type=float, required=True)
    pa.add_argument("--model", default="independent")
    pa.add_argument("--out")
    pa.set_defaults(func=_cmd_apply)

    ps = sub.add_parser("simulate", help="run study configs and emit metrics CSV")
    ps.add_argument("--config", help="JSON config file (schema_version 1)")
    ps.add_argument(
        "--study",
        help="canned study name, optionally filtered: "
        + ", ".join(canned_study_names())
        + " (e.g. fig1-rho0.25-k2)",
    )
    ps.add_argument("--out")
    ps.set_defaults(func=_cmd_simulate)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True, help=", ".join(SUITE_NAMES))
    pv.add_argument("--seed", type=int, default=None)
    pv.set_defaults(func=_cmd_verify)

    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except (KfwerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
