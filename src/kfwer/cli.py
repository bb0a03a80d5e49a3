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
from .models import parse_model
from .procedures import PValueVector, single_step_apply, stepdown_apply, stepup_apply
from .simlab import canned_study_configs, canned_study_names, parse_configs, run_study
from .verify import SUITE_NAMES, run_suite

__all__ = ["main"]

_ID_PATTERN = re.compile(r"[A-Za-z0-9_-]+")


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
    model = parse_model(args.model)
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
    model = parse_model(args.model)
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


def _cmd_simulate(args) -> int:
    if bool(args.config) == bool(args.study):
        raise ConfigurationError("give exactly one of --config FILE or --study NAME")
    if args.study:
        configs = canned_study_configs(args.study)
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            configs = parse_configs(json.load(fh), args.config)
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
