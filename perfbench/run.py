#!/usr/bin/env python3
"""kfwer benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` there and nowhere else. Workloads: study-smalln, study-largen,
constants, oracle (see perfbench/README.md).

The command starts SETUPS fresh interpreters one after another. Each
imports kfwer, builds the workload's inputs from the seed and warms up,
and reports its set-up time; the last one then runs the timed section,
a closed loop over the operations, one at a time. ``--seconds`` fixes
the amount of work: the number of rounds is the one that takes about
that long on the reference machine, so a slower program takes longer.
Outputs are checked after the timed section. The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUPS = 3
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = {
    "KFWER_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
}
# seconds one round of each workload takes on the reference machine
# (2-CPU x86-64 container, Python 3.11, numpy 2.4, scipy 1.17)
ROUND_SECONDS = {
    "study-smalln": 3.25,
    "study-largen": 3.75,
    "constants": 4.1,
    "oracle": 3.75,
}
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "reps_per_s": "1/s", "constants_per_s": "1/s", "peak_rss_mb": "MB",
}


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


# ---------------------------------------------------------------------------
# parent: set-up samples, then the measuring child


def parent(args):
    if not os.path.isfile(os.path.join(SRC, "kfwer", "__init__.py")):
        print(f"error: no kfwer sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **SINGLE_THREAD)
    setups = []
    result = None
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    for index in range(SETUPS):
        role = "measure" if index == SETUPS - 1 else "setup"
        t0 = time.monotonic()
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--role", role, "--t0", repr(t0),
        ]
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - t0),
            )
        except subprocess.TimeoutExpired:
            print(f"error: {role} process exceeded the time limit", file=sys.stderr)
            return 3
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: {role} process exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 3
        result = json.loads(lines[-1])
        setups.append(result.pop("setup_s"))
        op_s = result.pop("op_s", None)
    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(dict(result, setup_samples_s=setups, op_s=op_s), fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# child: set-up, timed closed loop, checks


_NULL = contextlib.nullcontext()


def _no_span(layer, name):
    return _NULL


def _warm_up(workload, workdir):
    """Run each operation kind once on parameters no timed operation uses."""
    import kfwer
    import workloads as wl

    def run(op):
        out = op.run(_no_span)
        op.check(out)

    if workload == "constants":
        run(wl.ConstantSetOp("gen_simes", 12, 2, 0.2, "equicorr", 0.33, wl.pvalues(_rng(), 12)))
        run(wl.ConstantSetOp("gen_holm_stepdown", 12, 2, 0.2, "equicorr", 0.33,
                             wl.pvalues(_rng(), 12)))
        run(wl.ConstantSetOp("gen_hochberg_stepup", 6, 2, 0.2, "factor", (0.33, 0.66),
                             wl.pvalues(_rng(), 6)))
        run(wl.ConstantSetOp("romano_stepdown", 12, 2, 0.2, "independent", 0.0,
                             wl.pvalues(_rng(), 12)))
        pfile = os.path.join(workdir, "warm-pvalues.csv")
        with open(pfile, "w", encoding="utf-8") as fh:
            fh.write("id,p\n" + "".join(f"h{j},{p!r}\n" for j, p in enumerate(
                wl.pvalues(_rng(), 10))))
        wl.run_cli(["critvals", "--procedure", "gen-simes", "--n", "10", "--k", "2",
                    "--alpha", "0.2", "--model", "t:0.3:3:20000:7"])
        wl.run_cli(["apply", "--procedure", "gen-simes", "--pvalues", pfile, "--k", "2",
                    "--alpha", "0.2", "--model", "t:0.3:3:20000:7"])
        wl.ref.gk_equicorr_t(0.25, 3, 2, 0.01)
    elif workload == "study-smalln":
        for model, n, procs in (
            ({"kind": "equicorr", "rho": 0.33}, 10, wl.PROCS_GLOBAL + wl.PROCS_MULTIPLE),
            ({"kind": "factor", "loadings": [0.5, 0.5, 0.8, 0.8]}, 4, wl.PROCS_GLOBAL),
        ):
            cfg = dict(name=f"warm-n{n}", n=n, k=2, alpha=0.2, model=model, procedures=procs,
                       reps=1000, seed=1, n1=1,
                       metrics=["power_at_least_k", "power_at_least_k_false", "kfwer"])
            run(wl.SimulateOp(os.path.join(workdir, f"warm-n{n}.json"), cfg, "warm"))
    elif workload == "study-largen":
        run(wl.ExperimentOp(5, 500, 2.0, 1000, 1, alpha=0.2))
    else:
        model = kfwer.equicorrelated_normal(0.33)
        values3 = kfwer.gen_simes_critvals_closed_form(3, 2, 0.3).values
        values4 = kfwer.gen_simes_critvals(4, 2, 0.3, model).values
        kfwer.union_prob_exact_smalln(kfwer.CriticalVector(values3, 2, 3))
        cv = kfwer.CriticalVector(values4, 2, 4)
        kfwer.union_prob_mc(kfwer.independent(), cv, 10_000, 1)
        kfwer.union_prob_mc(model, cv, 10_000, 1)
        kfwer.union_prob_mc(kfwer.factor_normal((0.5, 0.5, 0.8, 0.8)), cv, 10_000, 1)
        kfwer.lemma21_rhs_mc(model, cv, 100_000, 1)
        kfwer.bound_eq22(lambda u: kfwer.gk_evaluate(model, 2, u), cv)


def _rng():
    import numpy as np
    return np.random.default_rng(12345)


def _timed_round(ops, tracer):
    """Run one round in a closed loop; spans only when a tracer is given."""
    span = _no_span if tracer is None else tracer.span
    done = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.request = op.label
        t = time.perf_counter()
        try:
            out = op.run(span)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = None
        done.append((op, out, time.perf_counter() - t))
    return time.perf_counter() - start, done


def _check(results):
    import workloads as wl

    failed, problems = 0, []
    for done in results:
        good = [(op, out) for op, out, _ in done if out is not None]
        failed += len(done) - len(good)
        faults, msgs = wl.check_round(good)
        failed += faults
        problems += msgs
    return failed, problems


def child(args):
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import kfwer

    if not os.path.abspath(kfwer.__file__).startswith(SRC + os.sep):
        print(f"error: kfwer imported from {kfwer.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl
    import probe

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        build = wl.BUILDERS[args.workload]
        total = rounds_for(args.workload, args.seconds)
        if args.trace:
            # pairs of rounds with the same make-up, one untraced and one
            # traced, in alternating order so warm-up favours neither side;
            # study and oracle rounds repeat exactly, while constant sets are
            # cold only once, so a constants round pairs with the round one
            # cycle of its round-indexed sets later
            ids = list(range(max(1, total // 2)))
            if args.workload == "constants":
                built = build(args.seed, ids + [wl.ROUND_CYCLE + i for i in ids], workdir)
                pairs = zip(built[:len(ids)], built[len(ids):])
            else:
                pairs = ((ops, ops) for ops in build(args.seed, ids, workdir))
            plan = []
            for i, (plain, traced) in enumerate(pairs):
                pair = [(plain, False), (traced, True)]
                plan += pair if i % 2 == 0 else pair[::-1]
        else:
            plan = [(ops, False) for ops in build(args.seed, list(range(total)), workdir)]
        _warm_up(args.workload, workdir)
        setup_s = time.monotonic() - args.t0
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = probe.Tracer()
        walls, results = [0.0, 0.0], []
        for ops, traced in plan:
            wall, done = _timed_round(ops, tracer if traced else None)
            walls[traced] += wall
            results.append(done)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, problems = _check(results)
        for msg in problems[:20]:
            print(f"check: {msg}", file=sys.stderr)
        attempted = sum(len(done) for done in results)

        if args.trace:
            metrics = probe.run_probe(args.seed, workdir, tracer)
            metrics["trace.overhead_pct"] = 100.0 * (walls[1] - walls[0]) / walls[0]
            metrics = {name: {"value": metrics[name], "unit": probe.UNITS[name]}
                       for name in probe.UNITS}
            tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        else:
            ops = [item for done in results for item in done]
            times = sorted(dt for _, _, dt in ops)
            wall = walls[0]
            values = {
                "wall_s": wall,
                "op_p50_s": statistics.median(times),
                # the highest percentile with ten operations beyond it
                "op_tail_s": times[max(0, len(times) - 11)],
                "reps_per_s": sum(op.reps for op, _, _ in ops) / wall,
                "constants_per_s": sum(op.constants for op, _, _ in ops) / wall,
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                       for name, v in values.items()}
        print(json.dumps({
            "correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "setup_s": setup_s,
            "op_s": [[op.label, dt] for done in results for op, _, dt in done],
        }))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    args = _arguments(argv)
    return child(args) if args.role else parent(args)


if __name__ == "__main__":
    sys.exit(main())
