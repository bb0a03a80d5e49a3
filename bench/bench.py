#!/usr/bin/env python3
"""Before/after numbers for a performance change: writes BENCH_<label>.json.

    python3 bench/bench.py --label NAME --parent DIR --change DIR

Each DIR is a source checkout of kfwer (for example a `git archive` of
the parent commit, and of the change). On this machine, one run at a
time, the script makes one pass per seed in SEEDS over both checkouts,
and in each pass measures:

- the four benchmark workloads, `python3 perfbench/run.py --workload W
  --seed S --seconds 15 --trace 0` run from that checkout;
- the six canned `kfwer simulate --study` runs, one equicorrelated-t
  `kfwer simulate --config` at n = 100 (T_CONFIG, where the p-map
  `stdtr` is the largest per-element cost), two large `kfwer critvals`
  sets (gen-Simes at alpha 0.05: a two-block factor model with
  FACTOR_LOADINGS at n = 10^4, k = 10, read from a loadings file the
  script writes, and `t:0.25:5` at n = 1000, k = 2), `kfwer verify
  --suite all` and the Tier-1 test command.

After the passes, each workload runs once more per checkout with
`--trace 1`, alternating which goes first. A traced run ends with the
benchmark's probe, so each checkout gets four samples of the per-layer
metrics (G_k, inversion, draw and decision rates), kept with their
median under `per_layer`.

Every run is recorded. Each workload metric and command wall time is
also reported as the median over the passes, a command with the largest
peak RSS over the passes and a digest of its output (equal digests mean
byte-identical CSVs). The two checkouts swap places every pass, so slow
drift of a shared host falls on both alike. The benchmark itself is not
reimplemented here: its own command prints every workload metric. The
output file records the machine, its CPU count and the Python, numpy and
scipy versions.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study-smalln", "study-largen", "constants", "oracle")
STUDIES = ("fig1", "fig2", "fig3", "fig4", "fig5", "table2")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
SECONDS = 15  # the workload length BENCHMARK.json runs
SEEDS = tuple(range(31, 41))  # one pass over both checkouts per seed
T_CONFIG = {
    "schema_version": 1, "name": "t-rho0.25-dof5-n100", "n": 100, "k": 2, "alpha": 0.05,
    "model": "t:0.25:5", "procedures": ["gen-simes", "gen-hochberg", "classic-hochberg"],
    "reps": 20_000, "seed": 107_000, "n1": 10, "effect": 2.0,
}
# the two-block factor set: the first half of the n loadings, then the second
FACTOR_LOADINGS = (0.5, 0.8)
FACTOR_N, FACTOR_K = 10_000, 10


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", required=True, metavar="DIR",
                        help="source checkout of the parent commit")
    parser.add_argument("--change", required=True, metavar="DIR",
                        help="source checkout of the change")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    for name, path in sides.items():
        if not os.path.isfile(os.path.join(path, "src", "kfwer", "__init__.py")):
            parser.error(f"--{name} {path!r} is not a kfwer source checkout")
        sides[name] = os.path.abspath(path)
    return args, sides


def _run(cmd, cwd):
    """Run cmd to completion: (exit code, wall seconds, peak RSS in MB, stdout)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(cwd, "src"))
    with tempfile.TemporaryFile() as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read()


def _workload(checkout, workload, seed, trace=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    code, _, _, out = _run(cmd, checkout)
    lines = out.decode().strip().splitlines()
    if code not in (0, 1) or not lines:
        return {"exit": code}
    result = json.loads(lines[-1])
    return {
        "exit": code,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def _command(checkout, args):
    code, wall, rss, out = _run([sys.executable, *args], checkout)
    return {"exit": code, "wall_s": wall, "peak_rss_mb": rss,
            "stdout_sha256": hashlib.sha256(out).hexdigest(),
            "last_line": out.decode(errors="replace").strip().splitlines()[-1:]}


def _median_of(runs):
    """Median wall over the passes of one command, with what must agree."""
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "wall_s_runs": [round(r["wall_s"], 3) for r in runs],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "exit": sorted({r["exit"] for r in runs}),
        "stdout_sha256": sorted({r["stdout_sha256"] for r in runs}),
        "last_line": runs[-1]["last_line"],
    }


def _summarise_workload(runs):
    done = [r["metrics"] for r in runs if "metrics" in r]
    return {
        "seeds": [r["seed"] for r in runs],
        "exit": [r["exit"] for r in runs],
        "correct": all(r.get("correct") for r in runs),
        "failed_over_attempted": [[r.get("failed"), r.get("attempted")] for r in runs],
        "median": {m: statistics.median(d[m] for d in done) for m in (done or [{}])[0]},
        "runs": done,
    }


def main(argv=None):
    args, sides = _arguments(argv)
    raw = {name: {"workloads": {w: [] for w in WORKLOADS}, "commands": {}, "traced": []}
           for name in sides}
    commands = {f"simulate {s}": ["-m", "kfwer.cli", "simulate", "--study", s] for s in STUDIES}
    config_dir = tempfile.mkdtemp(prefix="kfwer-bench-")
    t_config = os.path.join(config_dir, "t_n100.json")
    with open(t_config, "w", encoding="utf-8") as fh:
        json.dump(T_CONFIG, fh)
    commands["simulate t n100"] = ["-m", "kfwer.cli", "simulate", "--config", t_config]
    loadings = os.path.join(config_dir, "two_block.txt")
    with open(loadings, "w", encoding="utf-8") as fh:
        half = FACTOR_N // 2
        low, high = (str(v) for v in FACTOR_LOADINGS)
        fh.write("\n".join([low] * half + [high] * (FACTOR_N - half)))
    critvals = ["-m", "kfwer.cli", "critvals", "--procedure", "gen-simes", "--alpha", "0.05"]
    commands["critvals factor n10000"] = [*critvals, "--model", f"factor:{loadings}",
                                          "--n", str(FACTOR_N), "--k", str(FACTOR_K)]
    commands["critvals t n1000"] = [*critvals, "--model", "t:0.25:5", "--n", "1000", "--k", "2"]
    commands["verify all"] = ["-m", "kfwer.cli", "verify", "--suite", "all"]
    commands["tier1 pytest"] = list(TIER1)
    order = list(sides)
    for seed in SEEDS:
        for name in order:
            checkout = sides[name]
            for w in WORKLOADS:
                print(f"[{name}] {w} seed {seed}", file=sys.stderr, flush=True)
                raw[name]["workloads"][w].append(dict(_workload(checkout, w, seed), seed=seed))
            for label, cmd in commands.items():
                print(f"[{name}] {label} seed pass {seed}", file=sys.stderr, flush=True)
                raw[name]["commands"].setdefault(label, []).append(_command(checkout, cmd))
        order.reverse()
    # one traced pass per workload and side: each ends with the same probe,
    # so every side gets len(WORKLOADS) samples of the per-layer metrics
    for seed, w in zip(SEEDS, WORKLOADS):
        for name in order:
            print(f"[{name}] {w} traced seed {seed}", file=sys.stderr, flush=True)
            raw[name]["traced"].append(dict(_workload(sides[name], w, seed, trace=1),
                                            seed=seed, workload=w))
        order.reverse()

    doc = {
        "label": args.label,
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "settings": {
            "workload_command": "python3 perfbench/run.py --workload W --seed S "
                                f"--seconds {SECONDS} --trace 0",
            "traced_command": "the same with --trace 1, once per workload and side, "
                              "seeds paired with workloads in order",
            "seeds": list(SEEDS),
            "t_config": T_CONFIG,
            "factor_set": {"loadings": FACTOR_LOADINGS, "n": FACTOR_N, "k": FACTOR_K},
            "first_pass_order": list(sides),
            "commands": {k: " ".join(["python", *v]) for k, v in commands.items()},
            "threads": "perfbench pins one thread; the commands use the default "
                       "(KFWER_THREADS unset: one worker per CPU)",
        },
        "sides": {
            name: {
                "workloads": {w: _summarise_workload(r) for w, r in data["workloads"].items()},
                "commands": {k: _median_of(r) for k, r in data["commands"].items()},
                "per_layer": _summarise_workload(data["traced"]),
            }
            for name, data in raw.items()
        },
    }
    os.remove(t_config)
    os.remove(loadings)
    os.rmdir(config_dir)
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
