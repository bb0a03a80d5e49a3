"""The four workloads: how each builds its operations and checks them.

A workload is a list of rounds. Every round holds the same make-up of
operations; the parameters of each operation come from the benchmark
seed and the round index, so every operation in a run is distinct and
builds its inputs cold. ``BUILDERS[name](seed, round_ids, workdir)``
runs during set-up: it draws parameters and writes input files, and
calls the program only where an operation needs a precomputed input
(oracle constants).

An operation is one closed-loop call (or a short fixed sequence of
calls) into the program. ``op.run(span)`` performs it and returns its
raw output; ``span(layer, name)`` is a context manager the traced run
uses to time each call into a layer. ``op.check(out)`` runs after the
timed section and returns ``(fault, problems)``: ``fault`` is true when
a constant set misses its defining equation, ``problems`` lists every
other wrong output.
"""

import contextlib
import io
import json
import math
import os

import numpy as np
from scipy.special import ndtr

import kfwer
from kfwer import cli

import reference as ref

WORKLOAD_SALT = {"study-smalln": 1, "study-largen": 2, "constants": 3, "oracle": 4}
REL_TOL = 1e-6  # |G_ref(alpha_i) / target - 1| allowed for analytic models
SE_BAND = 4.0

# procedures whose k-FWER control is claimed at every n1 under the
# positively dependent normal models used here (equicorrelated rho >= 0,
# independent); generalized ones only for the model they are calibrated to
STRONG = {
    "gen_hochberg_stepup", "gen_holm_stepdown", "gen_single_step",
    "classic_holm", "classic_hochberg", "lr_stepdown",
}
# claimed at every n1 only under independence; the global tests
# (gen-Simes, classic Simes) claim control only when every null is true
INDEPENDENT_ONLY = {"lr_stepup", "romano_stepdown"}

RULES = {
    "gen_simes": "stepup", "gen_hochberg_stepup": "stepup",
    "gen_holm_stepdown": "stepdown", "romano_stepdown": "stepdown",
}

# Equicorrelated rho = 0.9 sets whose constants miss G_k(alpha_i) = target
# by 0.05-0.8 % relative: quadrature and root finding stop on an absolute
# 1e-10 floor while these targets are 1e-12 to 1e-15. One runs per round.
FAULT_SETS = (
    ("gen_hochberg_stepup", 100, 10),
    ("gen_simes", 200, 8),
    ("gen_hochberg_stepup", 300, 5),
)
# rounds after which the fault set, t degrees of freedom and Table 1 set
# of a constants round repeat
ROUND_CYCLE = 24


def _rng(seed, workload, r):
    return np.random.default_rng(np.random.SeedSequence([int(seed), WORKLOAD_SALT[workload], r]))


def _grid(lo, hi, step=0.05):
    return tuple(round(lo + j * step, 2) for j in range(int(round((hi - lo) / step)) + 1))


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def pvalues(rng, n):
    """Null uniforms with a shifted tenth, so the rules reject something."""
    z = rng.standard_normal(n)
    z[: max(1, n // 10)] += 3.0
    return [float(v) for v in ndtr(-z)]


def pvector(pvals):
    return kfwer.PValueVector(tuple((f"h{j}", p) for j, p in enumerate(pvals)))


def two_block(n, r_lo, r_hi):
    half = n // 2
    return tuple([math.sqrt(r_lo)] * half + [math.sqrt(r_hi)] * (n - half))


def targets(procedure, n, k, alpha):
    if procedure == "gen_simes":
        return [alpha * math.comb(i, k) / math.comb(n, k) for i in range(k, n + 1)]
    return [alpha / math.comb(n + k - i, k) for i in range(k, n + 1)]


def _decision_problems(label, pvals, padded, rule, num, rejected):
    want_num, want_set = ref.step_decisions(pvals, padded, rule)
    got = frozenset(int(ident[1:]) for ident in rejected)
    if num != want_num or got != want_set:
        return [f"{label}: {rule} rejected {num}, reference rule rejects {want_num}"]
    return []


def _set_shape_problems(label, values, padded, n, k):
    problems = []
    if len(values) != n - k + 1 or len(padded) != n:
        problems.append(f"{label}: {len(values)} constants, {len(padded)} padded")
        return problems
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append(f"{label}: constants decrease")
    if not (0.0 < values[0] and values[-1] < 1.0):
        problems.append(f"{label}: constants outside (0, 1)")
    if any(padded[i - 1] != values[max(i, k) - k] for i in range(1, n + 1)):
        problems.append(f"{label}: padded vector does not repeat alpha_k below rank k")
    return problems


# ---------------------------------------------------------------------------
# constants


class ConstantSetOp:
    """Build one constant set through critical_value_set and apply it."""

    kind = "constants"
    reps = 0

    def __init__(self, procedure, n, k, alpha, model_kind, param, pvals, expect_fault=False):
        self.procedure, self.n, self.k, self.alpha = procedure, n, k, alpha
        self.model_kind, self.param = model_kind, param
        self.pvals = pvals
        self.pvec = pvector(pvals)
        self.expect_fault = expect_fault
        self.constants = n - k + 1
        self.label = f"{procedure} n={n} k={k} alpha={alpha:g} {model_kind}:{param}"

    @property
    def key(self):
        # gen-Hochberg and gen-Holm share one constant set, so share a key
        family = "simes" if self.procedure == "gen_simes" else self.procedure
        if self.procedure in ("gen_hochberg_stepup", "gen_holm_stepdown"):
            family = "hochberg"
        return (family, self.n, self.k, self.alpha, self.model_kind, self.param)

    def _model(self):
        if self.model_kind == "equicorr":
            return kfwer.equicorrelated_normal(self.param)
        if self.model_kind == "factor":
            return kfwer.factor_normal(two_block(self.n, *self.param))
        return None

    def run(self, span):
        model = self._model()
        with span("critvals", "critical_value_set"):
            cset = kfwer.critical_value_set(self.procedure, self.n, self.k, self.alpha, model)
        rule = RULES[self.procedure]
        apply = kfwer.stepup_apply if rule == "stepup" else kfwer.stepdown_apply
        with span("procedures", f"{rule}_apply"):
            report = apply(self.pvec, cset)
        return cset.values, cset.padded, report.num_rejected, report.rejected_ids()

    def residuals(self, values):
        if self.procedure == "romano_stepdown":
            return [
                abs(ref.romano_level(self.n, self.k, i, v) / self.alpha - 1.0)
                for i, v in zip(range(self.k, self.n + 1), values)
            ]
        out = []
        for target, v in zip(targets(self.procedure, self.n, self.k, self.alpha), values):
            if self.model_kind == "factor":
                log_g = ref.log_gk_factor(two_block(self.n, *self.param), self.k, v)
            else:
                log_g = ref.log_gk_equicorr(self.param, self.k, v)
            out.append(abs(math.expm1(log_g - math.log(target))))
        return out

    def check(self, out):
        values, padded, num, rejected = out
        problems = _set_shape_problems(self.label, values, padded, self.n, self.k)
        problems += _decision_problems(
            self.label, self.pvals, padded, RULES[self.procedure], num, rejected
        )
        worst = max(self.residuals(values))
        fault = worst > REL_TOL
        if fault and not self.expect_fault:
            problems.append(f"{self.label}: |G_ref/target - 1| = {worst:.3g} > {REL_TOL:g}")
        return fault and self.expect_fault, problems


class Table1Op(ConstantSetOp):
    """A published Table 1 set: n = 10, alpha = 0.05."""

    def __init__(self, rho, k, pvals):
        super().__init__("gen_simes", 10, k, 0.05, "equicorr", rho, pvals)

    def check(self, out):
        fault, problems = super().check(out)
        published = ref.TABLE1[(self.param, self.k)]
        worst = max(abs(a - b) for a, b in zip(out[0], published))
        if worst > ref.TABLE1_TOL:
            problems.append(f"{self.label}: {worst:.2e} from Table 1")
        return fault, problems


class TSetOp:
    """A fig4 equicorrelated-t set, built and applied through the CLI."""

    kind = "constants"
    expect_fault = False
    RHO, SAMPLES = 0.25, 2_000_000

    def __init__(self, dof, store_seed, pvals, pfile):
        self.n, self.k, self.alpha, self.dof = 10, 2, 0.05, dof
        self.pvals, self.pfile = pvals, pfile
        self.reps = self.SAMPLES
        self.constants = self.n - self.k + 1
        self.spec = f"t:{self.RHO}:{dof}:{self.SAMPLES}:{store_seed}"
        self.label = f"gen_simes n=10 k=2 {self.spec}"

    def run(self, span):
        common = ["--procedure", "gen-simes", "--k", "2", "--alpha", "0.05", "--model", self.spec]
        with span("cli", "critvals"):
            code_c, table = run_cli(["critvals", "--n", "10"] + common)
        with span("cli", "apply"):
            code_a, decided = run_cli(["apply", "--pvalues", self.pfile] + common)
        return code_c, table, code_a, decided

    def check(self, out):
        code_c, table, code_a, decided = out
        if code_c != 0 or code_a != 0:
            return False, [f"{self.label}: exit codes {code_c}, {code_a}"]
        rows = [line.split(",") for line in table.strip().splitlines()[1:]]
        values = [float(r[1]) for r in rows if r[1]]
        padded = [float(r[2]) for r in rows]
        problems = _set_shape_problems(self.label, values, padded, self.n, self.k)
        for target, v in zip(targets("gen_simes", self.n, self.k, self.alpha), values):
            g = ref.gk_equicorr_t(self.RHO, self.dof, self.k, v)
            band = SE_BAND * math.sqrt(target * (1.0 - target) / self.SAMPLES)
            if abs(g - target) > band:
                problems.append(f"{self.label}: G_ref={g:.6g} vs target {target:.6g} (band {band:.2g})")
        lines = decided.strip().splitlines()[2:]
        rejected = [line.split(",")[0] for line in lines if line.endswith(",true")]
        critical = sorted(float(line.split(",")[3]) for line in lines)
        problems += _decision_problems(self.label, self.pvals, critical, "stepup", len(rejected), rejected)
        return False, problems


def build_constants(seed, round_ids, workdir):
    taken = set()
    out = []
    for r in round_ids:
        rng = _rng(seed, "constants", r)

        def fresh(make):
            for _ in range(1000):
                op = make()
                if op.key not in taken:
                    taken.add(op.key)
                    return op
            raise RuntimeError("parameter space exhausted")

        def equicorr(procs, n_lo, n_hi, ks, rhos, alphas=(0.02, 0.05, 0.1)):
            def make():
                n = int(rng.integers(n_lo, n_hi + 1))
                return ConstantSetOp(
                    str(rng.choice(procs)), n, int(rng.choice(ks)), float(rng.choice(alphas)),
                    "equicorr", float(rng.choice(rhos)), pvalues(rng, n),
                )
            return fresh(make)

        # sizes are fixed per slot (within a few percent), so every round
        # costs about the same whatever the seed; rho, alpha and the rule vary
        ops = [
            equicorr(("gen_simes",), 990, 1000, (2,), _grid(0.10, 0.50)),
            equicorr(("gen_simes",), 990, 1000, (2,), _grid(0.10, 0.50)),
            equicorr(("gen_hochberg_stepup", "gen_holm_stepdown"), 295, 305, (3,), _grid(0.30, 0.60)),
        ]
        # the bulk of the round: mid-size sets of one family (gen-Simes sets
        # cost less), with as many cheaper sets below them as dearer ones
        # above, so the median operation is one of them
        for _ in range(8):
            ops.append(equicorr(("gen_hochberg_stepup", "gen_holm_stepdown"),
                                58, 62, (2,), _grid(0.10, 0.70)))
        for _ in range(6):
            ops.append(equicorr(("gen_simes", "gen_holm_stepdown"), 18, 22, (2,), _grid(0.80, 0.90)))

        def factor():
            n = int(rng.choice((38, 40, 42)))
            lo, hi = float(rng.choice(_grid(0.15, 0.35))), float(rng.choice(_grid(0.55, 0.80)))
            return ConstantSetOp(
                str(rng.choice(("gen_simes", "gen_hochberg_stepup"))), n, 2,
                float(rng.choice((0.02, 0.05, 0.1))), "factor", (lo, hi), pvalues(rng, n),
            )

        def romano():
            n = int(rng.integers(95, 106))
            return ConstantSetOp(
                "romano_stepdown", n, 3, float(rng.choice((0.02, 0.05, 0.1))),
                "independent", 0.0, pvalues(rng, n),
            )

        ops.append(fresh(factor))
        ops.append(fresh(romano))
        rho, k = sorted(ref.TABLE1)[r % len(ref.TABLE1)]
        ops.append(Table1Op(rho, k, pvalues(rng, 10)))
        proc, n, k = FAULT_SETS[r % len(FAULT_SETS)]
        ops.append(ConstantSetOp(
            proc, n, k, round(0.05 - 0.001 * (r // len(FAULT_SETS)), 3), "equicorr", 0.9,
            pvalues(rng, n), expect_fault=True,
        ))
        pvals = pvalues(rng, 10)
        pfile = os.path.join(workdir, f"pvalues-{r}.csv")
        with open(pfile, "w", encoding="utf-8") as fh:
            fh.write("id,p\n" + "".join(f"h{j},{p!r}\n" for j, p in enumerate(pvals)))
        ops.append(TSetOp((2, 5, 10, 30)[r % 4], 424_242 + r, pvals, pfile))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# studies


def _parse_simulate(text):
    lines = text.strip().splitlines()
    if not lines or lines[0] != "study,procedure,metric,estimate,std_error,reps,seed":
        return None
    cells = {}
    for line in lines[1:]:
        name, proc, metric, est, se, reps, seed = line.split(",")
        cells[(proc, metric)] = (est, float(est), float(se), int(reps), int(seed))
    return cells


def _study_problems(label, cells, procedures, metrics, model_kind, alpha, reps, seed, n1, n):
    """Properties every study config must show; returns a problem list."""
    problems = []
    if cells is None or set(cells) != {(p, m) for p in procedures for m in metrics}:
        return [f"{label}: cells missing or extra"]
    for (proc, metric), (_, est, se, got_reps, got_seed) in cells.items():
        if got_reps != reps or got_seed != seed:
            problems.append(f"{label}: reps/seed echoed as {got_reps}/{got_seed}")
        if metric == "ave_power" and n1 == 0:
            if not math.isnan(est):
                problems.append(f"{label}: ave_power {est} with no effects")
            continue
        if not (0.0 <= est <= 1.0):
            problems.append(f"{label}: {proc} {metric} = {est} outside [0, 1]")
        if metric != "ave_power" and abs(se - math.sqrt(est * (1 - est) / reps)) > 1e-9:
            problems.append(f"{label}: {proc} {metric} std_error {se} is not binomial")
    band = alpha + SE_BAND * math.sqrt(alpha * (1 - alpha) / reps)
    for proc in procedures:
        get = lambda m: cells[(proc, m)]  # noqa: E731
        claims = (
            n1 == 0
            or (proc in STRONG and model_kind in ("equicorr", "independent"))
            or (proc in INDEPENDENT_ONLY and model_kind == "independent")
        )
        if "kfwer" in metrics and claims and get("kfwer")[1] > band:
            problems.append(f"{label}: {proc} k-FWER {get('kfwer')[1]:.4f} > {band:.4f}")
        if "kfwer" in metrics and "power_at_least_k" in metrics and n1 == 0:
            if get("kfwer")[0] != get("power_at_least_k")[0]:
                problems.append(f"{label}: {proc} kfwer != power_at_least_k with no effects")
        if "kfwer" in metrics and n1 == n and get("kfwer")[1] != 0.0:
            problems.append(f"{label}: {proc} kfwer {get('kfwer')[1]} with no true nulls")
        if "power_at_least_k_false" in metrics and "power_at_least_k" in metrics:
            if get("power_at_least_k_false")[1] > get("power_at_least_k")[1]:
                problems.append(f"{label}: {proc} power_at_least_k_false > power_at_least_k")
    return problems


class SimulateOp:
    """One config submitted as one in-process ``kfwer simulate --config``."""

    kind = "study"
    expect_fault = False

    def __init__(self, path, cfg, model_kind, table2_ref=None):
        self.path, self.cfg, self.model_kind = path, cfg, model_kind
        self.table2_ref = table2_ref
        self.reps = cfg["reps"]
        n = cfg["n"]
        self.n1 = cfg["n1"] if "n1" in cfg else sum(1 for m in cfg["mu"] if m != 0.0)
        self.constants = sum(
            n if p.startswith("classic") else n - cfg["k"] + 1 for p in cfg["procedures"]
        )
        self.label = cfg["name"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(schema_version=1, **cfg), fh)

    def run(self, span):
        with span("cli", "simulate"):
            return run_cli(["simulate", "--config", self.path])

    def check(self, out):
        code, text = out
        if code != 0:
            return False, [f"{self.label}: exit code {code}"]
        cfg = self.cfg
        procs = [CLI_NAMES[p] for p in cfg["procedures"]]
        cells = _parse_simulate(text)
        problems = _study_problems(
            self.label, cells, procs, cfg["metrics"], self.model_kind, cfg["alpha"],
            cfg["reps"], cfg["seed"], self.n1, cfg["n"],
        )
        if self.table2_ref is not None and not problems:
            est = cells[("gen_simes", "partial_rejections")][1]
            tol = SE_BAND * math.sqrt(self.table2_ref * (1 - self.table2_ref) / cfg["reps"])
            if abs(est - self.table2_ref) > tol:
                problems.append(f"{self.label}: partial rate {est:.4f} vs Table 2 {self.table2_ref}")
        return False, problems


# procedure ids behind the command-line names the configs use
CLI_NAMES = {
    "gen-simes": "gen_simes", "classic-simes": "classic_simes",
    "gen-hochberg": "gen_hochberg_stepup", "gen-holm": "gen_holm_stepdown",
    "gen-single-step": "gen_single_step", "classic-holm": "classic_holm",
}
SMALLN_REPS = 6000
SMALLN_RHOS = (0.0, 0.25, 0.5, 0.75)
PROCS_GLOBAL = ["gen-simes", "classic-simes"]
PROCS_MULTIPLE = ["gen-hochberg", "gen-holm", "gen-single-step", "classic-holm"]
_TABLE2_CELLS = tuple(
    (n, k, rho, value)
    for (n, k), row in sorted(ref.TABLE2.items())
    for rho, value in zip(ref.TABLE2_RHOS, row)
)


def build_smalln(seed, round_ids, workdir):
    out = []
    for r in round_ids:
        rng = _rng(seed, "study-smalln", r)
        ops = []

        def seed_of():
            return int(rng.integers(1, 2**31 - 1))

        # fig1 grid: n = 10, every (k, rho) pair, two effect counts each; the
        # global tests and the multiple-testing rules share each sample
        for k, rho in ((k, rho) for k in (2, 3) for rho in SMALLN_RHOS):
            for n1 in rng.choice(11, size=2, replace=False):
                cfg = dict(
                    name=f"fig1-r{r}-rho{rho:g}-k{k}-n1_{n1}", n=10, k=k, alpha=0.05,
                    model={"kind": "equicorr", "rho": rho}, procedures=PROCS_GLOBAL + PROCS_MULTIPLE,
                    reps=SMALLN_REPS, seed=seed_of(), n1=int(n1),
                    effect=round(float(rng.uniform(1.5, 2.5)), 3),
                    metrics=["power_at_least_k", "power_at_least_k_false", "kfwer", "ave_power"],
                )
                ops.append(SimulateOp(os.path.join(workdir, f"{cfg['name']}.json"), cfg, "equicorr"))
        # table2 cells with seeds fixed by the round: the published rates
        # are checked at 4 SE, so their outcome must not depend on the seed
        for j in range(4):
            idx = (4 * r + j) % len(_TABLE2_CELLS)
            n, k, rho, value = _TABLE2_CELLS[idx]
            cfg = dict(
                name=f"table2-r{r}-rho{rho:g}-k{k}-n{n}", n=n, k=k, alpha=0.05,
                model={"kind": "equicorr", "rho": rho}, procedures=["gen-simes"],
                reps=SMALLN_REPS, seed=106_000 + 16 * r + idx, n1=0,
                metrics=["partial_rejections", "kfwer", "power_at_least_k"],
            )
            ops.append(SimulateOp(os.path.join(workdir, f"{cfg['name']}.json"), cfg, "equicorr", value))
        # fig3: two-block factor model, effects on the high-loading block
        for n1 in rng.choice((0, 2, 5, 10, 15, 20), size=4, replace=False):
            n1 = int(n1)
            cfg = dict(
                name=f"fig3-r{r}-n1_{n1}", n=20, k=2, alpha=0.05,
                model={"kind": "factor", "loadings": list(two_block(20, 0.25, 0.75))},
                procedures=PROCS_GLOBAL, reps=SMALLN_REPS, seed=seed_of(),
                mu=[0.0] * (20 - n1) + [2.0] * n1,
                metrics=["power_at_least_k", "power_at_least_k_false", "kfwer"],
            )
            ops.append(SimulateOp(os.path.join(workdir, f"{cfg['name']}.json"), cfg, "factor"))
        out.append(ops)
    return out


class ExperimentOp:
    """One fig5-style config run through ``run_experiment``."""

    kind = "study"
    expect_fault = False
    PROCS = ("gen_hochberg_stepup", "lr_stepup", "classic_hochberg")
    METRICS = ("ave_power", "kfwer", "power_at_least_k", "power_at_least_k_false")

    def __init__(self, k, n1, effect, reps, seed, alpha=0.05):
        self.cfg = kfwer.ExperimentConfig(
            n=1000, k=k, alpha=alpha, model=kfwer.independent(), procedures=self.PROCS,
            reps=reps, seed=seed, name=f"fig5-k{k}-n1_{n1}", n1=n1, effect=effect,
            metrics=self.METRICS,
        )
        self.reps = reps
        self.constants = (1000 - k + 1) * 2 + 1000
        self.label = f"fig5 k={k} n1={n1} effect={effect} seed={seed}"

    def run(self, span):
        with span("simlab", "run_experiment"):
            return kfwer.run_experiment(self.cfg)

    def check(self, report):
        cfg = self.cfg
        cells = {
            (c.procedure, c.metric): (format(c.estimate, ".17g"), c.estimate, c.std_error, c.reps, cfg.seed)
            for c in report.cells
        }
        problems = _study_problems(
            self.label, cells, self.PROCS, self.METRICS, "independent", cfg.alpha,
            cfg.reps, cfg.seed, cfg.n1, cfg.n,
        )
        if not problems:
            for metric in self.METRICS:
                gh = cells[("gen_hochberg_stepup", metric)][1]
                lr = cells[("lr_stepup", metric)][1]
                if gh < lr:
                    problems.append(f"{self.label}: gen-Hochberg {metric} {gh} < LR step-up {lr}")
        return False, problems


LARGEN_REPS = 2000
LARGEN_N1 = (100, 250, 500, 750, 900)  # the fig5 grid, jittered per config


def build_largen(seed, round_ids, workdir):
    out = []
    for r in round_ids:
        rng = _rng(seed, "study-largen", r)
        ops = []
        for k in (10, 25):
            for n1 in LARGEN_N1:
                ops.append(ExperimentOp(
                    k, n1 + int(rng.integers(-30, 31)), round(float(rng.uniform(1.75, 2.25)), 3),
                    LARGEN_REPS, int(rng.integers(1, 2**31 - 1)),
                ))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# oracle


def _oracle_model(kind, rng, n):
    if kind == "independent":
        return kfwer.independent(), "independent"
    if kind == "equicorr":
        rho = float(rng.choice(_grid(0.10, 0.70)))
        return kfwer.equicorrelated_normal(rho), f"equicorr:{rho:g}"
    lo, hi = float(rng.choice(_grid(0.15, 0.35))), float(rng.choice(_grid(0.55, 0.80)))
    return kfwer.factor_normal(two_block(n, lo, hi)), f"factor:{lo:g}/{hi:g}"


class OracleOp:
    """One call into ``bounds``; paired ops share their constants."""

    kind = "oracle"
    expect_fault = False

    def __init__(self, call, model, desc, n, k, alpha, values, reps=0, seed=0):
        self.call, self.model, self.n, self.k, self.alpha = call, model, n, k, alpha
        self.cv = kfwer.CriticalVector(values, k, n)
        self.reps, self.seed = reps, seed
        self.constants = n - k + 1
        self.label = f"{call} {desc} n={n} k={k} alpha={alpha:g}"
        self.partner = None

    def run(self, span):
        with span("bounds", self.call):
            if self.call == "exact":
                return kfwer.union_prob_exact_smalln(self.cv)
            if self.call == "union_mc":
                return kfwer.union_prob_mc(self.model, self.cv, self.reps, self.seed)
            if self.call == "lemma21":
                return kfwer.lemma21_rhs_mc(self.model, self.cv, self.reps, self.seed)
            model, k = self.model, self.k
            return kfwer.bound_eq22(lambda u: kfwer.gk_evaluate(model, k, u), self.cv)


def _se(p, reps):
    return math.sqrt(p * (1 - p) / reps)


def oracle_check(ops_outputs):
    """Check one round of oracle outputs; ops pair up through ``partner``."""
    results = {id(op): out for op, out in ops_outputs}
    problems = {}
    for op, out in ops_outputs:
        msgs = []
        if op.call == "exact":
            if abs(out.value - op.alpha) > 1e-8:
                msgs.append(f"{op.label}: exact {out.value!r} vs alpha")
        elif op.call == "union_mc":
            band = SE_BAND * _se(op.alpha, op.reps)
            # exact under independence; a Lemma 2.1 side is held to the identity
            exact = op.model.kind == "independent" and op.partner is None
            if exact and abs(out.value - op.alpha) > band:
                msgs.append(f"{op.label}: {out.value:.5f} not within {band:.5f} of alpha")
            if out.value > op.alpha + band:
                msgs.append(f"{op.label}: {out.value:.5f} above alpha + 4 SE")
        elif id(op.partner) not in results:
            pass  # the partner raised, and counts in ``failed``
        elif op.call == "lemma21":
            lhs = results[id(op.partner)]
            tol = SE_BAND * math.hypot(lhs.std_error, out.std_error)
            if abs(lhs.value - out.value) > tol:
                msgs.append(f"{op.label}: identity sides {lhs.value:.5f} / {out.value:.5f}")
        else:
            mc = results[id(op.partner)]
            if mc.value > out + SE_BAND * mc.std_error:
                msgs.append(f"{op.label}: union {mc.value:.5f} above bound {out:.5f}")
            # calibrated constants make each increment alpha (1 - C(i-1,k)/C(i,k))
            want = op.alpha * (1 + sum(op.k / i for i in range(op.k + 1, op.n + 1)))
            if abs(out / want - 1) > REL_TOL:
                msgs.append(f"{op.label}: bound {out!r} vs closed form {want!r}")
        problems[id(op)] = msgs
    return problems


ORACLE_REPS = 200_000
LEMMA_REPS = 100_000  # the smallest lemma21_rhs_mc accepts
_EXACT_SHAPES = ((3, 2), (4, 2), (4, 3))


def build_oracle(seed, round_ids, workdir):
    out = []
    for r in round_ids:
        rng = _rng(seed, "oracle", r)
        ops = []

        def seed_of():
            return int(rng.integers(1, 2**31 - 1))

        # sizes are fixed per slot; alpha, rho, loadings and seeds vary. The
        # bulk is 13 union_mc calls of about one cost, so the median and the
        # tail each fall inside one group of like operations
        for n, k in _EXACT_SHAPES:
            alpha = round(float(rng.uniform(0.01, 0.2)), 4)
            values = kfwer.gen_simes_critvals_closed_form(n, k, alpha).values
            ops.append(OracleOp("exact", None, "independent", n, k, alpha, values))
        for k in (2, 3):
            alpha = float(rng.choice((0.05, 0.1)))
            values = kfwer.gen_simes_critvals_closed_form(30, k, alpha).values
            ops.append(OracleOp("union_mc", kfwer.independent(), "independent", 30, k, alpha,
                                values, ORACLE_REPS, seed_of()))
        for kind, k, extra in (("equicorr", 2, 3), ("equicorr", 3, 3), ("factor", 2, 2)):
            n, alpha = 20, float(rng.choice((0.05, 0.1)))
            model, desc = _oracle_model(kind, rng, n)
            values = kfwer.gen_simes_critvals(n, k, alpha, model).values
            mc = OracleOp("union_mc", model, desc, n, k, alpha, values, ORACLE_REPS // 2, seed_of())
            bound = OracleOp("bound_eq22", model, desc, n, k, alpha, values)
            bound.partner = mc
            ops += [mc, bound]
            ops += [OracleOp("union_mc", model, desc, n, k, alpha, values, ORACLE_REPS // 2,
                             seed_of()) for _ in range(extra)]
        kinds = ("independent", "equicorr", "factor")
        for j, k in enumerate((2, 2, 3)):
            n, kind = 7, kinds[(r + j) % 3]
            model, desc = _oracle_model(kind, rng, n)
            alpha = float(rng.choice((0.05, 0.1)))
            values = (
                kfwer.gen_simes_critvals_closed_form(n, k, alpha).values
                if kind == "independent" else kfwer.gen_simes_critvals(n, k, alpha, model).values
            )
            lhs = OracleOp("union_mc", model, desc, n, k, alpha, values, ORACLE_REPS, seed_of())
            rhs = OracleOp("lemma21", model, desc, n, k, alpha, values, LEMMA_REPS, seed_of())
            lhs.partner, rhs.partner = rhs, lhs
            ops += [lhs, rhs]
        out.append(ops)
    return out


BUILDERS = {
    "study-smalln": build_smalln,
    "study-largen": build_largen,
    "constants": build_constants,
    "oracle": build_oracle,
}


def check_round(ops_outputs):
    """Returns (faults, problems) for one round of (op, output) pairs."""
    oracle = [(op, out) for op, out in ops_outputs if op.kind == "oracle"]
    oracle_problems = oracle_check(oracle) if oracle else {}
    faults, problems = 0, []
    for op, out in ops_outputs:
        if op.kind == "oracle":
            problems += oracle_problems[id(op)]
            continue
        fault, msgs = op.check(out)
        faults += int(fault)
        problems += msgs
    return faults, problems
