"""End-to-end command-line checks, run in process through cli.main."""

import json
import os

import pytest

import kfwer
import kfwer.cli as cli
from kfwer import (
    ExperimentConfig,
    NumericalError,
    PValueVector,
    gen_simes_critvals,
    independent,
    run_experiment,
    stepup_apply,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# critvals


def test_critvals_lr_stepup_golden(capsys):
    code, out, err = run_cli(
        capsys, "critvals", "--procedure", "lr-stepup", "--n", "10",
        "--k", "2", "--alpha", "0.05", "--model", "independent",
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "i,alpha_i,padded_c_i"
    assert lines[1] == "1,,0.01"  # below k the alpha column is empty
    assert lines[2] == "2,0.01,0.01"
    assert lines[10] == "10,0.05,0.05"
    assert len(lines) == 11
    assert out.endswith("\n") and "\r" not in out


def test_critvals_equicorr_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "critvals", "--procedure", "gen-simes", "--n", "10",
        "--k", "2", "--alpha", "0.05", "--model", "equicorr:0.25",
    )
    assert code == 0
    got = float(out.splitlines()[2].split(",")[1])
    assert got == pytest.approx(0.0177, abs=5e-4)


def test_critvals_classic_ignores_k(capsys):
    code, out, _ = run_cli(
        capsys, "critvals", "--procedure", "classic-simes", "--n", "4",
        "--k", "3", "--alpha", "0.05",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "1,0.0125,0.0125"  # k plays no role in the classics


def test_critvals_factor_model_file(tmp_path, capsys):
    f = tmp_path / "loadings.txt"
    f.write_text("0.5, 0.5\n0.5 0.5\n")
    code, out, _ = run_cli(
        capsys, "critvals", "--procedure", "gen-simes", "--n", "4",
        "--k", "2", "--alpha", "0.05", "--model", f"factor:{f}",
    )
    assert code == 0
    assert len(out.splitlines()) == 5


def test_critvals_t_model_spec(capsys):
    code, out, _ = run_cli(
        capsys, "critvals", "--procedure", "gen-simes", "--n", "4",
        "--k", "2", "--alpha", "0.05", "--model", "t:0.25:5",
    )
    assert code == 0
    vals = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_critvals_binomial_past_float_range_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "critvals", "--procedure", "gen-simes", "--n", "1100",
        "--k", "550", "--alpha", "0.05", "--model", "equicorr:0.3",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "C(1100, 550) exceeds the largest float" in err


def test_critvals_legacy_t_spec_warns_and_exits_0(capsys):
    # alpha_3's target 3.09e-7 lay below the resolution 1/200000 of the
    # sample store SAMPLES:SEED once named; the exact t model solves it
    with pytest.warns(FutureWarning, match="unused"):
        code, out, err = run_cli(
            capsys, "critvals", "--procedure", "gen-simes", "--n", "100",
            "--k", "3", "--alpha", "0.05", "--model", "t:0.25:5:200000:7",
        )
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 101


def test_critvals_usage_errors(capsys):
    code, _, err = run_cli(
        capsys, "critvals", "--procedure", "gen-simes", "--n", "1",
        "--k", "2", "--alpha", "0.05",
    )
    assert code == 2
    assert "n must be at least k" in err

    code, _, err = run_cli(
        capsys, "critvals", "--procedure", "gen-simes", "--n", "4",
        "--k", "2", "--alpha", "0.05", "--model", "equicorr:abc",
    )
    assert code == 2 and "bad numeric field" in err

    code, _, err = run_cli(
        capsys, "critvals", "--procedure", "gen-simes", "--n", "4",
        "--k", "2", "--alpha", "0.05", "--model", "mystery:1",
    )
    assert code == 2 and "bad model spec" in err

    code, _, err = run_cli(
        capsys, "critvals", "--procedure", "no-such-rule", "--n", "4",
        "--k", "2", "--alpha", "0.05",
    )
    assert code == 2
    assert "unknown procedure" in err and "gen-hochberg" in err


def test_critvals_out_file(tmp_path, capsys):
    target = tmp_path / "c.csv"
    code, out, _ = run_cli(
        capsys, "critvals", "--procedure", "lr-stepdown", "--n", "3",
        "--k", "2", "--alpha", "0.05", "--out", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("i,alpha_i,padded_c_i\n")


# ---------------------------------------------------------------------------
# apply


def write_pvalues(tmp_path, text, name="p.csv"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_apply_classic_hochberg_golden(tmp_path, capsys):
    path = write_pvalues(tmp_path, "id,p\na,0.005\nb,0.025\nc,0.5\n")
    code, out, _ = run_cli(
        capsys, "apply", "--procedure", "classic-hochberg",
        "--pvalues", path, "--alpha", "0.05",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# procedure=classic_hochberg, n=3, k=1, alpha=0.05, i0=2"
    assert lines[1] == "id,p,rank,critical_value,rejected"
    assert lines[2] == "a,0.005,1,0.01666666667,true"
    assert lines[3] == "b,0.025,2,0.025,true"
    assert lines[4] == "c,0.5,3,0.05,false"


def test_apply_reports_no_rejections_as_i0_none(tmp_path, capsys):
    path = write_pvalues(tmp_path, "id,p\na,0.9\nb,0.95\n")
    code, out, _ = run_cli(
        capsys, "apply", "--procedure", "classic-holm",
        "--pvalues", path, "--alpha", "0.05",
    )
    assert code == 0
    assert "i0=none" in out.splitlines()[0]
    assert all(line.endswith("false") for line in out.splitlines()[2:])


def test_apply_round_trips_with_library(tmp_path, capsys):
    entries = (("h1", 0.001), ("h2", 0.004), ("h3", 0.03), ("h4", 0.2), ("h5", 0.9))
    body = "id,p\n" + "".join(f"{i},{p}\n" for i, p in entries)
    path = write_pvalues(tmp_path, body)
    code, out, _ = run_cli(
        capsys, "apply", "--procedure", "gen-simes", "--pvalues", path,
        "--k", "2", "--alpha", "0.05",
    )
    assert code == 0
    want = stepup_apply(
        PValueVector(entries), gen_simes_critvals(5, 2, 0.05, independent())
    )
    flags = {line.split(",")[0]: line.split(",")[4] == "true"
             for line in out.splitlines()[2:]}
    assert flags == {r.id: r.rejected for r in want.records}
    assert f"i0={want.i0}" in out.splitlines()[0]


def test_apply_blank_lines_are_skipped(tmp_path, capsys):
    path = write_pvalues(tmp_path, "id,p\na,0.01\n\nb,0.5\n")
    code, out, _ = run_cli(
        capsys, "apply", "--procedure", "classic-simes",
        "--pvalues", path, "--alpha", "0.05",
    )
    assert code == 0
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize("body,fragment", [
    ("p,id\na,0.1\n", ":1:"),
    ("id,p\na,0.1,extra\n", ":2:"),
    ("id,p\na b,0.1\n", "id must match"),
    ("id,p\na,0.1\na,0.2\n", "duplicate id"),
    ("id,p\na,nope\n", "bad p-value"),
    ("id,p\na,1.5\n", "outside [0, 1]"),
    ("id,p\n", "no data rows"),
])
def test_apply_rejects_malformed_files(tmp_path, capsys, body, fragment):
    path = write_pvalues(tmp_path, body)
    code, _, err = run_cli(
        capsys, "apply", "--procedure", "classic-simes",
        "--pvalues", path, "--alpha", "0.05",
    )
    assert code == 2
    assert fragment in err


def test_apply_missing_file(capsys):
    code, _, err = run_cli(
        capsys, "apply", "--procedure", "classic-simes",
        "--pvalues", "/does/not/exist.csv", "--alpha", "0.05",
    )
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# simulate


def config_doc(**overrides):
    doc = {
        "schema_version": 1,
        "name": "unit",
        "n": 4,
        "k": 2,
        "alpha": 0.05,
        "model": {"kind": "independent"},
        "procedures": ["gen-simes"],
        "reps": 1000,
        "seed": 7,
        "metrics": ["kfwer", "global_reject_rate"],
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    f = tmp_path / name
    f.write_text(json.dumps(doc))
    return str(f)


def test_simulate_single_config_matches_library(tmp_path, capsys):
    path = write_config(tmp_path, config_doc())
    code, out, _ = run_cli(capsys, "simulate", "--config", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "study,procedure,metric,estimate,std_error,reps,seed"
    cfg = ExperimentConfig(n=4, k=2, alpha=0.05, model=independent(),
                           procedures=("gen_simes",), reps=1000, seed=7,
                           name="unit", metrics=("kfwer", "global_reject_rate"))
    want = run_experiment(cfg)
    cells = {}
    for line in lines[1:]:
        study, proc, metric, est, se, reps, seed = line.split(",")
        assert (study, proc, reps, seed) == ("unit", "gen_simes", "1000", "7")
        cells[metric] = float(est)
    assert cells["kfwer"] == pytest.approx(want.value("gen_simes", "kfwer"))
    assert cells["global_reject_rate"] == pytest.approx(
        want.value("gen_simes", "global_reject_rate")
    )


def test_simulate_config_list_form(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "configs": [
            {k: v for k, v in config_doc(name="one").items() if k != "schema_version"},
            {k: v for k, v in config_doc(name="two", seed=8).items() if k != "schema_version"},
        ],
    }
    path = write_config(tmp_path, doc)
    code, out, _ = run_cli(capsys, "simulate", "--config", path)
    assert code == 0
    studies = {line.split(",")[0] for line in out.splitlines()[1:]}
    assert studies == {"one", "two"}


def test_simulate_output_independent_of_thread_count(tmp_path, capsys, monkeypatch):
    doc = {
        "schema_version": 1,
        "configs": [
            {k: v for k, v in config_doc(name=f"c{i}", seed=20 + i, model=model).items()
             if k != "schema_version"}
            for i, model in enumerate((
                {"kind": "independent"},
                {"kind": "equicorr", "rho": 0.5},
                {"kind": "factor", "loadings": [0.3, 0.5, 0.7, 0.9]},
                {"kind": "t", "rho": 0.25, "dof": 5},
            ))
        ],
    }
    path = write_config(tmp_path, doc)
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("KFWER_THREADS", threads)
        code, out, _ = run_cli(capsys, "simulate", "--config", path)
        assert code == 0 and "# error" not in out
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_simulate_study_filter(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--study", "fig1-rho0.75-k3")
    assert code == 0
    lines = out.splitlines()[1:]
    assert lines
    assert all(line.split(",")[0].startswith("fig1-rho0.75-k3") for line in lines)
    code, out, err = run_cli(capsys, "simulate", "--study", "fig1-k2-k3")
    assert code == 2 and out == "" and "repeated filter" in err


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.mark.parametrize("study", ["fig3", "fig2-rho0.5-k2", "fig4"])
def test_simulate_study_output_matches_golden(capsys, study):
    # the determinism contract: a canned study's CSV never changes by a byte
    # unless its decisions or streams change on purpose
    code, out, err = run_cli(capsys, "simulate", "--study", study)
    assert code == 0 and err == ""
    with open(os.path.join(DATA, f"simulate_{study}.csv"), encoding="utf-8", newline="") as fh:
        assert out == fh.read()


def test_simulate_flag_xor(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate")
    assert code == 2 and "exactly one" in err
    path = write_config(tmp_path, config_doc())
    code, _, err = run_cli(capsys, "simulate", "--config", path, "--study", "fig1")
    assert code == 2


def test_simulate_schema_and_key_validation(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--config",
        write_config(tmp_path, config_doc(schema_version=2), "v2.json"),
    )
    assert code == 2 and "schema_version" in err

    code, _, err = run_cli(
        capsys, "simulate", "--config",
        write_config(tmp_path, config_doc(bogus=1), "bogus.json"),
    )
    assert code == 2 and "unknown keys" in err

    doc = config_doc()
    del doc["reps"]
    code, _, err = run_cli(
        capsys, "simulate", "--config", write_config(tmp_path, doc, "missing.json")
    )
    assert code == 2 and "missing keys" in err

    doc = config_doc(model={"kind": "equicorr"})
    code, _, err = run_cli(
        capsys, "simulate", "--config", write_config(tmp_path, doc, "model.json")
    )
    assert code == 2 and "takes keys" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "simulate", "--config", str(bad))
    assert code == 2 and "invalid JSON" in err


@pytest.mark.parametrize("doc,fragment", [
    (config_doc(schema_version=True), "schema_version must be 1"),
    (config_doc(name=None), "name must be a string"),
    (config_doc(name=7), "name must be a string"),
    ({"schema_version": 1, "configs": [{k: v for k, v in config_doc(name=None).items()
                                        if k != "schema_version"}]},
     "name must be a string"),
])
def test_simulate_rejects_bool_schema_version_and_non_string_name(tmp_path, capsys, doc,
                                                                   fragment):
    code, out, err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, doc))
    assert code == 2 and out == ""
    assert err.startswith("error:") and fragment in err


_T_MODEL = {"kind": "t", "rho": 0.25, "dof": 5}


@pytest.mark.parametrize("override,fragment", [
    ({"n": 10.5}, "n must be an integer"),
    ({"k": True}, "k must be an integer"),
    ({"alpha": "0.05"}, "alpha must be a number"),
    ({"reps": 1000.5}, "reps must be an integer"),
    ({"seed": None}, "seed must be an integer"),
    ({"n1": "ten"}, "n1 must be an integer"),
    ({"effect": None}, "effect must be a number"),
    ({"mu": [0.0, "x", 0.0, 0.0]}, "mu must be a number"),
    ({"metrics": None}, "metrics must be a list"),
    ({"model": {"kind": "equicorr", "rho": "abc"}}, "rho must be a number"),
    ({"model": {**_T_MODEL, "dof": 5.5}}, "dof must be an integer"),
    # the unused legacy fields of a t model are still checked
    ({"model": {**_T_MODEL, "samples": "many", "seed": 3}}, "sample_size must be an integer"),
    ({"model": {**_T_MODEL, "samples": 2000, "seed": 3.5}}, "seed must be an integer"),
    ({"model": {"kind": "factor", "loadings": 0.5}}, "loadings must be a list"),
    ({"model": {"kind": ["t"]}}, "unknown model kind"),
])
def test_simulate_rejects_bad_field_values(tmp_path, capsys, override, fragment):
    # values are never truncated or coerced from strings; each is a usage error
    path = write_config(tmp_path, config_doc(**override))
    code, out, err = run_cli(capsys, "simulate", "--config", path)
    assert code == 2 and out == ""
    assert err.startswith("error:") and fragment in err


def test_simulate_all_failures_exit_3(tmp_path, capsys, monkeypatch):
    real = kfwer.simlab._constants_for

    def broken(proc, cfg):
        raise NumericalError("quadrature fell apart")

    monkeypatch.setattr(kfwer.simlab, "_constants_for", broken)
    path = write_config(tmp_path, config_doc())
    code, out, _ = run_cli(capsys, "simulate", "--config", path)
    assert code == 3
    assert "# error study=unit" in out
    monkeypatch.setattr(kfwer.simlab, "_constants_for", real)


def test_simulate_partial_failure_exit_0(tmp_path, capsys, monkeypatch):
    real = kfwer.simlab._constants_for

    def flaky(proc, cfg):
        if cfg.name == "two":
            raise NumericalError("synthetic")
        return real(proc, cfg)

    monkeypatch.setattr(kfwer.simlab, "_constants_for", flaky)
    doc = {
        "schema_version": 1,
        "configs": [
            {k: v for k, v in config_doc(name="one").items() if k != "schema_version"},
            {k: v for k, v in config_doc(name="two").items() if k != "schema_version"},
        ],
    }
    path = write_config(tmp_path, doc)
    code, out, _ = run_cli(capsys, "simulate", "--config", path)
    assert code == 0
    assert "# error study=two" in out


# ---------------------------------------------------------------------------
# verify and the top-level dispatcher


def test_verify_suite_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "dominance")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert "nonsense" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    from kfwer.verify import CheckResult

    monkeypatch.setattr(
        cli, "run_suite",
        lambda name, seed: (CheckResult("forced", (0.0,), 1e-9, False),),
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "table1")
    assert code == 1
    assert "0/1 checks passed" in out


def test_numerical_failure_exit_code(capsys, monkeypatch):
    def explode(name, seed):
        raise NumericalError("did not converge")

    monkeypatch.setattr(cli, "run_suite", explode)
    code, _, err = run_cli(capsys, "verify", "--suite", "table1")
    assert code == 3
    assert "numerical failure" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
