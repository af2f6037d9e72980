import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import qelm_lab
from qelm_lab.cli import RUN_CONFIG, main
from qelm_lab.noise import PROFILE_KEYS
from test_schema import leaf_paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_subcommand_supports_help(capsys):
    for sub in ("simulate", "train", "scenario", "uq", "calibrate-zne", "report"):
        code, out, _ = run_cli(capsys, sub, "--help")
        assert code == 0
        assert "usage" in out.lower()


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "error" in err.lower()


def test_no_subcommand_prints_help(capsys):
    code, out, _ = run_cli(capsys)
    assert code == 1
    assert "usage" in out.lower()


def test_simulate_bundled_entangling_pair(capsys):
    code, out, _ = run_cli(capsys, "simulate")
    assert code == 0
    assert json.loads(out) == {"00": 0.5, "11": 0.5}


def test_simulate_with_noise_and_shots(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "simulate", "--profile", "device-a", "--shots", "2000", "--seed", "3",
        "--out", str(tmp_path),
    )
    assert code == 0
    dist = json.loads(out)
    assert abs(sum(dist.values()) - 1.0) < 1e-9
    assert (tmp_path / "distribution.json").exists()


def test_simulate_dump_circuit(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--dump-circuit")
    assert code == 0
    assert out.splitlines()[0] == "qubits 2"
    assert "CX 0 1" in out


def test_simulate_custom_circuit_file(capsys, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("qubits 1\nX 0\n")
    code, out, _ = run_cli(capsys, "simulate", "--circuit", str(path))
    assert code == 0
    assert json.loads(out) == {"1": 1.0}


def test_simulate_rejects_negative_shots_before_any_work(capsys, tmp_path):
    # the circuit file is missing: the flag is checked before it is read
    argv = ["simulate", "--shots", "-1", "--circuit", str(tmp_path / "none.txt"), "--out", str(tmp_path / "out")]
    assert run_cli(capsys, *argv) == (1, "", "error: --shots: must not be negative, got -1\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("shots", [[], ["--shots", "0"]])
def test_simulate_rejects_a_seed_without_shots(capsys, tmp_path, shots):
    """The seed only samples shots: without them it would be ignored."""
    argv = ["simulate", "--profile", "device-a", *shots, "--seed", "2", "--out", str(tmp_path / "out")]
    assert run_cli(capsys, *argv) == (1, "", "error: --seed: does not apply to a run without --shots, got 2\n")
    assert not (tmp_path / "out").exists()


def test_simulate_samples_shots_with_seed_0_by_default(capsys):
    given = run_cli(capsys, "simulate", "--profile", "device-a", "--shots", "64")
    assert given[0] == 0
    assert given == run_cli(capsys, "simulate", "--profile", "device-a", "--shots", "64", "--seed", "0")


def test_the_package_pins_blas_to_one_thread_unless_the_caller_set_a_count():
    """Importing qelm_lab (as the qelm-lab script and python -m do first)
    sets each unset BLAS thread variable to 1 and keeps a preset one."""
    names = "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
    env = {key: value for key, value in os.environ.items() if key not in names}
    env["OPENBLAS_NUM_THREADS"] = "3"
    src = str(Path(qelm_lab.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import qelm_lab, os, sys; print(*[os.environ[n] for n in {names!r}]); print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "3 1 1\nTrue\n"


def test_simulate_missing_circuit_file(capsys):
    code, _, err = run_cli(capsys, "simulate", "--circuit", "/nonexistent/path.txt")
    assert code == 1


def test_scenario_requires_profile(capsys):
    code, _, err = run_cli(capsys, "scenario", "--dataset", "regression3")
    assert code == 1
    assert "profile" in err


def test_scenario_rejects_mitigated_without_mitigator(capsys):
    code, _, err = run_cli(
        capsys, "scenario", "--scenario", "C2_1", "--profile", "zero-noise"
    )
    assert code == 1
    assert "mitigator" in err


def test_print_config_round_trips(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "scenario",
        "--profile", "device-a",
        "--dataset", "classification4",
        "--seed", "11",
        "--print-config",
    )
    assert code == 0
    resolved = json.loads(out)
    assert resolved["seed"] == 11
    assert resolved["dataset"]["kind"] == "classification4"
    config_file = tmp_path / "run.json"
    config_file.write_text(out)
    code2, out2, _ = run_cli(capsys, "scenario", "--config", str(config_file), "--print-config")
    assert code2 == 0
    assert json.loads(out2) == resolved


def test_flag_overrides_file_seed(capsys, tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"profile": "zero-noise", "seed": 3}))
    code, out, _ = run_cli(
        capsys, "scenario", "--config", str(config_file), "--seed", "7", "--print-config"
    )
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_env_seed_is_lowest_priority(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QELM_LAB_SEED", "99")
    code, out, _ = run_cli(capsys, "scenario", "--profile", "zero-noise", "--print-config")
    assert json.loads(out)["seed"] == 99
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"profile": "zero-noise", "seed": 3}))
    code, out, _ = run_cli(capsys, "scenario", "--config", str(config_file), "--print-config")
    assert json.loads(out)["seed"] == 3


def test_scenario_end_to_end_and_report_reemission(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(
        capsys,
        "scenario",
        "--profile", "zero-noise",
        "--dataset", "regression3",
        "--dataset-size", "24",
        "--dataset-seed", "2",
        "--repeats", "3",
        "--seed", "5",
        "--jobs", "1",
        "--out", str(out_dir),
    )
    assert code == 0
    results = out_dir / "results.json"
    assert results.exists()
    assert (out_dir / "metrics.csv").exists()
    first_bytes = results.read_bytes()

    re_dir = tmp_path / "re"
    code2, _, _ = run_cli(capsys, "report", "--results", str(results), "--out", str(re_dir))
    assert code2 == 0
    assert (re_dir / "results.json").read_bytes() == first_bytes


def test_uq_subcommand_writes_artifacts(capsys, tmp_path):
    out_dir = tmp_path / "uq"
    code, out, _ = run_cli(
        capsys,
        "uq",
        "--profile", "zero-noise",
        "--dataset", "regression3",
        "--dataset-size", "24",
        "--dataset-seed", "2",
        "--scenario", "C1_2",
        "--uq-method", "bootstrap",
        "--uq-samples", "16",
        "--seed", "5",
        "--out", str(out_dir),
    )
    assert code == 0
    payload = json.loads((out_dir / "uq.json").read_text())
    assert payload["method"] == "bootstrap"
    assert payload["samples"] == 16
    assert "configured" in payload and "ideal" in payload


def test_calibrate_zne_emits_config(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "calibrate-zne",
        "--profile", "zero-noise",
        "--qubits", "2",
        "--gates", "6",
        "--out", str(tmp_path),
    )
    assert code == 0
    chosen = json.loads(out)
    assert chosen["scale_factors"][0] == 1.0
    assert (tmp_path / "zne_config.json").exists()


def test_train_subcommand_saves_model(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "train",
        "--dataset", "regression3",
        "--dataset-size", "30",
        "--dataset-seed", "4",
        "--seed", "1",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert "mse" in out
    model = json.loads((tmp_path / "model.json").read_text())
    assert model["schema"] == "qelm-model/1"
    assert model["task"] == "regression"


def test_train_from_csv(capsys, tmp_path):
    csv_path = tmp_path / "d.csv"
    rows = ["a,b,y"] + [f"{i/40},{(40-i)/40},{i/40 + 1.0}" for i in range(40)]
    csv_path.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(
        capsys, "train", "--data", str(csv_path), "--task", "regression",
        "--out", str(tmp_path / "m"),
    )
    assert code == 0
    assert (tmp_path / "m" / "model.json").exists()


def test_train_csv_requires_task(capsys, tmp_path):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("a,y\n0.1,1\n0.2,2\n")
    code, _, err = run_cli(capsys, "train", "--data", str(csv_path))
    assert code == 1
    assert "task" in err


def test_train_csv_with_a_non_numeric_cell_exits_one(capsys, tmp_path):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("a,b,y\n1,2,3\n1,x,4\n2,3,5\n")
    code, _, err = run_cli(capsys, "train", "--data", str(csv_path), "--task", "regression")
    assert code == 1
    assert err.startswith("error:")
    assert "bad.csv" in err and "row 3" in err and "'b'" in err and "'x'" in err


def test_train_csv_with_a_short_row_exits_one(capsys, tmp_path):
    csv_path = tmp_path / "short.csv"
    csv_path.write_text("a,b,y\n1,2,3\n1,4\n2,3,5\n")
    code, _, err = run_cli(capsys, "train", "--data", str(csv_path), "--task", "regression")
    assert code == 1
    assert "row 3" in err


# A bad value for every run-config key: (config, the key path its error names).
# test_every_run_config_key_has_a_bad_value_case keeps it complete.
BAD_VALUES = [
    ({"scenario": "C9_9"}, "scenario"),
    ({"profile": 5}, "profile"),
    ({"dataset": [1, 2]}, "dataset"),
    ({"dataset": {"kind": "foo"}}, "dataset.kind"),
    ({"dataset": {"size": "many"}}, "dataset.size"),
    ({"dataset": {"size": "120"}}, "dataset.size"),
    ({"dataset": {"size": 0}}, "dataset.size"),
    ({"dataset": {"size": 100_001}}, "dataset.size"),
    ({"dataset": {"seed": 1.5}}, "dataset.seed"),
    ({"dataset": {"noise_level": True}}, "dataset.noise_level"),
    ({"dataset": {"noise_level": "nan"}}, "dataset.noise_level"),
    ({"dataset": {"noise_level": float("nan")}}, "dataset.noise_level"),
    ({"dataset": {"noise_level": -0.5}}, "dataset.noise_level"),
    ({"model": {"reservoir_style": "foo"}}, "model.reservoir_style"),
    ({"model": {"layers": "x"}}, "model.layers"),
    ({"model": {"layers": -3}}, "model.layers"),
    ({"model": {"layers": 0, "reservoir_style": "rotation"}}, "model.layers"),
    ({"model": {"layer": 3}}, "model.layer"),
    ({"model": {"trotter_steps": 0}}, "model.trotter_steps"),
    ({"model": {"trotter_steps": 0, "reservoir_style": "rotation"}}, "model.trotter_steps"),
    ({"model": {"evolution_time": "inf"}}, "model.evolution_time"),
    ({"model": {"evolution_time": float("inf")}}, "model.evolution_time"),
    ({"model": {"j_range": "ab"}}, "model.j_range"),
    ({"model": {"j_range": [float("-inf"), 1]}}, "model.j_range[0]"),
    ({"model": {"h_range": [1]}}, "model.h_range"),
    ({"model": {"feature_map": "foo"}}, "model.feature_map"),
    ({"model": {"shots": 1.5}}, "model.shots"),
    ({"model": {"shots": -1}}, "model.shots"),
    ({"model": {"readout": "svm"}}, "model.readout"),
    ({"dataset": {"kind": "regression3"}, "model": {"readout": "tree"}}, "model.readout"),
    ({"dataset": {"kind": "classification4"}, "model": {"readout": "linear"}}, "model.readout"),
    ({"model": {"entangle": "no"}}, "model.entangle"),
    ({"model": {"entangle": "false"}}, "model.entangle"),
    ({"model": {"readout_hyper": {"ridge": "x"}}}, "model.readout_hyper.ridge"),
    ({"model": {"readout_hyper": {"ridge": -1.0}}}, "model.readout_hyper.ridge"),
    (
        {
            "dataset": {"kind": "classification4"},
            "model": {"readout": "logistic", "readout_hyper": {"max_iter": 2.5}},
        },
        "model.readout_hyper.max_iter",
    ),
    (
        {
            "dataset": {"kind": "classification4"},
            "model": {"readout": "tree", "readout_hyper": {"max_depht": 3}},
        },
        "model.readout_hyper.max_depht",
    ),
    ({"model": {"readout_hyper": {"max_depth": 3}}}, "model.readout_hyper.max_depth"),
    ({"model": {"readout_hyper": {"learning_rate": 0.0}}}, "model.readout_hyper.learning_rate"),
    ({"model": {"readout_hyper": {"learning_rate": -0.1}}}, "model.readout_hyper.learning_rate"),
    ({"model": {"readout_hyper": {"max_iter": 0}}}, "model.readout_hyper.max_iter"),
    ({"model": {"readout_hyper": {"grad_tol": -1e-6}}}, "model.readout_hyper.grad_tol"),
    ({"model": {"readout_hyper": {"max_depth": -1}}}, "model.readout_hyper.max_depth"),
    ({"model": {"readout_hyper": {"min_samples_split": 1}}}, "model.readout_hyper.min_samples_split"),
    ({"scenario": "C2_1", "mitigator": "foo"}, "mitigator"),
    ({"scenario": "C2_1"}, "mitigator"),
    ({"scenario": "C1_1", "mitigator": "zne"}, "mitigator"),
    ({"zne": {"degree": 2}}, "zne.scale_factors"),
    ({"zne": {"scale_factors": [1, "3"]}}, "zne.scale_factors[1]"),
    ({"zne": {"scale_factors": [1, 3, 2]}}, "zne.scale_factors"),
    ({"zne": {"scale_factors": [2, 3]}}, "zne.scale_factors"),
    ({"zne": {"scale_factors": [1]}}, "zne.scale_factors"),
    ({"zne": {"scale_factors": [1, 3], "folding": "local"}}, "zne.folding"),
    ({"zne": {"scale_factors": [1, 3], "extrapolation": "foo"}}, "zne.extrapolation"),
    ({"zne": {"scale_factors": [1, 3], "degree": 3}}, "zne.degree"),
    ({"zne": {"scale_factors": [1, 3], "degree": "1"}}, "zne.degree"),
    ({"zne": {"scale_factors": [1, 3], "degre": 1}}, "zne.degre"),
    ({"qlear": {"corpus": "x"}}, "qlear.corpus"),
    ({"qlear": {"corpus": 0}}, "qlear.corpus"),
    ({"qlear": {"corpus": 1}}, "qlear.corpus"),
    ({"qlear": {"trees": 0}}, "qlear.trees"),
    ({"qlear": {"max_depth": -1}}, "qlear.max_depth"),
    ({"uq": {"method": "foo"}}, "uq.method"),
    ({"scenario": "C3_1"}, "uq"),
    ({"uq": {"method": "bootstrap", "samples": "x"}}, "uq.samples"),
    ({"uq": {"samples": 2.9}}, "uq.samples"),
    ({"uq": {"samples": 1}}, "uq.samples"),
    ({"repeats": 5.0}, "repeats"),
    ({"repeats": 0}, "repeats"),
    ({"repeat": 3}, "repeat"),
    ({"seed": 1.9}, "seed"),
    ({"out": 5}, "out"),
    ({"jobs": 0}, "jobs"),
]


def test_every_run_config_key_has_a_bad_value_case():
    covered = {key.split("[")[0] for _, key in BAD_VALUES}
    assert leaf_paths(RUN_CONFIG) - covered == set()


@pytest.mark.parametrize("config, key", BAD_VALUES)
@pytest.mark.parametrize("print_config", [False, True])
def test_a_bad_config_value_exits_one_naming_its_key(capsys, tmp_path, config, key, print_config):
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps(config))
    argv = ["scenario", "--config", str(config_file)]
    argv += [] if "profile" in config else ["--profile", "device-a"]  # a flag wins over the file
    argv += [] if "out" in config else ["--out", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, *argv, *(["--print-config"] if print_config else []))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {key}:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, line",
    [
        (["--repeats", "0"], "repeats: must be at least 1, got 0"),
        (["--shots", "-1"], "model.shots: must not be negative, got -1"),
        (["--trotter-steps", "0"], "model.trotter_steps: must be at least 1, got 0"),
        (["--layers", "-3"], "model.layers: must be at least 1, got -3"),  # the default Ising reservoir
        (["--reservoir", "rotation", "--layers", "0"], "model.layers: must be at least 1, got 0"),
    ],
)
@pytest.mark.parametrize("print_config", [False, True])
def test_a_bad_run_flag_exits_one_naming_its_key(capsys, tmp_path, flags, line, print_config):
    argv = ["scenario", "--profile", "device-a", *flags, "--out", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, *argv, *(["--print-config"] if print_config else []))
    assert (code, out, err) == (1, "", f"error: {line}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["scenario", "uq"])
@pytest.mark.parametrize("jobs", ["-1", "0"])
def test_jobs_below_one_exits_one(capsys, tmp_path, command, jobs):
    code, out, err = run_cli(
        capsys, command, "--scenario", "C3_2" if command == "uq" else "C1_1",
        "--profile", "device-a", "--dataset-size", "20", "--jobs", jobs,
        "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert out == ""
    assert err == f"error: jobs: must be at least 1, got {jobs}\n"
    assert not (tmp_path / "out").exists()


def test_unknown_readout_kind_fails_before_any_repeat_runs(capsys, tmp_path):
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps({"model": {"readout": "svm"}}))
    code, _, err = run_cli(
        capsys, "scenario", "--config", str(config_file), "--profile", "zero-noise",
        "--dataset-size", "20", "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert err == "error: model.readout: must be one of linear, logistic, tree, got 'svm'\n"
    assert not (tmp_path / "out").exists()


def test_uq_samples_without_method_defaults_to_bootstrap(capsys, tmp_path):
    out_dir = tmp_path / "uq"
    code, _, err = run_cli(
        capsys, "uq", "--profile", "zero-noise", "--dataset-size", "20",
        "--uq-samples", "4", "--seed", "1", "--out", str(out_dir),
    )
    assert code == 0, err
    payload = json.loads((out_dir / "uq.json").read_text())
    assert payload["method"] == "bootstrap"
    assert payload["samples"] == 4


def test_scenario_uq_samples_without_method_defaults_to_bootstrap(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, _, err = run_cli(
        capsys, "scenario", "--scenario", "C3_1", "--profile", "zero-noise",
        "--dataset-size", "20", "--repeats", "3", "--uq-samples", "4", "--seed", "1",
        "--out", str(out_dir),
    )
    assert code == 0, err
    payload = json.loads((out_dir / "results.json").read_text())
    assert payload["uq"]["method"] == "bootstrap"
    assert payload["uq"]["samples"] == 4


@pytest.mark.parametrize(
    "command, dataset, readout",
    [
        ("uq", "regression3", "logistic"),
        ("train", "classification4", "linear"),
    ],
)
def test_readout_that_does_not_fit_the_task_exits_one(capsys, tmp_path, command, dataset, readout):
    argv = [command, "--dataset", dataset, "--readout", readout, "--dataset-size", "20"]
    if command != "train":
        argv += ["--profile", "zero-noise"]
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: model.readout:") and f"{readout!r} does not fit" in err
    assert not (tmp_path / "out").exists()


_RESULTS = {
    "schema": "scenario-report/1",
    "scenario": "C1_1",
    "metric": "mse",
    "runs": [{"repeat": 0, "seed": 1, "metric": 0.2, "ideal_metric": 0.1, "pct_change": 100.0, "error": None}],
}
_RELIABILITY = {"edges": [0.0, 1.0], "mean_confidence": [0.5], "observed_frequency": [0.5], "counts": [2]}


def _results(**change) -> str:
    return json.dumps({**_RESULTS, **change})


@pytest.mark.parametrize(
    "text, problem",
    [
        pytest.param(
            "{not json",
            "error: <file>: not JSON (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))\n",
            id="not-json",
        ),
        pytest.param("[1, 2]", "error: results: expected an object, got [1, 2]\n", id="not-an-object"),
        pytest.param(
            _results(schema="other/1"), "schema: not a scenario-report/1 document, got 'other/1'", id="schema-other"
        ),
        ('{"schema": "scenario-report/1"}', "has no scenario, metric, runs"),
        pytest.param(_results(runs=[1]), "runs[0]: expected an object, got 1", id="run-not-object"),
        pytest.param(_results(runs=[{}]), "runs[0].repeat: required", id="run-empty"),
        pytest.param(_results(runs=5), "runs: expected a list, got 5", id="runs-not-list"),
        pytest.param(
            _results(runs=[{**_RESULTS["runs"][0], "pct_change": "x"}]),
            "runs[0].pct_change: expected",
            id="pct-change-string",
        ),
        pytest.param(
            _results(uq={"configured": {}}), "uq.ideal: required; uq has no ideal", id="uq-no-ideal"
        ),
        pytest.param(
            _results(uq={"configured": {}, "ideal": {}}),
            "uq.configured: has neither intervals nor reliability",
            id="uq-variant-empty",
        ),
        pytest.param(
            _results(uq={"configured": {"intervals": [1]}, "ideal": {"reliability": _RELIABILITY}}),
            "uq.configured.intervals[0]: expected an object, got 1",
            id="interval-not-object",
        ),
        pytest.param(
            _results(uq={"configured": {"reliability": {**_RELIABILITY, "edges": [0.0]}}, "ideal": {}}),
            "uq.configured.reliability: needs one more edge than bins",
            id="reliability-edges",
        ),
    ],
)
def test_report_on_a_malformed_results_file_exits_one(capsys, tmp_path, text, problem):
    results = tmp_path / "results.json"
    results.write_text(text)
    code, out, err = run_cli(
        capsys, "report", "--results", str(results), "--out", str(tmp_path / "out")
    )
    assert code == 1
    assert out == ""
    if problem.startswith("error: "):  # the whole line
        assert err == problem.replace("<file>", str(results))
    else:
        assert err.startswith("error: results: ") and problem in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["uq", "scenario"])
@pytest.mark.parametrize("print_config", [False, True])
def test_one_uq_sample_exits_one_before_any_work(capsys, tmp_path, command, print_config):
    argv = [command, "--profile", "zero-noise", "--dataset-size", "20", "--uq-samples", "1"]
    argv += ["--scenario", "C3_1"] if command == "scenario" else []
    argv += ["--out", str(tmp_path / "out")] + (["--print-config"] if print_config else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: uq.samples:") and "got 1" in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# values the run-config reader rejects before any work

@pytest.mark.parametrize(
    "flag, value", [("--uq-samples", "2.9"), ("--shots", "1.5"), ("--seed", "1.9"), ("--dataset-size", "x")]
)
def test_a_flag_of_the_wrong_type_exits_one_naming_the_flag(capsys, tmp_path, flag, value):
    argv = ["scenario", "--profile", "zero-noise", flag, value, "--out", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: argument {flag}: invalid int value: '{value}'")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["scenario", "uq", "train"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_noise_level_flag_exits_one_naming_its_path(capsys, tmp_path, command, value):
    argv = [command, "--noise-level", value, "--dataset-size", "20", "--out", str(tmp_path / "out")]
    argv += [] if command == "train" else ["--profile", "zero-noise"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: dataset.noise_level: must be finite, got {value}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, key", [(["--layers", "-3"], "model.layers"), (["--trotter-steps", "0"], "model.trotter_steps")])
@pytest.mark.parametrize("reservoir", ["ising", "rotation"])
def test_train_checks_the_model_rules_of_a_run(capsys, tmp_path, flags, key, reservoir):
    argv = ["train", *flags, "--reservoir", reservoir, "--dataset-size", "20", "--out", str(tmp_path / "out")]
    assert run_cli(capsys, *argv) == (1, "", f"error: {key}: must be at least 1, got {flags[1]}\n")
    assert not (tmp_path / "out").exists()


def test_train_uses_the_dataset_seed_it_is_given(capsys, tmp_path):
    mse = {}
    for seed in ("0", "7"):
        code, out, _ = run_cli(
            capsys, "train", "--dataset-seed", seed, "--dataset-size", "30",
            "--out", str(tmp_path / seed),
        )
        assert code == 0
        mse[seed] = out
    assert mse["0"] != mse["7"]


@pytest.mark.parametrize("command", ["train", "scenario"])
def test_a_dataset_size_of_zero_exits_one(capsys, tmp_path, command):
    argv = [command, "--dataset-size", "0", "--out", str(tmp_path / "out")]
    argv += [] if command == "train" else ["--profile", "zero-noise"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: dataset.size: must lie in [20, 100000], got 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "change, key",
    [
        ({"depol1q": 0.5}, "depol1q: unknown key"),
        ({"depol_1q": True}, "depol_1q: expected a number, got True"),
        ({"gate_time_1q_us": "nan"}, "gate_time_1q_us: expected a number, got 'nan'"),
        ({"gate_time_1q_us": float("nan")}, "gate_time_1q_us: must be finite, got nan"),
        ({"readout": [[[1.0, 0.0]]]}, "readout[0]: expected a list of 2"),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "scenario"])
def test_a_profile_value_the_reader_rejects_exits_one_naming_file_and_key(
    capsys, tmp_path, change, key, command
):
    raw = json.loads(resources.files("qelm_lab").joinpath("profiles/device-a.json").read_text())
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**raw, **change}))
    argv = [command, "--profile", str(path), "--out", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: {key}")
    assert not (tmp_path / "out").exists()


def _device_a():
    return json.loads(resources.files("qelm_lab").joinpath("profiles/device-a.json").read_text())


# A bad value for every noise-profile key: (change to device-a, the error
# after the file's name). test_every_profile_key_has_a_bad_value_case keeps
# it complete.
BAD_PROFILE_VALUES = [
    ({"name": 5}, "name: expected a string, got 5"),
    ({"depol_1q": 1.5}, "depol_1q: must lie in [0, 1], got 1.5"),
    ({"depol_2q": -0.1}, "depol_2q: must lie in [0, 1], got -0.1"),
    ({"t1_us": -1.0}, "t1_us: must be positive, got -1.0"),
    ({"t1_us": [0.0] + _device_a()["t1_us"][1:]}, "t1_us[0]: must be positive, got 0.0"),
    ({"t2_us": 0}, "t2_us: must be positive, got 0"),
    ({"gate_time_1q_us": -1}, "gate_time_1q_us: must not be negative, got -1"),
    ({"gate_time_2q_us": -0.3}, "gate_time_2q_us: must not be negative, got -0.3"),
    ({"readout": [], "t1_us": 100.0, "t2_us": 100.0}, "readout: must hold at least one qubit, got []"),
    ({"readout": [[[0.9, 0.2], [0.1, 0.9]]] * 12}, "readout[0][0]: must sum to 1 within 1e-12, got [0.9, 0.2]"),
    ({"readout": [[[1.0, 0.0], [1.2, -0.2]]] * 12}, "readout[0][1][0]: must lie in [0, 1], got 1.2"),
]


def test_every_profile_key_has_a_bad_value_case():
    covered = {problem.split(":")[0].split("[")[0] for _, problem in BAD_PROFILE_VALUES}
    assert leaf_paths(PROFILE_KEYS) - covered == set()


@pytest.mark.parametrize("change, problem", BAD_PROFILE_VALUES)
def test_a_bad_profile_value_exits_one_naming_file_and_key(capsys, tmp_path, change, problem):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**_device_a(), **change}))
    assert run_cli(capsys, "simulate", "--profile", str(path)) == (1, "", f"error: {path}: {problem}\n")


@pytest.mark.parametrize(
    "change, rule",
    [
        ({"t1_us": [50.0, 50.0, 50.0], "readout": [[[0.98, 0.02], [0.03, 0.97]]] * 2},
         "t1_us: needs one value per readout qubit (2), got [50.0, 50.0, 50.0]"),
        ({"t1_us": 50.0, "t2_us": 150.0}, "t2_us[0]: must be at most 2 * t1_us[0] = 100.0, got 150.0"),
        ({"depol_1q": 1.5}, "depol_1q: must lie in [0, 1], got 1.5"),
    ],
)
def test_a_rule_a_profile_file_breaks_exits_one_naming_the_file(capsys, tmp_path, change, rule):
    raw = json.loads(resources.files("qelm_lab").joinpath("profiles/device-a.json").read_text())
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**raw, **change}))
    code, out, err = run_cli(capsys, "simulate", "--profile", str(path))
    assert (code, out, err) == (1, "", f"error: {path}: {rule}\n")


@pytest.mark.parametrize(
    "flags, problem",
    [
        (["--qubits", "30"], "--qubits: must lie in [1, 12] for profile 'device-a', got 30"),
        (["--qubits", "0"], "--qubits: must lie in [1, 12] for profile 'device-a', got 0"),
        (["--gates", "-1"], "--gates: must not be negative, got -1"),
    ],
)
def test_calibrate_zne_rejects_a_bad_flag_with_exit_one(capsys, tmp_path, flags, problem):
    code, out, err = run_cli(capsys, "calibrate-zne", "--profile", "device-a", *flags, "--out", str(tmp_path))
    assert (code, out, err) == (1, "", f"error: {problem}\n")
    assert not (tmp_path / "zne_config.json").exists()


@pytest.mark.parametrize("flag, value", [("--qubits", "30"), ("--gates", "-1"), ("--seed", "4")])
def test_calibrate_zne_from_a_circuit_file_rejects_the_random_circuit_flags(capsys, tmp_path, flag, value):
    circuit = tmp_path / "c2.txt"
    circuit.write_text("qubits 2\nH 0\nCX 0 1\n")
    argv = ["calibrate-zne", "--profile", "device-a", "--circuit", str(circuit), flag, value]
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert (code, out, err) == (1, "", f"error: {flag}: does not apply to a circuit file, got {value}\n")
    assert not (tmp_path / "out").exists()


def test_calibrate_zne_random_circuit_defaults_to_3_qubits_12_gates_seed_0(capsys, tmp_path):
    given = run_cli(capsys, "calibrate-zne", "--profile", "device-c", "--out", str(tmp_path / "a"))
    explicit = ["--qubits", "3", "--gates", "12", "--seed", "0", "--out", str(tmp_path / "b")]
    assert given == run_cli(capsys, "calibrate-zne", "--profile", "device-c", *explicit)
    assert given[0] == 0
    assert (tmp_path / "a" / "zne_config.json").read_bytes() == (tmp_path / "b" / "zne_config.json").read_bytes()


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv, written",
    [(["simulate"], "distribution.json"), (["calibrate-zne", "--profile", "zero-noise"], "zne_config.json")],
)
def test_a_closed_standard_output_ends_with_exit_zero_after_writing_the_files(
    capsys, monkeypatch, tmp_path, argv, written
):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main([*argv, "--out", str(tmp_path)])
    assert (code, capsys.readouterr().err) == (0, "")
    assert (tmp_path / written).read_text().endswith("\n")


def _profile_of_two_qubits(tmp_path):
    raw = json.loads(resources.files("qelm_lab").joinpath("profiles/device-a.json").read_text())
    raw.update({key: raw[key][:2] for key in ("t1_us", "t2_us", "readout")})
    path = tmp_path / "two.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize(
    "command, qubits, profile, problem",
    [
        ("simulate", 21, None, "21 qubits exceeds the ideal-backend cap of 20"),
        ("simulate", 13, "device-a", "13 qubits exceeds the density-backend cap of 12"),
        ("calibrate-zne", 13, "device-a", "13 qubits exceeds the density-backend cap of 12"),
        ("simulate", 3, "two", "profile 'device-a' covers 2 qubits, circuit needs 3"),
        ("calibrate-zne", 3, "two", "profile 'device-a' covers 2 qubits, circuit needs 3"),
    ],
)
def test_a_circuit_too_wide_for_its_backend_exits_one_naming_the_flag(
    capsys, tmp_path, command, qubits, profile, problem
):
    circuit = tmp_path / "wide.txt"
    circuit.write_text(f"qubits {qubits}\n" + "".join(f"H {q}\n" for q in range(qubits)))
    if profile == "two":
        profile = _profile_of_two_qubits(tmp_path)
    argv = [command, "--circuit", str(circuit), "--out", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, *argv, *(["--profile", profile] if profile else []))
    assert (code, out, err) == (1, "", f"error: --circuit: {problem}\n")
    assert not (tmp_path / "out").exists()


def test_a_circuit_as_wide_as_its_profile_runs(capsys, tmp_path):
    circuit = tmp_path / "c2.txt"
    circuit.write_text("qubits 2\nH 0\nCX 0 1\n")
    code, out, _ = run_cli(capsys, "simulate", "--circuit", str(circuit), "--profile", _profile_of_two_qubits(tmp_path))
    assert code == 0 and set(json.loads(out)) == {"00", "01", "10", "11"}


# ---------------------------------------------------------------------------
# results files

@pytest.mark.parametrize(
    "argv",
    [
        ["--scenario", "C3_2", "--dataset", "regression3", "--uq-samples", "4"],
        ["--scenario", "C3_2", "--dataset", "classification4", "--uq-samples", "4"],
        ["--scenario", "C2_1", "--mitigator", "zne", "--dataset", "regression3"],
    ],
    ids=["C3_2-regression-bootstrap", "C3_2-classification-bootstrap", "C2_1-zne"],
)
def test_report_re_emits_every_file_byte_for_byte(capsys, tmp_path, argv):
    run_dir, re_dir = tmp_path / "run", tmp_path / "re"
    code, _, err = run_cli(
        capsys, "scenario", *argv, "--profile", "device-a", "--dataset-size", "20",
        "--repeats", "3", "--seed", "5", "--jobs", "1", "--out", str(run_dir),
    )
    assert code == 0, err
    code, _, err = run_cli(
        capsys, "report", "--results", str(run_dir / "results.json"), "--out", str(re_dir)
    )
    assert code == 0, err
    written = sorted(p.name for p in run_dir.iterdir())
    assert sorted(p.name for p in re_dir.iterdir()) == written
    assert any(name.startswith("uq_") for name in written) == ("C3_2" in argv)
    for name in written:
        assert (re_dir / name).read_bytes() == (run_dir / name).read_bytes(), name


# ---------------------------------------------------------------------------
# model settings fail before any work, also under --print-config

@pytest.mark.parametrize(
    "model, problem",
    [
        ({"reservoir_style": "bogus"}, "model.reservoir_style: must be one of rotation, ising, got 'bogus'"),
        (
            {"feature_map": "bogus"},
            "model.feature_map: must be one of probabilities, z_expectations, z_and_zz_expectations, got 'bogus'",
        ),
        ({"shots": -1}, "model.shots: must not be negative, got -1"),
        ({"trotter_steps": 0}, "model.trotter_steps: must be at least 1, got 0"),
        ({"layers": 0, "reservoir_style": "rotation"}, "model.layers: must be at least 1, got 0"),
        ({"layers": -3}, "model.layers: must be at least 1, got -3"),
        ({"trotter_steps": 0, "reservoir_style": "rotation"}, "model.trotter_steps: must be at least 1, got 0"),
    ],
)
@pytest.mark.parametrize("print_config", [False, True])
def test_a_bad_model_setting_exits_one_before_any_work(capsys, tmp_path, model, problem, print_config):
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps({"scenario": "C2_2", "mitigator": "qlear", "model": model}))
    argv = ["scenario", "--config", str(config_file), "--profile", "device-a"]
    argv += ["--dataset-size", "20", "--out", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, *argv, *(["--print-config"] if print_config else []))
    assert code == 1
    assert out == ""
    assert err == f"error: {problem}\n"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# non-finite numbers outside JSON

@pytest.mark.parametrize("angle", ["inf", "nan", "-inf"])
def test_simulate_rejects_a_non_finite_angle_naming_the_line(capsys, tmp_path, angle):
    path = tmp_path / "c.txt"
    path.write_text(f"qubits 1\nH 0\nRX 0 {angle}\n")
    code, out, err = run_cli(capsys, "simulate", "--circuit", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 3: RX parameter must be finite")


@pytest.mark.parametrize("cell", ["inf", "nan", "-Infinity"])
def test_train_csv_with_a_non_finite_cell_exits_one(capsys, tmp_path, cell):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(f"a,b,y\n1,2,3\n1,{cell},4\n2,3,5\n")
    code, out, err = run_cli(
        capsys, "train", "--data", str(csv_path), "--task", "regression",
        "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert out == ""
    assert "row 3" in err and "'b'" in err and f"{cell!r} is not a finite number" in err
    assert not (tmp_path / "out").exists()


def test_report_charts_integers_beyond_the_float_precision(capsys, tmp_path):
    row = {"index": 0, "y_true": 10**30, "mean": 1.4, "lower": 1.0, "upper": 2.0, "width": 1.0, "covered": True}
    results = tmp_path / "results.json"
    results.write_text(_results(
        runs=[{**_RESULTS["runs"][0], "pct_change": -(2**63)}],
        uq={"configured": {"intervals": [row]}, "ideal": {"intervals": []}},
    ))
    code, _, err = run_cli(capsys, "report", "--results", str(results), "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert (tmp_path / "out" / "uq_intervals_configured.svg").exists()


# a command line for each input file the command line reads, at {path}
INPUT_FILES = [
    ["simulate", "--circuit", "{path}"],
    ["calibrate-zne", "--profile", "device-a", "--circuit", "{path}"],
    ["simulate", "--profile", "{path}"],
    ["scenario", "--config", "{path}"],
    ["uq", "--config", "{path}"],
    ["report", "--results", "{path}"],
    ["train", "--data", "{path}", "--task", "regression"],
]


def _input_id(argv):
    return " ".join(argv[:2])


@pytest.mark.parametrize("argv", INPUT_FILES, ids=_input_id)
@pytest.mark.parametrize("kind, problem", [("binary", "is not UTF-8 text"), ("directory", "is a directory")])
def test_an_input_that_is_not_utf8_text_or_is_a_directory_exits_one_naming_it(
    capsys, tmp_path, argv, kind, problem
):
    path = tmp_path / "input"
    if kind == "binary":
        path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00\x81")
    else:
        path.mkdir()
    argv = [arg.replace("{path}", str(path)) for arg in argv] + ["--out", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path} {problem}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", INPUT_FILES, ids=_input_id)
def test_a_missing_input_file_exits_one_in_one_form(capsys, tmp_path, argv):
    path = tmp_path / "none"
    argv = [arg.replace("{path}", str(path)) for arg in argv] + ["--out", str(tmp_path / "out")]
    assert run_cli(capsys, *argv) == (1, "", f"error: [Errno 2] No such file or directory: '{path}'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [a for a in INPUT_FILES if "--circuit" not in a and "--data" not in a], ids=_input_id)
def test_an_input_that_is_not_json_exits_one_naming_it(capsys, tmp_path, argv):
    path = tmp_path / "input.json"
    path.write_text("{not json")
    argv = [arg.replace("{path}", str(path)) for arg in argv] + ["--out", str(tmp_path / "out")]
    problem = "not JSON (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"
    assert run_cli(capsys, *argv) == (1, "", f"error: {path}: {problem}\n")
    assert not (tmp_path / "out").exists()


def _csv_file(tmp_path) -> str:
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n" + "".join(f"{i / 10},{i % 3},{i % 4}\n" for i in range(10)))
    return str(path)


@pytest.mark.parametrize(
    "flag, value, shown",
    [("--dataset", "regression3", "'regression3'"), ("--dataset-size", "0", "0"), ("--noise-level", "0.1", "0.1")],
)
def test_train_from_a_csv_file_rejects_the_synthetic_dataset_flags(capsys, tmp_path, flag, value, shown):
    argv = ["train", "--data", _csv_file(tmp_path), "--task", "regression", flag, value, "--out", str(tmp_path / "out")]
    assert run_cli(capsys, *argv) == (1, "", f"error: {flag}: does not apply to a CSV file, got {shown}\n")
    assert not (tmp_path / "out").exists()


def test_train_from_a_csv_file_splits_it_by_the_dataset_seed(capsys, tmp_path):
    argv = ["train", "--data", _csv_file(tmp_path), "--task", "regression"]
    runs = [run_cli(capsys, *argv, "--dataset-seed", seed, "--out", str(tmp_path / seed)) for seed in ("0", "7")]
    assert [code for code, _, _ in runs] == [0, 0]
    assert runs[0][1] != runs[1][1]


def test_a_singular_readout_fit_is_a_runtime_failure(capsys, tmp_path):
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps({
        "scenario": "C3_2", "profile": "device-a", "dataset": {"kind": "regression3", "size": 30},
        "model": {"readout": "linear", "readout_hyper": {"ridge": 0.0}}, "uq": {"samples": 20}, "seed": 0,
    }))
    code, out, err = run_cli(capsys, "uq", "--config", str(config_file), "--out", str(tmp_path / "out"))
    assert (code, out, err) == (2, "", "runtime failure: Singular matrix\n")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["simulate", "--shots", "10000000000000"], "sample"),
        (["scenario", "--profile", "device-a", "--dataset-size", "20", "--repeats", "1"], "run_scenario"),
    ],
)
def test_an_allocation_too_large_for_the_machine_is_a_runtime_failure(capsys, tmp_path, monkeypatch, argv, name):
    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setattr(f"qelm_lab.cli.{name}", allocate)
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert (code, out, err) == (2, "", "runtime failure: Unable to allocate 72.8 TiB for an array\n")
