import json

import pytest

from qelm_lab.cli import main


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


@pytest.mark.parametrize(
    "config, key",
    [
        ({"dataset": {"size": "many"}}, "dataset.size"),
        ({"model": {"layers": "x"}}, "model.layers"),
        ({"qlear": {"corpus": "x"}}, "qlear.corpus"),
        ({"uq": {"method": "bootstrap", "samples": "x"}}, "uq.samples"),
        ({"zne": {"degree": 2}}, "zne.scale_factors"),
        ({"dataset": [1, 2]}, "dataset"),
        ({"model": {"j_range": "ab"}}, "j_range"),
        ({"model": {"readout_hyper": {"ridge": "x"}}}, "readout_hyper.ridge"),
        (
            {
                "dataset": {"kind": "classification4"},
                "model": {"readout": "logistic", "readout_hyper": {"max_iter": 2.5}},
            },
            "readout_hyper.max_iter",
        ),
        (
            {
                "dataset": {"kind": "classification4"},
                "model": {"readout": "tree", "readout_hyper": {"max_depht": 3}},
            },
            "readout_hyper.max_depht",
        ),
        ({"qlear": {"corpus": 0}}, "qlear.corpus"),
        ({"qlear": {"corpus": 1}}, "qlear.corpus"),
        ({"dataset": {"kind": "regression3"}, "model": {"readout": "tree"}}, "readout"),
        ({"dataset": {"kind": "classification4"}, "model": {"readout": "linear"}}, "readout"),
    ],
)
@pytest.mark.parametrize("print_config", [False, True])
def test_wrong_typed_config_value_exits_one_naming_the_key(
    capsys, tmp_path, config, key, print_config
):
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps(config))
    argv = ["scenario", "--config", str(config_file), "--profile", "device-a"]
    argv += ["--out", str(tmp_path / "out")] + (["--print-config"] if print_config else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and f"{key}:" in err
    assert not (tmp_path / "out").exists()


def test_unknown_readout_kind_fails_before_any_repeat_runs(capsys, tmp_path):
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps({"model": {"readout": "svm"}}))
    code, _, err = run_cli(
        capsys, "scenario", "--config", str(config_file), "--profile", "zero-noise",
        "--dataset-size", "20", "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert "unknown readout kind 'svm'" in err
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
    assert err.startswith("error: readout:") and f"{readout!r} does not fit" in err
    assert not (tmp_path / "out").exists()
