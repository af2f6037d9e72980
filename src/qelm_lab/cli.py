"""Command-line entry point.

Subcommands: simulate, train, scenario, uq, calibrate-zne, report. Runs are
driven by a JSON config file plus flag overrides (flags win over the file;
the QELM_LAB_SEED environment variable is the lowest-priority seed source).
Exit codes: 0 success, 1 validation or usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import circuit as circ
from .errors import ParseError, QelmLabError, UsageError, ValidationError
from .harness import (
    DATASET_KEYS,
    DATASET_KINDS,
    MITIGATOR_KINDS,
    MODEL_SPEC_KEYS,
    RESULTS_KEYS,
    SCENARIO_IDS,
    SCENARIO_KEYS,
    UQ_KEYS,
    UQ_METHODS,
    Dataset,
    ModelSpec,
    ScenarioConfig,
    UqSpec,
    default_model_spec,
    emit_report,
    evaluate_model,
    encoder_ranges,
    generate_dataset,
    load_csv_dataset,
    report_json_bytes,
    run_scenario,
    run_uq,
)
from .mitigation import ZNE_KEYS, ZneConfig, random_circuit, zne_calibrate
from .noise import resolve_profile
from .qelm import (
    FEATURE_MAP_KINDS,
    RESERVOIR_STYLES,
    IdealBackend,
    NoisyBackend,
    feature_matrices,
    fit_model,
    save_model,
)
from .readout import READOUT_KINDS, check_readout_task
from .schema import Opt, file_text, read
from .simulator import DENSITY_QUBIT_CAP, IDEAL_QUBIT_CAP, measure_distribution, run_ideal, run_noisy, sample


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


# The run config of scenario and uq, from the descriptions its types check
# themselves against. A missing model key takes the value of the dataset's
# default_model_spec, a missing zne or uq key the ZneConfig or UqSpec default.
RUN_CONFIG = {
    **SCENARIO_KEYS,
    "profile": Opt(str, None),
    "dataset": Opt(DATASET_KEYS, {}),
    "model": Opt(MODEL_SPEC_KEYS, {}),
    "zne": Opt(ZNE_KEYS, None),
    "uq": Opt(UQ_KEYS, None),
    "out": Opt(str, "out"),
}


def _read_json_object(key: str, name: str) -> dict:
    """The JSON object in file ``name``; a UsageError naming ``key`` if the
    file is missing, is not JSON, or holds something else, and file_text's
    ParseError naming the file if it is a directory or not UTF-8."""
    path = Path(name)
    if not path.exists():
        raise UsageError(f"{key}: file {path} does not exist")
    try:
        raw = json.loads(file_text(path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{key}: {path} is not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise UsageError(f"{key}: top level must be a JSON object")
    return raw


def _with_flags(raw: dict, args: argparse.Namespace) -> dict:
    """``raw`` with every run-config flag that was given set over it. A
    flag's dest is its key's path, such as ``dataset.size``."""
    for dest, value in vars(args).items():
        head, _, key = dest.partition(".")
        if value is None or head not in RUN_CONFIG:
            continue
        if key and raw.get(head) is None:
            raw[head] = {}
        if not key:
            raw[head] = value
        elif isinstance(raw[head], dict):  # anything else fails the reader
            raw[head][key] = value
    return raw


def merge_run_config(args: argparse.Namespace, **fallback) -> dict:
    """The run config of a command line, checked by the reader: the config
    file, then QELM_LAB_SEED, then the flags, then ``fallback`` for keys
    still unset or null."""
    raw = _read_json_object("config", args.config) if args.config else {}
    env_seed = os.environ.get("QELM_LAB_SEED")
    if env_seed is not None and "seed" not in raw and args.seed is None:
        try:
            raw["seed"] = int(env_seed)
        except ValueError:
            raise UsageError(f"seed: QELM_LAB_SEED={env_seed!r} is not an integer") from None
    raw = _with_flags(raw, args)
    for key, value in fallback.items():
        if raw.get(key) is None:
            raw[key] = value
    return read(RUN_CONFIG, raw)


def run_inputs(
    config: dict, scenario_id: str | None = None
) -> tuple[ScenarioConfig, Dataset, ModelSpec]:
    """The harness inputs of a run config from merge_run_config."""
    if config["profile"] is None:
        raise UsageError("profile: required for noisy or mitigated scenarios")
    d, q = config["dataset"], config["qlear"]
    dataset = generate_dataset(d["kind"], d["size"], d["seed"], d["noise_level"])
    scenario = ScenarioConfig(
        scenario_id=scenario_id or config["scenario"],
        profile=resolve_profile(config["profile"]),
        repeats=config["repeats"],
        seed=config["seed"],
        mitigator=config["mitigator"],
        zne=ZneConfig(**config["zne"]) if config["zne"] is not None else None,
        qlear_corpus=q["corpus"],
        qlear_trees=q["trees"],
        qlear_max_depth=q["max_depth"],
        uq=UqSpec(**config["uq"]) if config["uq"] is not None else None,
        jobs=config["jobs"],
    )
    spec = replace(default_model_spec(dataset), **config["model"])
    check_readout_task(spec.readout, dataset.task)
    return scenario, dataset, spec


def _check_circuit_width(circuit, profile) -> None:
    """A UsageError naming --circuit when the circuit is wider than its
    backend takes: the ideal one without a profile, else the density one
    and the profile's qubits."""
    n = circuit.n_qubits
    cap, backend = (IDEAL_QUBIT_CAP, "ideal") if profile is None else (DENSITY_QUBIT_CAP, "density")
    if n > cap:
        raise UsageError(f"--circuit: {n} qubits exceeds the {backend}-backend cap of {cap}")
    if profile is not None and n > profile.n_qubits:
        raise UsageError(
            f"--circuit: profile {profile.name!r} covers {profile.n_qubits} qubits, circuit needs {n}"
        )


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> int:
    if args.shots < 0:
        raise UsageError(f"--shots: must not be negative, got {args.shots}")
    if args.circuit:
        text = file_text(args.circuit)
    else:
        text = resources.files(__package__).joinpath("circuits/bell.txt").read_text("utf-8")
    circuit = circ.from_text(text)
    if args.dump_circuit:
        sys.stdout.write(circ.to_text(circuit))
        return 0
    profile = resolve_profile(args.profile) if args.profile else None
    _check_circuit_width(circuit, profile)
    if profile is not None:
        dist = measure_distribution(run_noisy(circuit, profile), profile)
    else:
        dist = measure_distribution(run_ideal(circuit))
    if args.shots:
        dist = sample(dist, args.shots, args.seed or 0).to_distribution()
    payload = json.dumps(dist.probabilities, sort_keys=True)
    print(payload)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "distribution.json").write_text(payload + "\n")
    return 0


def _cmd_train(args) -> int:
    config = read(RUN_CONFIG, _with_flags({}, args))
    d, seed = config["dataset"], config["seed"]
    if args.data:
        if not args.task:
            raise UsageError("task: required when training from a CSV file")
        split_seed = getattr(args, "dataset.seed")  # a CSV split defaults to seed 0
        dataset = load_csv_dataset(args.data, args.task, 0 if split_seed is None else split_seed)
    else:
        dataset = generate_dataset(d["kind"], d["size"], d["seed"], d["noise_level"])
    spec = replace(default_model_spec(dataset), **config["model"])
    check_readout_task(spec.readout, dataset.task)  # before any walk
    if args.backend == "noisy":
        if not config["profile"]:
            raise UsageError("profile: required for the noisy backend")
        backend = NoisyBackend(resolve_profile(config["profile"]))
    else:
        backend = IdealBackend()
    front = spec.front(encoder_ranges(dataset.train_features), seed)
    # train and test rows in one backend call, both parts with base seed ``seed``
    train_x, test_x = feature_matrices(
        front, backend, [(dataset.train_features, seed), (dataset.test_features, seed)]
    )
    model = fit_model(train_x, dataset.train_targets, dataset.task, front, spec.readout, spec.hyper_dict())
    metric = evaluate_model(model, test_x, dataset.test_targets)
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.json")
    name = "mse" if dataset.task == "regression" else "accuracy"
    (out / "train_report.json").write_text(
        json.dumps({"metric": name, "value": metric, "backend": backend.key}, sort_keys=True)
        + "\n"
    )
    print(f"{name}: {metric}")
    return 0


def _cmd_scenario(args) -> int:
    config = merge_run_config(args)
    scenario, dataset, spec = run_inputs(config)
    if args.print_config:
        print(json.dumps(config, indent=2, sort_keys=True))
        return 0
    report = run_scenario(scenario, dataset, spec)
    written = emit_report(report, config["out"])
    summary = report["statistics"]
    print(f"scenario {report['scenario']} on {report['dataset']['kind']}: wrote {len(written)} files to {config['out']}")
    if summary:
        print(
            f"  p={summary['p_value']:.4g}  A12={summary['a12_observed_vs_ideal']:.3f}  "
            f"baseline {report['metric']}={report['ideal_baseline']:.6g}"
        )
    return 0


_UQ_COUNTERPART = {"C1_1": "C3_1", "C1_2": "C3_2", "C2_1": "C3_3", "C2_2": "C3_4"}


def _cmd_uq(args) -> int:
    config = merge_run_config(args, uq={"samples": 0})
    scenario, dataset, spec = run_inputs(
        config, _UQ_COUNTERPART.get(config["scenario"], config["scenario"])
    )
    if args.print_config:
        print(json.dumps(config, indent=2, sort_keys=True))
        return 0
    payload = run_uq(scenario, dataset, spec)
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "uq.json").write_text(report_json_bytes(payload).decode("utf-8"))
    print(f"uq {scenario.scenario_id} ({payload['method']}, {payload['samples']} samples) -> {out}")
    return 0


def _cmd_calibrate_zne(args) -> int:
    profile = resolve_profile(args.profile)
    if args.circuit:
        representative = circ.from_text(file_text(args.circuit))
        _check_circuit_width(representative, profile)
    else:
        top = min(profile.n_qubits, DENSITY_QUBIT_CAP)
        if not 1 <= args.qubits <= top:
            raise UsageError(
                f"--qubits must lie in [1, {top}] for profile {profile.name!r}, got {args.qubits}"
            )
        if args.gates < 0:
            raise UsageError(f"--gates must be non-negative, got {args.gates}")
        representative = random_circuit(args.qubits, args.gates, args.seed or 0)
    grid = [
        ZneConfig((1.0, 2.0, 3.0, 5.0), extrapolation="polynomial", degree=3),
        ZneConfig((1.0, 2.0, 3.0, 5.0), extrapolation="polynomial", degree=2),
        ZneConfig((1.0, 2.0, 3.0, 5.0), extrapolation="linear"),
        ZneConfig((1.0, 3.0, 5.0), extrapolation="linear"),
        ZneConfig((1.0, 2.0, 3.0, 5.0), extrapolation="exponential"),
    ]
    chosen = zne_calibrate(profile, representative, grid)
    payload = json.dumps(chosen.to_dict(), indent=2, sort_keys=True)
    print(payload)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "zne_config.json").write_text(payload + "\n")
    return 0


def _cmd_report(args) -> int:
    payload = _read_json_object("results", args.results)
    if payload.get("schema") != "scenario-report/1":
        raise UsageError("results: not a scenario report document")
    payload = read(RESULTS_KEYS, payload, doc="results")
    written = emit_report(payload, args.out or "out")
    print(f"re-emitted {len(written)} files to {args.out or 'out'}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring

# a run-config flag's dest is its key's path
def _add_dataset_and_model_flags(parser: _Parser) -> None:
    parser.add_argument("--dataset", dest="dataset.kind", choices=DATASET_KINDS)
    parser.add_argument("--dataset-size", type=int, dest="dataset.size")
    parser.add_argument("--dataset-seed", type=int, dest="dataset.seed")
    parser.add_argument("--noise-level", type=float, dest="dataset.noise_level")
    parser.add_argument("--reservoir", dest="model.reservoir_style", choices=RESERVOIR_STYLES)
    parser.add_argument("--layers", type=int, dest="model.layers")
    parser.add_argument("--trotter-steps", type=int, dest="model.trotter_steps")
    parser.add_argument("--feature-map", dest="model.feature_map", choices=FEATURE_MAP_KINDS)
    parser.add_argument("--shots", type=int, dest="model.shots")
    parser.add_argument("--readout", dest="model.readout", choices=READOUT_KINDS)


def _add_run_flags(parser: _Parser) -> None:
    parser.add_argument("--config", help="JSON run-config file")
    parser.add_argument("--scenario", choices=SCENARIO_IDS)
    parser.add_argument("--profile", help="bundled profile name or profile file path")
    _add_dataset_and_model_flags(parser)
    parser.add_argument("--mitigator", choices=MITIGATOR_KINDS)
    parser.add_argument("--uq-method", dest="uq.method", choices=UQ_METHODS)
    parser.add_argument("--uq-samples", type=int, dest="uq.samples")
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--print-config", action="store_true", dest="print_config",
                        help="echo the resolved run config and exit")


def build_parser() -> _Parser:
    parser = _Parser(prog="qelm-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_sim = sub.add_parser("simulate", help="run a circuit and print its outcome distribution")
    p_sim.add_argument("--circuit", help="circuit text file (default: bundled Bell pair)")
    p_sim.add_argument("--profile", help="noise profile name or path (default: ideal)")
    p_sim.add_argument("--shots", type=int, default=0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out")
    p_sim.add_argument("--dump-circuit", action="store_true", dest="dump_circuit",
                       help="print the parsed circuit in text form and exit")
    p_sim.set_defaults(func=_cmd_simulate)

    p_train = sub.add_parser("train", help="train one QELM and save the model document")
    _add_dataset_and_model_flags(p_train)
    p_train.add_argument("--data", help="CSV file with a header; last column is the target")
    p_train.add_argument("--task", choices=("regression", "classification"))
    p_train.add_argument("--backend", choices=("ideal", "noisy"), default="ideal")
    p_train.add_argument("--profile")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--out")
    p_train.set_defaults(func=_cmd_train)

    p_scen = sub.add_parser("scenario", help="run one experiment scenario and emit its report")
    _add_run_flags(p_scen)
    p_scen.set_defaults(func=_cmd_scenario)

    p_uq = sub.add_parser("uq", help="compute uncertainty artifacts for a configuration")
    _add_run_flags(p_uq)
    p_uq.set_defaults(func=_cmd_uq)

    p_cal = sub.add_parser("calibrate-zne", help="pick the best extrapolation settings")
    p_cal.add_argument("--profile", required=True)
    p_cal.add_argument("--qubits", type=int, default=3)
    p_cal.add_argument("--gates", type=int, default=12)
    p_cal.add_argument("--circuit", help="representative circuit file (optional)")
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument("--out")
    p_cal.set_defaults(func=_cmd_calibrate_zne)

    p_rep = sub.add_parser("report", help="re-emit CSV and charts from a results.json")
    p_rep.add_argument("--results", required=True)
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help()
            return 1
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else 1
    except (UsageError, ValidationError, ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QelmLabError, OSError, ArithmeticError, np.linalg.LinAlgError) as exc:
        # a numeric failure, such as a singular readout fit, is a runtime failure too
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
