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
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

from . import circuit as circ
from .errors import ParseError, QelmLabError, UsageError, ValidationError, coerce
from .harness import (
    DATASET_KINDS,
    MITIGATOR_KINDS,
    SCENARIO_IDS,
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
from .mitigation import ZneConfig, random_circuit, zne_calibrate
from .noise import resolve_profile
from .qelm import (
    FEATURE_MAP_KINDS,
    RESERVOIR_STYLES,
    FeatureCache,
    IdealBackend,
    NoisyBackend,
    save_model,
    train,
)
from .readout import READOUT_KINDS, check_readout_task
from .simulator import measure_distribution, run_ideal, run_noisy, sample


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


@dataclass
class RunConfig:
    """Fully resolved settings for scenario and uq runs."""

    scenario: str = "C1_1"
    profile: str | None = None
    dataset: dict = field(
        default_factory=lambda: {
            "kind": "regression3",
            "size": 120,
            "seed": 7,
            "noise_level": 0.1,
        }
    )
    model: dict = field(default_factory=dict)
    mitigator: str | None = None
    zne: dict | None = None
    qlear: dict = field(default_factory=lambda: {"corpus": 24, "trees": 20, "max_depth": 6})
    uq: dict | None = None
    repeats: int = 10
    seed: int = 0
    out: str = "out"
    jobs: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


_FLAG_TO_PATH = {
    "scenario": ("scenario",),
    "profile": ("profile",),
    "dataset": ("dataset", "kind"),
    "dataset_size": ("dataset", "size"),
    "dataset_seed": ("dataset", "seed"),
    "noise_level": ("dataset", "noise_level"),
    "reservoir": ("model", "reservoir_style"),
    "layers": ("model", "layers"),
    "trotter_steps": ("model", "trotter_steps"),
    "feature_map": ("model", "feature_map"),
    "shots": ("model", "shots"),
    "readout": ("model", "readout"),
    "mitigator": ("mitigator",),
    "uq_method": ("uq", "method"),
    "uq_samples": ("uq", "samples"),
    "repeats": ("repeats",),
    "seed": ("seed",),
    "out": ("out",),
    "jobs": ("jobs",),
}


def _read_json_object(key: str, name: str) -> dict:
    """The JSON object in file ``name``; a UsageError naming ``key`` if the
    file is missing, is not JSON, or holds something else."""
    path = Path(name)
    if not path.exists():
        raise UsageError(f"{key}: file {path} does not exist")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"{key}: {path} is not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise UsageError(f"{key}: top level must be a JSON object")
    return raw


def merge_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file, flags, and environment into one RunConfig. Its
    values are checked when run_inputs turns it into the harness types."""
    raw = _read_json_object("config", args.config) if getattr(args, "config", None) else {}

    config = RunConfig()
    for key in ("scenario", "profile", "mitigator", "out"):
        if key in raw and raw[key] is not None:
            setattr(config, key, str(raw[key]))
    for key in ("repeats", "seed", "jobs"):
        if key in raw and raw[key] is not None:
            try:
                setattr(config, key, int(raw[key]))
            except (TypeError, ValueError):
                raise UsageError(f"{key}: must be an integer, got {raw[key]!r}") from None
    for key in ("dataset", "model", "qlear", "zne", "uq"):
        if not raw.get(key):
            continue
        if not isinstance(raw[key], dict):
            raise UsageError(f"{key}: must be a JSON object, got {raw[key]!r}")
        if getattr(config, key) is None:
            setattr(config, key, {})
        getattr(config, key).update(raw[key])

    env_seed = os.environ.get("QELM_LAB_SEED")
    if env_seed is not None and "seed" not in raw and getattr(args, "seed", None) is None:
        try:
            config.seed = int(env_seed)
        except ValueError:
            raise UsageError(f"seed: QELM_LAB_SEED={env_seed!r} is not an integer") from None

    for flag, path in _FLAG_TO_PATH.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if len(path) == 1:
            setattr(config, path[0], value)
        else:
            container = getattr(config, path[0])
            if container is None:
                container = {}
                setattr(config, path[0], container)
            container[path[1]] = value

    return config


_INT, _NUMBER = "an integer", "a number"


def _model_spec(config: RunConfig, dataset: Dataset) -> ModelSpec:
    base = default_model_spec(dataset).to_dict()
    base.update(config.model)

    def value(key, to, expected):
        return coerce(f"model.{key}", base[key], to, expected)

    return ModelSpec(
        reservoir_style=base["reservoir_style"],
        layers=value("layers", int, _INT),
        trotter_steps=value("trotter_steps", int, _INT),
        evolution_time=value("evolution_time", float, _NUMBER),
        j_range=value("j_range", tuple, "a [min, max] pair"),
        h_range=value("h_range", tuple, "a [min, max] pair"),
        feature_map=base["feature_map"],
        shots=value("shots", int, _INT),
        readout=base["readout"],
        entangle=bool(base["entangle"]),
        readout_hyper=tuple(sorted(value("readout_hyper", dict, "a JSON object").items())),
    )


def run_inputs(
    config: RunConfig, scenario_id: str | None = None
) -> tuple[ScenarioConfig, Dataset, ModelSpec]:
    """The harness inputs of a merged run config. Converting the JSON values
    and filling in the default uq method are done here; every rule on them is
    checked by the harness types."""
    if config.profile is None:
        raise UsageError("profile: required for noisy or mitigated scenarios")
    d, q = config.dataset, config.qlear
    dataset = generate_dataset(
        d["kind"],
        coerce("dataset.size", d["size"], int, _INT),
        coerce("dataset.seed", d["seed"], int, _INT),
        coerce("dataset.noise_level", d.get("noise_level", 0.1), float, _NUMBER),
    )
    uq = None
    if config.uq is not None:
        config.uq.setdefault("method", "bootstrap")  # for scenario and uq alike
        samples = coerce("uq.samples", config.uq.get("samples", 0), int, _INT)
        uq = UqSpec(config.uq["method"], samples)
    scenario = ScenarioConfig(
        scenario_id=scenario_id or config.scenario,
        profile=resolve_profile(config.profile),
        repeats=config.repeats,
        seed=config.seed,
        mitigator=config.mitigator,
        zne=ZneConfig.from_dict(config.zne) if config.zne else None,
        qlear_corpus=coerce("qlear.corpus", q.get("corpus", 24), int, _INT),
        qlear_trees=coerce("qlear.trees", q.get("trees", 20), int, _INT),
        qlear_max_depth=coerce("qlear.max_depth", q.get("max_depth", 6), int, _INT),
        uq=uq,
        jobs=config.jobs,
    )
    spec = _model_spec(config, dataset)
    check_readout_task(spec.readout, dataset.task)
    return scenario, dataset, spec


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> int:
    if args.circuit:
        text = Path(args.circuit).read_text()
    else:
        text = resources.files(__package__).joinpath("circuits/bell.txt").read_text("utf-8")
    circuit = circ.from_text(text)
    if args.dump_circuit:
        sys.stdout.write(circ.to_text(circuit))
        return 0
    if args.profile:
        profile = resolve_profile(args.profile)
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
    if args.data:
        if not args.task:
            raise UsageError("task: required when training from a CSV file")
        dataset = load_csv_dataset(args.data, args.task, args.dataset_seed or 0)
    else:
        dataset = generate_dataset(
            args.dataset or "regression3",
            args.dataset_size or 120,
            args.dataset_seed or 7,
            args.noise_level if args.noise_level is not None else 0.1,
        )
    config = RunConfig(dataset={"kind": dataset.kind})
    for flag in ("reservoir", "layers", "trotter_steps", "feature_map", "shots", "readout"):
        value = getattr(args, flag, None)
        if value is not None:
            config.model[_FLAG_TO_PATH[flag][1]] = value
    spec = _model_spec(config, dataset)
    seed = args.seed if args.seed is not None else 0
    if args.backend == "noisy":
        if not args.profile:
            raise UsageError("profile: required for the noisy backend")
        backend = NoisyBackend(resolve_profile(args.profile))
    else:
        backend = IdealBackend()
    front = spec.front(encoder_ranges(dataset.train_features), seed)
    cache = FeatureCache()
    model = train(
        dataset.train_features,
        dataset.train_targets,
        dataset.task,
        front,
        spec.readout,
        backend,
        seed=seed,
        cache=cache,
        readout_hyper=spec.hyper_dict(),
    )
    metric = evaluate_model(
        model, dataset.test_features, dataset.test_targets, backend, seed, cache
    )
    out = Path(args.out or "out")
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
        print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
        return 0
    report = run_scenario(scenario, dataset, spec)
    written = emit_report(report, config.out)
    summary = report.statistics or {}
    print(f"scenario {report.scenario_id} on {report.dataset_info['kind']}: wrote {len(written)} files to {config.out}")
    if summary:
        print(
            f"  p={summary['p_value']:.4g}  A12={summary['a12_observed_vs_ideal']:.3f}  "
            f"baseline {report.metric_name}={report.ideal_baseline:.6g}"
        )
    return 0


_UQ_COUNTERPART = {"C1_1": "C3_1", "C1_2": "C3_2", "C2_1": "C3_3", "C2_2": "C3_4"}


def _cmd_uq(args) -> int:
    config = merge_run_config(args)
    if config.uq is None:
        config.uq = {"samples": 0}
    scenario, dataset, spec = run_inputs(
        config, _UQ_COUNTERPART.get(config.scenario, config.scenario)
    )
    if args.print_config:
        print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
        return 0
    payload = run_uq(scenario, dataset, spec)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "uq.json").write_text(report_json_bytes(payload).decode("utf-8"))
    print(f"uq {scenario.scenario_id} ({payload['method']}, {payload['samples']} samples) -> {out}")
    return 0


def _cmd_calibrate_zne(args) -> int:
    profile = resolve_profile(args.profile)
    if args.circuit:
        representative = circ.from_text(Path(args.circuit).read_text())
    else:
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
    missing = [key for key in ("scenario", "metric", "runs") if key not in payload]
    if missing:
        raise UsageError(f"results: the report has no {', '.join(missing)}")
    written = emit_report(payload, args.out or "out")
    print(f"re-emitted {len(written)} files to {args.out or 'out'}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def _add_dataset_and_model_flags(parser: _Parser) -> None:
    parser.add_argument("--dataset", choices=DATASET_KINDS)
    parser.add_argument("--dataset-size", type=int, dest="dataset_size")
    parser.add_argument("--dataset-seed", type=int, dest="dataset_seed")
    parser.add_argument("--noise-level", type=float, dest="noise_level")
    parser.add_argument("--reservoir", choices=RESERVOIR_STYLES)
    parser.add_argument("--layers", type=int)
    parser.add_argument("--trotter-steps", type=int, dest="trotter_steps")
    parser.add_argument("--feature-map", dest="feature_map", choices=FEATURE_MAP_KINDS)
    parser.add_argument("--shots", type=int)
    parser.add_argument("--readout", choices=READOUT_KINDS)


def _add_run_flags(parser: _Parser) -> None:
    parser.add_argument("--config", help="JSON run-config file")
    parser.add_argument("--scenario", choices=SCENARIO_IDS)
    parser.add_argument("--profile", help="bundled profile name or profile file path")
    _add_dataset_and_model_flags(parser)
    parser.add_argument("--mitigator", choices=MITIGATOR_KINDS)
    parser.add_argument("--uq-method", dest="uq_method", choices=UQ_METHODS)
    parser.add_argument("--uq-samples", type=int, dest="uq_samples")
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
    except (QelmLabError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
