"""The benchmark's workloads: what one operation runs, and how its outputs
are checked.

An operation is one or two ``qelm-lab`` command lines, each with its own
``--seed``, ``--dataset-seed``, ``--out`` directory and ``--jobs 1``. Every
command line of every operation gets seeds of its own, derived from the
workload seed, so no operation can reuse reservoirs, datasets or cached
superoperators of an earlier one.

After the timed region, ``Workload.run_failures`` says whether an operation failed,
and for one that did not, the workload's ``check`` says whether its outputs
are correct. Both return a list of messages, empty when all is well.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import reference
from qelm_lab import circuit as circ
from qelm_lab import harness, mitigation, noise, qelm, simulator
from qelm_lab.rng import derive_seed

PROFILE = "device-a"


@dataclass(frozen=True)
class Call:
    """One command line of an operation."""

    label: str
    seed: int
    dataset_seed: int
    out: Path
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, int, Path], list[Call]]  # (workload seed, op index, out)
    check: Callable[[list[Call]], list[str]]
    inputs: tuple[tuple[str, int], ...]  # (dataset kind, size) per call

    def run_failures(self, calls: list[Call]) -> list[str]:
        """Why an operation whose command lines all exited 0 still failed: a
        missing report, a repeat that recorded an error, or a
        ``partial_failures`` flag."""
        problems = []
        for call in calls:
            try:
                report = _report(call)
            except (OSError, ValueError) as exc:
                problems.append(f"{call.label}: no readable report ({exc})")
                continue
            problems += [
                f"{call.label}: repeat {r['repeat']} failed: {r['error']}"
                for r in report.get("runs", [])
                if r.get("error") is not None
            ]
            if "partial_failures" in report.get("flags", []):
                problems.append(f"{call.label}: flagged partial_failures")
        return problems


def call_seed(workload: str, seed: int, op: int, call: int, label: str) -> int:
    digest = hashlib.blake2b(f"{workload}/{seed}/{op}/{call}/{label}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little") % (2**31)


def _calls(name, seed, op, out, specs) -> list[Call]:
    """specs: (label, argv without seeds and --out) per command line."""
    calls = []
    for index, (label, argv) in enumerate(specs):
        run_seed = call_seed(name, seed, op, index, "run")
        data_seed = call_seed(name, seed, op, index, "dataset")
        call_out = out / label
        full = tuple(argv) + (
            "--seed", str(run_seed),
            "--dataset-seed", str(data_seed),
            "--out", str(call_out),
            "--jobs", "1",
        )
        calls.append(Call(label, run_seed, data_seed, call_out, full))
    return calls


def _dataset(call: Call, kind: str, size: int):
    return harness.generate_dataset(kind, size, call.dataset_seed)


def _close(a, b, tol) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


def _report(call: Call) -> dict:
    name = "results.json" if call.argv[0] == "scenario" else "uq.json"
    return json.loads((call.out / name).read_text())


def _repeat_front(spec, dataset, repeat_seed):
    # the reservoir seed rule of harness.run_scenario
    ranges = harness.encoder_ranges(dataset.train_features)
    return spec.front(ranges, derive_seed(repeat_seed, "reservoir"))


# ---------------------------------------------------------------------------
# noisy_probs8: C1_1 on classification8 at 8 qubits

P8_SIZE = 20
P8_REPEATS = 3


def _build_noisy_probs8(seed, op, out):
    argv = (
        "scenario", "--scenario", "C1_1", "--profile", PROFILE,
        "--dataset", "classification8", "--dataset-size", str(P8_SIZE),
        "--feature-map", "probabilities", "--readout", "logistic",
        "--repeats", str(P8_REPEATS),
    )
    return _calls("noisy_probs8", seed, op, out, [("c1_1", argv)])


def _check_noisy_probs8(calls):
    (call,) = calls
    report = _report(call)
    problems = []
    runs = report["runs"]
    observed = [r["metric"] for r in runs]
    ideal = [r["ideal_metric"] for r in runs]
    for r in runs:
        # README: accuracy metrics report the percentage decrease from ideal
        expected = None
        if 0.0 < r["ideal_metric"] <= 1.0:
            expected = 100.0 * (r["ideal_metric"] - r["metric"]) / r["ideal_metric"]
        if expected is None and r["pct_change"] is None:
            continue
        if not _close(r["pct_change"], expected, 1e-9):
            problems.append(f"repeat {r['repeat']}: pct_change {r['pct_change']} != {expected}")
    if not _close(report["ideal_baseline"], float(np.median(ideal)), 1e-12):
        problems.append(f"ideal_baseline {report['ideal_baseline']} != median {np.median(ideal)}")
    u, p, a12 = reference.mann_whitney_exact(observed, ideal)
    stats = report["statistics"] or {}
    for key, value, tol in (("u", u, 1e-9), ("p_value", p, 1e-12), ("a12_observed_vs_ideal", a12, 1e-12)):
        if not _close(stats.get(key), value, tol):
            problems.append(f"statistics.{key} {stats.get(key)} != {value}")
    if stats.get("method") != "exact":
        problems.append(f"statistics.method {stats.get('method')} for {len(runs)}+{len(runs)} values")

    profile = noise.bundled_profile(PROFILE)
    dataset = _dataset(call, "classification8", P8_SIZE)
    spec = replace(harness.default_model_spec(dataset), feature_map="probabilities", readout="logistic")
    front = _repeat_front(spec, dataset, runs[0]["seed"])
    row = call.seed % len(dataset.test_features)
    circuit = qelm.front_circuit(front, dataset.test_features[row])
    rho = simulator.run_noisy(circuit, profile).entries
    if abs(np.trace(rho) - 1.0) > 1e-9:
        problems.append(f"noisy density matrix trace {np.trace(rho)}")
    if np.abs(rho - rho.conj().T).max() > 1e-9:
        problems.append("noisy density matrix is not Hermitian")
    low = float(np.linalg.eigvalsh(rho).min())
    if low < -1e-8:
        problems.append(f"noisy density matrix eigenvalue {low}")
    psi = simulator.run_ideal(circuit).amplitudes
    clean = simulator.run_noisy(circuit, noise.zero_noise_profile()).entries
    gap = np.abs(clean - np.outer(psi, psi.conj())).max()
    if gap > 1e-10:
        problems.append(f"zero-noise run_noisy differs from |psi><psi| by {gap:.3e}")

    # a 4-qubit circuit built like the workload's, against the dense reference
    rng = np.random.default_rng(call.seed)
    small = spec.front(((0.0, 1.0),) * 4, int(rng.integers(2**31)))
    small_circuit = qelm.front_circuit(small, rng.uniform(size=4))
    gap = np.abs(simulator.run_noisy(small_circuit, profile).entries
                 - reference.dense_noisy(small_circuit, profile)).max()
    if gap > 1e-10:
        problems.append(f"run_noisy differs from the dense reference by {gap:.3e}")
    return problems


# ---------------------------------------------------------------------------
# uq_bootstrap: the criterion-9 pair of bootstrap UQ runs

UQ_SIZE = 60
UQ_SAMPLES = 100
UQ_SHOTS = 512
UQ_VARIANTS = (("regression3", "linear"), ("classification4", "tree"))


def _build_uq_bootstrap(seed, op, out):
    specs = []
    for kind, readout in UQ_VARIANTS:
        specs.append((kind, (
            "uq", "--scenario", "C3_2", "--profile", PROFILE,
            "--dataset", kind, "--dataset-size", str(UQ_SIZE),
            "--readout", readout, "--shots", str(UQ_SHOTS),
            "--uq-method", "bootstrap", "--uq-samples", str(UQ_SAMPLES),
        )))
    return _calls("uq_bootstrap", seed, op, out, specs)


def _check_uq_bootstrap(calls):
    problems = []
    for call in calls:
        payload = _report(call)
        if payload.get("samples") != UQ_SAMPLES:
            problems.append(f"{call.label}: samples {payload.get('samples')}")
        y = _dataset(call, call.label, UQ_SIZE).test_targets
        for variant in ("configured", "ideal"):
            summary = payload[variant]
            where = f"{call.label}.{variant}"
            if "intervals" in summary:
                rows = summary["intervals"]
                for r in rows:
                    if not r["lower"] <= r["upper"]:
                        problems.append(f"{where}: interval {r['index']} lower > upper")
                    if not _close(r["width"], r["upper"] - r["lower"], 1e-12):
                        problems.append(f"{where}: interval {r['index']} width")
                covered = np.mean([r["lower"] <= t <= r["upper"] for r, t in zip(rows, y)])
                if len(rows) != len(y) or not _close(summary["coverage"], float(covered), 1e-12):
                    problems.append(f"{where}: coverage {summary['coverage']} != {covered}")
                if not summary["crps"] >= 0.0:
                    problems.append(f"{where}: crps {summary['crps']} < 0")
            else:
                p = np.asarray(summary["positive_probabilities"], dtype=float)
                if len(p) != len(y):
                    problems.append(f"{where}: {len(p)} probabilities for {len(y)} rows")
                    continue
                brier = float(np.mean((p - y) ** 2))
                q = np.clip(p, 1e-15, 1.0 - 1e-15)
                loss = float(-np.mean(y * np.log(q) + (1.0 - y) * np.log(1.0 - q)))
                if not _close(summary["brier"], brier, 1e-12):
                    problems.append(f"{where}: brier {summary['brier']} != {brier}")
                if not _close(summary["log_loss"], loss, 1e-9):
                    problems.append(f"{where}: log_loss {summary['log_loss']} != {loss}")
                if sum(summary["reliability"]["counts"]) != len(y):
                    problems.append(f"{where}: reliability counts do not sum to {len(y)}")
    return problems


# ---------------------------------------------------------------------------
# mitigated_zz4: C2_2 with ZNE, then C2_2 with QLEAR, on z/zz features

ZZ_SIZE = 24
ZZ_REPEATS = 3
ZZ_FEATURES = "z_and_zz_expectations"
ZZ_ROWS = 2


def _build_mitigated_zz4(seed, op, out):
    specs = []
    for mitigator_name in ("zne", "qlear"):
        specs.append((mitigator_name, (
            "scenario", "--scenario", "C2_2", "--profile", PROFILE,
            "--mitigator", mitigator_name,
            "--dataset", "classification4", "--dataset-size", str(ZZ_SIZE),
            "--feature-map", ZZ_FEATURES, "--repeats", str(ZZ_REPEATS),
        )))
    return _calls("mitigated_zz4", seed, op, out, specs)


def _check_mitigated_zz4(calls):
    zne_call, qlear_call = calls
    zne_report, qlear_report = _report(zne_call), _report(qlear_call)
    problems = []
    profile = noise.bundled_profile(PROFILE)
    config = zne_report["mitigation"]["config"]
    scales = [float(s) for s in config["scale_factors"]]
    zne = mitigation.ZneMitigator(mitigation.ZneConfig.from_dict(config))

    dataset = _dataset(zne_call, "classification4", ZZ_SIZE)
    spec = replace(harness.default_model_spec(dataset), feature_map=ZZ_FEATURES)
    front = _repeat_front(spec, dataset, zne_report["runs"][0]["seed"])
    circuits = [qelm.front_circuit(front, x) for x in dataset.test_features[:ZZ_ROWS]]
    for row, circuit in enumerate(circuits):
        got = zne.circuit_features(circuit, front.feature_map, profile, 0)
        per_scale = np.array([
            reference.z_zz_features(
                np.real(np.diag(simulator.run_noisy(circ.fold_to_scale(circuit, s), profile).entries)),
                profile.readout_confusion[: circuit.n_qubits],
            )
            for s in scales
        ])
        expected = np.clip(
            [np.polyfit(scales, per_scale[:, j], config["degree"])[-1] for j in range(per_scale.shape[1])],
            -1.0, 1.0,
        )
        gap = np.abs(got - expected).max()
        if gap > 1e-9:
            problems.append(f"zne row {row}: differs from polyfit extrapolation by {gap:.3e}")
        ideal = np.abs(simulator.run_ideal(circuit).amplitudes) ** 2
        for s in scales:
            folded = np.abs(simulator.run_ideal(circ.fold_to_scale(circuit, s)).amplitudes) ** 2
            if np.abs(folded - ideal).max() > 1e-10:
                problems.append(f"fold_to_scale({s}) changes the ideal output of row {row}")

    mae = qlear_report["mitigation"]["held_out_mae"]
    if mae is None or not math.isfinite(mae) or mae < 0.0:
        problems.append(f"qlear held_out_mae {mae}")
    clean = noise.zero_noise_profile()
    feature_map = qelm.FeatureMapSpec(ZZ_FEATURES, 0)
    corpus = mitigation.calibration_circuits(4, 20, qlear_call.seed)
    model = mitigation.qlear_train(corpus, clean, seed=qlear_call.seed, feature_map=feature_map)
    for circuit in circuits:
        features = qelm.NoisyBackend(clean).circuit_features(circuit, feature_map, 0)
        corrected = mitigation.qlear_correct(model, features, mitigation.circuit_meta(circuit), clean)
        gap = np.abs(corrected - features).max()
        if gap > 1e-12:
            problems.append(f"zero-noise corrector moves features by {gap:.3e}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "noisy_probs8",
            _build_noisy_probs8,
            _check_noisy_probs8,
            (("classification8", P8_SIZE),),
        ),
        Workload(
            "uq_bootstrap",
            _build_uq_bootstrap,
            _check_uq_bootstrap,
            tuple((kind, UQ_SIZE) for kind, _ in UQ_VARIANTS),
        ),
        Workload(
            "mitigated_zz4",
            _build_mitigated_zz4,
            _check_mitigated_zz4,
            (("classification4", ZZ_SIZE), ("classification4", ZZ_SIZE)),
        ),
    )
}


def prepare(workload: Workload, seed: int) -> None:
    """Set-up work before the first operation: load the profile and
    generate the first operation's datasets."""
    noise.resolve_profile(PROFILE)
    for call, (kind, size) in zip(workload.build(seed, 0, Path(".")), workload.inputs):
        _dataset(call, kind, size)
