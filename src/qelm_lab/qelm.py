"""Quantum extreme learning machines: encoder circuit, fixed random
reservoir, measurement-based feature extraction, and a trainable readout.

The pipeline for one input x is

    encode(x) . reservoir  ->  execute on a backend  ->  measure  ->
    feature vector         ->  readout

The reservoir is drawn once from its seed and never changes; training only
fits the readout. A backend decides how circuits are executed; it is a
``key`` naming it plus ``circuit_features(circuit, spec, seed)``:

    IdealBackend()            exact state-vector probabilities
    NoisyBackend(profile)     density-matrix evolution plus readout confusion

(the mitigation module adds MitigatedBackend). extract_features builds the
circuit for one input and hands it to the backend. Feature extraction per
row is pure given (front, x, backend, seed), which makes results cacheable
and runs replayable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import circuit as circ
from .circuit import Circuit
from .errors import DimensionMismatch, ValidationError
from .noise import NoiseProfile
from .readout import check_readout_task, fit_readout, readout_from_dict
from .rng import Rng, derive_seed
from .simulator import (
    OutcomeDistribution,
    expectation_z,
    expectation_zz,
    measure_distribution,
    run_ideal,
    run_noisy,
    sample,
)

ENCODER_STYLES = ("HE",)
RESERVOIR_STYLES = ("rotation", "ising")
FEATURE_MAP_KINDS = ("probabilities", "z_expectations", "z_and_zz_expectations")


@dataclass(frozen=True)
class EncoderSpec:
    """Angle encoder: one feature per qubit, scaled into an RY rotation."""

    feature_range: tuple[tuple[float, float], ...]
    style: str = "HE"
    entangle: bool = True

    def __post_init__(self):
        if self.style not in ENCODER_STYLES:
            raise ValidationError(f"unknown encoder style {self.style!r}")
        for i, (lo, hi) in enumerate(self.feature_range):
            if not lo < hi:
                raise ValidationError(f"feature_range[{i}] must have min < max, got ({lo}, {hi})")


@dataclass(frozen=True)
class ReservoirSpec:
    """A fixed, seed-determined feature-mixing circuit.

    rotation: ``layers`` rounds of one random axis rotation per qubit
    followed by a CX chain.

    ising: first-order Trotterized transverse-field Ising evolution with
    couplings J_ij ~ U(j_range) and fields h_i ~ U(h_range), run for
    ``time`` in ``trotter_steps`` steps. Each step is ZZ(2 J_ij t / s) over
    all pairs i < j, then RX(2 h_i t / s) per qubit.
    """

    style: str
    n_qubits: int
    seed: int
    layers: int = 2
    j_range: tuple[float, float] = (-1.0, 1.0)
    h_range: tuple[float, float] = (-1.0, 1.0)
    time: float = 1.0
    trotter_steps: int = 3

    def __post_init__(self):
        if self.style not in RESERVOIR_STYLES:
            raise ValidationError(f"unknown reservoir style {self.style!r}")
        if self.n_qubits < 1:
            raise ValidationError("reservoir needs at least one qubit")
        if self.style == "rotation" and self.layers < 1:
            raise ValidationError("rotation reservoir needs at least one layer")
        if self.style == "ising" and self.trotter_steps < 1:
            raise ValidationError("ising reservoir needs at least one trotter step")


@dataclass(frozen=True)
class FeatureMapSpec:
    """What gets read out of the measured distribution.

    shots == 0 uses exact probabilities; shots > 0 samples counts first with
    the run's seed and computes features from empirical frequencies.
    """

    kind: str = "probabilities"
    shots: int = 0

    def __post_init__(self):
        if self.kind not in FEATURE_MAP_KINDS:
            raise ValidationError(f"unknown feature map kind {self.kind!r}")
        if self.shots < 0:
            raise ValidationError("shots must be >= 0")

    def n_features(self, n_qubits: int) -> int:
        if self.kind == "probabilities":
            return 2**n_qubits
        if self.kind == "z_expectations":
            return n_qubits
        return n_qubits + n_qubits * (n_qubits - 1) // 2


@dataclass(frozen=True)
class QelmFront:
    """Everything before the readout: encoder, reservoir, feature map."""

    encoder: EncoderSpec
    reservoir: ReservoirSpec
    feature_map: FeatureMapSpec

    def __post_init__(self):
        if len(self.encoder.feature_range) != self.reservoir.n_qubits:
            raise ValidationError(
                "encoder feature_range length must equal the reservoir qubit count"
            )

    @property
    def n_qubits(self) -> int:
        return self.reservoir.n_qubits

    @property
    def n_features(self) -> int:
        return self.feature_map.n_features(self.n_qubits)


def encode(features: np.ndarray, spec: EncoderSpec, n_qubits: int) -> Circuit:
    """Min-max scale each feature into an RY angle in [0, pi], one qubit per
    feature, then close with a CX ring when entangling is on."""
    features = np.asarray(features, dtype=float).reshape(-1)
    if len(features) != n_qubits:
        raise DimensionMismatch(f"got {len(features)} features for {n_qubits} qubits")
    if len(spec.feature_range) != n_qubits:
        raise DimensionMismatch(
            f"encoder covers {len(spec.feature_range)} features, circuit has {n_qubits} qubits"
        )
    gates = []
    for q, (value, (lo, hi)) in enumerate(zip(features, spec.feature_range)):
        theta = np.pi * (value - lo) / (hi - lo)
        gates.append(circ.ry(q, float(np.clip(theta, 0.0, np.pi))))
    if spec.entangle and n_qubits >= 2:
        for q in range(n_qubits):
            gates.append(circ.cx(q, (q + 1) % n_qubits))
    return Circuit(n_qubits, tuple(gates))


@lru_cache(maxsize=512)
def build_reservoir(spec: ReservoirSpec) -> Circuit:
    """Deterministic circuit for a reservoir spec. Equal specs always yield
    structurally identical circuits."""
    n = spec.n_qubits
    rng = Rng(spec.seed)
    gates = []
    if spec.style == "rotation":
        for _ in range(spec.layers):
            for q in range(n):
                axis = ("RX", "RY", "RZ")[int(rng.uniform() * 3)]
                angle = rng.uniform() * 2.0 * np.pi
                gates.append(circ.Gate(axis, (q,), (float(angle),)))
            for q in range(n - 1):
                gates.append(circ.cx(q, q + 1))
        return Circuit(n, tuple(gates))

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    j_lo, j_hi = spec.j_range
    h_lo, h_hi = spec.h_range
    couplings = [j_lo + rng.uniform() * (j_hi - j_lo) for _ in pairs]
    fields = [h_lo + rng.uniform() * (h_hi - h_lo) for _ in range(n)]
    dt = spec.time / spec.trotter_steps
    for _ in range(spec.trotter_steps):
        for (i, j), coupling in zip(pairs, couplings):
            gates.append(circ.zz(i, j, 2.0 * coupling * dt))
        for q in range(n):
            gates.append(circ.rx(q, 2.0 * fields[q] * dt))
    return Circuit(n, tuple(gates))


def front_circuit(front: QelmFront, x: np.ndarray) -> Circuit:
    return circ.compose(encode(x, front.encoder, front.n_qubits), build_reservoir(front.reservoir))


def distribution_features(dist: OutcomeDistribution, spec: FeatureMapSpec, seed: int) -> np.ndarray:
    """Map a measured distribution to the configured feature vector."""
    if spec.shots > 0:
        dist = sample(dist, spec.shots, seed).to_distribution()
    if spec.kind == "probabilities":
        return dist.vector.copy()
    n = dist.n_qubits
    z = [expectation_z(dist, q) for q in range(n)]
    if spec.kind == "z_expectations":
        return np.array(z)
    zz = [expectation_zz(dist, i, j) for i in range(n) for j in range(i + 1, n)]
    return np.array(z + zz)


class IdealBackend:
    """Exact state-vector execution."""

    key = "ideal"

    def circuit_features(self, circuit: Circuit, spec: FeatureMapSpec, seed: int) -> np.ndarray:
        dist = measure_distribution(run_ideal(circuit))
        return distribution_features(dist, spec, seed)


class NoisyBackend:
    """Density-matrix execution under a noise profile, including readout
    confusion."""

    def __init__(self, profile: NoiseProfile):
        self.profile = profile
        self.key = f"noisy:{profile.name}"

    def circuit_features(self, circuit: Circuit, spec: FeatureMapSpec, seed: int) -> np.ndarray:
        dist = measure_distribution(run_noisy(circuit, self.profile), self.profile)
        return distribution_features(dist, spec, seed)


def extract_features(front: QelmFront, x: np.ndarray, backend, seed: int = 0) -> np.ndarray:
    """Run the front end for one input on the given backend."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if len(x) != front.n_qubits:
        raise DimensionMismatch(f"got {len(x)} features for {front.n_qubits} qubits")
    return backend.circuit_features(front_circuit(front, x), front.feature_map, seed)


class FeatureCache:
    """Memoizes per-row feature extraction.

    Keys combine the front, the backend identity, the base seed, and the row
    (index and bytes), so bootstrap refits and matched baseline runs reuse
    work instead of re-simulating.
    """

    def __init__(self):
        self._store: dict = {}
        self.hits = 0
        self.misses = 0

    def row_features(self, front, backend, base_seed, index, x) -> np.ndarray:
        key = (front, backend.key, base_seed, index, x.tobytes())
        found = self._store.get(key)
        if found is not None:
            self.hits += 1
            return found
        self.misses += 1
        value = extract_features(front, x, backend, seed=derive_seed(base_seed, "row", index))
        self._store[key] = value
        return value


def feature_matrix(
    front: QelmFront,
    inputs: np.ndarray,
    backend,
    base_seed: int,
    cache: FeatureCache | None = None,
) -> np.ndarray:
    """Features for every row of ``inputs``. Row i's sampling seed depends
    only on (base_seed, i), so matched runs on different backends stay
    comparable."""
    inputs = np.asarray(inputs, dtype=float)
    rows = []
    for i, x in enumerate(inputs):
        if cache is not None:
            rows.append(cache.row_features(front, backend, base_seed, i, x))
        else:
            rows.append(extract_features(front, x, backend, seed=derive_seed(base_seed, "row", i)))
    return np.vstack(rows)


@dataclass
class QelmModel:
    front: QelmFront
    readout: object
    readout_kind: str
    readout_hyper: dict
    task: str  # "regression" | "classification"

    @property
    def n_qubits(self) -> int:
        return self.front.n_qubits


def train(
    inputs: np.ndarray,
    targets: np.ndarray,
    task: str,
    front: QelmFront,
    readout_kind: str,
    backend,
    seed: int = 0,
    cache: FeatureCache | None = None,
    readout_hyper: dict | None = None,
) -> QelmModel:
    """Extract features for every training row on ``backend`` and fit the
    readout. The reservoir is a frozen value and is never altered."""
    if task not in ("regression", "classification"):
        raise ValidationError(f"unknown task {task!r}")
    check_readout_task(readout_kind, task)
    features = feature_matrix(front, inputs, backend, seed, cache)
    readout = fit_readout(features, targets, readout_kind, readout_hyper)
    return QelmModel(
        front=front,
        readout=readout,
        readout_kind=readout_kind,
        readout_hyper=dict(readout_hyper or {}),
        task=task,
    )


def _apply_readout(model: QelmModel, features: np.ndarray):
    if model.task == "regression":
        return model.readout.predict(features)
    probs = model.readout.predict_proba(features)
    return np.argmax(probs, axis=1), probs


def predict(model: QelmModel, x: np.ndarray, backend, seed: int = 0):
    """One prediction: a float for regression, (class, probability vector)
    for classification."""
    features = extract_features(model.front, x, backend, seed).reshape(1, -1)
    if model.task == "regression":
        return float(model.readout.predict(features)[0])
    labels, probs = _apply_readout(model, features)
    return int(labels[0]), probs[0]


def predict_batch(
    model: QelmModel,
    inputs: np.ndarray,
    backend,
    base_seed: int = 0,
    cache: FeatureCache | None = None,
):
    """Predictions for every row; same shape conventions as predict."""
    features = feature_matrix(model.front, inputs, backend, base_seed, cache)
    return _apply_readout(model, features)


def with_reservoir_seed(front: QelmFront, seed: int) -> QelmFront:
    """The same front with a re-seeded reservoir (used by repeats and
    ensembles)."""
    return replace(front, reservoir=replace(front.reservoir, seed=seed))


def exact_feature_front(front: QelmFront) -> QelmFront:
    """The same front with exact (shots = 0) features; ideal baselines use
    this so shot noise never enters the reference."""
    if front.feature_map.shots == 0:
        return front
    return replace(front, feature_map=replace(front.feature_map, shots=0))


# ---------------------------------------------------------------------------
# model persistence

def model_to_dict(model: QelmModel) -> dict:
    front = model.front
    return {
        "schema": "qelm-model/1",
        "task": model.task,
        "encoder": {
            "style": front.encoder.style,
            "feature_range": [[lo, hi] for lo, hi in front.encoder.feature_range],
            "entangle": front.encoder.entangle,
        },
        "reservoir": {
            "style": front.reservoir.style,
            "n_qubits": front.reservoir.n_qubits,
            "seed": front.reservoir.seed,
            "layers": front.reservoir.layers,
            "j_range": list(front.reservoir.j_range),
            "h_range": list(front.reservoir.h_range),
            "time": front.reservoir.time,
            "trotter_steps": front.reservoir.trotter_steps,
        },
        "feature_map": {"kind": front.feature_map.kind, "shots": front.feature_map.shots},
        "readout_kind": model.readout_kind,
        "readout_hyper": model.readout_hyper,
        "readout": model.readout.to_dict(),
    }


def model_from_dict(raw: dict) -> QelmModel:
    if raw.get("schema") != "qelm-model/1":
        raise ValidationError("unrecognized model document")
    encoder = EncoderSpec(
        feature_range=tuple((float(lo), float(hi)) for lo, hi in raw["encoder"]["feature_range"]),
        style=raw["encoder"]["style"],
        entangle=bool(raw["encoder"]["entangle"]),
    )
    res = raw["reservoir"]
    reservoir = ReservoirSpec(
        style=res["style"],
        n_qubits=int(res["n_qubits"]),
        seed=int(res["seed"]),
        layers=int(res["layers"]),
        j_range=tuple(float(v) for v in res["j_range"]),
        h_range=tuple(float(v) for v in res["h_range"]),
        time=float(res["time"]),
        trotter_steps=int(res["trotter_steps"]),
    )
    feature_map = FeatureMapSpec(
        kind=raw["feature_map"]["kind"], shots=int(raw["feature_map"]["shots"])
    )
    return QelmModel(
        front=QelmFront(encoder, reservoir, feature_map),
        readout=readout_from_dict(raw["readout"]),
        readout_kind=raw["readout_kind"],
        readout_hyper=dict(raw.get("readout_hyper", {})),
        task=raw["task"],
    )


def save_model(model: QelmModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n")


def load_model(path: str | Path) -> QelmModel:
    return model_from_dict(json.loads(Path(path).read_text()))
