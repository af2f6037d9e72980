"""Quantum extreme learning machines: encoder circuit, fixed random
reservoir, measurement-based feature extraction, and a trainable readout.

The pipeline for one input x is

    encode(x) . reservoir  ->  execute on a backend  ->  measure  ->
    feature vector         ->  readout

The reservoir is drawn once from its seed and never changes; training only
fits the readout. A backend decides how circuits are executed; it is a
``key`` naming it plus ``programs_features(programs, angles, spec, seeds)``,
which evolves programs for every row of an angle table (None: circuits,
one row) together:

    IdealBackend()            exact state-vector probabilities
    NoisyBackend(profile)     density-matrix evolution plus readout confusion,
                              measured without rebuilding the density matrix

(the mitigation module adds MitigatedBackend). Every row of a front runs
one program (front_program: the encoder's RY gates as slots).
feature_matrices computes the angles of the rows of several parts (inputs,
base seed) in one step and hands them to the backend in one call (with a
FeatureCache: the rows it lacks); feature_matrix is its one-part case, and
grouped_feature_matrices makes one such call per distinct (front,
backend.key), so a repeat walks its train and test rows together.
fit_model fits the readout to a feature matrix, and apply_readout predicts
from one. A backend maps all rows' distributions to feature rows in one
step (probabilities_features). Feature extraction per row is pure given
(front, x, backend, seed), which makes results cacheable and runs
replayable.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import circuit as circ
from .circuit import Circuit
from .errors import DimensionMismatch, ValidationError
from .noise import NoiseProfile
from .readout import HYPER_KEYS, READOUT_KIND, TASK, check_readout_task, fit_readout, readout_from_dict
from .rng import Rng, derive_seed
from .schema import Opt, Rule, at_least, file_text, one_of, read
from .simulator import (
    OutcomeDistribution,
    ideal_probabilities,
    noisy_probabilities,
    run_noisy,  # noqa: F401  (bench/spans.py traces it wherever a module holds it)
    sampled_probabilities,
    z_expectations,
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
        read(ENCODER_KEYS, vars(self), "encoder")


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
        read(RESERVOIR_KEYS, vars(self), "reservoir")


@dataclass(frozen=True)
class FeatureMapSpec:
    """What gets read out of the measured distribution.

    shots == 0 uses exact probabilities; shots > 0 samples counts first with
    the run's seed and computes features from empirical frequencies.
    """

    kind: str = "probabilities"
    shots: int = 0

    def __post_init__(self):
        read(FEATURE_MAP_KEYS, vars(self), "feature_map")

    def n_features(self, n_qubits: int) -> int:
        if self.kind == "probabilities":
            return 2**n_qubits
        if self.kind == "z_expectations":
            return n_qubits
        return n_qubits + n_qubits * (n_qubits - 1) // 2


# The model document's keys of each front spec, checked by its constructor;
# a run config's model section shares their rules (harness.MODEL_SPEC_KEYS).
ENCODER_KEYS = {
    "feature_range": [Rule((float, float), lambda r: r[0] < r[1], "must have min < max")],
    "style": one_of(ENCODER_STYLES), "entangle": bool,
}
RESERVOIR_KEYS = {
    "style": one_of(RESERVOIR_STYLES), "n_qubits": at_least(1), "seed": int, "layers": at_least(1),
    "j_range": (float, float), "h_range": (float, float), "time": float, "trotter_steps": at_least(1),
}
FEATURE_MAP_KEYS = {"kind": one_of(FEATURE_MAP_KINDS), "shots": at_least(0)}


@dataclass(frozen=True)
class QelmFront:
    """Everything before the readout: encoder, reservoir, feature map."""

    encoder: EncoderSpec
    reservoir: ReservoirSpec
    feature_map: FeatureMapSpec

    def __post_init__(self):
        n, ranges = self.reservoir.n_qubits, len(self.encoder.feature_range)
        if ranges != n:
            raise ValidationError(f"encoder.feature_range: expected {n} ranges, one per qubit, got {ranges}")

    @property
    def n_qubits(self) -> int:
        return self.reservoir.n_qubits

    @property
    def n_features(self) -> int:
        return self.feature_map.n_features(self.n_qubits)


def encode(features: np.ndarray, spec: EncoderSpec, n_qubits: int) -> Circuit:
    """Min-max scale each feature into an RY angle in [0, pi], one qubit per
    feature, then close with a CX ring when entangling is on."""
    features = np.asarray(features, dtype=float).reshape(1, -1)
    if features.shape[1] != n_qubits:
        raise DimensionMismatch(f"got {features.shape[1]} features for {n_qubits} qubits")
    if len(spec.feature_range) != n_qubits:
        raise DimensionMismatch(
            f"encoder covers {len(spec.feature_range)} features, circuit has {n_qubits} qubits"
        )
    gates = [circ.ry(q, theta) for q, theta in enumerate(encoder_angles(spec, features)[0])]
    if spec.entangle and n_qubits >= 2:
        gates += [circ.cx(q, (q + 1) % n_qubits) for q in range(n_qubits)]
    return Circuit(n_qubits, tuple(gates))


def encoder_angles(spec: EncoderSpec, inputs) -> np.ndarray:
    """The encoder's angles of rows of features, one row each, with encode's
    bits and errors: a wrong feature count, a non-finite angle."""
    inputs = np.asarray(inputs, dtype=float)
    n = len(spec.feature_range)
    rows = inputs.reshape(len(inputs), -1) if len(inputs) else inputs.reshape(0, n)
    if rows.shape[1] != n:
        raise DimensionMismatch(f"got {rows.shape[1]} features for {n} qubits")
    lo, hi = np.array(spec.feature_range).T
    angles = np.clip(np.pi * (rows - lo) / (hi - lo), 0.0, np.pi)
    if not np.isfinite(angles).all():
        raise ValidationError(f"RY parameter must be finite, got {angles[~np.isfinite(angles)][0]}")
    return angles


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


def front_program(front: QelmFront) -> Circuit:
    """The program every row of the front runs: front_circuit with the
    encoder's RY gates as slots."""
    n = front.n_qubits
    ring = encode(np.zeros(n), front.encoder, n).gates[n:]
    return Circuit(n, tuple(map(circ.Slot, range(n))) + ring + build_reservoir(front.reservoir).gates)


def front_circuit(front: QelmFront, x: np.ndarray) -> Circuit:
    return circ.compose(encode(x, front.encoder, front.n_qubits), build_reservoir(front.reservoir))


def distribution_features(dist: OutcomeDistribution, spec: FeatureMapSpec, seed: int) -> np.ndarray:
    """Map a measured distribution to the configured feature vector:
    probabilities_features of one row."""
    return probabilities_features(dist.vector[None], spec, [seed])[0]


def probabilities_features(probs: np.ndarray, spec: FeatureMapSpec, seeds) -> np.ndarray:
    """The feature rows of measured distributions ``probs``, one row each
    (as OutcomeDistribution.vector holds them), in one stacked step. With
    shots, row r is first replaced by the frequencies of ``spec.shots``
    draws seeded by seeds[r] (sampled_probabilities). A row's features do
    not depend on the other rows."""
    if spec.shots > 0:
        probs = sampled_probabilities(probs, spec.shots, seeds)
    if spec.kind == "probabilities":
        return probs.copy()
    n = probs.shape[1].bit_length() - 1
    qubit_sets = [(q,) for q in range(n)]
    if spec.kind == "z_and_zz_expectations":
        qubit_sets += list(combinations(range(n), 2))
    return z_expectations(probs, qubit_sets)


class IdealBackend:
    """Exact state-vector execution."""

    key = "ideal"

    def programs_features(self, programs: list[Circuit], angles, spec: FeatureMapSpec, seeds) -> np.ndarray:
        return probabilities_features(ideal_probabilities(programs, angles), spec, seeds)


class NoisyBackend:
    """Density-matrix execution under a noise profile, including readout
    confusion."""

    def __init__(self, profile: NoiseProfile):
        self.profile = profile
        self.key = f"noisy:{profile.name}"

    def programs_features(self, programs: list[Circuit], angles, spec: FeatureMapSpec, seeds) -> np.ndarray:
        return probabilities_features(noisy_probabilities(programs, self.profile, angles), spec, seeds)

    def circuit_features(self, circuit: Circuit, spec: FeatureMapSpec, seed: int) -> np.ndarray:
        return self.programs_features([circuit], None, spec, [seed])[0]


def extract_features(front: QelmFront, x: np.ndarray, backend, seed: int = 0) -> np.ndarray:
    """Run the front end for one input on the given backend."""
    angles = encoder_angles(front.encoder, np.reshape(x, (1, -1)))
    return backend.programs_features([front_program(front)], angles, front.feature_map, [seed])[0]


def _rows_features(front: QelmFront, backend, rows) -> list[np.ndarray]:
    """Features of the numbered rows ``(base_seed, i, x)`` from one backend
    call. Row (base_seed, i) samples with derive_seed(base_seed, "row", i)."""
    angles = encoder_angles(front.encoder, [x for _, _, x in rows])
    if not len(angles):
        return []
    seeds = [derive_seed(s, "row", i) for s, i, _ in rows] if front.feature_map.shots else None
    return list(backend.programs_features([front_program(front)], angles, front.feature_map, seeds))


class FeatureCache:
    """Memoizes per-row feature extraction.

    Keys combine the front, the backend identity, the base seed, and the row
    (index and bytes), so a bootstrap distribution and an ideal UQ run reuse
    rows computed before instead of re-simulating them. The store and the hit/miss counters sit
    behind one lock, so repeats on several threads can share a cache; two
    threads that miss the same row both compute it, and both return the
    value stored first.
    """

    def __init__(self):
        self._store: dict = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def rows(self, front, backend, rows) -> list[np.ndarray]:
        """Features of the numbered rows ``(base_seed, i, x)``; the misses
        are computed together in one backend call."""
        keys = [(front, backend.key, s, i, x.tobytes()) for s, i, x in rows]
        with self._lock:
            found = [self._store.get(key) for key in keys]
            missing = [j for j, row in enumerate(found) if row is None]
            self.hits += len(found) - len(missing)
            self.misses += len(missing)
        computed = _rows_features(front, backend, [rows[j] for j in missing])
        with self._lock:
            for j, row in zip(missing, computed):
                found[j] = self._store.setdefault(keys[j], row)
        return found

    def row_features(self, front, backend, base_seed, index, x) -> np.ndarray:
        """Features of row ``index``: ``rows`` of one row."""
        return self.rows(front, backend, [(base_seed, index, x)])[0]


def feature_matrices(front: QelmFront, backend, parts, cache: FeatureCache | None = None) -> list[np.ndarray]:
    """One feature matrix per part ``(inputs, base_seed)``, the rows of all
    parts evolved together in one backend call (with a cache: the rows it
    lacks). Row i of a part samples with derive_seed(base_seed, "row", i),
    so a row's features do not depend on the other rows or parts, and
    matched runs on different backends stay comparable."""
    parts = [(np.asarray(inputs, dtype=float), s) for inputs, s in parts]
    rows = [(s, i, x) for inputs, s in parts for i, x in enumerate(inputs)]
    features = (cache.rows if cache is not None else _rows_features)(front, backend, rows)
    bounds = np.cumsum([0] + [len(inputs) for inputs, _ in parts])
    return [
        np.array(features[a:b], dtype=float).reshape(b - a, front.n_features)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def feature_matrix(
    front: QelmFront,
    inputs: np.ndarray,
    backend,
    base_seed: int,
    cache: FeatureCache | None = None,
) -> np.ndarray:
    """Features for every row of ``inputs``: feature_matrices of one part."""
    return feature_matrices(front, backend, [(inputs, base_seed)], cache)[0]


def grouped_feature_matrices(requests, cache: FeatureCache | None = None) -> list[np.ndarray]:
    """The feature matrix of each request ``(front, backend, inputs,
    base_seed)``, with one feature_matrices call per distinct (front,
    backend.key)."""
    groups: dict = {}
    for j, (front, backend, _, _) in enumerate(requests):
        groups.setdefault((front, backend.key), []).append(j)
    matrices = [None] * len(requests)
    for members in groups.values():
        front, backend = requests[members[0]][:2]
        parts = [requests[j][2:] for j in members]
        for j, matrix in zip(members, feature_matrices(front, backend, parts, cache)):
            matrices[j] = matrix
    return matrices


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


def fit_model(
    features, targets, task: str, front: QelmFront, readout_kind: str, readout_hyper: dict | None = None
) -> QelmModel:
    """The model of ``front`` whose readout is fitted to the training rows'
    ``features``. The reservoir is a frozen value and is never altered."""
    read(TASK, task, "task")
    check_readout_task(readout_kind, task)
    readout = fit_readout(features, targets, readout_kind, readout_hyper)
    return QelmModel(
        front=front,
        readout=readout,
        readout_kind=readout_kind,
        readout_hyper=dict(readout_hyper or {}),
        task=task,
    )


def apply_readout(model: QelmModel, features: np.ndarray):
    """The predictions of ``model`` on a feature matrix: a float per row for
    regression; for classification, a label per row and the (rows, 2)
    class probabilities."""
    if model.task == "regression":
        return model.readout.predict(features)
    probs = model.readout.predict_proba(features)
    return np.argmax(probs, axis=1), probs


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
    return {
        "schema": "qelm-model/1",
        "task": model.task,
        # the encoder, reservoir and feature_map sections: each spec's fields, tuples as lists
        **{key: json.loads(json.dumps(vars(spec))) for key, spec in vars(model.front).items()},
        "readout_kind": model.readout_kind,
        "readout_hyper": model.readout_hyper,
        "readout": model.readout.to_dict(),
    }


# The model document (model_to_dict); readout_from_dict reads its readout.
MODEL_KEYS = {
    "schema": Rule(str, lambda name: name == "qelm-model/1", "not a qelm-model/1 document"),
    "task": TASK,
    "encoder": ENCODER_KEYS,
    "reservoir": RESERVOIR_KEYS,
    "feature_map": FEATURE_MAP_KEYS,
    "readout_kind": READOUT_KIND,
    "readout_hyper": Opt(HYPER_KEYS, {}),
    "readout": {...: None},
}


def model_from_dict(raw: dict) -> QelmModel:
    """The model of a document from model_to_dict, checked against
    MODEL_KEYS: a bad document raises a ValidationError naming the path."""
    raw = read(MODEL_KEYS, raw)
    enc, res = raw["encoder"], raw["reservoir"]
    encoder = EncoderSpec(tuple(map(tuple, enc["feature_range"])), enc["style"], enc["entangle"])
    reservoir = ReservoirSpec(**{**res, "j_range": tuple(res["j_range"]), "h_range": tuple(res["h_range"])})
    front = QelmFront(encoder, reservoir, FeatureMapSpec(**raw["feature_map"]))
    return QelmModel(
        front=front,
        readout=readout_from_dict(raw["readout"], "readout", front.n_features),
        readout_kind=raw["readout_kind"],
        readout_hyper=raw["readout_hyper"],
        task=raw["task"],
    )


def save_model(model: QelmModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n")


def load_model(path: str | Path) -> QelmModel:
    return model_from_dict(json.loads(file_text(path)))
