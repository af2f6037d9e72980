"""Scenario runner: synthetic datasets, the experiment matrix, percentage
change from the ideal baseline, rank statistics, and report emission.

A scenario id fixes which backend runs the training and testing phase:

    C1_1  ideal train, noisy test        C1_2  noisy train, noisy test
    C2_1  ideal train, mitigated test    C2_2  mitigated train and test
    C3_1..C3_4  the same four pairs with mandatory uncertainty artifacts

Every repeat re-seeds the reservoir, trains and evaluates on the configured
backends, and records the metric next to a matched ideal run (same seeds,
ideal backends), so percentage changes are paired per repeat. Reports are
replayable: the same config and dataset reproduce results.json byte for
byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__ as _package_version
from .errors import EmptyInput, QelmLabError, TooFewSamples, ValidationError
from .mitigation import (
    MitigatedBackend,
    QlearMitigator,
    ZneConfig,
    ZneMitigator,
    calibration_circuits,
    qlear_train,
)
from .noise import NoiseProfile
from .qelm import (
    ENCODER_KEYS,
    FEATURE_MAP_KEYS,
    RESERVOIR_KEYS,
    EncoderSpec,
    FeatureCache,
    FeatureMapSpec,
    IdealBackend,
    NoisyBackend,
    QelmFront,
    ReservoirSpec,
    apply_readout,
    exact_feature_front,
    fit_model,
    grouped_feature_matrices,
)
from .readout import HYPER_KEYS, READOUT_HYPER, READOUT_KIND, TASK, check_readout_task
from .rng import Rng, derive_seed
from .schema import Either, Opt, Rule, at_least, file_text, one_of, read
from .svg import render_box_plot, render_interval_chart, render_reliability_chart
from .uq import (
    bootstrap_distribution,
    classification_uq_metrics,
    ensemble_distribution,
    intervals_to_csv,
    regression_uq_metrics,
    reliability_to_csv,
)

DATASET_KINDS = ("regression3", "classification4", "classification8")
MAX_SAMPLES = 100_000
SCENARIO_IDS = ("C1_1", "C1_2", "C2_1", "C2_2", "C3_1", "C3_2", "C3_3", "C3_4")
MITIGATOR_KINDS = ("zne", "qlear")
UQ_METHODS = ("bootstrap", "ensemble")
SCENARIO_BACKENDS = {
    "C1_1": ("ideal", "noisy"),
    "C1_2": ("noisy", "noisy"),
    "C2_1": ("ideal", "mitigated"),
    "C2_2": ("mitigated", "mitigated"),
    "C3_1": ("ideal", "noisy"),
    "C3_2": ("noisy", "noisy"),
    "C3_3": ("ideal", "mitigated"),
    "C3_4": ("mitigated", "mitigated"),
}


# ---------------------------------------------------------------------------
# datasets

@dataclass
class Dataset:
    features: np.ndarray
    targets: np.ndarray
    task: str  # "regression" | "classification"
    train_idx: np.ndarray
    test_idx: np.ndarray
    kind: str = "custom"
    seed: int = 0
    noise_level: float = 0.0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        read(TASK, self.task, "task")
        if len(self.features) != len(self.targets):
            raise ValidationError("feature rows must match target count")
        if self.task == "classification" and not np.all(np.isin(self.targets, (0.0, 1.0))):
            raise ValidationError("classification labels must be 0 or 1")

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def train_features(self) -> np.ndarray:
        return self.features[self.train_idx]

    @property
    def train_targets(self) -> np.ndarray:
        return self.targets[self.train_idx]

    @property
    def test_features(self) -> np.ndarray:
        return self.features[self.test_idx]

    @property
    def test_targets(self) -> np.ndarray:
        return self.targets[self.test_idx]


def _split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # fixed 70/30 split from a seeded permutation
    perm = Rng(derive_seed(seed, "split")).permutation(n)
    n_train = int(round(0.7 * n))
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


# a run config's dataset section, the arguments of generate_dataset
DATASET_KEYS = {
    "kind": Opt(one_of(DATASET_KINDS), "regression3"),
    "size": Opt(Rule(int, lambda n: 20 <= n <= MAX_SAMPLES, f"must lie in [20, {MAX_SAMPLES}]"), 120),
    "seed": Opt(int, 7),
    "noise_level": Opt(at_least(0.0, float), 0.1),
}


def generate_dataset(kind: str, n_samples: int, seed: int, noise_level: float = 0.1) -> Dataset:
    """Deterministic synthetic tasks with 3, 4, or 8 features.

    regression3       linear plus a smooth nonlinearity with additive noise
    classification4   two uniform clusters, separable at noise_level 0
    classification8   two Gaussian clusters whose overlap grows with
                      noise_level
    """
    noise_level = float(noise_level)
    read(DATASET_KEYS, {"kind": kind, "size": n_samples, "seed": seed, "noise_level": noise_level}, "dataset")
    rng = Rng(derive_seed(seed, kind))
    if kind == "regression3":
        x = rng.uniforms(3 * n_samples).reshape(n_samples, 3)
        eps = rng.normals(n_samples)
        y = 2.0 + 1.5 * x[:, 0] - 2.0 * x[:, 1] + 1.2 * np.cos(np.pi * x[:, 2])
        y = y + noise_level * eps
        task = "regression"
    elif kind == "classification4":
        centers = {
            0: np.array([0.3, 0.35, 0.65, 0.3]),
            1: np.array([0.7, 0.6, 0.35, 0.7]),
        }
        half_width = 0.15 + noise_level
        y = np.arange(n_samples) % 2
        jitter = (rng.uniforms(4 * n_samples).reshape(n_samples, 4) * 2.0 - 1.0) * half_width
        x = np.clip(np.vstack([centers[int(c)] for c in y]) + jitter, 0.0, 1.0)
        task = "classification"
    else:
        signs = np.array([1.0, -1.0] * 4)
        sigma = 0.04 + 0.5 * noise_level
        y = np.arange(n_samples) % 2
        offsets = np.where(y[:, None] == 0, -0.2 * signs, 0.2 * signs)
        jitter = sigma * rng.normals(8 * n_samples).reshape(n_samples, 8)
        x = np.clip(0.5 + offsets + jitter, 0.0, 1.0)
        task = "classification"
    train_idx, test_idx = _split_indices(n_samples, seed)
    return Dataset(
        features=x,
        targets=np.asarray(y, dtype=float),
        task=task,
        train_idx=train_idx,
        test_idx=test_idx,
        kind=kind,
        seed=seed,
        noise_level=noise_level,
    )


def load_csv_dataset(path: str | Path, task: str, split_seed: int = 0) -> Dataset:
    """CSV with a header row; the final column is the target."""
    with io.StringIO(file_text(path, newline=""), newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ValidationError(f"{path}: need a header and at least two columns")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: row {reader.line_num} has {len(row)} cells, the header {len(header)}"
                )
            values = []
            for name, cell in zip(header, row):
                try:
                    values.append(float(cell))
                except ValueError:
                    values.append(math.nan)
                if not math.isfinite(values[-1]):
                    raise ValidationError(
                        f"{path}: row {reader.line_num}, column {name!r}: "
                        f"{cell!r} is not a finite number"
                    )
            rows.append(values)
    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least two data rows")
    data = np.asarray(rows, dtype=float)
    train_idx, test_idx = _split_indices(len(data), split_seed)
    return Dataset(
        features=data[:, :-1],
        targets=data[:, -1],
        task=task,
        train_idx=train_idx,
        test_idx=test_idx,
        kind="csv",
        seed=split_seed,
    )


# ---------------------------------------------------------------------------
# metrics and statistics

def mse(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    return float(np.mean((y_true - y_pred) ** 2))


def accuracy(y_true, labels) -> float:
    y_true = np.asarray(y_true, dtype=float)
    labels = np.asarray(labels, dtype=float)
    return float(np.mean(y_true == labels))


def percent_change(ideal: float, observed: float, metric: str) -> float:
    """Percentage change from the ideal value.

    ``error`` metrics report the percentage increase, ``accuracy`` metrics
    the percentage decrease. An out-of-domain baseline (ideal <= 0, or an
    accuracy outside (0, 1]) yields NaN so callers can flag the run instead
    of crashing.
    """
    if metric == "error":
        if ideal <= 0.0:
            return math.nan
        return 100.0 * (observed - ideal) / ideal
    if metric == "accuracy":
        if not 0.0 < ideal <= 1.0:
            return math.nan
        return 100.0 * (ideal - observed) / ideal
    raise ValidationError(f"unknown metric direction {metric!r}")


def _u_statistic(a: np.ndarray, b: np.ndarray) -> float:
    wins = (a[:, None] > b[None, :]).sum()
    ties = (a[:, None] == b[None, :]).sum()
    return float(wins) + 0.5 * float(ties)


def _exact_u_counts(pooled: np.ndarray, m: int) -> dict[float, int]:
    """Null distribution of U over all C(len(pooled), m) ways to pick the
    first sample: U value -> number of picks.

    U of a pick is (sum of its doubled mid-ranks - m(m+1)) / 2, and doubled
    mid-ranks are integers, so ties stay exact. counts[j][s] is the number of
    j-element picks among the values seen so far whose doubled ranks sum to s.
    """
    less = (pooled[:, None] > pooled[None, :]).sum(axis=1)
    equal = (pooled[:, None] == pooled[None, :]).sum(axis=1)
    doubled = [int(r) for r in 2 * less + equal + 1]
    top = sum(sorted(doubled)[-m:])
    counts = np.zeros((m + 1, top + 1), dtype=object)
    counts[0, 0] = 1
    for seen, rank in enumerate(doubled):
        for j in range(min(seen + 1, m), 0, -1):
            counts[j, rank:] += counts[j - 1, : top + 1 - rank]
    offset = m * (m + 1)
    return {(s - offset) / 2.0: int(c) for s, c in enumerate(counts[m]) if c}


def mann_whitney_u(a, b, method: str = "auto") -> tuple[float, float]:
    """Two-sided Mann-Whitney test; returns (U of the first sample, p value).

    ``auto`` counts the exact null distribution when the pooled size is
    at most 16 and otherwise uses the normal approximation with tie
    correction and continuity correction.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if len(a) < 3 or len(b) < 3:
        raise TooFewSamples("each group needs at least 3 values")
    if method not in ("auto", "exact", "approx"):
        raise ValidationError(f"unknown method {method!r}")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValidationError("Mann-Whitney values must not be NaN")
    u_obs = _u_statistic(a, b)
    m, n = len(a), len(b)
    if method == "exact" or (method == "auto" and m + n <= 16):
        u_counts = _exact_u_counts(np.concatenate([a, b]), m)
        total = sum(u_counts.values())
        count_le = sum(c for u, c in u_counts.items() if u <= u_obs + 1e-12)
        count_ge = sum(c for u, c in u_counts.items() if u >= u_obs - 1e-12)
        p = min(1.0, 2.0 * min(count_le, count_ge) / total)
        return u_obs, p
    big_n = m + n
    mu = m * n / 2.0
    _, tie_counts = np.unique(np.concatenate([a, b]), return_counts=True)
    tie_term = float(np.sum(tie_counts**3 - tie_counts)) / (big_n * (big_n - 1))
    sigma_sq = m * n / 12.0 * ((big_n + 1) - tie_term)
    if sigma_sq <= 0.0:
        return u_obs, 1.0
    z = max(abs(u_obs - mu) - 0.5, 0.0) / math.sqrt(sigma_sq)
    p = min(1.0, math.erfc(z / math.sqrt(2.0)))
    return u_obs, p


def a12(a, b) -> float:
    """Probability that a value from ``a`` exceeds one from ``b``, counting
    ties as one half."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if len(a) == 0 or len(b) == 0:
        raise EmptyInput("effect size needs non-empty samples")
    return _u_statistic(a, b) / (len(a) * len(b))


# ---------------------------------------------------------------------------
# scenario configuration

@dataclass(frozen=True)
class UqSpec:
    method: str  # "bootstrap" | "ensemble"
    samples: int = 0  # 0 picks the method default (100 / 30)

    def __post_init__(self):
        read(UQ_KEYS, vars(self), "uq")

    @property
    def resolved_samples(self) -> int:
        if self.samples:
            return self.samples
        return 100 if self.method == "bootstrap" else 30


# a run config's uq section; the uq subcommand reads a missing one as {"samples": 0}
UQ_KEYS = {
    "method": Opt(one_of(UQ_METHODS), "bootstrap"),
    "samples": Opt(Rule(int, lambda n: n == 0 or n >= 2, "must be 0 (the method default) or at least 2")),
}


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to assemble a QELM for a dataset."""

    reservoir_style: str = "ising"
    layers: int = 2
    trotter_steps: int = 3
    evolution_time: float = 1.0
    j_range: tuple[float, float] = (-1.0, 1.0)
    h_range: tuple[float, float] = (-1.0, 1.0)
    feature_map: str = "probabilities"
    shots: int = 0
    readout: str = "linear"
    entangle: bool = True
    readout_hyper: tuple = ()

    def __post_init__(self):
        # from JSON: ranges are lists, the time may be an integer, hyperparameters an object
        object.__setattr__(self, "evolution_time", float(self.evolution_time))
        object.__setattr__(self, "j_range", tuple(self.j_range))
        object.__setattr__(self, "h_range", tuple(self.h_range))
        object.__setattr__(self, "readout_hyper", tuple(sorted(dict(self.readout_hyper).items())))
        # checked here so that a bad setting fails the run, not every repeat;
        # the readout_hyper keys are those of the chosen readout
        hyper = Opt(READOUT_HYPER.get(self.readout, HYPER_KEYS))
        read({**MODEL_SPEC_KEYS, "readout_hyper": hyper}, self.to_dict(), "model")

    def hyper_dict(self) -> dict:
        return dict(self.readout_hyper)

    def front(self, feature_range: tuple, reservoir_seed: int) -> QelmFront:
        """The front of one repeat: one qubit per feature range."""
        return QelmFront(
            EncoderSpec(feature_range=feature_range, entangle=self.entangle),
            ReservoirSpec(
                self.reservoir_style, len(feature_range), reservoir_seed, self.layers, self.j_range,
                self.h_range, self.evolution_time, self.trotter_steps,
            ),
            FeatureMapSpec(self.feature_map, self.shots),
        )

    def to_dict(self) -> dict:
        return {**vars(self), "readout_hyper": self.hyper_dict()}


# a run config's model section, with the rules of the front specs' documents;
# a missing key takes the value of the dataset's default model
MODEL_SPEC_KEYS = {key: Opt(slot) for key, slot in {
    "reservoir_style": RESERVOIR_KEYS["style"], "evolution_time": RESERVOIR_KEYS["time"],
    **{key: RESERVOIR_KEYS[key] for key in ("layers", "trotter_steps", "j_range", "h_range")},
    "feature_map": FEATURE_MAP_KEYS["kind"], "shots": FEATURE_MAP_KEYS["shots"], "readout": READOUT_KIND,
    "entangle": ENCODER_KEYS["entangle"], "readout_hyper": HYPER_KEYS,
}.items()}


def default_model_spec(dataset: Dataset, shots: int = 0) -> ModelSpec:
    """Best-performing configuration per task shape, found in preliminary
    sweeps: linear readout for regression, tree for small classification
    tasks, logistic for wider ones. The gentler evolution time keeps the
    reservoir expressive without scrambling smooth targets, which matters
    most for the regression task."""
    if dataset.task == "regression":
        return ModelSpec(readout="linear", evolution_time=0.25, shots=shots)
    if dataset.n_features <= 4:
        return ModelSpec(readout="tree", evolution_time=0.5, shots=shots)
    return ModelSpec(readout="logistic", evolution_time=0.5, shots=shots)


def encoder_ranges(train_features: np.ndarray) -> tuple:
    """Per-feature (min, max) from the training split; constant columns get
    a widened range so scaling stays defined."""
    ranges = []
    for j in range(train_features.shape[1]):
        lo = float(train_features[:, j].min())
        hi = float(train_features[:, j].max())
        if hi - lo < 1e-12:
            lo, hi = lo - 0.5, hi + 0.5
        ranges.append((lo, hi))
    return tuple(ranges)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    profile: NoiseProfile
    repeats: int = 10
    seed: int = 0
    mitigator: str | None = None  # "zne" | "qlear"
    zne: ZneConfig | None = None
    qlear_corpus: int = 24
    qlear_trees: int = 20
    qlear_max_depth: int = 6
    uq: UqSpec | None = None
    jobs: int | None = None

    def __post_init__(self):
        qlear = {"corpus": self.qlear_corpus, "trees": self.qlear_trees, "max_depth": self.qlear_max_depth}
        read(SCENARIO_KEYS, {"scenario": self.scenario_id, "repeats": self.repeats, "seed": self.seed,
                             "mitigator": self.mitigator, "qlear": qlear, "jobs": self.jobs})
        _check_mitigator(self)
        _check_uq(self)

    @property
    def backend_pair(self) -> tuple[str, str]:
        return SCENARIO_BACKENDS[self.scenario_id]


# a run config's keys of a ScenarioConfig, with its fields' defaults (a run's scenario is C1_1)
SCENARIO_KEYS = {
    "scenario": Opt(one_of(SCENARIO_IDS), "C1_1"),
    "repeats": Opt(at_least(1), ScenarioConfig.repeats),
    "seed": Opt(int, ScenarioConfig.seed),
    "mitigator": Opt(one_of(MITIGATOR_KINDS), None),
    "qlear": Opt({  # a corpus needs one circuit to train on and one to hold out
        "corpus": Opt(at_least(2), ScenarioConfig.qlear_corpus),
        "trees": Opt(at_least(1), ScenarioConfig.qlear_trees),
        "max_depth": Opt(at_least(0), ScenarioConfig.qlear_max_depth),
    }, {}),
    "jobs": Opt(at_least(1), None),  # None: one worker per repeat, up to the cores
}


def _check_mitigator(config: ScenarioConfig) -> None:
    """A scenario has a mitigator exactly when one of its backends is mitigated."""
    scenario, mitigator = config.scenario_id, config.mitigator
    if "mitigated" in config.backend_pair and mitigator is None:
        raise ValidationError(f"mitigator: required, scenario {scenario} uses a mitigated backend")
    if "mitigated" not in config.backend_pair and mitigator is not None:
        raise ValidationError(f"mitigator: scenario {scenario} has no mitigated backend, got {mitigator!r}")


def _check_uq(config: ScenarioConfig) -> None:
    """A C3 scenario needs a uq setting."""
    if config.scenario_id.startswith("C3") and config.uq is None:
        raise ValidationError(f"uq: required, scenario {config.scenario_id} makes uncertainty artifacts")


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return None if (math.isnan(v) or math.isinf(v)) else v
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return value


def report_json_bytes(payload: dict) -> bytes:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2)
    return (text + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# scenario execution

def evaluate_model(model, features, targets) -> float:
    """The metric of ``model`` on the test rows' ``features``: mse or accuracy."""
    if model.task == "regression":
        return mse(targets, apply_readout(model, features))
    labels, _ = apply_readout(model, features)
    return accuracy(targets, labels)


def _build_mitigator(config: ScenarioConfig, model_spec: ModelSpec, n_qubits: int):
    if config.mitigator == "zne":
        mitigator = ZneMitigator(config.zne or ZneConfig())
        info = {"kind": "zne", "config": mitigator.config.to_dict()}
        return mitigator, info
    corpus = calibration_circuits(
        n_qubits, config.qlear_corpus, derive_seed(config.seed, "qlear-corpus")
    )
    model = qlear_train(
        corpus,
        config.profile,
        seed=derive_seed(config.seed, "qlear-train"),
        n_trees=config.qlear_trees,
        max_depth=config.qlear_max_depth,
        feature_map=FeatureMapSpec(model_spec.feature_map, 0),
        min_corpus=min(20, config.qlear_corpus),
    )
    info = {
        "kind": "qlear",
        "corpus_size": model.corpus_size,
        "held_out_mae": model.held_out_mae,
    }
    return QlearMitigator(model), info


def _set_up(config: ScenarioConfig, dataset: Dataset, model_spec: ModelSpec | None):
    """What a scenario and its UQ run start from: the model spec (the
    dataset's default if None), checked against the task; the encoder's
    feature range; the mitigation entry of the report; and the train and
    test backends, with the configured mitigator built once for both."""
    model_spec = model_spec or default_model_spec(dataset)
    check_readout_task(model_spec.readout, dataset.task)
    feature_range = encoder_ranges(dataset.train_features)
    mitigator, mitigation_info = (None, None)
    if config.mitigator is not None:
        mitigator, mitigation_info = _build_mitigator(config, model_spec, dataset.n_features)

    def build(kind: str):
        if kind == "ideal":
            return IdealBackend()
        if kind == "noisy":
            return NoisyBackend(config.profile)
        return MitigatedBackend(config.profile, mitigator)

    backends = tuple(map(build, config.backend_pair))
    return model_spec, feature_range, mitigation_info, backends


def _uq_artifacts(config, dataset, model_spec, feature_range, train_backend, test_backend):
    cache = FeatureCache()  # shared by the configured and the ideal variant
    uq_seed = derive_seed(config.seed, "uq")
    front = model_spec.front(feature_range, derive_seed(uq_seed, "reservoir"))
    train_seed = derive_seed(uq_seed, "train-features")
    test_seed = derive_seed(uq_seed, "test-features")
    spec = config.uq
    n = spec.resolved_samples

    def run(backends, run_front) -> dict:
        # looked up at call time, so a wrapper set on this module's name is used
        distribution = bootstrap_distribution if spec.method == "bootstrap" else ensemble_distribution
        dist = distribution(
            run_front,
            model_spec.readout,
            dataset.task,
            dataset.train_features,
            dataset.train_targets,
            dataset.test_features,
            *backends,
            n,  # B resamples or M members
            seed=uq_seed,
            train_seed=train_seed,
            test_seed=test_seed,
            cache=cache,
            readout_hyper=model_spec.hyper_dict(),
        )
        if dataset.task == "regression":
            return regression_uq_metrics(dist, dataset.test_targets)
        return classification_uq_metrics(dist, dataset.test_targets)

    ideal = IdealBackend()
    return {
        "method": spec.method,
        "samples": n,
        "configured": run((train_backend, test_backend), front),
        "ideal": run((ideal, ideal), exact_feature_front(front)),
    }


def run_uq(
    config: ScenarioConfig, dataset: Dataset, model_spec: ModelSpec | None = None
) -> dict:
    """Compute only the uncertainty artifacts for a configuration (the
    configured backends next to an all-ideal reference)."""
    if config.uq is None:
        raise ValidationError("run_uq needs a uq setting on the config")
    model_spec, feature_range, _, backends = _set_up(config, dataset, model_spec)
    return _uq_artifacts(config, dataset, model_spec, feature_range, *backends)


def run_scenario(
    config: ScenarioConfig, dataset: Dataset, model_spec: ModelSpec | None = None
) -> dict:
    """Execute one scenario end to end; returns its ``scenario-report/1``
    document, the dict emit_report writes as results.json."""
    model_spec, feature_range, mitigation_info, backends = _set_up(config, dataset, model_spec)
    train_backend, test_backend = backends
    direction = "error" if dataset.task == "regression" else "accuracy"
    ideal_backend = IdealBackend()
    flags: list[str] = []

    def fit(features, front):
        return fit_model(
            features, dataset.train_targets, dataset.task, front, model_spec.readout, model_spec.hyper_dict()
        )

    def one_repeat(i: int) -> dict:
        repeat_seed = derive_seed(config.seed, "repeat", i)
        front = model_spec.front(feature_range, derive_seed(repeat_seed, "reservoir"))
        baseline_front = exact_feature_front(front)  # ideal baselines never sample
        train_seed = derive_seed(repeat_seed, "train-features")
        test_seed = derive_seed(repeat_seed, "test-features")
        record = {"repeat": i, "seed": repeat_seed}
        # the ideal model is the trained one when training is ideal and exact
        reuse = train_backend.key == ideal_backend.key and baseline_front is front
        requests = [
            (front, train_backend, dataset.train_features, train_seed),
            (front, test_backend, dataset.test_features, test_seed),
            (baseline_front, ideal_backend, dataset.test_features, test_seed),
        ]
        if not reuse:
            requests.append((baseline_front, ideal_backend, dataset.train_features, train_seed))
        try:
            # one backend call per distinct (front, backend) covers every row
            train_x, test_x, ideal_test_x, *ideal_train_x = grouped_feature_matrices(requests)
            model = fit(train_x, front)
            metric = evaluate_model(model, test_x, dataset.test_targets)
            ideal_model = model if reuse else fit(ideal_train_x[0], baseline_front)
            ideal_metric = evaluate_model(ideal_model, ideal_test_x, dataset.test_targets)
            record.update(
                metric=metric,
                ideal_metric=ideal_metric,
                pct_change=percent_change(ideal_metric, metric, direction),
                error=None,
            )
        except (QelmLabError, ArithmeticError, np.linalg.LinAlgError) as exc:
            # record a failed repeat and keep the batch; a programming error propagates
            record.update(metric=None, ideal_metric=None, pct_change=None, error=str(exc))
        return record

    jobs = config.jobs or min(config.repeats, os.cpu_count() or 1)
    if jobs > 1 and config.repeats > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(one_repeat, range(config.repeats)))
    else:
        runs = [one_repeat(i) for i in range(config.repeats)]

    observed = [r["metric"] for r in runs if r["error"] is None]
    ideal_metrics = [r["ideal_metric"] for r in runs if r["error"] is None]
    if any(r["error"] is not None for r in runs):
        flags.append("partial_failures")
    if any(
        r["pct_change"] is not None and math.isnan(r["pct_change"])
        for r in runs
        if r["error"] is None
    ):
        flags.append("undefined_percent_change")

    statistics = None
    if len(observed) >= 3:
        u, p = mann_whitney_u(observed, ideal_metrics)
        statistics = {
            "u": u,
            "p_value": p,
            "a12_observed_vs_ideal": a12(observed, ideal_metrics),
            "method": "exact" if len(observed) + len(ideal_metrics) <= 16 else "approx",
        }

    uq_payload = None
    if config.uq is not None:
        uq_payload = _uq_artifacts(
            config, dataset, model_spec, feature_range, train_backend, test_backend
        )

    return {
        "schema": "scenario-report/1",
        "scenario": config.scenario_id,
        "profile": config.profile.name,
        "metric": "mse" if dataset.task == "regression" else "accuracy",
        "seed": config.seed,
        "repeats": config.repeats,
        "dataset": {
            "kind": dataset.kind,
            "seed": dataset.seed,
            "n_samples": len(dataset.targets),
            "noise_level": dataset.noise_level,
            "task": dataset.task,
            "n_features": dataset.n_features,
        },
        "model": model_spec.to_dict(),
        "runs": runs,
        "ideal_baseline": float(np.median(ideal_metrics)) if ideal_metrics else None,
        "statistics": statistics,
        "uq": uq_payload,
        "mitigation": mitigation_info,
        "flags": flags,
        "package_version": _package_version,
    }


# ---------------------------------------------------------------------------
# report emission

# What emit_report reads of a results document; other keys pass unchecked.
# A UQ variant holds the interval rows of a regression task or the
# reliability lists of a classification task.
_NUMBER_OR_NULL = Either(float, None)
_RUN_RECORD = {"repeat": int, "seed": int, "error": Either(str, None), ...: None}
_RUN_RECORD |= dict.fromkeys(("metric", "ideal_metric", "pct_change"), _NUMBER_OR_NULL)
_INTERVAL_ROW = {"index": int, "covered": bool, ...: None}
_INTERVAL_ROW |= dict.fromkeys(("y_true", "mean", "lower", "upper", "width"), float)
_RELIABILITY = Rule(
    {"edges": [float], "mean_confidence": [_NUMBER_OR_NULL], "observed_frequency": [_NUMBER_OR_NULL],
     "counts": [int], ...: None},
    lambda r: len(r["edges"]) - 1 == len(r["counts"]) == len(r["mean_confidence"]) == len(r["observed_frequency"]),
    "needs one more edge than bins, and one confidence, frequency and count per bin",
)
_UQ_VARIANT = Rule(
    {"intervals": Opt([_INTERVAL_ROW]), "reliability": Opt(_RELIABILITY), ...: None},
    lambda variant: "intervals" in variant or "reliability" in variant,
    "has neither intervals nor reliability",
)
RESULTS_KEYS = {"scenario": str, "metric": str, "runs": [_RUN_RECORD], ...: None}
RESULTS_KEYS["uq"] = Opt(Either({"configured": _UQ_VARIANT, "ideal": _UQ_VARIANT, ...: None}, None))


# a UQ variant's files: (its summary key, table writer, chart renderer, chart title)
_UQ_FILES = (
    ("intervals", intervals_to_csv, render_interval_chart, "95% prediction intervals"),
    ("reliability", reliability_to_csv, render_reliability_chart, "reliability"),
)


def _metrics_csv(runs: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["repeat", "seed", "metric", "ideal_metric", "pct_change", "error"])
    for r in runs:
        writer.writerow(
            [
                r["repeat"],
                r["seed"],
                "" if r["metric"] is None else repr(r["metric"]),
                "" if r["ideal_metric"] is None else repr(r["ideal_metric"]),
                ""
                if r["pct_change"] is None or math.isnan(r["pct_change"])
                else repr(r["pct_change"]),
                r["error"] or "",
            ]
        )
    return buf.getvalue()


def emit_report(payload: dict, out_dir: str | Path) -> list[Path]:
    """Write a scenario-report/1 document as results.json, metrics.csv, the
    box plot of percentage changes and, with UQ, each variant's interval or
    reliability table and chart; returns the written paths. Identical
    documents produce identical bytes."""
    runs = payload["runs"]
    pct = [r["pct_change"] for r in runs if r.get("error") is None and r.get("pct_change") is not None]
    pct = [v for v in pct if not math.isnan(v)]
    box_title = f"percentage change from ideal ({payload['metric']})"
    files = [
        ("results.json", report_json_bytes(payload).decode("utf-8")),
        ("metrics.csv", _metrics_csv(runs)),
        ("pct_change_box.svg", render_box_plot([(payload["scenario"], pct)], box_title, "percent")),
    ]
    for variant in ("configured", "ideal") if payload.get("uq") else ():
        summary = payload["uq"][variant]
        key, to_csv, render, title = next(kind for kind in _UQ_FILES if kind[0] in summary)
        files += [
            (f"uq_{key}_{variant}.csv", to_csv(summary[key])),
            (f"uq_{key}_{variant}.svg", render(summary[key], f"{payload['scenario']} {variant}: {title}")),
        ]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files:
        (out / name).write_text(text, encoding="utf-8")
    return [out / name for name, _ in files]
