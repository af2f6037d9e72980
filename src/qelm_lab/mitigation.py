"""Error mitigation for QELM feature extraction.

A mitigator computes the features of programs from their noisy runs:
``programs_features(programs, angles, feature_map, profile, seeds)``, for
every row of an angle table together, as the qelm backends do. Two exist:

    ZneMitigator     zero-noise extrapolation. Each feature is measured at
                     several noise-scale factors (realized by unitary
                     folding), then a curve fit extrapolates it to scale 0.
    QlearMitigator   a learned corrector. A bagged-tree regressor is trained
                     on (noisy feature, circuit and profile metadata) ->
                     (ideal - noisy) residuals over a corpus of seeded random
                     calibration circuits, then applied per feature to
                     programs of the corpus's width. A trained corrector
                     (QlearModel) lives only in the run that trained it: it
                     has no document, and a report keeps its corpus size
                     and held-out error.

Extrapolated or corrected probability features are clipped to [0, 1] and
renormalized to a valid distribution; expectation features are clipped to
[-1, 1]. Correction never changes the feature-vector dimension.

MitigatedBackend binds a mitigator to a profile, which gives it the backend
interface of the qelm module: ``key`` plus ``programs_features(programs,
angles, spec, seeds)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import circuit as circ
from .circuit import Circuit, depth, fold_to_scales, gate_counts
from .errors import CorpusTooSmall, InsufficientPoints, NotTrained, ValidationError
from .noise import NoiseProfile
from .qelm import FeatureMapSpec, IdealBackend, NoisyBackend
from .readout import BaggedTrees
from .rng import Rng, derive_seed
from .schema import Opt, Rule, one_of, read
from .simulator import (
    measure_distribution,
    run_ideal,
    run_noisy,  # noqa: F401  (bench/spans.py traces it wherever a module holds it)
)

EXTRAPOLATION_METHODS = ("polynomial", "linear", "exponential")
# LAPACK's SMLNUM: its safe minimum over its relative machine precision
_LSTSQ_SMALL = np.finfo(float).tiny / np.finfo(float).eps


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on the first call.

    Only the exponential extrapolation needs scipy; importing it up front
    would add about half a second and 40 MB to every command line.
    """
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


class ExtrapolationFallback(UserWarning):
    """Raised as a warning when an exponential fit falls back to a polynomial."""


@dataclass(frozen=True)
class ZneConfig:
    scale_factors: tuple[float, ...] = (1.0, 2.0, 3.0, 5.0)
    folding: str = "global"
    extrapolation: str = "polynomial"
    degree: int = 3

    def __post_init__(self):
        # from JSON the factors are a list that may hold integers
        object.__setattr__(self, "scale_factors", tuple(float(s) for s in self.scale_factors))
        read(ZNE_KEYS, vars(self), "zne")
        _check_degree(self)

    @property
    def effective_degree(self) -> int:
        if self.extrapolation == "linear":
            return 1
        if self.extrapolation == "polynomial":
            return self.degree
        return 1000  # exponential sorts after any polynomial in tie-breaks

    def to_dict(self) -> dict:
        return {**vars(self), "scale_factors": list(self.scale_factors)}

    @staticmethod
    def from_dict(raw: dict) -> "ZneConfig":
        return ZneConfig(**read(ZNE_KEYS, raw, at="zne"))


# the JSON form of a ZneConfig, checked by its constructor; a missing key
# keeps the field's default
ZNE_KEYS = {
    "scale_factors": Rule(
        [float], lambda s: len(s) >= 2 and abs(s[0] - 1.0) <= 1e-12 and all(a < b for a, b in zip(s, s[1:])),
        "must be at least 2 numbers, starting at 1.0 and strictly increasing",
    ),
    "folding": Opt(one_of(("global",))), "extrapolation": Opt(one_of(EXTRAPOLATION_METHODS)), "degree": Opt(int),
}


def _check_degree(config: ZneConfig) -> None:
    """A polynomial fit needs fewer degrees than scale factors."""
    top = len(config.scale_factors) - 1
    if config.extrapolation == "polynomial" and not 1 <= config.degree <= top:
        raise ValidationError(f"zne.degree: must lie in [1, {top}] for a polynomial fit, got {config.degree}")


def extrapolate(scales, values, method: str = "polynomial", degree: int = 3):
    """Zero-noise value of ``values`` measured at ``scales``.

    ``values`` holds one value per scale, or one row per scale of k
    features; then the k zero-noise values are returned as an array.
    polynomial: least-squares fit evaluated at scale 0 (linear is the
    degree-1 case), all features in one fit. exponential: bounded nonlinear
    fit of a * b^s + c per feature, falling back to a low-degree polynomial
    with a warning when the solver does not converge.
    """
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(scales) != len(values):
        raise InsufficientPoints("scales and values must have equal length")
    if len(scales) < 2:
        raise InsufficientPoints("need at least 2 points to extrapolate")
    if method == "linear":
        method, degree = "polynomial", 1
    if method == "polynomial":
        if degree >= len(scales):
            raise InsufficientPoints(
                f"degree {degree} needs more than {len(scales)} points"
            )
        if values.ndim == 1:
            return float(np.polynomial.polynomial.polyfit(scales, values, degree)[0])
        # LAPACK's least-squares driver rescales a right-hand side whose
        # largest entry lies outside [_LSTSQ_SMALL, 1 / _LSTSQ_SMALL]; such a
        # column would not get the bits of its own fit inside a joint one
        peaks = np.abs(values).max(axis=0)
        if np.all((peaks == 0.0) | ((peaks >= _LSTSQ_SMALL) & (peaks <= 1.0 / _LSTSQ_SMALL))):
            return np.polynomial.polynomial.polyfit(scales, values, degree)[0]
        return np.array([extrapolate(scales, column, method, degree) for column in values.T])
    if method != "exponential":
        raise ValidationError(f"unknown extrapolation method {method!r}")
    if values.ndim == 2:
        return np.array([_exponential(scales, column) for column in values.T])
    return _exponential(scales, values)


def _exponential(scales: np.ndarray, values: np.ndarray) -> float:
    if np.allclose(values, values[0], atol=1e-14):
        return float(values[0])

    def residual(params):
        a, b, c = params
        return a * np.power(b, scales) + c - values

    guess = np.array([values[0] - values[-1], 0.7, values[-1]])
    try:
        fit = least_squares(
            residual,
            guess,
            bounds=([-np.inf, 1e-6, -np.inf], [np.inf, 1.0, np.inf]),
            max_nfev=2000,
        )
        converged = fit.success and np.sqrt(2 * fit.cost / len(values)) < 1e2
    except (ValueError, RuntimeError, np.linalg.LinAlgError):  # the solver failed
        converged = False
    if not converged:
        warnings.warn(
            "exponential extrapolation did not converge; using a polynomial fit",
            ExtrapolationFallback,
        )
        return extrapolate(scales, values, "polynomial", min(2, len(scales) - 1))
    a, b, c = fit.x
    return float(a + c)


def _postprocess(values: np.ndarray, feature_kind: str) -> np.ndarray:
    """A feature vector, or each row of a stack of them, made valid."""
    if feature_kind == "probabilities":
        clipped = np.clip(values, 0.0, 1.0)
        total = clipped.sum(axis=-1, keepdims=True)
        uniform = np.full_like(clipped, 1.0 / clipped.shape[-1])
        return np.divide(clipped, total, out=uniform, where=total > 0.0)
    return np.clip(values, -1.0, 1.0)


def _scale_seed(seed: int, index: int) -> int:
    # scale factor 1.0 must reuse the unmitigated seed exactly
    return seed if index == 0 else derive_seed(seed, "zne-scale", index)


class ZneMitigator:
    """Digital ZNE: fold the program to each scale factor, run it noisy,
    extrapolate every feature to scale 0, then clip (and renormalize)."""

    def __init__(self, config: ZneConfig | None = None):
        self.config = config or ZneConfig()

    def key_suffix(self) -> str:
        c = self.config
        scales = ",".join(repr(s) for s in c.scale_factors)
        return f"zne[{scales};{c.extrapolation};{c.degree}]"

    def programs_features(self, programs, angles, feature_map, profile, seeds):
        c = self.config
        n_scales = len(c.scale_factors)
        # every fold of every program, once for all rows, in one walk: the
        # folds share leading steps (C, then C^dagger C ...)
        folds = [fold for program in programs for fold in fold_to_scales(program, c.scale_factors)]
        fold_seeds = [_scale_seed(seed, i) for seed in seeds or () for i in range(n_scales)]
        features = NoisyBackend(profile).programs_features(folds, angles, feature_map, fold_seeds)
        # one fit for all of them: a column per (row, feature), a row per scale
        k = features.shape[1]
        values = features.reshape(-1, n_scales, k).transpose(1, 0, 2).reshape(n_scales, -1)
        mitigated = extrapolate(c.scale_factors, values, c.extrapolation, c.degree)
        return _postprocess(np.reshape(mitigated, (-1, k)), feature_map.kind)

    def circuit_features(self, circuit, feature_map, profile, seed):
        return self.programs_features([circuit], None, feature_map, profile, [seed])[0]


def zne_calibrate(
    profile: NoiseProfile, representative: Circuit, grid: list[ZneConfig]
) -> ZneConfig:
    """Pick the grid entry whose mitigated probabilities best match the ideal
    ones on the representative circuit (mean absolute error). Ties prefer
    fewer scale factors, then lower polynomial degree, then grid order."""
    if not grid:
        raise ValidationError("calibration grid must be non-empty")
    probabilities = FeatureMapSpec("probabilities", 0)
    ideal = measure_distribution(run_ideal(representative)).vector
    scored = []
    for index, config in enumerate(grid):
        mitigated = ZneMitigator(config).circuit_features(representative, probabilities, profile, 0)
        mae = float(np.abs(mitigated - ideal).mean())
        scored.append((round(mae, 12), len(config.scale_factors), config.effective_degree, index))
    best = min(scored)
    return grid[best[3]]


# ---------------------------------------------------------------------------
# learned correction

class CircuitMeta(NamedTuple):
    depth: int
    n_1q: int
    n_2q: int


def circuit_meta(circuit: Circuit) -> CircuitMeta:
    ones, twos = gate_counts(circuit)
    return CircuitMeta(depth(circuit), ones, twos)


@dataclass
class QlearModel:
    regressor: BaggedTrees
    feature_kind: str
    n_qubits: int
    seed: int
    corpus_size: int
    held_out_mae: float
    trained: bool = False


def _schema_rows(
    noisy: np.ndarray, meta: CircuitMeta, profile: NoiseProfile
) -> np.ndarray:
    """Regressor inputs: one row per feature of a feature vector, or of each
    row of a stack of them in turn.

    Columns: noisy value, circuit depth, 1q gate count, 2q gate count,
    feature index, profile depol_1q, profile depol_2q.
    """
    noisy = np.atleast_2d(noisy)
    rows = np.empty((noisy.size, 7))
    rows[:, 0] = noisy.ravel()
    rows[:, 1] = meta.depth
    rows[:, 2] = meta.n_1q
    rows[:, 3] = meta.n_2q
    rows[:, 4] = np.tile(np.arange(noisy.shape[1]), len(noisy))
    rows[:, 5] = profile.depol_1q
    rows[:, 6] = profile.depol_2q
    return rows


def random_circuit(n_qubits: int, n_gates: int, seed: int) -> Circuit:
    """A seeded random circuit over the package gate set."""
    rng = Rng(seed)
    kinds_1q = ("H", "X", "RX", "RY", "RZ")
    kinds_2q = ("CX", "ZZ")
    gates = []
    for _ in range(n_gates):
        use_2q = n_qubits >= 2 and rng.uniform() < 0.4
        if use_2q:
            kind = kinds_2q[int(rng.uniform() * len(kinds_2q))]
            a = int(rng.uniform() * n_qubits)
            b = int(rng.uniform() * (n_qubits - 1))
            if b >= a:
                b += 1
            targets = (a, b)
        else:
            kind = kinds_1q[int(rng.uniform() * len(kinds_1q))]
            targets = (int(rng.uniform() * n_qubits),)
        params = ()
        if kind in ("RX", "RY", "RZ", "ZZ"):
            params = (rng.uniform() * 2.0 * np.pi,)
        gates.append(circ.Gate(kind, targets, params))
    return Circuit(n_qubits, tuple(gates))


def calibration_circuits(
    n_qubits: int, count: int, seed: int, min_gates: int = 2, max_gates: int = 40
) -> list[Circuit]:
    """Seeded corpus with gate counts spanning [min_gates, max_gates]."""
    circuits = []
    for i in range(count):
        frac = i / max(count - 1, 1)
        n_gates = round(min_gates + frac * (max_gates - min_gates))
        circuits.append(random_circuit(n_qubits, n_gates, derive_seed(seed, "corpus", i)))
    return circuits


def qlear_train(
    calibration: list[Circuit],
    profile: NoiseProfile,
    seed: int = 0,
    n_trees: int = 20,
    max_depth: int = 6,
    feature_map: FeatureMapSpec = FeatureMapSpec("probabilities", 0),
    holdout_fraction: float = 0.2,
    min_corpus: int = 20,
) -> QlearModel:
    """Fit the corrector on (noisy, ideal) feature pairs from the corpus.

    The regressor learns the residual (ideal - noisy), so a noiseless corpus
    trains an exact identity correction. A seeded circuit-level split holds
    out part of the corpus to report the corrected mean absolute error.
    """
    if len(calibration) < min_corpus:
        raise CorpusTooSmall(f"need at least {min_corpus} circuits, got {len(calibration)}")
    n_qubits = calibration[0].n_qubits
    if any(c.n_qubits != n_qubits for c in calibration):
        raise ValidationError("all calibration circuits must share one qubit count")
    run_seeds = [derive_seed(seed, "qlear-run", c_index) for c_index in range(len(calibration))]
    ideal_rows = IdealBackend().programs_features(calibration, None, feature_map, run_seeds)
    noisy_rows = NoisyBackend(profile).programs_features(calibration, None, feature_map, run_seeds)
    rows, residuals, owners = [], [], []
    for c_index, (circuit, ideal, noisy) in enumerate(zip(calibration, ideal_rows, noisy_rows)):
        rows.append(_schema_rows(noisy, circuit_meta(circuit), profile))
        residuals.append(ideal - noisy)
        owners.append(np.full(len(noisy), c_index))
    rows = np.vstack(rows)
    residuals = np.concatenate(residuals)
    owners = np.concatenate(owners)

    order = Rng(derive_seed(seed, "qlear-split")).permutation(len(calibration))
    n_holdout = max(1, int(round(holdout_fraction * len(calibration))))
    holdout_set = set(int(i) for i in order[:n_holdout])
    holdout_mask = np.isin(owners, list(holdout_set))

    regressor = BaggedTrees(
        n_trees=n_trees, max_depth=max_depth, seed=derive_seed(seed, "qlear-bag")
    ).fit(rows[~holdout_mask], residuals[~holdout_mask])
    corrected_err = np.abs(regressor.predict(rows[holdout_mask]) - residuals[holdout_mask])
    return QlearModel(
        regressor=regressor,
        feature_kind=feature_map.kind,
        n_qubits=n_qubits,
        seed=seed,
        corpus_size=len(calibration),
        held_out_mae=float(corrected_err.mean()),
        trained=True,
    )


def qlear_correct(
    model: QlearModel,
    noisy_features: np.ndarray,
    meta: CircuitMeta,
    profile: NoiseProfile,
) -> np.ndarray:
    """Apply the learned per-feature correction to one feature vector, or
    to every row of a (rows x k) stack of them (circuits with one meta) by
    one regressor call."""
    if not model.trained:
        raise NotTrained("corrector must be trained before use")
    noisy = np.asarray(noisy_features, dtype=float)
    stack = noisy if noisy.ndim == 2 else noisy.reshape(1, -1)
    corrected = stack + model.regressor.predict(_schema_rows(stack, meta, profile)).reshape(stack.shape)
    corrected = _postprocess(corrected, model.feature_kind)
    return corrected if noisy.ndim == 2 else corrected[0]


# ---------------------------------------------------------------------------
# backend plumbing

class QlearMitigator:
    def __init__(self, model: QlearModel):
        self.model = model

    def key_suffix(self) -> str:
        return f"qlear[{self.model.corpus_size};{self.model.seed}]"

    def programs_features(self, programs, angles, feature_map, profile, seeds):
        if feature_map.kind != self.model.feature_kind:
            raise ValidationError(
                f"corrector was trained on {self.model.feature_kind!r} features, "
                f"got {feature_map.kind!r}"
            )
        for program in programs:
            if program.n_qubits != self.model.n_qubits:
                raise ValidationError(
                    f"corrector was trained on {self.model.n_qubits}-qubit circuits, "
                    f"got a {program.n_qubits}-qubit one"
                )
        noisy = NoisyBackend(profile).programs_features(programs, angles, feature_map, seeds)
        # the rows of program p are p, p + P, ...; a program's meta is its rows'
        for p, program in enumerate(programs):
            noisy[p :: len(programs)] = qlear_correct(
                self.model, noisy[p :: len(programs)], circuit_meta(program), profile
            )
        return noisy


class MitigatedBackend:
    """Noisy execution wrapped in an error mitigator."""

    def __init__(self, profile: NoiseProfile, mitigator):
        self.profile = profile
        self.mitigator = mitigator
        self.key = f"mitigated:{profile.name}:{mitigator.key_suffix()}"

    def programs_features(self, programs, angles, spec, seeds):
        return self.mitigator.programs_features(programs, angles, spec, self.profile, seeds)
