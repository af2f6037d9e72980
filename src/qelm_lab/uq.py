"""Uncertainty quantification: prediction distributions and scoring rules.

Distributions of predictions come from two resampling strategies:

    bootstrap_distribution   refits only the readout on resampled rows of the
                             cached training features; the quantum front end
                             stays fixed.
    ensemble_distribution    trains independently re-seeded reservoirs end to
                             end and pools their predictions.

On top of a distribution: empirical prediction intervals, CRPS, the check
(pinball) score, the interval score, reliability diagrams, the Brier score,
and log loss. Quantiles interpolate linearly between order statistics at
position (n - 1) * q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInput,
    InsufficientMembers,
    InsufficientSamples,
    InvalidInterval,
    LengthMismatch,
    ValidationError,
)
from .qelm import (
    FeatureCache,
    QelmFront,
    fit_model,
    grouped_feature_matrices,
    with_reservoir_seed,
)
from .readout import fit_readouts, forest_values
from .rng import derive_seed, integers_per_seed


@dataclass
class PredictionDistribution:
    """Per-input prediction samples.

    regression: samples has shape (n_inputs, n_samples).
    classification: shape (n_inputs, n_samples, 2) of probability vectors.
    """

    task: str
    samples: np.ndarray
    source: tuple[str, int]  # ("bootstrap", B) or ("ensemble", M)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        expected = 2 if self.task == "regression" else 3
        if self.samples.ndim != expected:
            raise ValidationError(
                f"{self.task} samples must be {expected}-dimensional, got {self.samples.ndim}"
            )
        if self.task == "classification":
            sums = self.samples.sum(axis=2)
            if not np.all(np.abs(sums - 1.0) <= 1e-9):  # NaN sums fail too
                raise ValidationError("classification samples must be probability vectors")

    @property
    def n_inputs(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    def mean_predictions(self) -> np.ndarray:
        """Per-input mean: floats for regression, probability vectors for
        classification."""
        return self.samples.mean(axis=1)


def bootstrap_distribution(
    front: QelmFront,
    readout_kind: str,
    task: str,
    train_inputs: np.ndarray,
    train_targets: np.ndarray,
    test_inputs: np.ndarray,
    train_backend,
    test_backend,
    b: int = 100,
    seed: int = 0,
    train_seed: int = 0,
    test_seed: int = 0,
    cache: FeatureCache | None = None,
    readout_hyper: dict | None = None,
) -> PredictionDistribution:
    """Resample training rows with replacement and refit only the readout.

    Quantum features are extracted once per row (train and test rows in one
    backend call when the backends share a key) and reused across all B
    refits, so the reservoir and encoder are untouched by construction. The
    B refit trees of a tree readout route the test rows together, as one
    forest.
    """
    if b < 2:
        raise InsufficientMembers(f"bootstrap needs B >= 2, got {b}")
    train_features, test_features = grouped_feature_matrices(
        [
            (front, train_backend, train_inputs, train_seed),
            (front, test_backend, test_inputs, test_seed),
        ],
        cache,
    )
    targets = np.asarray(train_targets, dtype=float)
    n = len(targets)
    samples = integers_per_seed([derive_seed(seed, "bootstrap", k) for k in range(b)], n, 0, n)
    refits = fit_readouts(train_features, targets, readout_kind, readout_hyper, samples)
    if readout_kind == "tree" and task == "classification":
        per_refit = forest_values(refits, test_features)
    elif task == "regression":
        per_refit = [readout.predict(test_features) for readout in refits]
    else:
        per_refit = [readout.predict_proba(test_features) for readout in refits]
    stacked = np.stack(per_refit, axis=1)
    return PredictionDistribution(task, stacked, ("bootstrap", b))


def ensemble_distribution(
    front: QelmFront,
    readout_kind: str,
    task: str,
    train_inputs: np.ndarray,
    train_targets: np.ndarray,
    test_inputs: np.ndarray,
    train_backend,
    test_backend,
    m: int = 30,
    seed: int = 0,
    train_seed: int = 0,
    test_seed: int = 0,
    cache: FeatureCache | None = None,
    readout_hyper: dict | None = None,
) -> PredictionDistribution:
    """Train M fully independent models whose reservoir seeds derive from
    (seed, member index); every member shares the same backends, and its
    train and test rows take one backend call when their keys agree."""
    if m < 2:
        raise InsufficientMembers(f"ensemble needs M >= 2, got {m}")
    per_input = []
    for i in range(m):
        member_front = with_reservoir_seed(front, derive_seed(seed, "member", i))
        train_features, test_features = grouped_feature_matrices(
            [
                (member_front, train_backend, train_inputs, train_seed),
                (member_front, test_backend, test_inputs, test_seed),
            ],
            cache,
        )
        member = fit_model(train_features, train_targets, task, member_front, readout_kind, readout_hyper)
        if task == "regression":
            per_input.append(member.readout.predict(test_features))
        else:
            per_input.append(member.readout.predict_proba(test_features))
    stacked = np.stack(per_input, axis=1)
    return PredictionDistribution(task, stacked, ("ensemble", m))


# ---------------------------------------------------------------------------
# scoring rules

def prediction_intervals(samples: np.ndarray, alpha: float) -> np.ndarray:
    """The empirical (alpha/2, 1 - alpha/2) quantiles of every row of
    ``samples``, with linear interpolation between order statistics:
    shape (2, rows), the lower bounds first."""
    if samples.shape[1] < 2:
        raise InsufficientSamples("need at least 2 samples for an interval")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    return np.quantile(samples, [alpha / 2.0, 1.0 - alpha / 2.0], axis=1, method="linear")


def crps_rows(samples: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The continuous ranked probability score of the empirical
    distribution of every row of ``samples`` against its entry of ``y``.

    Uses the pair identity mean|x_i - y| - mean|x_i - x_j| / 2, which equals
    the integral of (F(z) - 1{y <= z})^2 for the empirical CDF F.
    """
    samples = np.sort(samples, axis=1)
    n = samples.shape[1]
    if n == 0:
        raise EmptyInput("crps needs at least one sample")
    term1 = np.abs(samples - y[:, None]).mean(axis=1)
    # sum over ordered pairs |x_i - x_j| via sorted prefix weights
    weights = 2.0 * np.arange(n) - (n - 1)
    pair_sum = 2.0 * np.sum(weights * samples, axis=1)
    return term1 - pair_sum / (2.0 * n * n)


def check_score(y: float, q: float, tau: float) -> float:
    """Pinball loss of the quantile prediction q at level tau.

    The loss is 0 only when y == q: a nonzero difference whose product
    with tau or 1 - tau underflows scores the smallest positive float.
    """
    if not 0.0 < tau < 1.0:
        raise ValidationError(f"tau must lie in (0, 1), got {tau}")
    score = tau * (y - q) if y >= q else (1.0 - tau) * (q - y)
    if score == 0.0 and y != q:
        return math.ulp(0.0)
    return score


def interval_score(y: float, lo: float, hi: float, alpha: float) -> float:
    """Interval width plus (2/alpha)-scaled penalties for missed coverage."""
    if lo > hi:
        raise InvalidInterval(f"interval lower bound {lo} exceeds upper bound {hi}")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    score = hi - lo
    if y < lo:
        score += (2.0 / alpha) * (lo - y)
    elif y > hi:
        score += (2.0 / alpha) * (y - hi)
    return score


def _scored_pairs(probs, labels) -> tuple[np.ndarray, np.ndarray]:
    """Positive-class probabilities and their labels as flat arrays, checked:
    equal lengths, at least one pair, probabilities in [0, 1] (NaN fails)
    and labels 0 or 1."""
    probs = np.asarray(probs, dtype=float).reshape(-1)
    labels = np.asarray(labels, dtype=float).reshape(-1)
    if len(probs) != len(labels):
        raise LengthMismatch(f"{len(probs)} probabilities vs {len(labels)} labels")
    if len(probs) == 0:
        raise EmptyInput("scoring needs at least one prediction")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise ValidationError("probabilities must lie in [0, 1]")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValidationError("labels must be 0 or 1")
    return probs, labels


def reliability_diagram(probs, labels, n_bins: int = 10) -> dict:
    """Bin positive-class probabilities over equal-width bins of [0, 1] and
    compare mean confidence with the observed positive fraction per bin:
    lists ``edges`` (n_bins + 1), ``mean_confidence``, ``observed_frequency``
    and ``counts``, the form a report holds. An empty bin has count 0 and
    None statistics; the final bin is right-closed so probability 1.0 lands
    in it."""
    probs, labels = _scored_pairs(probs, labels)
    idx = np.minimum((probs * n_bins).astype(int), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    conf, freq = [None] * n_bins, [None] * n_bins
    for b in np.flatnonzero(counts):
        mask = idx == b
        conf[b] = float(probs[mask].mean())
        freq[b] = float(labels[mask].mean())
    return {
        "edges": np.linspace(0.0, 1.0, n_bins + 1).tolist(),
        "mean_confidence": conf,
        "observed_frequency": freq,
        "counts": counts.tolist(),
    }


def brier(probs, labels) -> float:
    """Mean squared error between positive-class probabilities and labels."""
    probs, labels = _scored_pairs(probs, labels)
    return float(np.mean((probs - labels) ** 2))


def log_loss(probs, labels, epsilon: float = 1e-15) -> float:
    """Mean negative log likelihood with probabilities clamped to
    [epsilon, 1 - epsilon] so saturated outputs stay finite."""
    probs, labels = _scored_pairs(probs, labels)
    p = np.clip(probs, epsilon, 1.0 - epsilon)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))


# ---------------------------------------------------------------------------
# distribution summaries

DEFAULT_TAU_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


def regression_uq_metrics(
    dist: PredictionDistribution,
    y_true,
    alpha: float = 0.05,
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID,
) -> dict:
    """Interval table and mean scoring rules for a regression distribution.

    The check score averages the pinball loss of the empirical tau-quantiles
    over ``tau_grid``.
    """
    y_true = np.asarray(y_true, dtype=float).reshape(-1)
    if dist.task != "regression":
        raise ValidationError("regression metrics need a regression distribution")
    if len(y_true) != dist.n_inputs:
        raise LengthMismatch(f"{dist.n_inputs} inputs vs {len(y_true)} targets")
    if not all(0.0 < tau < 1.0 for tau in tau_grid):
        raise ValidationError(f"tau_grid values must lie in (0, 1), got {tau_grid}")
    bounds = prediction_intervals(dist.samples, alpha).tolist()
    quantiles = np.quantile(dist.samples, tau_grid, axis=1, method="linear").T.tolist()
    crps_vals = crps_rows(dist.samples, y_true)
    rows = []
    cs_vals, is_vals, widths, covered = [], [], [], []
    for i, (y, lo, hi) in enumerate(zip(y_true, *bounds)):
        samples = dist.samples[i]
        width = hi - lo
        inside = lo <= y <= hi
        cs_i = float(np.mean([check_score(y, q, t) for q, t in zip(quantiles[i], tau_grid)]))
        is_i = interval_score(y, lo, hi, alpha)
        rows.append(
            {
                "index": i,
                "y_true": float(y),
                "mean": float(samples.mean()),
                "lower": lo,
                "upper": hi,
                "width": width,
                "covered": bool(inside),
            }
        )
        cs_vals.append(cs_i)
        is_vals.append(is_i)
        widths.append(width)
        covered.append(inside)
    return {
        "alpha": alpha,
        "mean_interval_width": float(np.mean(widths)),
        "coverage": float(np.mean(covered)),
        "crps": float(np.mean(crps_vals)),
        "check_score": float(np.mean(cs_vals)),
        "interval_score": float(np.mean(is_vals)),
        "intervals": rows,
    }


def classification_uq_metrics(
    dist: PredictionDistribution, y_true, n_bins: int = 10
) -> dict:
    """Calibration metrics of the per-input mean probability vector."""
    y_true = np.asarray(y_true, dtype=float).reshape(-1)
    if dist.task != "classification":
        raise ValidationError("classification metrics need a classification distribution")
    if len(y_true) != dist.n_inputs:
        raise LengthMismatch(f"{dist.n_inputs} inputs vs {len(y_true)} targets")
    p_pos = dist.mean_predictions()[:, 1]
    return {
        "brier": brier(p_pos, y_true),
        "log_loss": log_loss(p_pos, y_true),
        "reliability": reliability_diagram(p_pos, y_true, n_bins),
        "positive_probabilities": [float(p) for p in p_pos],
    }


# ---------------------------------------------------------------------------
# CSV emission

def intervals_to_csv(rows: list[dict]) -> str:
    lines = ["index,y_true,mean,lower,upper,width,covered"]
    for r in rows:
        lines.append(
            f"{r['index']},{r['y_true']!r},{r['mean']!r},{r['lower']!r},"
            f"{r['upper']!r},{r['width']!r},{int(r['covered'])}"
        )
    return "\n".join(lines) + "\n"


def reliability_to_csv(diagram: dict) -> str:
    """One row per bin of a reliability_diagram; an empty bin's None
    statistics are empty cells."""
    edges, conf, freq = (diagram[k] for k in ("edges", "mean_confidence", "observed_frequency"))
    lines = ["bin_low,bin_high,mean_confidence,observed_frequency,count"]
    for b, count in enumerate(diagram["counts"]):
        cells = (edges[b], edges[b + 1], conf[b], freq[b])
        lines.append(",".join("" if v is None else repr(float(v)) for v in cells) + f",{int(count)}")
    return "\n".join(lines) + "\n"
