import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qelm_lab import qelm, uq
from qelm_lab.errors import (
    EmptyInput,
    InsufficientMembers,
    InsufficientSamples,
    InvalidInterval,
    LengthMismatch,
    ValidationError,
)
from qelm_lab.qelm import FeatureCache, IdealBackend
from qelm_lab.readout import fit_readout
from qelm_lab.rng import Rng, derive_seed

from conftest import fitted, predictions

def crps_by_integration(samples, y):
    """Independent oracle: integrate (F(z) - 1{y <= z})^2 piecewise, where F
    is the empirical CDF. The integrand is constant between breakpoints, so
    summing segment areas evaluates the integral exactly."""
    samples = np.sort(np.asarray(samples, dtype=float))
    points = np.unique(np.concatenate([samples, [y]]))
    total = 0.0
    for left, right in zip(points, points[1:]):
        mid = 0.5 * (left + right)
        f = np.searchsorted(samples, mid, side="right") / len(samples)
        step = 1.0 if y <= mid else 0.0
        total += (f - step) ** 2 * (right - left)
    return total


def oracle_check_score(y: float, q: float, tau: float) -> float:
    """The one-pair pinball loss the array form replaced, kept as its oracle."""
    if not 0.0 < tau < 1.0:
        raise ValidationError(f"tau must lie in (0, 1), got {tau}")
    score = tau * (y - q) if y >= q else (1.0 - tau) * (q - y)
    if score == 0.0 and y != q:
        return math.ulp(0.0)
    return score


def oracle_interval_score(y: float, lo: float, hi: float, alpha: float) -> float:
    """The one-row interval score the array form replaced, kept as its oracle."""
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


def oracle_regression_uq_metrics(dist, y_true, alpha=0.05, tau_grid=uq.DEFAULT_TAU_GRID):
    """regression_uq_metrics as it was, one row and one (row, tau) pair per
    Python call, kept as the oracle of the array form."""
    y_true = np.asarray(y_true, dtype=float).reshape(-1)
    bounds = uq.prediction_intervals(dist.samples, alpha).tolist()
    quantiles = np.quantile(dist.samples, tau_grid, axis=1, method="linear").T.tolist()
    crps_vals = uq.crps_rows(dist.samples, y_true)
    rows = []
    cs_vals, is_vals, widths, covered = [], [], [], []
    for i, (y, lo, hi) in enumerate(zip(y_true, *bounds)):
        samples = dist.samples[i]
        width = hi - lo
        inside = lo <= y <= hi
        cs_i = float(np.mean([oracle_check_score(y, q, t) for q, t in zip(quantiles[i], tau_grid)]))
        is_i = oracle_interval_score(y, lo, hi, alpha)
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


# ---------------------------------------------------------------------------
# scoring rules

def test_interval_of_constant_samples_is_degenerate():
    assert uq.prediction_intervals(np.array([[5.0] * 10]), 0.05).tolist() == [[5.0], [5.0]]


def test_interval_interpolates_order_statistics():
    (lo,), (hi,) = uq.prediction_intervals(np.arange(1.0, 101.0)[None], 0.05)
    assert lo == pytest.approx(3.475)
    assert hi == pytest.approx(97.525)


def test_interval_coverage_narrative_case():
    lo, hi = 8.5, 11.2
    assert lo <= 10.7 <= hi


def test_interval_requires_two_samples():
    with pytest.raises(InsufficientSamples):
        uq.prediction_intervals(np.array([[1.0]]), 0.05)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.floats(-50, 50), min_size=2, max_size=40),
    a1=st.floats(0.01, 0.5),
    a2=st.floats(0.01, 0.5),
)
def test_interval_is_monotone_in_alpha(data, a1, a2):
    small, large = sorted((a1, a2))
    (lo_s,), (hi_s,) = uq.prediction_intervals(np.array([data]), small)
    (lo_l,), (hi_l,) = uq.prediction_intervals(np.array([data]), large)
    assert lo_s <= lo_l + 1e-12
    assert hi_s >= hi_l - 1e-12


def test_crps_zero_when_samples_match_outcome():
    assert uq.crps_rows(np.array([[4.2] * 8]), np.array([4.2]))[0] == pytest.approx(0.0)


def test_crps_two_point_case_matches_integration():
    assert uq.crps_rows(np.array([[0.0, 2.0]]), np.array([1.0]))[0] == pytest.approx(0.5)
    assert crps_by_integration([0.0, 2.0], 1.0) == pytest.approx(0.5)


def _former_crps(samples, y):
    """crps of one row as it was computed before the stacked form."""
    samples = np.sort(np.asarray(samples, dtype=float).reshape(-1))
    n = len(samples)
    term1 = float(np.abs(samples - y).mean())
    weights = 2.0 * np.arange(n) - (n - 1)
    pair_sum = 2.0 * float(np.sum(weights * samples))
    return term1 - pair_sum / (2.0 * n * n)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 30),
    n=st.integers(1, 300),
    decade=st.integers(-8, 8),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
)
def test_crps_rows_equals_crps_row_by_row(rows, n, decade, seed, ties):
    """The stacked CRPS of a batch has the bits of the one-row formula on
    each row alone, and a one-row slice scores as that row of the batch."""
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(rows, n)) * 10.0**decade
    if ties:
        samples = np.round(samples / 10.0**decade) * 10.0**decade
    y = rng.normal(size=rows) * 10.0**decade
    got = uq.crps_rows(samples, y)
    want = np.array([_former_crps(row, target) for row, target in zip(samples, y)])
    assert got.tobytes() == want.tobytes()
    assert uq.crps_rows(samples[:1], y[:1])[0] == want[0]


def test_crps_pair_formula_equals_integration_oracle():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        samples = rng.normal(scale=rng.uniform(0.5, 3.0), size=n)
        y = float(rng.normal())
        assert uq.crps_rows(samples[None], np.array([y]))[0] == pytest.approx(
            crps_by_integration(samples, y), abs=1e-6
        )


def test_check_score_cases():
    assert uq.check_scores(3.0, 3.0, 0.4) == 0.0
    assert uq.check_scores(10.0, 8.0, 0.9) == pytest.approx(1.8)
    y, q = 2.0, 5.0
    assert uq.check_scores(y, q, 0.5) == pytest.approx(0.5 * abs(y - q))
    # tau or 1 - tau times a subnormal difference may round to 0.0
    for tau in (0.1, 0.5, 0.9):
        assert uq.check_scores(0.0, 5e-324, tau) == 5e-324
        assert uq.check_scores(5e-324, 0.0, tau) == 5e-324


@settings(max_examples=50, deadline=None)
@given(y=st.floats(-10, 10), q=st.floats(-10, 10), tau=st.floats(0.01, 0.99))
def test_check_score_zero_iff_exact(y, q, tau):
    score = uq.check_scores(y, q, tau)
    assert score >= 0.0
    if y != q:
        assert score > 0.0


def test_interval_score_worked_cases():
    assert uq.interval_scores(13.0, 8.0, 12.0, 0.05) == pytest.approx(44.0)
    assert uq.interval_scores(7.0, 8.0, 12.0, 0.05) == pytest.approx(44.0)
    assert uq.interval_scores(10.0, 8.0, 12.0, 0.05) == pytest.approx(4.0)
    with pytest.raises(InvalidInterval):
        uq.interval_scores(1.0, 5.0, 2.0, 0.05)


@settings(max_examples=50, deadline=None)
@given(
    y=st.floats(-20, 20),
    lo=st.floats(-10, 10),
    width=st.floats(0, 10),
    alpha=st.floats(0.01, 0.5),
)
def test_interval_score_at_least_width(y, lo, width, alpha):
    hi = lo + width
    score = uq.interval_scores(y, lo, hi, alpha)
    assert score >= width - 1e-12
    if lo <= y <= hi:
        assert score == pytest.approx(width)
    else:
        # the penalty can underflow when the miss distance is denormal-small
        assert score >= width


# values around the cases the one-pair forms decide one by one: ties,
# signed zeros, subnormal and huge differences
_SCORE_VALUES = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e6, -1e6])


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(_SCORE_VALUES, _SCORE_VALUES, st.booleans(), st.floats(1e-6, 1.0 - 1e-6, exclude_max=True)),
        min_size=1,
        max_size=20,
    )
)
@example(pairs=[(0.0, 5e-324, False, 0.5), (5e-324, 0.0, False, 0.5), (3.0, 3.0, True, 0.4)])
def test_check_scores_equal_the_one_pair_oracle(pairs):
    """One array call scores every (y, q, tau) with the bits of a call per
    pair, on both sides of q and at ties."""
    y = np.array([a for a, _, _, _ in pairs])
    q = np.array([a if tie else b for a, b, tie, _ in pairs])
    tau = np.array([t for _, _, _, t in pairs])
    want = [oracle_check_score(a, b, t) for a, b, t in zip(y.tolist(), q.tolist(), tau.tolist())]
    assert repr(uq.check_scores(y, q, tau).tolist()) == repr(want)
    # broadcast: one tau column against a (rows, taus) table
    t = float(tau[0])
    table = uq.check_scores(y[:, None], np.stack([q, y], axis=1), t)
    want = [[oracle_check_score(a, b, t), oracle_check_score(a, a, t)] for a, b in zip(y.tolist(), q.tolist())]
    assert repr(table.tolist()) == repr(want)


@pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, 1.5, np.nan])
def test_check_scores_reject_a_tau_outside_the_unit_interval(tau):
    with pytest.raises(ValidationError, match="tau must lie in"):
        uq.check_scores([1.0, 2.0], [1.5, 1.5], [0.5, tau])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(_SCORE_VALUES, _SCORE_VALUES, _SCORE_VALUES), min_size=1, max_size=20),
    alpha=st.floats(0.001, 0.999),
    inverted=st.none() | st.integers(0, 19),
)
@example(rows=[(0.0, 0.0, -0.0), (5e-324, 0.0, 0.0), (-5e-324, 0.0, 1.0)], alpha=0.05, inverted=None)
def test_interval_scores_equal_the_one_row_oracle(rows, alpha, inverted):
    """One array call scores every (y, lo, hi) with the bits of a call per
    row, inside and on both sides of the interval; an inverted interval
    raises the oracle's error, naming the first."""
    rows = [(y, a, b) if a <= b else (y, b, a) for y, a, b in rows]  # lo <= hi
    if inverted is not None and inverted < len(rows) and rows[inverted][1] < rows[inverted][2]:
        y, lo, hi = rows[inverted]
        rows[inverted] = (y, hi, lo)
    y, lo, hi = (np.array(column) for column in zip(*rows))
    try:
        want = [oracle_interval_score(*row, alpha) for row in zip(y.tolist(), lo.tolist(), hi.tolist())]
    except InvalidInterval as caught:
        with pytest.raises(InvalidInterval) as got:
            uq.interval_scores(y, lo, hi, alpha)
        assert str(got.value) == str(caught)
        return
    assert repr(uq.interval_scores(y, lo, hi, alpha).tolist()) == repr(want)


@settings(max_examples=150, deadline=None)
@given(
    n_inputs=st.integers(1, 18),
    n_samples=st.integers(2, 100),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
    alpha=st.sampled_from([0.05, 0.1, 0.5]) | st.floats(0.001, 0.999),
    seed=st.integers(0, 2**32 - 1),
    coarse=st.booleans(),
    ties=st.booleans(),
)
def test_regression_metrics_equal_the_per_row_oracle(n_inputs, n_samples, scale, alpha, seed, coarse, ties):
    """The array regression_uq_metrics gives the oracle's dict, compared by
    repr: rounded samples, targets on a sample (ties with a quantile) and
    scales from 1e-6 to 1e6."""
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(n_inputs, n_samples)) * scale
    if coarse:  # repeated values, as bootstrap refits of a tree give
        samples = np.round(samples / scale, 1) * scale
    y_true = rng.normal(size=n_inputs) * scale
    if ties:
        y_true = samples[:, 0].copy()
    dist = uq.PredictionDistribution("regression", samples)
    want = oracle_regression_uq_metrics(dist, y_true, alpha)
    assert repr(uq.regression_uq_metrics(dist, y_true, alpha)) == repr(want)


def test_brier_cases():
    assert uq.brier([0.8], [1]) == pytest.approx(0.04)
    assert uq.brier([1.0, 0.0], [1, 0]) == 0.0
    assert uq.brier([0.5, 0.5, 0.5], [1, 0, 1]) == pytest.approx(0.25)
    with pytest.raises(LengthMismatch):
        uq.brier([0.5], [1, 0])


def test_log_loss_cases():
    assert 0.222 <= uq.log_loss([0.8], [1]) <= 0.224
    assert 4.60 <= uq.log_loss([0.01], [1]) <= 4.61
    saturated = uq.log_loss([1.0], [1])
    assert np.isfinite(saturated)
    assert saturated == pytest.approx(1e-15, abs=1e-16)
    assert np.isfinite(uq.log_loss([0.0], [1]))
    with pytest.raises(LengthMismatch):
        uq.log_loss([0.5], [1, 0])


@pytest.mark.parametrize("score", [uq.brier, uq.log_loss, uq.reliability_diagram])
@pytest.mark.parametrize(
    "probs, labels, error",
    [
        ([0.5], [1, 0], LengthMismatch),
        ([], [], EmptyInput),
        ([0.5], [3], ValidationError),
        ([0.2, 0.9], [2, 0], ValidationError),
        ([0.5], [0.5], ValidationError),
        ([np.nan], [1], ValidationError),
        ([np.nan, 0.5], [1, 0], ValidationError),
        ([1.5], [1], ValidationError),
        ([-0.1], [0], ValidationError),
    ],
)
def test_every_scoring_rule_checks_its_pairs(score, probs, labels, error):
    with pytest.raises(error):
        score(probs, labels)


def test_checked_scores_keep_their_bits():
    rng = np.random.default_rng(3)
    probs = np.concatenate([rng.uniform(size=50), [0.0, 1.0]])
    labels = (rng.uniform(size=52) < probs).astype(float)
    assert uq.brier(probs, labels) == float(np.mean((probs - labels) ** 2))
    p = np.clip(probs, 1e-15, 1.0 - 1e-15)
    assert uq.log_loss(probs, labels) == float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))
    idx = np.minimum((probs * 10).astype(int), 9)
    diagram = uq.reliability_diagram(probs, labels)
    for b in range(10):
        if diagram["counts"][b]:
            assert diagram["observed_frequency"][b] == float(labels[idx == b].mean())


# ---------------------------------------------------------------------------
# reliability diagrams

def test_reliability_confident_correct_predictions():
    diagram = uq.reliability_diagram([1.0] * 5, [1] * 5)
    assert diagram["counts"][-1] == 5
    assert diagram["mean_confidence"][-1] == pytest.approx(1.0)
    assert diagram["observed_frequency"][-1] == pytest.approx(1.0)
    assert sum(diagram["counts"][:-1]) == 0


def test_reliability_overconfident_bin():
    probs = [0.85] * 20
    labels = [1] * 15 + [0] * 5
    diagram = uq.reliability_diagram(probs, labels)
    assert diagram["mean_confidence"][8] == pytest.approx(0.85)
    assert diagram["observed_frequency"][8] == pytest.approx(0.75)
    assert diagram["mean_confidence"][8] > diagram["observed_frequency"][8]  # overconfident


def test_reliability_matches_hand_counted_fixture():
    rng = np.random.default_rng(8)
    probs = rng.uniform(size=100)
    labels = (rng.uniform(size=100) < probs).astype(int)
    diagram = uq.reliability_diagram(probs, labels, n_bins=10)
    assert sum(diagram["counts"]) == 100
    for b in range(10):
        lo, hi = b / 10, (b + 1) / 10
        if b < 9:
            mask = (probs >= lo) & (probs < hi)
        else:
            mask = (probs >= lo) & (probs <= hi)
        assert diagram["counts"][b] == mask.sum()
        if mask.sum():
            assert diagram["mean_confidence"][b] == pytest.approx(probs[mask].mean())
            assert diagram["observed_frequency"][b] == pytest.approx(labels[mask].mean())
        else:
            assert diagram["mean_confidence"][b] is None


def test_reliability_validation():
    with pytest.raises(LengthMismatch):
        uq.reliability_diagram([0.5], [1, 0])
    with pytest.raises(ValidationError):
        uq.reliability_diagram([1.5], [1])
    with pytest.raises(EmptyInput):
        uq.reliability_diagram([], [])


def test_reliability_rejects_a_nan_probability():
    with pytest.raises(ValidationError, match="probabilities must lie in"):
        uq.reliability_diagram([np.nan, 0.5], [1, 0])


def test_a_nan_class_probability_is_not_a_probability_vector():
    with pytest.raises(ValidationError, match="must be probability vectors"):
        uq.PredictionDistribution("classification", [[[np.nan, np.nan]]])


def test_reliability_csv_shapes():
    diagram = uq.reliability_diagram([0.1, 0.9, 0.95], [0, 1, 1], n_bins=10)
    text = uq.reliability_to_csv(diagram)
    assert len(text.strip().splitlines()) == 11


# ---------------------------------------------------------------------------
# distributions

def _tiny_setup(n=40, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 2))
    y = 1.0 + x[:, 0] - 2.0 * x[:, 1] + noise * rng.normal(size=n)
    front = qelm.QelmFront(
        qelm.EncoderSpec(((0.0, 1.0), (0.0, 1.0))),
        qelm.ReservoirSpec("ising", n_qubits=2, seed=3),
        qelm.FeatureMapSpec("probabilities", 0),
    )
    split = int(0.7 * n)
    return x[:split], y[:split], x[split:], y[split:], front


def test_bootstrap_degenerate_training_set_collapses():
    x_train = np.tile(np.array([[0.4, 0.6]]), (10, 1))
    y_train = np.full(10, 2.0)
    front = qelm.QelmFront(
        qelm.EncoderSpec(((0.0, 1.0), (0.0, 1.0))),
        qelm.ReservoirSpec("ising", n_qubits=2, seed=3),
        qelm.FeatureMapSpec("probabilities", 0),
    )
    backend = IdealBackend()
    model = fitted(x_train, y_train, "regression", front, "linear", backend, seed=1)
    dist = uq.bootstrap_distribution(
        model.front, model.readout_kind, model.task, x_train, y_train, np.array([[0.2, 0.9]]), backend, backend,
        b=16, seed=4,
    )
    assert dist.samples.std() == pytest.approx(0.0)


def test_bootstrap_is_seeded_and_spreads():
    x_train, y_train, x_test, _, front = _tiny_setup()
    backend = IdealBackend()
    model = fitted(x_train, y_train, "regression", front, "linear", backend, seed=1)
    kwargs = dict(train_backend=backend, test_backend=backend, b=100, train_seed=1, test_seed=2)
    parts = (model.front, model.readout_kind, model.task)
    d1 = uq.bootstrap_distribution(*parts, x_train, y_train, x_test, seed=9, **kwargs)
    d2 = uq.bootstrap_distribution(*parts, x_train, y_train, x_test, seed=9, **kwargs)
    assert np.array_equal(d1.samples, d2.samples)
    assert d1.samples.std(axis=1).min() > 0.0
    d3 = uq.bootstrap_distribution(*parts, x_train, y_train, x_test, seed=10, **kwargs)
    assert not np.array_equal(d1.samples, d3.samples)


def test_bootstrap_requires_two_resamples():
    x_train, y_train, x_test, _, front = _tiny_setup()
    backend = IdealBackend()
    model = fitted(x_train, y_train, "regression", front, "linear", backend, seed=1)
    with pytest.raises(InsufficientMembers):
        uq.bootstrap_distribution(
            model.front, model.readout_kind, model.task, x_train, y_train, x_test, backend, backend, b=1
        )


def test_ensemble_rejects_single_member():
    x_train, y_train, x_test, _, front = _tiny_setup()
    backend = IdealBackend()
    with pytest.raises(InsufficientMembers):
        uq.ensemble_distribution(
            front, "linear", "regression", x_train, y_train, x_test, backend, backend, m=1
        )


def test_ensemble_member_i_is_the_model_of_reservoir_seed_member_i():
    x_train, y_train, x_test, _, front = _tiny_setup()
    backend = IdealBackend()
    dist = uq.ensemble_distribution(
        front, "linear", "regression", x_train, y_train, x_test, backend, backend,
        m=3, seed=11, train_seed=2, test_seed=3,
    )
    for i in range(3):
        member_front = qelm.with_reservoir_seed(front, derive_seed(11, "member", i))
        model = fitted(x_train, y_train, "regression", member_front, "linear", backend, seed=2)
        want = predictions(model, x_test, backend, 3)
        assert dist.samples[:, i].tobytes() == want.tobytes()
    assert not np.array_equal(dist.samples[:, 0], dist.samples[:, 1])


def test_ensemble_mean_beats_median_member():
    x_train, y_train, x_test, y_test, front = _tiny_setup(n=60, noise=0.2)
    backend = IdealBackend()
    cache = FeatureCache()
    dist = uq.ensemble_distribution(
        front,
        "linear",
        "regression",
        x_train,
        y_train,
        x_test,
        backend,
        backend,
        m=30,
        seed=5,
        train_seed=1,
        test_seed=2,
        cache=cache,
    )
    member_mse = [
        float(np.mean((dist.samples[:, i] - y_test) ** 2)) for i in range(dist.samples.shape[1])
    ]
    ensemble_mse = float(np.mean((dist.mean_predictions() - y_test) ** 2))
    assert ensemble_mse <= np.median(member_mse)


def test_classification_distribution_and_metrics():
    rng = np.random.default_rng(2)
    n = 40
    y = np.arange(n) % 2
    centers = np.where(y[:, None] == 0, 0.3, 0.7)
    x = np.clip(centers + rng.uniform(-0.12, 0.12, size=(n, 2)), 0, 1)
    front = qelm.QelmFront(
        qelm.EncoderSpec(((0.0, 1.0), (0.0, 1.0))),
        qelm.ReservoirSpec("ising", n_qubits=2, seed=3),
        qelm.FeatureMapSpec("probabilities", 0),
    )
    backend = IdealBackend()
    split = 28
    model = fitted(x[:split], y[:split], "classification", front, "logistic", backend, seed=1)
    dist = uq.bootstrap_distribution(
        model.front, model.readout_kind, model.task, x[:split], y[:split], x[split:], backend, backend, b=25, seed=3
    )
    assert dist.samples.shape == (n - split, 25, 2)
    metrics = uq.classification_uq_metrics(dist, y[split:])
    assert 0.0 <= metrics["brier"] <= 1.0
    assert metrics["log_loss"] >= 0.0
    assert sum(metrics["reliability"]["counts"]) == n - split


@pytest.mark.parametrize("task, readout", [("regression", "linear"), ("classification", "tree")])
def test_bootstrap_refits_keep_the_bits_of_one_readout_per_resample(task, readout):
    """Linear refits solved as one stack, and tree refits routed as one
    forest, give each refit's own predictions."""
    x_train, y_train, x_test, _, front = _tiny_setup(n=50)
    if task == "classification":
        y_train = (y_train > np.median(y_train)).astype(float)
    backend = IdealBackend()
    dist = uq.bootstrap_distribution(
        front, readout, task, x_train, y_train, x_test, backend, backend, b=30, seed=7, train_seed=1, test_seed=2
    )
    train_x, test_x = (qelm.feature_matrix(front, x, backend, s) for x, s in ((x_train, 1), (x_test, 2)))
    want = []
    for k in range(30):
        rows = Rng(derive_seed(7, "bootstrap", k)).integers(len(y_train), 0, len(y_train))
        refit = fit_readout(train_x[rows], y_train[rows], readout)
        want.append(refit.predict(test_x) if task == "regression" else refit.predict_proba(test_x))
    assert dist.samples.tobytes() == np.stack(want, axis=1).tobytes()


def test_regression_metrics_summary_fields():
    x_train, y_train, x_test, y_test, front = _tiny_setup()
    backend = IdealBackend()
    model = fitted(x_train, y_train, "regression", front, "linear", backend, seed=1)
    dist = uq.bootstrap_distribution(
        model.front, model.readout_kind, model.task, x_train, y_train, x_test, backend, backend, b=50, seed=3
    )
    summary = uq.regression_uq_metrics(dist, y_test)
    assert set(summary) >= {
        "mean_interval_width",
        "coverage",
        "crps",
        "check_score",
        "interval_score",
        "intervals",
    }
    assert len(summary["intervals"]) == len(y_test)
    assert summary["interval_score"] >= summary["mean_interval_width"] - 1e-12
    text = uq.intervals_to_csv(summary["intervals"])
    assert len(text.strip().splitlines()) == len(y_test) + 1


def _per_row_metrics(samples, y_true, alpha, tau_grid):
    """The regression summary with one quantile call per row and per tau:
    the reference for the one-call quantiles of regression_uq_metrics."""
    rows, crps_vals, cs_vals, is_vals = [], [], [], []
    for i, y in enumerate(y_true):
        lo, hi = (float(v) for v in np.quantile(samples[i], [alpha / 2.0, 1.0 - alpha / 2.0]))
        taus = [float(np.quantile(samples[i], t, method="linear")) for t in tau_grid]
        rows.append(
            {
                "index": i,
                "y_true": float(y),
                "mean": float(samples[i].mean()),
                "lower": lo,
                "upper": hi,
                "width": hi - lo,
                "covered": bool(lo <= y <= hi),
            }
        )
        crps_vals.append(uq.crps_rows(samples[i : i + 1], np.array([y]))[0])
        cs_vals.append(float(np.mean([oracle_check_score(y, q, t) for q, t in zip(taus, tau_grid)])))
        is_vals.append(oracle_interval_score(y, lo, hi, alpha))
    return {
        "alpha": alpha,
        "mean_interval_width": float(np.mean([r["width"] for r in rows])),
        "coverage": float(np.mean([r["covered"] for r in rows])),
        "crps": float(np.mean(crps_vals)),
        "check_score": float(np.mean(cs_vals)),
        "interval_score": float(np.mean(is_vals)),
        "intervals": rows,
    }


@settings(max_examples=150, deadline=None)
@given(
    n_inputs=st.integers(1, 6),
    n_samples=st.integers(2, 120),
    alpha=st.sampled_from([0.05, 0.1, 0.2, 0.5]) | st.floats(0.001, 0.999),
    seed=st.integers(0, 2**32 - 1),
    coarse=st.booleans(),
)
def test_one_call_quantiles_match_one_call_per_row_and_tau(
    n_inputs, n_samples, alpha, seed, coarse
):
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(n_inputs, n_samples)) * 10.0 ** rng.integers(-3, 3)
    if coarse:  # repeated values, as bootstrap refits of a tree give
        samples = np.round(samples, 1)
    y_true = rng.normal(size=n_inputs)
    dist = uq.PredictionDistribution("regression", samples)
    got = uq.regression_uq_metrics(dist, y_true, alpha)
    assert json.dumps(got) == json.dumps(
        _per_row_metrics(samples, y_true, alpha, uq.DEFAULT_TAU_GRID)
    )


def test_regression_metrics_keep_their_errors():
    dist = uq.PredictionDistribution("regression", np.zeros((3, 5)))
    for alpha in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValidationError):
            uq.regression_uq_metrics(dist, np.zeros(3), alpha)
    for tau_grid in ((0.5, 1.0), (0.0, 0.5), (0.5, 1.5)):
        with pytest.raises(ValidationError):
            uq.regression_uq_metrics(dist, np.zeros(3), 0.1, tau_grid)
    one = uq.PredictionDistribution("regression", np.zeros((3, 1)))
    with pytest.raises(InsufficientSamples):
        uq.regression_uq_metrics(one, np.zeros(3))
    with pytest.raises(InsufficientSamples):
        uq.regression_uq_metrics(one, np.zeros(3), alpha=2.0)
