import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qelm_lab import circuit as circ
from qelm_lab import mitigation as mit
from qelm_lab import qelm
from qelm_lab.errors import CorpusTooSmall, InsufficientPoints, NotTrained, ValidationError
from qelm_lab.noise import bundled_profile, zero_noise_profile
from qelm_lab.rng import derive_seed
from qelm_lab.simulator import measure_distribution, run_ideal, run_noisy

from conftest import make_depol_profile

SCALES = (1.0, 2.0, 3.0, 5.0)


def _front(n_qubits, seed=11, layers=3):
    return qelm.QelmFront(
        qelm.EncoderSpec(((0.0, 1.0),) * n_qubits, entangle=n_qubits >= 2),
        qelm.ReservoirSpec("rotation", n_qubits=n_qubits, seed=seed, layers=layers),
        qelm.FeatureMapSpec("probabilities", shots=0),
    )


# ---------------------------------------------------------------------------
# extrapolation

def test_constant_values_extrapolate_to_the_constant():
    for method in ("polynomial", "linear", "exponential"):
        assert mit.extrapolate(SCALES, [0.42] * 4, method, degree=3) == pytest.approx(0.42)


def test_exact_linear_recovery():
    values = [1.0 - 0.1 * s for s in SCALES]
    assert mit.extrapolate(SCALES, values, "linear") == pytest.approx(1.0, abs=1e-9)


def test_cubic_matches_vandermonde_oracle():
    values = [0.9**s for s in SCALES]
    got = mit.extrapolate(SCALES, values, "polynomial", degree=3)
    # oracle: solve the square Vandermonde system directly, evaluate at 0
    v = np.vander(np.array(SCALES), 4, increasing=True)
    coeffs = np.linalg.solve(v, np.array(values))
    assert got == pytest.approx(coeffs[0], abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_full_degree_fit_reproduces_any_cubic(coeffs):
    poly = np.polynomial.polynomial.Polynomial(coeffs)
    values = [poly(s) for s in SCALES]
    got = mit.extrapolate(SCALES, values, "polynomial", degree=3)
    scale = max(1.0, abs(coeffs[0]))
    assert abs(got - coeffs[0]) <= 1e-7 * scale


def test_exponential_fit_recovers_decay():
    a, b, c = 0.4, 0.8, 0.55
    values = [a * b**s + c for s in SCALES]
    assert mit.extrapolate(SCALES, values, "exponential") == pytest.approx(a + c, abs=1e-6)


def test_exponential_falls_back_to_polynomial_with_warning(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("solver unavailable")

    monkeypatch.setattr(mit, "least_squares", broken)
    values = [1.0 - 0.1 * s for s in SCALES]
    with pytest.warns(mit.ExtrapolationFallback):
        got = mit.extrapolate(SCALES, values, "exponential")
    assert got == pytest.approx(1.0, abs=1e-9)


SCIPY_STAYS_UNLOADED = """
import importlib, pkgutil, sys
import qelm_lab
for module in pkgutil.iter_modules(qelm_lab.__path__):
    importlib.import_module("qelm_lab." + module.name)
from qelm_lab import mitigation
assert mitigation.extrapolate([1, 2, 3], [0.9, 0.8, 0.7], "polynomial", 1) > 0.99
assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]
a, b, c = 0.4, 0.8, 0.55
got = mitigation.extrapolate([1, 2, 3, 5], [a * b**s + c for s in (1, 2, 3, 5)], "exponential")
assert abs(got - (a + c)) < 1e-6, got
assert "scipy.optimize" in sys.modules
"""


def test_scipy_is_imported_only_by_an_exponential_fit():
    # a fresh interpreter: this test process has scipy loaded already
    src = str(Path(mit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", SCIPY_STAYS_UNLOADED], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr


def test_extrapolate_input_validation():
    with pytest.raises(InsufficientPoints):
        mit.extrapolate([1.0], [0.5], "linear")
    with pytest.raises(InsufficientPoints):
        mit.extrapolate(SCALES, [0.1, 0.2], "linear")
    with pytest.raises(InsufficientPoints):
        mit.extrapolate((1.0, 2.0), (0.5, 0.4), "polynomial", degree=2)


# the scale sets of the calibration grid (cli._cmd_calibrate_zne) and the default
SCALE_SETS = ((1.0, 2.0, 3.0, 5.0), (1.0, 3.0, 5.0))


@settings(max_examples=200, deadline=None)
@given(
    scales=st.sampled_from(SCALE_SETS),
    data=st.data(),
    k=st.integers(1, 12),
)
def test_one_polynomial_fit_per_row_matches_one_fit_per_column(scales, data, k):
    values = np.array(
        data.draw(
            st.lists(
                st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k),
                min_size=len(scales),
                max_size=len(scales),
            )
        )
    )
    for method, degree in [("linear", 1)] + [("polynomial", d) for d in range(1, len(scales))]:
        got = mit.extrapolate(scales, values, method, degree)
        per_column = [mit.extrapolate(scales, values[:, j], method, degree) for j in range(k)]
        assert got.tobytes() == np.array(per_column).tobytes()


def test_a_column_of_tiny_values_gets_the_bits_of_its_own_fit():
    # LAPACK rescales a right-hand side whose largest entry lies below
    # about 1e-292 (and above about 1e292), so a joint fit differs there
    values = np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 0.1], [1.0, 2.2250738585e-313, 1e-300]])
    for scales in SCALE_SETS[1:]:
        got = mit.extrapolate(scales, values, "linear")
        per_column = [mit.extrapolate(scales, values[:, j], "linear") for j in range(3)]
        assert got.tobytes() == np.array(per_column).tobytes()


def test_exponential_rows_fit_each_column_and_keep_the_fallback(monkeypatch):
    a = np.array([0.4, -0.2, 0.0])
    values = a * 0.8 ** np.array(SCALES)[:, None] + np.array([0.55, 0.1, 0.3])
    got = mit.extrapolate(SCALES, values, "exponential")
    per_column = [mit.extrapolate(SCALES, values[:, j], "exponential") for j in range(3)]
    assert got.tobytes() == np.array(per_column).tobytes()

    def broken(*args, **kwargs):
        raise RuntimeError("solver unavailable")

    monkeypatch.setattr(mit, "least_squares", broken)
    with pytest.warns(mit.ExtrapolationFallback):
        fallen = mit.extrapolate(SCALES, values, "exponential")
    # the constant column needs no solver; the other two fall back
    quadratic = mit.extrapolate(SCALES, values, "polynomial", 2)
    assert fallen.tobytes() == np.array([quadratic[0], quadratic[1], 0.3]).tobytes()


def test_extrapolating_rows_keeps_the_input_validation():
    with pytest.raises(InsufficientPoints):
        mit.extrapolate(SCALES, np.zeros((3, 5)), "linear")
    with pytest.raises(InsufficientPoints):
        mit.extrapolate((1.0,), np.zeros((1, 5)), "linear")
    for degree in (3, 4):
        with pytest.raises(InsufficientPoints):
            mit.extrapolate((1.0, 3.0, 5.0), np.zeros((3, 5)), "polynomial", degree)


def test_zne_config_validation():
    with pytest.raises(ValidationError):
        mit.ZneConfig(scale_factors=(2.0, 3.0))
    with pytest.raises(ValidationError):
        mit.ZneConfig(scale_factors=(1.0, 1.0))
    with pytest.raises(ValidationError):
        mit.ZneConfig(scale_factors=(1.0, 2.0), degree=3)
    round_trip = mit.ZneConfig.from_dict(mit.ZneConfig().to_dict())
    assert round_trip == mit.ZneConfig()


# ---------------------------------------------------------------------------
# zne over circuits and fronts

def test_zero_noise_profile_makes_mitigation_exact():
    front = _front(2)
    profile = zero_noise_profile(2)
    x = np.array([0.3, 0.7])
    ideal = qelm.extract_features(front, x, qelm.IdealBackend(), 0)
    mitigated = mit.ZneMitigator().circuit_features(
        qelm.front_circuit(front, x), front.feature_map, profile, 0
    )
    assert np.abs(mitigated - ideal).max() < 1e-8


def test_zne_recovers_analytic_depolarizing_decay():
    # single-qubit front: every gate is 1q, so each probability decays as
    # p_ideal * q^s + (1 - q^s) / 2 with q = (1 - p)^gates
    front = _front(1, seed=3, layers=3)
    x = np.array([0.37])
    ideal = qelm.extract_features(front, x, qelm.IdealBackend(), 0)
    for p in (0.01, 0.02, 0.05):
        profile = make_depol_profile(p, 0.0, 1)
        noisy = qelm.extract_features(front, x, qelm.NoisyBackend(profile), 0)
        mitigated = mit.ZneMitigator().circuit_features(
            qelm.front_circuit(front, x), front.feature_map, profile, 0
        )
        raw_err = np.abs(noisy - ideal).max()
        mit_err = np.abs(mitigated - ideal).max()
        assert mit_err <= 0.5 * raw_err
        # cross-check the analytic decay model at scale 1
        n_gates = len(qelm.front_circuit(front, x).gates)
        q = (1.0 - p) ** n_gates
        predicted = ideal * q + (1.0 - q) / 2.0
        assert np.abs(predicted - noisy).max() < 1e-9


def test_scale_one_run_equals_unmitigated_run():
    front = qelm.QelmFront(
        qelm.EncoderSpec(((0.0, 1.0),) * 2),
        qelm.ReservoirSpec("rotation", n_qubits=2, seed=4, layers=2),
        qelm.FeatureMapSpec("probabilities", shots=256),
    )
    profile = bundled_profile("device-c")
    x = np.array([0.25, 0.6])
    seed = 99
    unmitigated = qelm.extract_features(front, x, qelm.NoisyBackend(profile), seed)
    base = qelm.front_circuit(front, x)
    folded = circ.fold_to_scale(base, 1.0)
    assert folded == base
    assert mit._scale_seed(seed, 0) == seed
    dist = measure_distribution(run_noisy(folded, profile), profile)
    scale1 = qelm.distribution_features(dist, front.feature_map, mit._scale_seed(seed, 0))
    assert np.array_equal(scale1, unmitigated)


def test_mitigated_probabilities_form_a_distribution():
    front = _front(2)
    profile = bundled_profile("device-c")
    x = np.array([0.9, 0.1])
    feats = mit.ZneMitigator().circuit_features(
        qelm.front_circuit(front, x), front.feature_map, profile, 1
    )
    assert feats.min() >= 0.0
    assert feats.max() <= 1.0
    assert abs(feats.sum() - 1.0) < 1e-9


def test_postprocess_clips_then_renormalizes():
    out = mit._postprocess(np.array([1.03, -0.01, 0.02]), "probabilities")
    assert out.max() <= 1.0
    assert out.min() >= 0.0
    assert abs(out.sum() - 1.0) < 1e-12
    assert out[1] == 0.0
    exp = mit._postprocess(np.array([1.2, -1.4, 0.3]), "z_expectations")
    assert exp.tolist() == [1.0, -1.0, pytest.approx(0.3)]


def test_zne_calibrate_tie_break_prefers_first_cheapest_entry():
    profile = zero_noise_profile(2)
    bell = circ.Circuit(2, (circ.h(0), circ.cx(0, 1)))
    grid = [
        mit.ZneConfig((1.0, 3.0), extrapolation="linear"),
        mit.ZneConfig(SCALES, extrapolation="polynomial", degree=3),
    ]
    assert mit.zne_calibrate(profile, bell, grid) == grid[0]


def test_zne_calibrate_single_entry_grid():
    grid = [mit.ZneConfig(SCALES, extrapolation="polynomial", degree=2)]
    assert mit.zne_calibrate(bundled_profile("device-a"), circ.Circuit(1, (circ.h(0),)), grid) == grid[0]


def test_zne_calibrate_picks_the_lower_mae_config():
    profile = make_depol_profile(0.04, 0.04, 2)
    representative = mit.random_circuit(2, 14, seed=8)
    grid = [
        mit.ZneConfig(SCALES, extrapolation="linear"),
        mit.ZneConfig(SCALES, extrapolation="polynomial", degree=3),
    ]
    chosen = mit.zne_calibrate(profile, representative, grid)
    ideal = measure_distribution(run_ideal(representative)).vector
    probs = qelm.FeatureMapSpec("probabilities", 0)
    maes = [
        np.abs(mit.ZneMitigator(cfg).circuit_features(representative, probs, profile, 0) - ideal)
        .mean()
        for cfg in grid
    ]
    assert np.abs(
        mit.ZneMitigator(chosen).circuit_features(representative, probs, profile, 0) - ideal
    ).mean() == pytest.approx(min(maes))


# ---------------------------------------------------------------------------
# learned correction

def test_corpus_spans_requested_sizes():
    circuits = mit.calibration_circuits(2, 24, seed=3)
    sizes = [len(c.gates) for c in circuits]
    assert min(sizes) == 2
    assert max(sizes) == 40
    again = mit.calibration_circuits(2, 24, seed=3)
    assert circuits == again


def test_qlear_rejects_small_corpus():
    with pytest.raises(CorpusTooSmall):
        mit.qlear_train(mit.calibration_circuits(2, 5, seed=0), bundled_profile("device-a"))


def test_qlear_zero_noise_identity_mapping():
    profile = zero_noise_profile(2)
    model = mit.qlear_train(mit.calibration_circuits(2, 20, seed=1), profile, seed=2)
    assert model.held_out_mae <= 1e-6
    noisy = np.array([0.4, 0.1, 0.3, 0.2])
    meta = mit.CircuitMeta(depth=5, n_1q=4, n_2q=2)
    corrected = mit.qlear_correct(model, noisy, meta, profile)
    assert np.abs(corrected - noisy).max() < 1e-6


def test_qlear_improves_on_depolarizing_noise():
    profile = make_depol_profile(0.01, 0.03, 2, name="depol-2q")
    circuits = mit.calibration_circuits(2, 50, seed=5)
    model = mit.qlear_train(circuits, profile, seed=6)
    assert model.trained
    # measure on held-out style circuits the trainer never saw
    fresh = [mit.random_circuit(2, g, seed=1000 + g) for g in (9, 17, 25, 33)]
    ideal_backend = qelm.IdealBackend()
    noisy_backend = qelm.NoisyBackend(profile)
    fm = qelm.FeatureMapSpec("probabilities", 0)
    raw_err, corrected_err = [], []
    for c in fresh:
        ideal = ideal_backend.programs_features([c], None, fm, [0])[0]
        noisy = noisy_backend.programs_features([c], None, fm, [0])[0]
        corrected = mit.qlear_correct(model, noisy, mit.circuit_meta(c), profile)
        raw_err.append(np.abs(noisy - ideal).mean())
        corrected_err.append(np.abs(corrected - ideal).mean())
    assert np.mean(corrected_err) < np.mean(raw_err)
    assert model.held_out_mae < 0.05


def test_qlear_correct_requires_training():
    from qelm_lab.readout import BaggedTrees

    model = mit.QlearModel(
        regressor=BaggedTrees(),
        feature_kind="probabilities",
        n_qubits=2,
        seed=0,
        corpus_size=0,
        held_out_mae=0.0,
        trained=False,
    )
    with pytest.raises(NotTrained):
        mit.qlear_correct(model, np.zeros(4), mit.CircuitMeta(1, 1, 0), zero_noise_profile(2))


def test_qlear_correct_preserves_dimension_and_simplex():
    profile = make_depol_profile(0.02, 0.02, 2)
    model = mit.qlear_train(mit.calibration_circuits(2, 20, seed=9), profile, seed=9)
    noisy = np.array([0.3, 0.25, 0.25, 0.2])
    corrected = mit.qlear_correct(model, noisy, mit.CircuitMeta(6, 5, 3), profile)
    assert corrected.shape == noisy.shape
    assert abs(corrected.sum() - 1.0) < 1e-9


def test_a_corrector_refuses_programs_of_another_width():
    model = mit.qlear_train(mit.calibration_circuits(2, 20, seed=1), zero_noise_profile(2), seed=2)
    wide = mit.random_circuit(3, 6, seed=4)
    probabilities = qelm.FeatureMapSpec("probabilities", 0)
    with pytest.raises(ValidationError, match="trained on 2-qubit circuits, got a 3-qubit one"):
        mit.QlearMitigator(model).programs_features([wide], None, probabilities, zero_noise_profile(3), [0])


def test_mitigated_backend_keys_are_distinct():
    profile = bundled_profile("device-a")
    zne_backend = mit.MitigatedBackend(profile, mit.ZneMitigator())
    model = mit.qlear_train(mit.calibration_circuits(2, 20, seed=1), zero_noise_profile(2), seed=2)
    qlear_backend = mit.MitigatedBackend(profile, mit.QlearMitigator(model))
    assert zne_backend.key != qlear_backend.key
    assert zne_backend.key.startswith("mitigated:device-a:zne")


@pytest.mark.parametrize("shots", [0, 512])
def test_feature_matrix_equals_a_row_by_row_loop(shots):
    """The batched feature path against one programs_features call per row,
    each on that row's circuit alone, byte for byte, on every backend; the
    rows include a duplicate."""
    profile = bundled_profile("device-a")
    front = qelm.QelmFront(
        qelm.EncoderSpec(((0.0, 1.0),) * 3),
        qelm.ReservoirSpec("ising", n_qubits=3, seed=4),
        qelm.FeatureMapSpec("z_and_zz_expectations", shots=shots),
    )
    inputs = np.random.default_rng(shots).uniform(size=(7, 3))
    inputs[5] = inputs[1]
    corrector = mit.qlear_train(
        mit.calibration_circuits(3, 20, seed=2), profile, seed=2, feature_map=front.feature_map
    )
    backends = (
        qelm.IdealBackend(),
        qelm.NoisyBackend(profile),
        mit.MitigatedBackend(profile, mit.ZneMitigator()),
        mit.MitigatedBackend(profile, mit.QlearMitigator(corrector)),
    )
    for backend in backends:
        rows = [
            backend.programs_features(
                [qelm.front_circuit(front, x)], None, front.feature_map, [derive_seed(9, "row", i)]
            )[0]
            for i, x in enumerate(inputs)
        ]
        batched = qelm.feature_matrix(front, inputs, backend, 9)
        assert batched.tobytes() == np.vstack(rows).tobytes(), backend.key
        cached = qelm.feature_matrix(front, inputs, backend, 9, qelm.FeatureCache())
        assert cached.tobytes() == batched.tobytes(), backend.key


def _former_qlear_correct(model, noisy, meta, profile):
    """qlear_correct one feature vector at a time, as it was: one regressor
    call per vector, its clip and renormalization on that vector alone."""
    k = len(noisy)
    rows = np.empty((k, 7))
    rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = noisy, meta.depth, meta.n_1q, meta.n_2q
    rows[:, 4], rows[:, 5], rows[:, 6] = np.arange(k), profile.depol_1q, profile.depol_2q
    corrected = noisy + model.regressor.predict(rows)
    if model.feature_kind != "probabilities":
        return np.clip(corrected, -1.0, 1.0)
    clipped = np.clip(corrected, 0.0, 1.0)
    total = clipped.sum()
    return np.full_like(clipped, 1.0 / len(clipped)) if total <= 0.0 else clipped / total


@pytest.mark.parametrize("kind", qelm.FEATURE_MAP_KINDS)
def test_qlear_correct_on_a_stack_is_bit_identical_to_one_vector_at_a_time(kind):
    profile = bundled_profile("device-a")
    feature_map = qelm.FeatureMapSpec(kind)
    model = mit.qlear_train(mit.calibration_circuits(3, 20, seed=4), profile, seed=4, feature_map=feature_map)
    rng = np.random.default_rng(5)
    stack = rng.uniform(-1.2, 1.2, size=(9, feature_map.n_features(3)))
    stack[3] = -0.9  # clipped to a zero total: the uniform row
    meta = mit.CircuitMeta(7, 9, 4)
    batched = mit.qlear_correct(model, stack, meta, profile)
    assert batched.shape == stack.shape
    for row, got in zip(stack, batched):
        want = _former_qlear_correct(model, row, meta, profile)
        assert got.tobytes() == want.tobytes()
        assert mit.qlear_correct(model, row, meta, profile).tobytes() == want.tobytes()
    if kind == "probabilities":
        assert np.array_equal(batched[3], np.full(8, 1 / 8))


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_one_fit_over_the_rows_of_a_batch_is_bit_identical_to_a_fit_per_row(degree):
    """ZNE extrapolates a batch as one fit with a column per (row, feature);
    a column LAPACK would rescale (a subnormal peak) sends the whole batch
    through per-column fits, with the same bits."""
    rng = np.random.default_rng(7)
    rows = [rng.uniform(-1.0, 1.0, size=(4, 6)) for _ in range(5)]
    rows[3][:, 4] = 0.0
    for tiny in (False, True):
        if tiny:
            rows[2][:, 1] = 1e-310 * np.arange(1, 5)
        joint = mit.extrapolate(SCALES, np.hstack(rows), "polynomial", degree)
        per_row = np.concatenate([mit.extrapolate(SCALES, r, "polynomial", degree) for r in rows])
        assert joint.tobytes() == per_row.tobytes()
