import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qelm_lab import qelm
from qelm_lab.errors import DimensionMismatch, ValidationError
from qelm_lab.noise import bundled_profile, zero_noise_profile
from qelm_lab.simulator import measure_distribution, run_ideal

from conftest import circuits, fitted, make_depol_profile, predictions

UNIT = ((0.0, 1.0),)


def unit_ranges(n):
    return UNIT * n


def test_encode_at_range_minimum_is_identity_up_to_ring():
    spec = qelm.EncoderSpec(unit_ranges(3))
    c = qelm.encode(np.zeros(3), spec, 3)
    dist = measure_distribution(run_ideal(c))
    assert dist.probabilities == pytest.approx({"000": 1.0})


def test_encode_midpoint_gives_equal_superposition():
    spec = qelm.EncoderSpec(unit_ranges(1), entangle=False)
    c = qelm.encode(np.array([0.5]), spec, 1)
    dist = measure_distribution(run_ideal(c))
    assert dist.probabilities["0"] == pytest.approx(0.5)
    assert dist.probabilities["1"] == pytest.approx(0.5)


def test_encode_clamps_out_of_range_values():
    spec = qelm.EncoderSpec(unit_ranges(1), entangle=False)
    c = qelm.encode(np.array([7.0]), spec, 1)
    assert c.gates[0].params[0] == pytest.approx(np.pi)


def test_encode_dimension_mismatch():
    spec = qelm.EncoderSpec(unit_ranges(3))
    with pytest.raises(DimensionMismatch):
        qelm.encode(np.zeros(4), spec, 3)


def test_encoder_spec_validates_ranges():
    with pytest.raises(ValidationError):
        qelm.EncoderSpec(((0.5, 0.5),))


def test_reservoir_is_seed_deterministic():
    spec = qelm.ReservoirSpec("ising", n_qubits=3, seed=21)
    assert qelm.build_reservoir(spec) == qelm.build_reservoir(spec)
    other = qelm.ReservoirSpec("ising", n_qubits=3, seed=22)
    assert qelm.build_reservoir(spec) != qelm.build_reservoir(other)


def test_ising_gate_count_formula():
    spec = qelm.ReservoirSpec("ising", n_qubits=3, seed=0, trotter_steps=2)
    c = qelm.build_reservoir(spec)
    # per step: C(3,2) ZZ couplings plus 3 RX fields
    assert len(c.gates) == 2 * (3 + 3)
    kinds = {g.kind for g in c.gates}
    assert kinds == {"ZZ", "RX"}


def test_rotation_layer_structure():
    spec = qelm.ReservoirSpec("rotation", n_qubits=2, seed=0, layers=1)
    c = qelm.build_reservoir(spec)
    assert len(c.gates) == 3  # 2 rotations + 1 CX
    assert c.gates[2].kind == "CX"
    assert all(g.kind in ("RX", "RY", "RZ") for g in c.gates[:2])


def test_feature_map_dimensions():
    assert qelm.FeatureMapSpec("probabilities").n_features(3) == 8
    assert qelm.FeatureMapSpec("z_expectations").n_features(3) == 3
    assert qelm.FeatureMapSpec("z_and_zz_expectations").n_features(4) == 4 + 6


def test_probability_features_on_entangling_pair(bell):
    dist = measure_distribution(run_ideal(bell))
    feats = qelm.distribution_features(dist, qelm.FeatureMapSpec("probabilities"), seed=0)
    assert np.abs(feats - np.array([0.5, 0.0, 0.0, 0.5])).max() < 1e-12
    backend = qelm.IdealBackend()
    assert np.allclose(
        backend.programs_features([bell], None, qelm.FeatureMapSpec("probabilities"), [0])[0], feats
    )


def test_ideal_and_zero_noise_backends_agree():
    front = qelm.QelmFront(
        qelm.EncoderSpec(unit_ranges(2)),
        qelm.ReservoirSpec("ising", n_qubits=2, seed=5),
        qelm.FeatureMapSpec("probabilities", shots=0),
    )
    x = np.array([0.2, 0.8])
    ideal = qelm.extract_features(front, x, qelm.IdealBackend(), seed=3)
    noisy = qelm.extract_features(front, x, qelm.NoisyBackend(zero_noise_profile(2)), seed=3)
    assert np.abs(ideal - noisy).max() < 1e-10
    # with sampling, matched seeds keep the two backends identical
    front_shots = qelm.QelmFront(
        front.encoder, front.reservoir, qelm.FeatureMapSpec("probabilities", shots=512)
    )
    a = qelm.extract_features(front_shots, x, qelm.IdealBackend(), seed=3)
    b = qelm.extract_features(front_shots, x, qelm.NoisyBackend(zero_noise_profile(2)), seed=3)
    assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(circuit=circuits(), kind=st.sampled_from(qelm.FEATURE_MAP_KINDS))
def test_zero_noise_backend_matches_the_ideal_backend(circuit, kind):
    spec = qelm.FeatureMapSpec(kind, shots=0)
    ideal = qelm.IdealBackend().programs_features([circuit], None, spec, [0])[0]
    noisy = qelm.NoisyBackend(zero_noise_profile(4)).programs_features([circuit], None, spec, [0])[0]
    assert ideal.shape == noisy.shape
    assert np.abs(ideal - noisy).max() <= 1e-12


def test_probability_features_sum_to_one_per_row():
    front = qelm.QelmFront(
        qelm.EncoderSpec(unit_ranges(3)),
        qelm.ReservoirSpec("rotation", n_qubits=3, seed=9),
        qelm.FeatureMapSpec("probabilities", shots=256),
    )
    profile = make_depol_profile(0.02, 0.05, 3)
    rows = qelm.feature_matrix(
        front, np.random.default_rng(0).uniform(size=(6, 3)), qelm.NoisyBackend(profile), 4
    )
    assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-9


def test_expectation_features_lie_in_unit_interval_of_z():
    front = qelm.QelmFront(
        qelm.EncoderSpec(unit_ranges(2)),
        qelm.ReservoirSpec("ising", n_qubits=2, seed=1),
        qelm.FeatureMapSpec("z_and_zz_expectations"),
    )
    feats = qelm.extract_features(front, np.array([0.3, 0.9]), qelm.IdealBackend())
    assert feats.shape == (3,)
    assert np.all(np.abs(feats) <= 1.0 + 1e-12)


def _linear_fixture(n=80, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 3))
    y = 1.0 + 2.0 * x[:, 0] - 1.0 * x[:, 1] + 0.5 * x[:, 2] + 0.05 * rng.normal(size=n)
    return x[: int(0.7 * n)], y[: int(0.7 * n)], x[int(0.7 * n) :], y[int(0.7 * n) :]


def _front(n_qubits, seed=11, shots=0):
    return qelm.QelmFront(
        qelm.EncoderSpec(unit_ranges(n_qubits)),
        qelm.ReservoirSpec("ising", n_qubits=n_qubits, seed=seed),
        qelm.FeatureMapSpec("probabilities", shots=shots),
    )


def test_train_beats_constant_predictor_on_linear_fixture():
    x_train, y_train, x_test, y_test = _linear_fixture()
    backend = qelm.IdealBackend()
    model = fitted(x_train, y_train, "regression", _front(3), "linear", backend, seed=2)
    preds = predictions(model, x_test, backend, 3)
    mse = float(np.mean((preds - y_test) ** 2))
    const = float(np.mean((y_train.mean() - y_test) ** 2))
    assert mse * 2.0 <= const


def test_classification_accuracy_on_separable_fixture():
    rng = np.random.default_rng(1)
    n = 80
    y = np.arange(n) % 2
    centers = np.where(y[:, None] == 0, 0.25, 0.75)
    x = np.clip(centers + rng.uniform(-0.1, 0.1, size=(n, 4)), 0.0, 1.0)
    backend = qelm.IdealBackend()
    model = fitted(x[:56], y[:56], "classification", _front(4), "tree", backend, seed=5)
    labels, probs = predictions(model, x[56:], backend, 6)
    assert np.mean(labels == y[56:]) >= 0.9
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
    assert np.array_equal(labels, np.argmax(probs, axis=1))


def test_predict_rejects_wrong_dimension():
    x_train, y_train, _, _ = _linear_fixture(40)
    model = fitted(
        x_train, y_train, "regression", _front(3), "linear", qelm.IdealBackend(), seed=2
    )
    with pytest.raises(DimensionMismatch):
        predictions(model, np.zeros((1, 4)), qelm.IdealBackend())


def test_training_leaves_reservoir_untouched():
    front = _front(3)
    before = qelm.build_reservoir(front.reservoir)
    x_train, y_train, _, _ = _linear_fixture(40)
    fitted(x_train, y_train, "regression", front, "linear", qelm.IdealBackend(), seed=2)
    assert qelm.build_reservoir(front.reservoir) == before


def test_exact_features_make_training_deterministic():
    x_train, y_train, x_test, _ = _linear_fixture(40)
    backend = qelm.IdealBackend()
    m1 = fitted(x_train, y_train, "regression", _front(3), "linear", backend, seed=2)
    m2 = fitted(x_train, y_train, "regression", _front(3), "linear", backend, seed=2)
    assert np.array_equal(
        predictions(m1, x_test, backend, 3), predictions(m2, x_test, backend, 3)
    )


def test_feature_cache_reuses_rows():
    cache = qelm.FeatureCache()
    front = _front(2)
    x = np.array([[0.1, 0.2], [0.3, 0.4]])
    backend = qelm.IdealBackend()
    qelm.feature_matrix(front, x, backend, 7, cache)
    assert cache.misses == 2
    qelm.feature_matrix(front, x, backend, 7, cache)
    assert cache.hits == 2
    # a different seed or backend is a different cache entry
    qelm.feature_matrix(front, x, backend, 8, cache)
    assert cache.misses == 4


def test_feature_cache_is_shared_safely_between_threads():
    """Threads that fill one cache, by whole matrices and by single rows,
    count every requested row once, as a hit or a miss, and get the
    one-thread features."""
    front = _front(3)
    backend = qelm.NoisyBackend(bundled_profile("device-a"))
    x = np.random.default_rng(5).uniform(size=(6, 3))
    seeds = (1, 2, 3)
    expected = {seed: qelm.feature_matrix(front, x, backend, seed) for seed in seeds}
    cache = qelm.FeatureCache()
    got, failures = [], []

    def fill(offset):
        try:
            for k in range(60):
                seed = seeds[(offset + k) % len(seeds)]
                got.append((seed, qelm.feature_matrix(front, x, backend, seed, cache)))
                rows = [cache.row_features(front, backend, seed, i, row) for i, row in enumerate(x)]
                got.append((seed, np.vstack(rows)))
        except Exception as exc:  # reported by the test thread
            failures.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(offset,)) for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(got) == 8 * 60 * 2
    assert cache.hits + cache.misses == len(got) * len(x)
    assert cache.misses >= len(seeds) * len(x)
    for seed, matrix in got:
        assert np.array_equal(matrix, expected[seed])


def test_sampled_features_depend_only_on_seed_and_row():
    front = _front(2, shots=128)
    backend = qelm.NoisyBackend(bundled_profile("device-a"))
    x = np.array([[0.2, 0.6]])
    a = qelm.feature_matrix(front, x, backend, 3)
    b = qelm.feature_matrix(front, x, backend, 3)
    c = qelm.feature_matrix(front, x, backend, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_model_json_round_trip():
    x_train, y_train, x_test, _ = _linear_fixture(40)
    backend = qelm.IdealBackend()
    model = fitted(x_train, y_train, "regression", _front(3), "linear", backend, seed=2)
    clone = qelm.model_from_dict(qelm.model_to_dict(model))
    assert clone.front == model.front
    assert np.allclose(
        predictions(model, x_test, backend, 3),
        predictions(clone, x_test, backend, 3),
    )


def test_saved_models_load_and_predict_identically(tmp_path):
    x_train, y_train, x_test, _ = _linear_fixture(40)
    backend = qelm.NoisyBackend(bundled_profile("device-a"))
    y_cls = (y_train > y_train.mean()).astype(float)
    for task, targets, readout in (
        ("regression", y_train, "linear"),
        ("classification", y_cls, "logistic"),
        ("classification", y_cls, "tree"),
    ):
        model = fitted(x_train, targets, task, _front(3), readout, backend, seed=2)
        path = tmp_path / f"{task}-{readout}.json"
        qelm.save_model(model, path)
        loaded = qelm.load_model(path)
        assert loaded.front == model.front and loaded.readout_kind == readout
        want = predictions(model, x_test, backend, 3)
        got = predictions(loaded, x_test, backend, 3)
        if task == "regression":
            assert np.array_equal(got, want)
        else:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize(
    "mutate, problem",
    [
        (lambda doc: {"schema": doc["schema"]}, "task: required; the document has no task"),
        (lambda doc: doc["reservoir"].update(n_qubits="one"), "reservoir.n_qubits: expected an integer, got 'one'"),
        (lambda doc: doc["encoder"]["feature_range"].append([0.0]), r"encoder.feature_range\[3\]: expected a list of 2"),
        (lambda doc: doc["readout"].update(weights=[True]), r"readout.weights\[0\]: expected a number, got True"),
        (lambda doc: doc["readout"].update(kind="svm"), "readout.kind: must be one of linear, logistic, tree, got 'svm'"),
        (lambda doc: doc.update(schema="qelm-model/0"), "schema: not a qelm-model/1 document"),
    ],
)
def test_a_bad_model_document_raises_a_validation_error_naming_the_key(mutate, problem):
    x_train, y_train, _, _ = _linear_fixture(20)
    model = fitted(x_train, y_train, "regression", _front(3), "linear", qelm.IdealBackend(), seed=2)
    document = json.loads(json.dumps(qelm.model_to_dict(model)))
    document = mutate(document) or document
    with pytest.raises(ValidationError, match=f"^{problem}"):
        qelm.model_from_dict(document)


@pytest.mark.parametrize(
    "part, key, value, problem",
    [
        ("reservoir", "style", "bogus", "reservoir.style: must be one of rotation, ising, got 'bogus'"),
        ("reservoir", "layers", -3, "reservoir.layers: must be at least 1, got -3"),
        ("reservoir", "trotter_steps", 0, "reservoir.trotter_steps: must be at least 1, got 0"),
        ("feature_map", "shots", -1, "feature_map.shots: must not be negative, got -1"),
        ("encoder", "feature_range", [[0.0, 1.0], [1.0, 1.0], [0.0, 1.0]],
         r"encoder.feature_range\[1\]: must have min < max, got \[1.0, 1.0\]"),
        (None, "task", "bogus", "task: must be one of regression, classification, got 'bogus'"),
        (None, "readout_kind", "svm", "readout_kind: must be one of linear, logistic, tree, got 'svm'"),
    ],
)
def test_a_model_file_breaking_a_run_config_rule_does_not_load(tmp_path, part, key, value, problem):
    """The model document shares its rules with the run config's model
    section: a value a run would reject does not load."""
    x_train, y_train, _, _ = _linear_fixture(20)
    model = fitted(x_train, y_train, "regression", _front(3), "linear", qelm.IdealBackend(), seed=2)
    document = qelm.model_to_dict(model)
    (document[part] if part else document)[key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ValidationError, match=f"^{problem}$"):
        qelm.load_model(path)


def test_a_tree_model_document_has_its_keys_checked():
    x_train, y_train, _, _ = _linear_fixture(20)
    y_cls = (y_train > y_train.mean()).astype(float)
    model = fitted(x_train, y_cls, "classification", _front(3), "tree", qelm.IdealBackend(), seed=2)
    document = json.loads(json.dumps(qelm.model_to_dict(model)))
    assert qelm.model_to_dict(qelm.model_from_dict(document)) == document
    document["readout"]["max_depth"] = 2.5
    with pytest.raises(ValidationError, match="^readout.max_depth: expected an integer, got 2.5"):
        qelm.model_from_dict(document)


@pytest.mark.parametrize(
    "mutate, problem",
    [
        (lambda root: root.update(feature="a"), "readout.root.feature: expected an integer, got 'a'"),
        (lambda root: root.pop("right"), "readout.root.right: required; readout.root has no right"),
        (lambda root: root.update(feature=8), "readout.root.feature: must index one of the 8 features"),
        (lambda root: root.update(feature=-1), "readout.root.feature: must index one of the 8 features"),
        (lambda root: root.update(left={"value": 0.5}), r"readout.root.left.value: expected a list of 2, got 0.5"),
        (lambda root: root.update(right={"value": [1.0, 0.0], "feature": 0}), "readout.root.right.feature: unknown key"),
        (lambda root: root.update(left=[]), r"readout.root.left: expected an object, got \[\]"),
    ],
)
def test_a_bad_tree_node_raises_a_validation_error_naming_its_path(mutate, problem):
    """A tree readout's node documents are read checked, and a split must
    index one of the front's features: no raw ValueError, KeyError or (at
    predict time) IndexError."""
    x_train, y_train, _, _ = _linear_fixture(20)
    y_cls = (y_train > y_train.mean()).astype(float)
    model = fitted(x_train, y_cls, "classification", _front(3), "tree", qelm.IdealBackend(), seed=2)
    document = json.loads(json.dumps(qelm.model_to_dict(model)))
    root = document["readout"]["root"]
    assert "feature" in root and model.front.n_features == 8
    mutate(root)
    with pytest.raises(ValidationError, match=f"^{problem}"):
        qelm.model_from_dict(document)


@pytest.mark.parametrize("task, readout", [("regression", "linear"), ("classification", "logistic")])
def test_a_readout_without_one_weight_per_feature_does_not_load(tmp_path, task, readout):
    """A linear or logistic readout's weights must match the front's
    feature count when the model loads, not fail in numpy's matmul at
    predict time."""
    x_train, y_train, _, _ = _linear_fixture(20)
    targets = y_train if task == "regression" else (y_train > y_train.mean()).astype(float)
    model = fitted(x_train, targets, task, _front(3), readout, qelm.IdealBackend(), seed=2)
    document = qelm.model_to_dict(model)
    assert len(document["readout"]["weights"]) == model.front.n_features == 8
    document["readout"]["weights"] = document["readout"]["weights"][:2]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ValidationError, match=r"^readout\.weights: expected one per feature, 8, got 2"):
        qelm.load_model(path)


def test_single_prediction_shapes():
    x_train, y_train, x_test, _ = _linear_fixture(40)
    backend = qelm.IdealBackend()
    model = fitted(x_train, y_train, "regression", _front(3), "linear", backend, seed=2)
    preds = predictions(model, x_test[:1], backend)
    assert preds.shape == (1,) and isinstance(preds[0], float)
    y_cls = (y_train > y_train.mean()).astype(float)
    cls = fitted(x_train, y_cls, "classification", _front(3), "logistic", backend, seed=2)
    labels, probs = predictions(cls, x_test[:1], backend)
    assert labels[0] in (0, 1)
    assert probs[0].shape == (2,)
    assert probs[0].sum() == pytest.approx(1.0)


@pytest.mark.parametrize("cached", [False, True])
def test_a_feature_matrix_of_zero_rows_is_empty(cached):
    from qelm_lab import mitigation

    front = qelm.QelmFront(
        qelm.EncoderSpec(unit_ranges(3)),
        qelm.ReservoirSpec("rotation", n_qubits=3, seed=2),
        qelm.FeatureMapSpec("z_and_zz_expectations"),
    )
    profile = bundled_profile("device-a")
    for backend in (
        qelm.IdealBackend(),
        qelm.NoisyBackend(profile),
        mitigation.MitigatedBackend(profile, mitigation.ZneMitigator()),
    ):
        cache = qelm.FeatureCache() if cached else None
        features = qelm.feature_matrix(front, np.zeros((0, 3)), backend, 0, cache)
        assert features.shape == (0, front.n_features) and features.dtype == float
