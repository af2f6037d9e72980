import csv
import json
import math
from itertools import combinations

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from qelm_lab import harness, noise, qelm
from qelm_lab import simulator as sim
from qelm_lab.errors import EmptyInput, TooFewSamples, ValidationError
from qelm_lab.harness import (
    Dataset,
    ModelSpec,
    ScenarioConfig,
    UqSpec,
    a12,
    emit_report,
    generate_dataset,
    load_csv_dataset,
    mann_whitney_u,
    percent_change,
    report_json_bytes,
    run_scenario,
    run_uq,
)
from qelm_lab.noise import zero_noise_profile
from qelm_lab.readout import DecisionTree


# ---------------------------------------------------------------------------
# datasets

def test_generate_dataset_is_deterministic():
    a = generate_dataset("regression3", 40, seed=5)
    b = generate_dataset("regression3", 40, seed=5)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.train_idx, b.train_idx)
    c = generate_dataset("regression3", 40, seed=6)
    assert not np.array_equal(a.features, c.features)


def test_dataset_shapes_and_split():
    for kind, d in (("regression3", 3), ("classification4", 4), ("classification8", 8)):
        ds = generate_dataset(kind, 50, seed=1)
        assert ds.features.shape == (50, d)
        assert len(ds.train_idx) == 35
        assert len(ds.test_idx) == 15
        assert set(ds.train_idx) | set(ds.test_idx) == set(range(50))
        assert set(ds.train_idx) & set(ds.test_idx) == set()


def test_generate_dataset_validates_inputs():
    with pytest.raises(ValidationError):
        generate_dataset("regression3", 10, seed=1)
    with pytest.raises(ValidationError):
        generate_dataset("mystery", 40, seed=1)


def test_noiseless_classification4_is_tree_separable():
    ds = generate_dataset("classification4", 60, seed=2, noise_level=0.0)
    tree = DecisionTree("classification", max_depth=3).fit(ds.features, ds.targets)
    assert (tree.predict(ds.features) == ds.targets).all()


def test_regression3_signal_dominates_noise():
    ds = generate_dataset("regression3", 400, seed=3)
    assert float(np.var(ds.targets)) > ds.noise_level**2 * 10


def test_classification8_overlap_grows_with_noise_level():
    clean = generate_dataset("classification8", 200, seed=4, noise_level=0.0)
    messy = generate_dataset("classification8", 200, seed=4, noise_level=1.5)

    def margin(ds):
        mu0 = ds.features[ds.targets == 0].mean(axis=0)
        mu1 = ds.features[ds.targets == 1].mean(axis=0)
        spread = ds.features.std(axis=0).mean()
        return np.linalg.norm(mu1 - mu0) / spread

    assert margin(clean) > margin(messy)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,target\n0.1,0.2,1.0\n0.3,0.4,2.0\n0.5,0.6,3.0\n0.7,0.8,4.0\n")
    ds = load_csv_dataset(path, "regression")
    assert ds.features.shape == (4, 2)
    assert ds.targets.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert ds.kind == "csv"


def test_dataset_label_validation():
    with pytest.raises(ValidationError):
        Dataset(
            features=np.zeros((4, 2)),
            targets=np.array([0.0, 1.0, 2.0, 0.0]),
            task="classification",
            train_idx=np.array([0, 1]),
            test_idx=np.array([2, 3]),
        )


# ---------------------------------------------------------------------------
# percentage change

def test_percent_change_error_direction():
    assert percent_change(10.0, 35.0, "error") == pytest.approx(250.0)
    assert percent_change(10.0, 10.0, "error") == 0.0


def test_percent_change_accuracy_direction():
    assert percent_change(1.0, 0.5, "accuracy") == pytest.approx(50.0)
    assert percent_change(0.9, 0.9, "accuracy") == 0.0


def test_percent_change_flags_bad_baseline_with_nan():
    assert math.isnan(percent_change(0.0, 1.0, "error"))
    assert math.isnan(percent_change(0.0, 0.5, "accuracy"))
    assert math.isnan(percent_change(1.5, 0.5, "accuracy"))
    with pytest.raises(ValidationError):
        percent_change(1.0, 1.0, "banana")


# ---------------------------------------------------------------------------
# rank statistics

def test_mann_whitney_disjoint_groups_exact():
    u, p = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert u == 0.0
    assert p == pytest.approx(0.1)


def test_mann_whitney_identical_lists():
    _, p = mann_whitney_u([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert p == pytest.approx(1.0)


def test_mann_whitney_is_permutation_invariant():
    a = [3.0, 1.0, 2.0, 5.0]
    b = [4.0, 0.5, 2.5]
    u1, p1 = mann_whitney_u(a, b)
    u2, p2 = mann_whitney_u([5.0, 2.0, 1.0, 3.0], b)
    assert (u1, p1) == (u2, p2)


def test_mann_whitney_requires_three_per_group():
    with pytest.raises(TooFewSamples):
        mann_whitney_u([1.0, 2.0], [3.0, 4.0, 5.0])


def test_mann_whitney_exact_and_approx_agree_at_boundary():
    rng = np.random.default_rng(0)
    for _ in range(6):
        a = rng.normal(size=8)
        b = rng.normal(loc=rng.uniform(0, 1.5), size=8)
        _, p_exact = mann_whitney_u(a, b, method="exact")
        _, p_approx = mann_whitney_u(a, b, method="approx")
        assert abs(p_exact - p_approx) <= 0.02
    a17 = rng.normal(size=9)
    b17 = rng.normal(size=8)
    _, p_auto = mann_whitney_u(a17, b17)  # pooled size 17 -> approx path
    _, p_exact = mann_whitney_u(a17, b17, method="exact")
    assert abs(p_auto - p_exact) <= 0.02


def test_mann_whitney_tracks_scipy_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.normal(size=12)
        b = rng.normal(loc=0.8, size=10)
        u, p = mann_whitney_u(a, b)
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
        assert u == pytest.approx(float(ref.statistic))
        assert p == pytest.approx(float(ref.pvalue), abs=5e-3)


def _enumerated_mann_whitney(a, b) -> tuple[float, float]:
    """Reference exact test: recompute U for every one of the C(m+n, m) ways
    to pick the first sample."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    u_obs = harness._u_statistic(a, b)
    pooled = np.concatenate([a, b])
    m = len(a)
    total = count_le = count_ge = 0
    for subset in combinations(range(len(pooled)), m):
        mask = np.zeros(len(pooled), dtype=bool)
        mask[list(subset)] = True
        u = harness._u_statistic(pooled[mask], pooled[~mask])
        total += 1
        count_le += u <= u_obs + 1e-12
        count_ge += u >= u_obs - 1e-12
    return u_obs, min(1.0, 2.0 * min(count_le, count_ge) / total)


def test_exact_mann_whitney_matches_enumeration():
    rng = np.random.default_rng(4)
    cases = [([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]), ([1.0] * 8, [1.0] * 8)]
    for m, n in ((3, 3), (3, 8), (5, 4), (8, 8)):
        cases.append((rng.normal(size=m), rng.normal(loc=0.5, size=n)))
        cases.append((rng.integers(0, 4, size=m) / 2.0, rng.integers(1, 5, size=n) / 2.0))
    for a, b in cases:
        u, p = mann_whitney_u(a, b, method="exact")
        u_ref, p_ref = _enumerated_mann_whitney(a, b)
        assert u == u_ref
        assert abs(p - p_ref) < 1e-12


def test_mann_whitney_rejects_nan():
    with pytest.raises(ValidationError):
        mann_whitney_u([1.0, math.nan, 3.0], [4.0, 5.0, 6.0])


def test_a12_worked_cases():
    assert a12([1.0, 2.0], [1.0, 2.0]) == pytest.approx(0.5)
    assert a12([5.0, 6.0], [1.0, 2.0]) == 1.0
    assert a12([1.0, 3.0], [2.0, 4.0]) == pytest.approx(0.25)
    with pytest.raises(EmptyInput):
        a12([], [1.0])


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.floats(-5, 5), min_size=1, max_size=12),
    b=st.lists(st.floats(-5, 5), min_size=1, max_size=12),
)
def test_a12_complement_sums_to_one(a, b):
    assert a12(a, b) + a12(b, a) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# scenario configs and runs

def test_scenario_config_validation(zero_profile):
    with pytest.raises(ValidationError):
        ScenarioConfig("C9_9", zero_profile)
    with pytest.raises(ValidationError):
        ScenarioConfig("C2_1", zero_profile)  # mitigated backend, no mitigator
    with pytest.raises(ValidationError):
        ScenarioConfig("C1_1", zero_profile, mitigator="zne")
    with pytest.raises(ValidationError):
        ScenarioConfig("C3_1", zero_profile)  # uq mandatory
    config = ScenarioConfig("C3_2", zero_profile, uq=UqSpec("bootstrap"))
    assert config.backend_pair == ("noisy", "noisy")
    assert config.uq.resolved_samples == 100
    assert UqSpec("ensemble").resolved_samples == 30


def _small_scenario(repeats=3, scenario="C1_1", profile=None, seed=9):
    dataset = generate_dataset("regression3", 24, seed=2)
    profile = profile or zero_noise_profile(3)
    config = ScenarioConfig(scenario, profile, repeats=repeats, seed=seed, jobs=1)
    return config, dataset


def test_zero_noise_scenario_has_zero_percent_changes():
    config, dataset = _small_scenario()
    report = run_scenario(config, dataset)
    assert len(report["runs"]) == config.repeats
    for run in report["runs"]:
        assert run["error"] is None
        assert abs(run["pct_change"]) < 1e-6


def test_scenario_records_statistics_and_baseline():
    config, dataset = _small_scenario(repeats=4)
    report = run_scenario(config, dataset)
    assert report["statistics"] is not None
    assert 0.0 <= report["statistics"]["p_value"] <= 1.0
    assert report["statistics"]["method"] == "exact"
    assert report["ideal_baseline"] is not None
    assert report["metric"] == "mse"


def test_scenario_records_per_repeat_failures_without_aborting():
    dataset = generate_dataset("regression3", 24, seed=2)
    config = ScenarioConfig("C1_1", zero_noise_profile(2), repeats=2, seed=1, jobs=1)
    report = run_scenario(config, dataset)  # profile covers too few qubits
    assert all(r["error"] is not None for r in report["runs"])
    assert "partial_failures" in report["flags"]
    assert report["statistics"] is None


def test_scenario_propagates_a_programming_error(monkeypatch):
    def broken_readout(*args, **kwargs):
        raise TypeError("readout bug")

    monkeypatch.setattr(qelm, "fit_readout", broken_readout)
    dataset = generate_dataset("regression3", 24, seed=2)
    config = ScenarioConfig("C1_1", zero_noise_profile(3), repeats=2, seed=1, jobs=1)
    with pytest.raises(TypeError, match="readout bug"):
        run_scenario(config, dataset)


def test_model_spec_rejects_an_unknown_readout_kind():
    with pytest.raises(ValidationError, match="^model.readout: must be one of linear, logistic, tree, got 'svm'$"):
        ModelSpec(readout="svm")


def test_a_readout_that_does_not_fit_the_task_fails_before_any_repeat():
    config, dataset = _small_scenario()
    spec = ModelSpec(readout="tree")
    with pytest.raises(ValidationError, match="readout: 'tree' does not fit a regression task"):
        run_scenario(config, dataset, spec)
    uq_config = ScenarioConfig("C3_1", config.profile, uq=UqSpec("bootstrap", 4))
    with pytest.raises(ValidationError, match="does not fit"):
        run_uq(uq_config, dataset, spec)


def test_report_emission_files_and_determinism(tmp_path):
    config, dataset = _small_scenario()
    report = run_scenario(config, dataset)
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    files = emit_report(report, out1)
    names = {f.name for f in files}
    assert names == {"results.json", "metrics.csv", "pct_change_box.svg"}
    emit_report(report, out2)
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rows = (out1 / "metrics.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + config.repeats
    payload = json.loads((out1 / "results.json").read_text())
    assert payload["scenario"] == "C1_1"
    assert len(payload["runs"]) == config.repeats


def test_parallel_repeats_reproduce_serial_bytes():
    dataset = generate_dataset("classification4", 24, seed=3)
    reports = []
    for jobs in (1, 2):
        # start each run with empty process-wide caches, so the two threads
        # of the parallel run fill them concurrently
        sim.noise_ptm.cache_clear()
        config = ScenarioConfig(
            "C1_1", noise.bundled_profile("device-a"), repeats=4, seed=5, jobs=jobs
        )
        reports.append(report_json_bytes(run_scenario(config, dataset)))
    assert reports[0] == reports[1]


def test_rerunning_a_scenario_reproduces_bytes():
    config, dataset = _small_scenario(repeats=2)
    first = report_json_bytes(run_scenario(config, dataset))
    second = report_json_bytes(run_scenario(config, dataset))
    assert first == second


def test_uq_scenario_emits_uq_files(tmp_path):
    dataset = generate_dataset("regression3", 24, seed=2)
    config = ScenarioConfig(
        "C3_2", zero_noise_profile(3), repeats=2, seed=1, uq=UqSpec("bootstrap", 20), jobs=1
    )
    report = run_scenario(config, dataset)
    assert report["uq"] is not None
    assert report["uq"]["samples"] == 20
    files = {f.name for f in emit_report(report, tmp_path / "uq")}
    assert "uq_intervals_configured.csv" in files
    assert "uq_intervals_ideal.svg" in files


@pytest.mark.parametrize("kind", ["regression3", "classification4"])
def test_every_emitted_csv_cell_is_a_number_or_empty(tmp_path, kind):
    dataset = generate_dataset(kind, 24, seed=2)
    config = ScenarioConfig(
        "C3_2", zero_noise_profile(dataset.n_features), repeats=3, seed=1,
        uq=UqSpec("bootstrap", 4), jobs=1,
    )
    tables = [f for f in emit_report(run_scenario(config, dataset), tmp_path) if f.suffix == ".csv"]
    assert len([f for f in tables if f.name.startswith("uq_")]) == 2
    for table in tables:
        header, *rows = csv.reader(table.read_text().splitlines())
        for row in rows:
            assert len(row) == len(header)
            for cell in filter(None, row):
                float(cell)  # a ValueError names the cell that is not a number


def test_run_uq_requires_uq_spec():
    config, dataset = _small_scenario()
    with pytest.raises(ValidationError):
        run_uq(config, dataset)


def test_scenario_is_schedule_independent():
    dataset = generate_dataset("regression3", 24, seed=2)
    profile = zero_noise_profile(3)
    serial = ScenarioConfig("C1_1", profile, repeats=4, seed=9, jobs=1)
    threaded = ScenarioConfig("C1_1", profile, repeats=4, seed=9, jobs=4)
    assert report_json_bytes(run_scenario(serial, dataset)) == report_json_bytes(
        run_scenario(threaded, dataset)
    )


# ---------------------------------------------------------------------------
# one walk per distinct (front, backend): a repeat, a UQ variant, an
# ensemble member and a train command line evolve their rows together


def _counted_walks(monkeypatch) -> list:
    walks, walk = [], sim._walk

    def counted(*args):
        walks.append(args[3] is not None)  # a noisy walk
        return walk(*args)

    monkeypatch.setattr(sim, "_walk", counted)
    return walks


@pytest.mark.parametrize(
    "scenario, mitigator, shots, per_repeat",
    [
        ("C1_1", None, 0, 2),  # ideal train rows with the baseline's test rows; noisy test rows
        ("C1_1", None, 64, 3),  # the sampled front's ideal train rows apart from the exact baseline
        ("C1_2", None, 0, 2),  # noisy train and test rows; the baseline's
        ("C2_2", "zne", 0, 2),  # every fold of train and test rows; the baseline's
    ],
)
def test_a_repeat_walks_once_per_front_and_backend(monkeypatch, scenario, mitigator, shots, per_repeat):
    dataset = generate_dataset("regression3", 24, seed=2)
    config = ScenarioConfig(
        scenario, noise.bundled_profile("device-a"), repeats=2, seed=1, mitigator=mitigator, jobs=1
    )
    walks = _counted_walks(monkeypatch)
    report = run_scenario(config, dataset, harness.default_model_spec(dataset, shots))
    assert all(r["error"] is None for r in report["runs"])
    assert len(walks) == 2 * per_repeat


@pytest.mark.parametrize("method, walks", [("bootstrap", 2), ("ensemble", 2 * 3)])
def test_a_uq_variant_walks_once_per_member_and_backend(monkeypatch, method, walks):
    """C3_2's configured (noisy) and ideal variants: one walk each for
    bootstrap, one per member for an ensemble of 3, where train and test
    rows took one walk each."""
    dataset = generate_dataset("regression3", 24, seed=2)
    config = ScenarioConfig(
        "C3_2", noise.bundled_profile("device-a"), repeats=1, seed=1, uq=UqSpec(method, 3), jobs=1
    )
    counted = _counted_walks(monkeypatch)
    run_uq(config, dataset)
    assert len(counted) == walks and counted.count(True) == walks // 2


@pytest.mark.parametrize("method", ["bootstrap", "ensemble"])
def test_run_uq_calls_the_distribution_function_this_module_names_at_call_time(monkeypatch, method):
    """A wrapper set on harness.bootstrap_distribution (or
    ensemble_distribution) after import takes both variants' calls, with
    the sample count as B or M."""
    calls = []

    def wrapped(name):
        function = getattr(harness, name)

        def counted(*args, **kwargs):
            calls.append((name, args[8]))
            return function(*args, **kwargs)

        return counted

    for name in ("bootstrap_distribution", "ensemble_distribution"):
        monkeypatch.setattr(harness, name, wrapped(name))
    dataset = generate_dataset("regression3", 24, seed=2)
    config = ScenarioConfig(
        "C3_2", noise.bundled_profile("device-a"), repeats=1, seed=1, uq=UqSpec(method, 3), jobs=1
    )
    run_uq(config, dataset)
    assert calls == [(f"{method}_distribution", 3)] * 2


def test_train_walks_its_train_and_test_rows_once(monkeypatch, tmp_path):
    from qelm_lab.cli import main

    walks = _counted_walks(monkeypatch)
    argv = ["train", "--dataset", "regression3", "--dataset-size", "24", "--seed", "3"]
    assert main(argv + ["--backend", "noisy", "--profile", "device-a", "--out", str(tmp_path)]) == 0
    assert walks == [True]
