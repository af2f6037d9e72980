"""Acceptance suite.

Each test enforces one headline behavior of the package at a fixed
tolerance and prints a single PASS/FAIL line (run with ``pytest -s`` to see
the lines as they complete). Fixtures are fully seeded, so every check is
reproducible bit for bit.
"""

import time

import numpy as np
import pytest

from qelm_lab import circuit as circ
from qelm_lab import mitigation as mit
from qelm_lab import noise, qelm, uq
from qelm_lab.harness import (
    ModelSpec,
    ScenarioConfig,
    UqSpec,
    a12,
    default_model_spec,
    emit_report,
    generate_dataset,
    mann_whitney_u,
    run_scenario,
    run_uq,
)
from qelm_lab.rng import Rng
from qelm_lab.simulator import (
    apply_channel_density,
    apply_gate_density,
    density_from_state,
    maximally_mixed,
    measure_distribution,
    run_ideal,
    run_noisy,
    trace_distance,
)

from test_uq import crps_by_integration


def _report(number: int, description: str, budget_s: float):
    start = time.time()

    class Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.time() - start
            status = "PASS" if exc_type is None else "FAIL"
            print(f"[criterion {number:2d}] {status} ({elapsed:6.2f}s)  {description}")
            if exc_type is None:
                assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"
            return False

    return Ctx()


def test_criterion_01_entangled_pair_ideal_and_noisy():
    with _report(1, "entangled pair: ideal 50/50, bundled noise leaks into 01/10", 1.0):
        bell = circ.Circuit(2, (circ.h(0), circ.cx(0, 1)))
        ideal = measure_distribution(run_ideal(bell))
        assert abs(ideal.vector[0] - 0.5) < 1e-10
        assert abs(ideal.vector[3] - 0.5) < 1e-10
        assert abs(ideal.vector[1]) < 1e-10 and abs(ideal.vector[2]) < 1e-10
        for name in noise.BUNDLED_PROFILES:
            profile = noise.bundled_profile(name)
            noisy = measure_distribution(run_noisy(bell, profile), profile)
            assert noisy.vector[1] + noisy.vector[2] > 0.0


def test_criterion_02_worked_scoring_examples():
    with _report(2, "interval score 44, brier 0.04, log-loss 0.223 / 4.605", 1.0):
        assert uq.interval_scores(13.0, 8.0, 12.0, 0.05) == 44.0
        assert uq.brier([0.8], [1]) == pytest.approx(0.04, abs=1e-12)
        assert 0.222 <= uq.log_loss([0.8], [1]) <= 0.224
        assert 4.60 <= uq.log_loss([0.01], [1]) <= 4.61


def test_criterion_03_crps_pair_formula_vs_integration():
    with _report(3, "crps pair formula matches CDF integration on 200 sample sets", 10.0):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            samples = rng.normal(scale=rng.uniform(0.2, 4.0), size=n)
            y = float(rng.normal(scale=2.0))
            crps = uq.crps_rows(samples[None], np.array([y]))[0]
            assert abs(crps - crps_by_integration(samples, y)) < 1e-6


def test_criterion_04_folding_soundness():
    with _report(4, "folding preserves ideal output; gate ratio tracks the scale", 30.0):
        for index in range(100):
            seed = 10_000 + index
            n_qubits = 1 + index % 4
            n_gates = 1 + int(Rng(seed).uniform() * 12)
            c = mit.random_circuit(n_qubits, n_gates, seed)
            reference = measure_distribution(run_ideal(c)).vector
            for scale in (1.0, 2.0, 3.0, 5.0):
                folded = circ.fold_to_scale(c, scale)
                probs = measure_distribution(run_ideal(folded)).vector
                assert np.abs(probs - reference).max() < 1e-9
                ratio = len(folded.gates) / len(c.gates)
                assert abs(ratio - scale) <= 1.0 / len(c.gates) + 1e-12


def test_criterion_05_zne_recovers_analytic_decay():
    with _report(5, "degree-3 extrapolation halves the depolarizing error", 30.0):
        front = qelm.QelmFront(
            qelm.EncoderSpec(((0.0, 1.0),), entangle=False),
            qelm.ReservoirSpec("rotation", n_qubits=1, seed=3, layers=3),
            qelm.FeatureMapSpec("probabilities", 0),
        )
        x = np.array([0.37])
        ideal = qelm.extract_features(front, x, qelm.IdealBackend(), 0)
        identity = ((1.0, 0.0), (0.0, 1.0))
        for p in (0.01, 0.02, 0.05):
            profile = noise.NoiseProfile(
                name=f"depol-{p}",
                depol_1q=p,
                depol_2q=0.0,
                t1_us=(100.0,),
                t2_us=(100.0,),
                gate_time_1q_us=0.0,
                gate_time_2q_us=0.0,
                readout_confusion=(identity,),
            )
            raw = qelm.extract_features(front, x, qelm.NoisyBackend(profile), 0)
            mitigated = mit.ZneMitigator().circuit_features(
                qelm.front_circuit(front, x), front.feature_map, profile, 0
            )
            raw_err = np.abs(raw - ideal).max()
            mit_err = np.abs(mitigated - ideal).max()
            assert mit_err <= 0.5 * raw_err


def test_criterion_06_global_depolarizing_contraction():
    with _report(6, "trace distance to maximally mixed contracts by (1-p)^G", 10.0):
        p = 0.03
        for n_qubits in (1, 2, 3):
            channel = noise.depolarizing_channel(p, n_qubits)
            qubits = tuple(range(n_qubits))
            mixed = maximally_mixed(n_qubits)
            for g_total, seed in ((7, 5), (20, 6)):
                gates = mit.random_circuit(n_qubits, g_total, seed).gates
                state = density_from_state(run_ideal(circ.Circuit(n_qubits)))
                initial = trace_distance(state, mixed)
                for gate in gates:
                    state = apply_gate_density(state, gate)
                    state = apply_channel_density(state, channel, qubits)
                expected = (1.0 - p) ** g_total * initial
                assert abs(trace_distance(state, mixed) - expected) < 1e-9


def test_criterion_07_rank_statistics_oracles():
    with _report(7, "exact Mann-Whitney U=0 p=0.1; effect-size identities", 5.0):
        u, p = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert u == 0.0
        assert p == pytest.approx(0.1, abs=1e-12)
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.normal(size=int(rng.integers(1, 12)))
            b = rng.normal(size=int(rng.integers(1, 12)))
            assert a12(a.tolist(), a.tolist()) == pytest.approx(0.5)
            assert a12(a, b) + a12(b, a) == pytest.approx(1.0)


def test_criterion_08_noise_degrades_wide_classifier():
    with _report(
        8, "8-feature classification: noisy tests lose accuracy (p<0.05, A12>=0.8)", 600.0
    ):
        dataset = generate_dataset("classification8", 60, seed=7)
        profile = noise.bundled_profile("device-a")
        config = ScenarioConfig("C1_1", profile, repeats=10, seed=42)
        report = run_scenario(config, dataset, default_model_spec(dataset))
        pct = [r["pct_change"] for r in report["runs"] if r["error"] is None]
        assert len(pct) == 10
        assert np.median(pct) > 0.0
        observed = [r["metric"] for r in report["runs"]]
        ideal = [r["ideal_metric"] for r in report["runs"]]
        _, p_value = mann_whitney_u(observed, ideal)
        assert p_value < 0.05
        assert a12(ideal, observed) >= 0.8


def test_criterion_09_noise_inflates_uncertainty():
    with _report(
        9, "noisy train/test widens bootstrap intervals and worsens calibration", 900.0
    ):
        profile = noise.bundled_profile("device-a")
        regression = generate_dataset("regression3", 120, seed=7)
        reg_spec = ModelSpec(readout="linear", evolution_time=0.25, shots=512)
        reg_cfg = ScenarioConfig(
            "C3_2", profile, repeats=1, seed=7, uq=UqSpec("bootstrap", 100)
        )
        reg = run_uq(reg_cfg, regression, reg_spec)
        assert (
            reg["configured"]["mean_interval_width"] > reg["ideal"]["mean_interval_width"]
        )

        classification = generate_dataset("classification4", 120, seed=7)
        cls_spec = ModelSpec(readout="tree", evolution_time=0.5, shots=512)
        cls_cfg = ScenarioConfig(
            "C3_2", profile, repeats=1, seed=7, uq=UqSpec("bootstrap", 100)
        )
        cls = run_uq(cls_cfg, classification, cls_spec)
        assert cls["configured"]["brier"] > cls["ideal"]["brier"]
        assert cls["configured"]["log_loss"] > cls["ideal"]["log_loss"]


def test_criterion_10_reports_replay_byte_identically(tmp_path):
    with _report(10, "recorded seeds reproduce results.json byte for byte", 60.0):
        dataset = generate_dataset("regression3", 24, seed=2)
        config = ScenarioConfig(
            "C1_1", noise.bundled_profile("device-a"), repeats=2, seed=13, jobs=2
        )
        first = run_scenario(config, dataset)
        second = run_scenario(config, dataset)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        emit_report(first, dir_a)
        emit_report(second, dir_b)
        for name in ("results.json", "metrics.csv", "pct_change_box.svg"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
