import json
import math
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qelm_lab import circuit as circ
from qelm_lab import noise
from qelm_lab import simulator as sim
from qelm_lab.errors import ParseError, ValidationError

from conftest import make_depol_profile


def test_bundled_profiles_load_and_validate():
    for name in noise.BUNDLED_PROFILES:
        profile = noise.bundled_profile(name)
        assert profile.name == name
        assert profile.n_qubits >= 12


def test_device_a_headline_strengths():
    profile = noise.bundled_profile("device-a")
    assert profile.depol_1q == pytest.approx(0.001)
    assert profile.depol_2q == pytest.approx(0.01)


def test_t2_bound_is_enforced():
    with pytest.raises(ValidationError):
        make_depol_profile(0.0).__class__(
            name="bad",
            depol_1q=0.0,
            depol_2q=0.0,
            t1_us=(100.0,),
            t2_us=(300.0,),  # > 2 * t1
            gate_time_1q_us=0.0,
            gate_time_2q_us=0.0,
            readout_confusion=(((1.0, 0.0), (0.0, 1.0)),),
        )


def test_confusion_rows_must_be_stochastic():
    with pytest.raises(ValidationError):
        noise.NoiseProfile(
            name="bad",
            depol_1q=0.0,
            depol_2q=0.0,
            t1_us=(100.0,),
            t2_us=(100.0,),
            gate_time_1q_us=0.0,
            gate_time_2q_us=0.0,
            readout_confusion=(((0.9, 0.2), (0.1, 0.9)),),
        )


def test_load_profile_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ParseError):
        noise.load_profile(bad_json)
    missing_key = tmp_path / "missing.json"
    missing_key.write_text(json.dumps({"name": "x"}))
    with pytest.raises(ValidationError):
        noise.load_profile(missing_key)


@pytest.mark.parametrize("key, index", [("depol_1q", None), ("t1_us", 1)])
def test_load_profile_non_numeric_value_names_file_and_key(tmp_path, key, index):
    raw = json.loads(resources.files("qelm_lab").joinpath("profiles/device-a.json").read_text())
    if index is None:
        raw[key] = "high"
        named = key
    else:
        raw[key][index] = "high"
        named = f"{key}[{index}]"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match=re.escape(f"bad.json: {named}: expected a number")):
        noise.load_profile(path)


def test_load_profile_round_trip(tmp_path):
    payload = {
        "name": "file-device",
        "depol_1q": 0.002,
        "depol_2q": 0.015,
        "t1_us": 150.0,  # scalar broadcasts over the readout length
        "t2_us": [90.0, 95.0],
        "gate_time_1q_us": 0.03,
        "gate_time_2q_us": 0.25,
        "readout": [[[0.99, 0.01], [0.02, 0.98]], [[0.98, 0.02], [0.03, 0.97]]],
    }
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(payload))
    profile = noise.load_profile(path)
    assert profile.n_qubits == 2
    assert profile.t1_us == (150.0, 150.0)
    assert profile.t2_us == (90.0, 95.0)


def test_zero_noise_channel_is_identity():
    profile = noise.zero_noise_profile(2)
    channel = noise.channel_for_gate(profile, circ.h(0))
    assert len(channel.operators) == 1
    assert np.allclose(channel.operators[0], np.eye(2))
    assert profile.is_noiseless


def test_depolarizing_kraus_decomposition():
    p = 0.12
    channel = noise.depolarizing_channel(p, 1)
    assert len(channel.operators) == 4
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(channel.operators[0], math.sqrt(1 - 3 * p / 4) * np.eye(2))
    assert np.allclose(channel.operators[1], math.sqrt(p / 4) * x)
    channel.validate()
    noise.depolarizing_channel(p, 2).validate()


def test_relaxation_closed_form():
    profile = noise.NoiseProfile(
        name="relax",
        depol_1q=0.0,
        depol_2q=0.0,
        t1_us=(50.0,),
        t2_us=(50.0,),
        gate_time_1q_us=50.0,  # one full T1
        gate_time_2q_us=0.0,
        readout_confusion=(((1.0, 0.0), (0.0, 1.0)),),
    )
    gamma, lam = noise.relaxation_params(profile, 0, 50.0)
    assert gamma == pytest.approx(1.0 - math.exp(-1.0))
    # t2 < 2 t1 here, so extra dephasing is active
    assert lam == pytest.approx(1.0 - math.exp(-1.0))
    # t2 = 2 t1 is the relaxation-limited case: no extra dephasing
    profile2 = noise.NoiseProfile(
        name="limit",
        depol_1q=0.0,
        depol_2q=0.0,
        t1_us=(50.0,),
        t2_us=(100.0,),
        gate_time_1q_us=1.0,
        gate_time_2q_us=0.0,
        readout_confusion=(((1.0, 0.0), (0.0, 1.0)),),
    )
    _, lam2 = noise.relaxation_params(profile2, 0, 50.0)
    assert lam2 == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    p1=st.floats(0.0, 0.3),
    p2=st.floats(0.0, 0.3),
    t1=st.floats(10.0, 300.0),
    t2_frac=st.floats(0.05, 2.0),
    dt=st.floats(0.0, 5.0),
)
def test_every_channel_satisfies_completeness(p1, p2, t1, t2_frac, dt):
    profile = noise.NoiseProfile(
        name="prop",
        depol_1q=p1,
        depol_2q=p2,
        t1_us=(t1, t1),
        t2_us=(t2_frac * t1, t2_frac * t1),
        gate_time_1q_us=dt,
        gate_time_2q_us=dt,
        readout_confusion=(((1.0, 0.0), (0.0, 1.0)),) * 2,
    )
    for gate in (circ.h(0), circ.cx(0, 1), circ.zz(0, 1, 0.4)):
        noise.channel_for_gate(profile, gate).validate(1e-10)


def test_channel_application_preserves_density_invariants(bell):
    profile = noise.bundled_profile("device-c")
    state = sim.run_noisy(bell, profile)  # constructor validates trace/hermiticity/psd
    channel = noise.channel_for_gate(profile, circ.cx(0, 1))
    sim.apply_channel_density(state, channel, (0, 1)).validate()


def test_composed_channel_equals_sequential_parts(bell):
    profile = noise.bundled_profile("device-a")
    gate = circ.zz(0, 1, 0.9)
    state = sim.run_noisy(bell, profile)
    composed = sim.apply_channel_density(state, noise.channel_for_gate(profile, gate), (0, 1))
    sequential = state
    for channel, qubits in noise.gate_channel_parts(profile, gate):
        sequential = sim.apply_channel_density(sequential, channel, qubits)
    assert np.abs(composed.entries - sequential.entries).max() < 1e-12


def test_depolarizing_strength_is_monotone_in_tv_distance(bell):
    ideal = sim.measure_distribution(sim.run_ideal(bell)).vector
    distances = []
    for p in (0.0, 0.05, 0.1, 0.2, 0.4):
        profile = make_depol_profile(p, 0.0, 2)
        noisy = sim.measure_distribution(sim.run_noisy(bell, profile), profile).vector
        distances.append(0.5 * np.abs(noisy - ideal).sum())
    assert all(b >= a - 1e-12 for a, b in zip(distances, distances[1:]))


def test_resolve_profile_accepts_names_and_paths(tmp_path):
    assert noise.resolve_profile("device-b").name == "device-b"
    assert noise.resolve_profile("zero-noise").is_noiseless
    path = tmp_path / "p.json"
    path.write_text(
        json.dumps(
            {
                "name": "local",
                "depol_1q": 0.0,
                "depol_2q": 0.0,
                "t1_us": 100.0,
                "t2_us": 100.0,
                "gate_time_1q_us": 0.0,
                "gate_time_2q_us": 0.0,
                "readout": [[[1.0, 0.0], [0.0, 1.0]]],
            }
        )
    )
    assert noise.resolve_profile(path).name == "local"
