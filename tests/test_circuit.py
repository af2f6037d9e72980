import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qelm_lab import circuit as circ
from qelm_lab.errors import ArityMismatch, InvalidTarget, ParseError, ScaleOutOfRange, ValidationError
from qelm_lab.simulator import measure_distribution, run_ideal

from conftest import circuits, random_gate_list


def test_append_builds_entangling_pair():
    empty = circ.Circuit(2)
    one = circ.Circuit(2, empty.gates + (circ.h(0),))
    assert len(one.gates) == 1
    pair = circ.Circuit(2, one.gates + (circ.cx(0, 1),))
    assert len(pair.gates) == 2
    assert len(empty.gates) == 0  # inputs are untouched


def test_append_rejects_out_of_range_target():
    with pytest.raises(InvalidTarget):
        circ.Circuit(2, circ.Circuit(2).gates + (circ.cx(0, 5),))


def test_gate_arity_is_checked():
    with pytest.raises(ArityMismatch):
        circ.Gate("H", (0,), (0.5,))
    with pytest.raises(ArityMismatch):
        circ.Gate("RX", (0,))
    with pytest.raises(InvalidTarget):
        circ.Gate("CX", (1, 1))


def test_inverse_of_self_adjoint_gate():
    assert circ.inverse(circ.Circuit(1, (circ.h(0),))).gates == (circ.h(0),)


def test_inverse_reverses_and_negates():
    c = circ.Circuit(2, (circ.rx(0, 0.3), circ.cx(0, 1)))
    inv = circ.inverse(c)
    assert inv.gates == (circ.cx(0, 1), circ.rx(0, -0.3))


def test_circuit_then_inverse_is_identity_on_zero_state():
    c = circ.Circuit(2, (circ.h(0), circ.cx(0, 1), circ.rz(1, 0.7), circ.zz(0, 1, 1.1)))
    state = run_ideal(circ.compose(c, circ.inverse(c)))
    expected = np.zeros(4, dtype=complex)
    expected[0] = 1.0
    assert np.abs(state.amplitudes - expected).max() < 1e-10


def test_double_inverse_is_structural_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = circ.Circuit(3, tuple(random_gate_list(rng, 3, 8)))
        assert circ.inverse(circ.inverse(c)) == c


def test_global_fold_counts(bell):
    assert circ.fold_to_scale(bell, 1) == bell
    assert len(circ.fold_to_scale(bell, 3).gates) == 6
    assert len(circ.fold_to_scale(bell, 5).gates) == 10


def test_folded_bell_keeps_its_distribution(bell):
    dist = measure_distribution(run_ideal(circ.fold_to_scale(bell, 5)))
    assert abs(dist.probabilities["00"] - 0.5) < 1e-10
    assert abs(dist.probabilities["11"] - 0.5) < 1e-10
    assert set(dist.probabilities) == {"00", "11"}


def test_fold_to_scale_counts():
    four = circ.Circuit(2, (circ.h(0), circ.rx(1, 0.3), circ.cx(0, 1), circ.ry(0, 1.0)))
    assert circ.fold_to_scale(four, 1.0) == four
    assert len(circ.fold_to_scale(four, 3.0).gates) == 12
    assert len(circ.fold_to_scale(four, 2.0).gates) == 8
    assert len(circ.fold_to_scale(four, 5.0).gates) == 20


def test_fold_to_scale_rejects_small_scale(bell):
    with pytest.raises(ScaleOutOfRange):
        circ.fold_to_scale(bell, 0.5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), scale_idx=st.integers(0, 3))
def test_fold_preserves_ideal_distribution(seed, scale_idx):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    gates = random_gate_list(rng, n, int(rng.integers(1, 13)))
    c = circ.Circuit(n, tuple(gates))
    scale = (1.0, 2.0, 3.0, 5.0)[scale_idx]
    folded = circ.fold_to_scale(c, scale)
    p0 = measure_distribution(run_ideal(c)).vector
    p1 = measure_distribution(run_ideal(folded)).vector
    assert np.abs(p0 - p1).max() < 1e-9
    ratio = len(folded.gates) / len(c.gates)
    assert abs(ratio - scale) <= 1.0 / len(c.gates) + 1e-12


@settings(max_examples=50, deadline=None)
@given(circuit=circuits(max_gates=20))
def test_fold_to_scale_one_returns_the_circuit(circuit):
    assert circ.fold_to_scale(circuit, 1.0) == circuit


def _fold_each_scale_afresh(circuit: circ.Circuit, scale: float) -> circ.Circuit:
    """fold_to_scale as first written, the oracle of fold_to_scales: a
    global fold, then g g' g on the trailing gates, with the adjoint gates
    built anew for every scale."""
    if not circuit.gates:
        return circuit

    def global_fold(k):  # the circuit, then k repetitions of (its inverse, it)
        return circuit.gates + k * (circ.inverse(circuit).gates + circuit.gates)

    nearest = round(scale)
    if abs(scale - nearest) < 1e-9 and nearest % 2 == 1:
        return circ.Circuit(circuit.n_qubits, global_fold((nearest - 1) // 2))
    s_odd = int(scale)
    if s_odd % 2 == 0:
        s_odd -= 1
    m = min(round((scale - s_odd) * len(circuit.gates) / 2.0), len(circuit.gates))
    folded = global_fold((s_odd - 1) // 2)
    tail = tuple(g for gate in folded[len(folded) - m :] for g in (gate, gate.adjoint(), gate))
    return circ.Circuit(circuit.n_qubits, folded[: len(folded) - m] + tail)


@settings(max_examples=60, deadline=None)
@given(circuit=circuits(max_gates=20))
def test_fold_to_scales_builds_the_folds_of_each_scale_alone(circuit):
    scales = (1, 1.5, 2, 3, 5)
    folds = circ.fold_to_scales(circuit, scales)
    assert [f.gates for f in folds] == [_fold_each_scale_afresh(circuit, s).gates for s in scales]
    assert folds == [circ.fold_to_scale(circuit, s) for s in scales]


def test_fold_to_scales_rejects_any_small_scale(bell):
    with pytest.raises(ScaleOutOfRange):
        circ.fold_to_scales(bell, (1.0, 3.0, 0.5))
    with pytest.raises(ScaleOutOfRange):
        circ.fold_to_scales(circ.Circuit(2), (0.5,))


def test_gate_counts_and_depth(bell):
    ones, twos = circ.gate_counts(bell)
    assert (ones, twos) == (1, 1)
    assert circ.depth(bell) == 2
    parallel = circ.Circuit(2, (circ.h(0), circ.h(1)))
    assert circ.depth(parallel) == 1


def test_text_round_trip():
    c = circ.Circuit(3, (circ.h(0), circ.cx(0, 2), circ.rx(1, 0.25), circ.zz(0, 1, -1.5)))
    assert circ.from_text(circ.to_text(c)) == c


def test_text_parse_errors():
    with pytest.raises(ParseError):
        circ.from_text("H 0\n")  # missing header
    with pytest.raises(ParseError):
        circ.from_text("qubits 2\nFOO 0\n")
    with pytest.raises(ParseError):
        circ.from_text("qubits 2\nCX 0 5\n")
    with pytest.raises(ParseError):
        circ.from_text("qubits 2\nRX 0\n")


@pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan])
def test_a_gate_rejects_a_non_finite_parameter(angle):
    with pytest.raises(ValidationError, match="ZZ parameter must be finite"):
        circ.Gate("ZZ", (0, 1), (angle,))
    with pytest.raises(ParseError, match="^line 3: RY parameter must be finite"):
        circ.from_text(f"qubits 1\n# an angle\nRY 0 {angle}\n")
