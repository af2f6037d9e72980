"""Contraction plans of fused noisy walks (7 and 8 qubits) against the walk
they replaced: every row of every circuit evolved alone as a whole PTM
tensor, step by step through _apply_slabs, and measured by _measure_pauli
(or rebuilt into a density matrix). Plans split pattern-diagonal blocks
and drop X/Y entries after a qubit's last step, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qelm_lab import circuit as circ
from qelm_lab import simulator as sim
from qelm_lab.noise import bundled_profile, zero_noise_profile

from test_simulator import ising_row


def _profile(name):
    return zero_noise_profile(8) if name == "zero" else bundled_profile(name)


def _full_tensor_states(circuits, profile, angles):
    """The final PTM tensor of every (row, circuit), row by row, each
    evolved alone through its fusion plan's steps as one whole tensor."""
    n = circuits[0].n_qubits
    angles = np.zeros((1, 0)) if angles is None else np.asarray(angles, dtype=float)
    memo = {}
    for gate in (g for c in circuits for g in c.gates if isinstance(g, circ.Gate)):
        memo[id(gate)] = sim._noisy_gate_ptms(profile, gate.targets, sim.gate_matrix(gate)[None])[0]
    initial = np.zeros((4,) * n)
    initial[np.ix_(*[(0, 3)] * n)] = 1.0
    states = []
    for row in range(len(angles)):
        for c in circuits:
            slabs = initial[None]
            for step in sim._program(c.gates, True):
                op = sim._step_ops(profile, step, angles, np.array([row]), memo)
                slabs = sim._apply_slabs(slabs, op, step.targets)
            states.append(slabs)
    return states


def _full_tensor_probabilities(circuits, profile, angles=None):
    return np.array([sim._measure_pauli(s, profile)[0] for s in _full_tensor_states(circuits, profile, angles)])


def _same_bits(got, want) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def programs(draw):
    """A 7- or 8-qubit program: runs of ZZ and RZ gates (blocks that split
    by pattern), RX and CX gates (blocks that do not), and RY slots that
    take their angles from the rows."""
    n = draw(st.sampled_from([7, 8]))
    qubit = st.integers(0, n - 1)
    angle = st.floats(-3.0, 3.0, allow_nan=False)
    gates = [circ.Slot(q) for q in range(n)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(4, 14))):
        kind = draw(st.sampled_from(["diagonal", "diagonal", "RX", "CX", "slot"]))
        if kind == "diagonal":
            for _ in range(draw(st.integers(1, 4))):
                a, b = draw(qubit), draw(qubit)
                gates.append(circ.zz(a, b, draw(angle)) if a != b else circ.rz(a, draw(angle)))
        elif kind == "RX":
            gates.append(circ.rx(draw(qubit), draw(angle)))
        elif kind == "CX":
            a, b = draw(qubit), draw(qubit)
            gates.append(circ.cx(a, b) if a != b else circ.rx(a, draw(angle)))
        else:
            gates.append(circ.Slot(draw(qubit), draw(st.sampled_from([1.0, -1.0]))))
    return circ.Circuit(n, tuple(gates))


def _bound(program, row):
    """The program with its slots bound to one row of angles."""
    gates = [circ.ry(g.qubit, g.sign * float(row[g.qubit])) if isinstance(g, circ.Slot) else g for g in program.gates]
    return circ.Circuit(program.n_qubits, tuple(gates))


@settings(max_examples=25, deadline=None)
@given(
    program=programs(),
    name=st.sampled_from(["device-a", "device-b", "device-c", "zero"]),
    scales=st.sampled_from([(1.0,), (1.0, 3.0), (1.0, 1.5, 3.0)]),
    rows=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_planned_walks_keep_the_bits_of_the_full_tensor_walk(program, name, scales, rows, seed):
    """noisy_probabilities rows (ZNE folds share prefixes, so a qubit a
    fold finishes early stays whole for the folds that still use it) and
    run_noisy_many states, bit for bit."""
    profile = _profile(name)
    folds = circ.fold_to_scales(program, scales)
    angles = np.random.default_rng(seed).uniform(0.0, np.pi, size=(rows, program.n_qubits))
    got = sim.noisy_probabilities(folds, profile, angles)
    assert _same_bits(got, _full_tensor_probabilities(folds, profile, angles))
    circuits = [_bound(fold, angles[0]) for fold in folds]
    for state, want in zip(sim.run_noisy_many(circuits, profile), _full_tensor_states(circuits, profile, None)):
        assert np.array_equal(state.entries, sim._pauli_to_density(want[0]).entries)


@pytest.mark.parametrize("name", ["device-a", "device-b", "device-c", "zero"])
def test_an_ising_row_splits_21_of_43_blocks_and_takes_44_percent_of_the_multiply_adds(monkeypatch, name):
    """The 21 ZZ-only blocks of an 8-qubit Ising row split into one product
    per pattern, and the qubits' last blocks keep only I and Z rows: 74.6
    million multiply-adds against the 170.9 million of one whole product
    per block."""
    planned, seen = sim._contract, []

    def counted(slabs, ops, plan):
        columns = math.prod(plan.shape)
        if plan.split:
            patterns, width = plan.select.shape
            seen.append((True, patterns * width * width * columns))
        else:
            seen.append((False, ops.shape[-2] * ops.shape[-1] * columns))
        return planned(slabs, ops, plan)

    monkeypatch.setattr(sim, "_contract", counted)
    row = ising_row(8)
    profile = _profile(name)
    got = sim.noisy_probabilities([row], profile)
    assert (len(seen), sum(split for split, _ in seen)) == (43, 21)
    assert sum(macs for _, macs in seen) == 74_551_296
    whole = sum(4 ** (2 * len(step.targets)) * 4 ** (8 - len(step.targets)) for step in sim._program(row.gates, True))
    assert whole == 170_917_888
    assert _same_bits(got, _full_tensor_probabilities([row], profile))


def test_only_exactly_pattern_diagonal_operators_split():
    rng = np.random.default_rng(2)
    zz = sim._noisy_gate_ptms(bundled_profile("device-a"), (0, 1), sim.gate_matrix(circ.zz(0, 1, 0.7))[None])[0]
    assert sim._pattern_diagonal(zz)
    assert not sim._pattern_diagonal(sim.unitary_ptm(circ.rx(0, 0.7)))
    assert not sim._pattern_diagonal(sim.unitary_ptm(circ.cx(0, 1)))
    leaky = zz.copy()
    leaky[0, 1] = 5e-324  # X on the second qubit into I: one subnormal is enough
    assert not sim._pattern_diagonal(leaky)
    assert not sim._pattern_diagonal(rng.normal(size=(64, 64)))
