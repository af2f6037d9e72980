import re
import tracemalloc
from contextlib import nullcontext
from functools import reduce
from itertools import combinations, permutations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qelm_lab import circuit as circ
from qelm_lab import mitigation, noise, qelm
from qelm_lab import simulator as sim
from qelm_lab.errors import CapExceeded, IncompatibleProfile, InvalidTarget, ValidationError
from qelm_lab.mitigation import ZneConfig, random_circuit
from qelm_lab.noise import KrausChannel, depolarizing_channel, zero_noise_profile

from conftest import circuits, make_depol_profile, random_gate_list


def test_empty_circuit_stays_in_ground_state():
    state = sim.run_ideal(circ.Circuit(1))
    assert np.allclose(state.amplitudes, [1.0, 0.0])


def test_hadamard_gives_equal_superposition():
    state = sim.run_ideal(circ.Circuit(1, (circ.h(0),)))
    assert np.abs(state.amplitudes - np.array([1, 1]) / np.sqrt(2)).max() < 1e-12


def test_bell_distribution(bell):
    dist = sim.measure_distribution(sim.run_ideal(bell))
    assert dist.probabilities == pytest.approx({"00": 0.5, "11": 0.5})


def test_qubit_caps():
    with pytest.raises(CapExceeded):
        sim.run_ideal(circ.Circuit(21))
    with pytest.raises(CapExceeded):
        sim.run_noisy(circ.Circuit(13), zero_noise_profile(13))


def test_profile_must_cover_circuit(bell):
    small = zero_noise_profile(1)
    with pytest.raises(IncompatibleProfile):
        sim.run_noisy(bell, small)
    with pytest.raises(IncompatibleProfile):
        sim.measure_distribution(sim.run_ideal(bell), small)


def test_zero_noise_profile_matches_ideal():
    rng = np.random.default_rng(17)
    profile = zero_noise_profile(4)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        c = circ.Circuit(n, tuple(random_gate_list(rng, n, int(rng.integers(1, 10)))))
        p_ideal = sim.measure_distribution(sim.run_ideal(c)).vector
        p_noisy = sim.measure_distribution(sim.run_noisy(c, profile), profile).vector
        assert np.abs(p_ideal - p_noisy).max() < 1e-10


def test_depolarizing_bell_leaks_into_odd_states(bell):
    profile = make_depol_profile(0.05, 0.05, n_qubits=2)
    dist = sim.measure_distribution(sim.run_noisy(bell, profile), profile)
    assert dist.probabilities.get("01", 0.0) > 0.0
    assert dist.probabilities.get("10", 0.0) > 0.0


def test_depolarizing_contraction_single_qubit():
    p = 0.05
    profile = make_depol_profile(p, n_qubits=1)
    mixed = sim.maximally_mixed(1)
    for g in (3, 7):
        c = circ.Circuit(1, tuple(circ.h(0) for _ in range(g)))
        observed = sim.trace_distance(sim.run_noisy(c, profile), mixed)
        assert abs(observed - 0.5 * (1 - p) ** g) < 1e-9


def test_unitary_preserves_distance_to_maximally_mixed():
    rng = np.random.default_rng(3)
    state = sim.run_noisy(
        circ.Circuit(2, (circ.h(0), circ.cx(0, 1))), make_depol_profile(0.1, 0.1, 2)
    )
    mixed = sim.maximally_mixed(2)
    before = sim.trace_distance(state, mixed)
    for gate in random_gate_list(rng, 2, 6):
        state = sim.apply_gate_density(state, gate)
        assert abs(sim.trace_distance(state, mixed) - before) < 1e-10


def test_global_depolarizing_channel_contracts_distance():
    p = 0.07
    channel = depolarizing_channel(p, 2)
    state = sim.density_from_state(sim.run_ideal(circ.Circuit(2, (circ.h(0), circ.cx(0, 1)))))
    mixed = sim.maximally_mixed(2)
    before = sim.trace_distance(state, mixed)
    after = sim.trace_distance(sim.apply_channel_density(state, channel, (0, 1)), mixed)
    assert abs(after - (1 - p) * before) < 1e-9


def test_readout_confusion_matches_tensor_oracle(bell):
    flip = ((0.9, 0.1), (0.1, 0.9))
    profile = make_depol_profile(0.0, 0.0, 2)
    profile = profile.__class__(
        name="flip",
        depol_1q=0.0,
        depol_2q=0.0,
        t1_us=profile.t1_us[:2],
        t2_us=profile.t2_us[:2],
        gate_time_1q_us=0.0,
        gate_time_2q_us=0.0,
        readout_confusion=(flip, flip),
    )
    dist = sim.measure_distribution(sim.run_ideal(bell), profile)
    # oracle: p_out = p_in @ (M kron M)
    m = np.array(flip)
    expected = np.array([0.5, 0.0, 0.0, 0.5]) @ np.kron(m, m)
    assert np.abs(dist.vector - expected).max() < 1e-12
    assert dist.probabilities["00"] == pytest.approx(0.41)
    assert dist.probabilities["01"] == pytest.approx(0.09)


def test_distribution_sums_to_one_under_any_profile(bell):
    profile = make_depol_profile(0.2, 0.3, 2)
    dist = sim.measure_distribution(sim.run_noisy(bell, profile), profile)
    assert abs(dist.vector.sum() - 1.0) < 1e-9
    assert np.all(dist.vector >= 0.0)
    assert np.all(dist.vector <= 1.0)


def test_sample_point_mass():
    dist = sim.OutcomeDistribution(2, np.array([1.0, 0.0, 0.0, 0.0]))
    counts = sim.sample(dist, 100, seed=1)
    assert counts.counts == {"00": 100}


def test_sample_is_deterministic_and_concentrates():
    dist = sim.OutcomeDistribution(2, np.array([0.5, 0.0, 0.0, 0.5]))
    a = sim.sample(dist, 10_000, seed=7)
    b = sim.sample(dist, 10_000, seed=7)
    assert a.counts == b.counts
    sigma = np.sqrt(10_000 * 0.25)
    assert abs(a.counts["00"] - 5000) < 4 * sigma
    assert abs(a.counts["11"] - 5000) < 4 * sigma


def test_sample_requires_positive_shots():
    dist = sim.OutcomeDistribution(1, np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        sim.sample(dist, 0, seed=0)


def test_expectation_z_cases(bell):
    point = np.array([[1.0, 0.0]])
    assert sim.z_expectations(point, [(0,)])[0, 0] == pytest.approx(1.0)
    uniform = np.array([[0.5, 0.5]])
    assert sim.z_expectations(uniform, [(0,)])[0, 0] == pytest.approx(0.0)
    bell_probs = sim.measure_distribution(sim.run_ideal(bell)).vector[None]
    assert sim.z_expectations(bell_probs, [(0,), (0, 1)])[0].tolist() == pytest.approx([0.0, 1.0])
    with pytest.raises(InvalidTarget):
        sim.z_expectations(bell_probs, [(2,)])


def test_state_invariants_are_enforced():
    with pytest.raises(ValidationError):
        sim.StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        sim.DensityMatrix(1, np.array([[0.9, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        sim.OutcomeDistribution(1, np.array([0.7, 0.2]))


def _planted_density(d: int, min_eig: float, seed: int) -> np.ndarray:
    """A Hermitian unit-trace d x d matrix whose smallest eigenvalue is min_eig."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    rest = rng.random(d - 1) + 0.1
    eigs = np.concatenate([[min_eig], rest * (1.0 - min_eig) / rest.sum()])
    rho = (basis * eigs) @ basis.conj().T
    return (rho + rho.conj().T) / 2


def _signed_power(low: float, high: float):
    return st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(low, high)).map(
        lambda t: t[0] * 10.0 ** t[1]
    )


# Planted values near the bound keep 1e-13 from it: closer than rounding
# (about 1e-16 here) neither eigvalsh nor a factorization can tell the side.
PLANTED_MIN_EIG = st.one_of(
    _signed_power(-12.0, -6.0), _signed_power(-13.0, -11.0).map(lambda off: -1e-8 + off)
)


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([2, 4, 16, 256]), min_eig=PLANTED_MIN_EIG, seed=st.integers(0, 2**32 - 1))
def test_validate_rejects_exactly_an_eigenvalue_below_the_bound(d, min_eig, seed):
    rho = _planted_density(d, min_eig, seed)
    n_qubits = d.bit_length() - 1
    lowest = float(np.linalg.eigvalsh(rho).min())
    if lowest < -1e-8:
        with pytest.raises(ValidationError, match=re.escape(f"eigenvalue {lowest} below")):
            sim.DensityMatrix(n_qubits, rho)
    else:
        sim.DensityMatrix(n_qubits, rho)


def test_a_pure_eight_qubit_state_passes_without_a_spectrum(monkeypatch):
    rho = sim.density_from_state(sim.run_ideal(random_circuit(8, 60, 3))).entries
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 1

    def no_spectrum(*args, **kwargs):
        raise AssertionError("validate computed a spectrum")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
    sim.DensityMatrix(8, rho)


def test_shot_counts_round_trip():
    counts = sim.ShotCounts(8, {"00": 6, "11": 2}, 2)
    dist = counts.to_distribution()
    assert dist.vector.tolist() == [0.75, 0.0, 0.0, 0.25]


def test_apply_channel_validates_dimension():
    state = sim.maximally_mixed(2)
    with pytest.raises(ValidationError):
        sim.apply_channel_density(state, KrausChannel((np.eye(2, dtype=complex),)), (0, 1))


# ---------------------------------------------------------------------------
# the Pauli-transfer-matrix kernel against dense 2^n x 2^n evolution

PROPERTY_PROFILES = (
    noise.bundled_profile("device-a"),
    noise.bundled_profile("device-b"),
    noise.bundled_profile("device-c"),
    make_depol_profile(0.05, 0.1),
)


def _embed(op: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """The 2^n x 2^n matrix acting as ``op`` on ``targets`` (qubit 0 is the
    most significant bit) and as the identity elsewhere."""
    k = len(targets)
    order = list(targets) + [q for q in range(n) if q not in targets]
    full = np.kron(op, np.eye(2 ** (n - k))).reshape((2,) * (2 * n))
    axes = [order.index(q) for q in range(n)]
    return full.transpose(axes + [n + a for a in axes]).reshape(2**n, 2**n)


def _dense_noisy(circuit: circ.Circuit, profile) -> np.ndarray:
    """rho -> sum_K K rho K^dagger over each gate's unitary, then over the
    Kraus operators of its composed noise channel."""
    n = circuit.n_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        u = _embed(sim.gate_matrix(gate), gate.targets, n)
        rho = u @ rho @ u.conj().T
        ops = [_embed(k, gate.targets, n) for k in noise.channel_for_gate(profile, gate).operators]
        rho = sum(k @ rho @ k.conj().T for k in ops)
    return rho


@settings(max_examples=60, deadline=None)
@given(circuit=circuits(), profile=st.sampled_from(PROPERTY_PROFILES))
def test_run_noisy_matches_dense_kraus_reference(circuit, profile):
    rho = sim.run_noisy(circuit, profile).entries
    assert np.abs(rho - _dense_noisy(circuit, profile)).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(circuit=circuits())
def test_zero_noise_run_noisy_is_the_ideal_pure_state(circuit):
    psi = sim.run_ideal(circuit).amplitudes
    rho = sim.run_noisy(circuit, zero_noise_profile(4)).entries
    assert np.abs(rho - np.outer(psi, psi.conj())).max() < 1e-12


def test_noise_ptms_preserve_trace():
    for profile in PROPERTY_PROFILES:
        for k in (1, 2):
            for targets in permutations(range(4), k):
                ptm = sim.noise_ptm(profile, targets)
                assert ptm.shape == (4**k, 4**k)
                assert np.abs(ptm[0] - np.eye(4**k)[0]).max() < 1e-12


# ---------------------------------------------------------------------------
# the permute-and-matmul kernel, and the walk that shares gate-list prefixes

def _tensordot_apply_local(tensor: np.ndarray, op: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The kernel's former body, kept as its oracle: tensordot, then moveaxis."""
    k = len(axes)
    op = op.reshape((tensor.shape[0],) * (2 * k))
    out = np.tensordot(op, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("d", [2, 4])
def test_apply_local_matches_the_tensordot_oracle(d, n):
    """Every ordered target tuple of 1 and 2 qubits, on a complex state
    vector (d = 2) and a real PTM tensor (d = 4); each result is fed back in,
    since the kernel returns a transposed view."""
    rng = np.random.default_rng(10 * d + n)

    def draw(shape):
        values = rng.standard_normal(shape)
        return values + 1j * rng.standard_normal(shape) if d == 2 else values

    worst = 0.0
    for k in (1, 2):
        for axes in permutations(range(n), k):
            op, tensor = draw((d**k, d**k)), draw((d,) * n)
            got = sim._apply_local(tensor, op, axes)
            want = _tensordot_apply_local(tensor, op, axes)
            worst = max(worst, np.abs(got - want).max())
            again = sim._apply_local(got, op, axes[::-1])
            worst = max(worst, np.abs(again - _tensordot_apply_local(want, op, axes[::-1])).max())
    assert worst <= 1e-12, f"largest difference {worst:.3e}"


@pytest.mark.parametrize("n", range(1, 7))
def test_the_per_axis_matmul_matches_the_tensordot_loop(n):
    """_on_each_axis, on a stack, against the loop it replaced: one tensordot
    per axis of each state, for the three per-axis matrices the simulator
    uses, bit for bit (signs of zeros included)."""
    rng = np.random.default_rng(n)
    for mat, d, kind in (
        (sim._TO_PAULI, 4, complex),
        (sim._FROM_PAULI, 4, float),
        (sim._DIAGONAL_FROM_PAULI, 2, float),
    ):
        stack = rng.standard_normal((3,) + (d,) * n)
        if kind is complex:
            stack = stack + 1j * rng.standard_normal(stack.shape)
        stack[1] = 0.0  # exact zeros, as in a pure or zero-noise state
        stack[1][(0,) * n] = 1.0
        got = sim._on_each_axis(stack, mat)
        for tensor, row in zip(stack, got):
            want = tensor
            for _ in range(n):
                want = np.tensordot(want, mat, axes=([0], [1]))
            assert np.array_equal(row, want)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(row)), np.signbit(part(want)))


def _gate_ptm(profile, gate: circ.Gate) -> np.ndarray:
    """One gate's noisy PTM, built as a stack of one."""
    return sim._noisy_gate_ptms(profile, gate.targets, sim.gate_matrix(gate)[None])[0]


def _run_noisy_alone(circuit: circ.Circuit, profile) -> np.ndarray:
    """One circuit evolved on its own, gate after gate: the oracle of the
    shared walk in run_noisy_many."""
    n = circuit.n_qubits
    tensor = np.zeros((4,) * n)
    tensor[np.ix_(*[(0, 3)] * n)] = 1.0
    for gate in circuit.gates:
        tensor = sim._apply_local(tensor, _gate_ptm(profile, gate), gate.targets)
    return sim._pauli_to_density(tensor).entries


@settings(max_examples=60, deadline=None)
@given(
    base=circuits(max_gates=10),
    cut=st.integers(0, 10),
    profile=st.sampled_from(PROPERTY_PROFILES),
)
def test_run_noisy_many_is_bit_identical_to_one_at_a_time(base, cut, profile):
    n = base.n_qubits
    folds = [circ.fold_to_scale(base, s) for s in ZneConfig().scale_factors]
    first = circ.x(0) if base.gates[:1] != (circ.x(0),) else circ.h(0)
    unrelated = circ.Circuit(n, (first,) + base.gates)  # shares no gate prefix with the rest
    batch = folds + [circ.Circuit(n, base.gates[:cut]), base, circ.Circuit(n), unrelated, folds[1]]
    states = sim.run_noisy_many(batch, profile)
    assert len(states) == len(batch)
    for circuit, state in zip(batch, states):
        assert np.array_equal(state.entries, _run_noisy_alone(circuit, profile))


def test_run_noisy_many_evolves_each_shared_prefix_once(monkeypatch):
    profile = noise.bundled_profile("device-a")
    base = random_circuit(4, 38, seed=5)
    folds = [circ.fold_to_scale(base, s) for s in ZneConfig().scale_factors]
    kernel, slabs = sim._apply_slabs, []

    def counted(*args):
        slabs.append(len(args[0]))
        return kernel(*args)

    monkeypatch.setattr(sim, "_apply_slabs", counted)
    sim.run_noisy_many(folds, profile)
    prefixes = {c.gates[:j] for c in folds for j in range(1, len(c.gates) + 1)}
    assert sum(len(c.gates) for c in folds) == 418
    assert sum(slabs) == len(prefixes) == 246


def _run_ideal_alone(circuit: circ.Circuit) -> np.ndarray:
    """One circuit evolved on its own, gate after gate: the oracle of the
    shared walk in run_ideal_many."""
    n = circuit.n_qubits
    tensor = np.zeros((2,) * n, dtype=complex)
    tensor[(0,) * n] = 1.0
    for gate in circuit.gates:
        tensor = sim._apply_local(tensor, sim.gate_matrix(gate), gate.targets)
    return tensor.reshape(-1)


def _slab_cap(slabs: int | None, state_entries: int):
    """Cap the walker at ``slabs`` slabs of ``state_entries`` entries (None:
    leave the cap as it is)."""
    if slabs is None:
        return nullcontext()
    return patch.object(sim, "BATCH_ENTRIES", slabs * state_entries)


def _shifted_angles(circuit: circ.Circuit, shift: float) -> circ.Circuit:
    """The same gate shapes with every angle moved by ``shift``."""
    gates = [
        circ.Gate(g.kind, g.targets, tuple(a + shift for a in g.params)) for g in circuit.gates
    ]
    return circ.Circuit(circuit.n_qubits, tuple(gates))


@settings(max_examples=60, deadline=None)
@given(
    base=circuits(max_gates=10),
    cut=st.integers(0, 10),
    shifts=st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=3),
    profile=st.sampled_from(PROPERTY_PROFILES),
    slabs=st.sampled_from([1, 2, 3, None]),
    order=st.randoms(use_true_random=False),
)
def test_walker_states_are_bit_identical_to_gate_by_gate_runs(
    base, cut, shifts, profile, slabs, order
):
    """Rows that differ only in angles, mixed shapes and lengths, ZNE folds,
    duplicates and an empty circuit, in any order, with the slab cap at 1-3
    slabs (so nodes fork into chunks) or at its real value."""
    n = base.n_qubits
    batch = [base, base, circ.Circuit(n), circ.Circuit(n, base.gates[:cut])]
    batch += [_shifted_angles(base, shift) for shift in shifts]
    batch += [circ.fold_to_scale(c, s) for c in batch[-2:] for s in ZneConfig().scale_factors]
    batch.append(circ.Circuit(n, base.gates[::-1]))
    order.shuffle(batch)
    with _slab_cap(slabs, 2**n):
        ideal = sim.run_ideal_many(batch)
    with _slab_cap(slabs, 4**n):
        noisy = sim.run_noisy_many(batch, profile)
    assert len(ideal) == len(noisy) == len(batch)
    for circuit, pure, mixed in zip(batch, ideal, noisy):
        assert np.array_equal(pure.amplitudes, _run_ideal_alone(circuit))
        assert np.array_equal(mixed.entries, _run_noisy_alone(circuit, profile))


def test_no_stack_of_slabs_exceeds_one_eight_qubit_state(monkeypatch):
    """At 8 qubits a noisy node keeps one slab, at 4 qubits at most 256;
    the backends hand the walker one program (ZNE: one per scale) and every
    row of a feature matrix, and the walker chunks them. At 8 qubits the
    walk is fused, its states are flat (_contract, recorded by their qubit
    count), and each 3-qubit block's operator is built as one 6-axis tensor
    of 4^6 entries (a 2-qubit block's as a 4-axis one)."""
    kernel, planned, seen = sim._apply_slabs, sim._contract, []

    def recorded(slabs, op, axes):
        seen.append((slabs.shape[1:], len(slabs)))
        return kernel(slabs, op, axes)

    def contracted(slabs, ops, plan):
        seen.append(((4,) * len({q for q, _ in plan.layout}), len(slabs)))
        return planned(slabs, ops, plan)

    monkeypatch.setattr(sim, "_apply_slabs", recorded)
    monkeypatch.setattr(sim, "_contract", contracted)
    walked, walk = [], sim._walk

    def counted(circuits, angles, initial, profile, finish, *corner):
        walked.append((initial.ndim, len(circuits), None if angles is None else len(angles)))
        return walk(circuits, angles, initial, profile, finish, *corner)

    monkeypatch.setattr(sim, "_walk", counted)
    profile = noise.bundled_profile("device-a")
    rng = np.random.default_rng(4)
    for n, rows, backend in (
        (8, 3, qelm.NoisyBackend(profile)),
        (8, 2, mitigation.MitigatedBackend(profile, mitigation.ZneMitigator())),
        (4, 300, qelm.NoisyBackend(profile)),
        (4, 80, mitigation.MitigatedBackend(profile, mitigation.ZneMitigator())),
    ):
        front = qelm.QelmFront(
            qelm.EncoderSpec(((0.0, 1.0),) * n),
            qelm.ReservoirSpec("rotation", n_qubits=n, seed=3, layers=1),
            qelm.FeatureMapSpec("z_expectations"),
        )
        qelm.feature_matrix(front, rng.uniform(size=(rows, n)), backend, 0)
    most = {}
    for shape, slabs in seen:
        most[len(shape)] = max(most.get(len(shape), 0), slabs)
    assert most == {8: 1, 6: 1, 4: 256}
    assert walked == [(8, 1, 3), (8, 4, 2), (4, 1, 300), (4, 4, 80)]
    # one walk of 300 circuits that differ only in angles: a node is one set
    # of circuits with one slab per row, so each circuit forks into its own
    base = random_circuit(4, 12, seed=7)
    seen.clear()
    sim.run_noisy_many([_shifted_angles(base, 0.01 * k) for k in range(300)], profile)
    # the leading gates without an angle are shared by all 300 circuits
    shared = next(j for j, gate in enumerate(base.gates) if gate.params)
    assert max(slabs for _, slabs in seen) == 1
    assert sum(slabs for _, slabs in seen) == shared + 300 * (len(base.gates) - shared)


def test_identical_circuits_ending_at_one_node_take_one_finish_call():
    """Equal circuits (one rebuilt from equal gates) and a program listed
    twice end at one trie node: it measures its stack once, and every
    circuit gets the bits of a run on its own."""
    profile = noise.bundled_profile("device-a")
    base = random_circuit(3, 10, seed=2)
    twin = circ.Circuit(3, tuple(circ.Gate(g.kind, g.targets, g.params) for g in base.gates))
    calls = []

    def finish(stack):
        calls.append(len(stack))
        return [state.copy() for state in stack]

    states = sim._walk_noisy([base, twin, base], None, profile, "test", finish)
    assert calls == [1]
    want = _run_noisy_alone(base, profile)
    for state in states:
        assert np.array_equal(sim._pauli_to_density(state).entries, want)
    program = qelm.front_program(qelm.QelmFront(
        qelm.EncoderSpec(((0.0, 1.0),) * 3),
        qelm.ReservoirSpec("ising", n_qubits=3, seed=3, layers=1),
        qelm.FeatureMapSpec("probabilities"),
    ))
    angles = np.random.default_rng(5).uniform(0.0, np.pi, size=(4, 3))
    calls.clear()
    states = sim._walk_ideal([program, program], angles, "test", finish)
    assert calls == [4]
    alone = sim._walk_ideal([program], angles, "test", finish)
    for first, second, want in zip(states[::2], states[1::2], alone):
        assert np.array_equal(first, want) and np.array_equal(second, want)


def test_an_eight_qubit_noisy_walk_builds_each_row_chunk_when_popped():
    """At 8 qubits a root chunk is one row; 16 rows peak within one state
    of 1 row, so no chunk's initial state is built before it is walked."""
    profile = noise.bundled_profile("device-a")
    program = qelm.front_program(qelm.QelmFront(
        qelm.EncoderSpec(((0.0, 1.0),) * 8),
        qelm.ReservoirSpec("rotation", n_qubits=8, seed=3, layers=1),
        qelm.FeatureMapSpec("probabilities"),
    ))
    angles = np.random.default_rng(1).uniform(0.0, np.pi, size=(16, 8))
    sim.noisy_probabilities([program], profile, angles[:1])  # warm the noise caches
    peaks = []
    tracemalloc.start()
    try:
        for rows in (1, 16):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sim.noisy_probabilities([program], profile, angles[:rows])
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert peaks[0] > 4**8 * 8  # one state is 512 KB
    assert peaks[1] < peaks[0] + 4**8 * 8


def test_noise_part_ptms_are_built_once_per_defining_numbers():
    profile = noise.bundled_profile("device-a")
    sim.noise_ptm.cache_clear()
    sim._part_ptm.cache_clear()
    target_sets = [(q,) for q in range(8)] + list(permutations(range(8), 2))
    numbers = set()
    for targets in target_sets:
        probe = circ.Gate("H" if len(targets) == 1 else "CX", targets)
        want = np.eye(4 ** len(targets))
        for channel, qubits in noise.gate_channel_parts(profile, probe):
            part = sim._kraus_ptm(channel.operators)
            if len(qubits) < len(targets):
                slots = [part if q == qubits[0] else np.eye(4) for q in targets]
                part = reduce(np.kron, slots)
            want = part @ want
        numbers |= {(make, args) for make, args, _ in noise.gate_noise_parts(profile, probe)}
        assert np.array_equal(sim.noise_ptm(profile, targets), want)
    assert sim._part_ptm.cache_info().misses == len(numbers) < len(target_sets)


@pytest.mark.parametrize("n", range(1, 9))
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_gates=st.integers(0, 10),
    shift=st.floats(-np.pi, np.pi),
    profile=st.sampled_from((noise.bundled_profile("device-a"), zero_noise_profile(8))),
)
def test_noisy_distributions_are_bit_identical_to_measuring_run_noisy(n, seed, n_gates, shift, profile):
    """Rows that differ only in angles and their ZNE folds."""
    base = random_circuit(n, n_gates, seed)
    rows = [base, _shifted_angles(base, shift)]
    batch = rows + [f for row in rows for f in circ.fold_to_scales(row, ZneConfig().scale_factors)]
    dists = sim.noisy_probabilities(batch, profile)
    assert len(dists) == len(batch)
    for circuit, dist in zip(batch, dists):
        want = sim.measure_distribution(sim.run_noisy(circuit, profile), profile).vector
        assert np.array_equal(dist, want)


def test_feature_paths_build_no_density_matrix(monkeypatch):
    """Noisy, ZNE and QLEAR feature matrices, QLEAR training and ZNE
    calibration measure without one DensityMatrix.validate call; a library
    run_noisy still validates its state."""
    validate, checked = sim.DensityMatrix.validate, []

    def counted(state):
        checked.append(state.n_qubits)
        return validate(state)

    monkeypatch.setattr(sim.DensityMatrix, "validate", counted)
    profile = noise.bundled_profile("device-a")
    rng = np.random.default_rng(6)
    for n, kind, shots in ((8, "probabilities", 0), (4, "z_and_zz_expectations", 64)):
        front = qelm.QelmFront(
            qelm.EncoderSpec(((0.0, 1.0),) * n),
            qelm.ReservoirSpec("rotation", n_qubits=n, seed=3, layers=1),
            qelm.FeatureMapSpec(kind, shots),
        )
        corpus = mitigation.calibration_circuits(n, 4, seed=n, max_gates=12)
        model = mitigation.qlear_train(
            corpus, profile, n_trees=2, max_depth=2, feature_map=front.feature_map, min_corpus=4
        )
        for backend in (
            qelm.NoisyBackend(profile),
            mitigation.MitigatedBackend(profile, mitigation.ZneMitigator()),
            mitigation.MitigatedBackend(profile, mitigation.QlearMitigator(model)),
        ):
            qelm.feature_matrix(front, rng.uniform(size=(2, n)), backend, 0)
        mitigation.zne_calibrate(profile, corpus[-1], [ZneConfig(), ZneConfig((1.0, 3.0), degree=1)])
    assert checked == []
    sim.run_noisy(corpus[0], profile)
    assert checked == [4]


def _pauli_diagonal(tensor: np.ndarray) -> np.ndarray:
    """The diagonal of one PTM state, with its checks raised."""
    diagonals, checks = sim._pauli_diagonals(tensor[None])
    sim._raise_first(checks)
    return diagonals[0]


def test_pauli_diagonal_checks_the_trace_and_the_diagonal():
    # one qubit: r = (r_I, r_X, r_Y, r_Z) has diagonal ((r_I + r_Z) / 2, (r_I - r_Z) / 2)
    assert np.array_equal(_pauli_diagonal(np.array([1.0, 0.5, 0.5, 0.5])), [0.75, 0.25])
    # a diagonal entry of -5e-9 is let through and clipped to 0
    assert np.array_equal(_pauli_diagonal(np.array([1.0, 0.0, 0.0, 1.0 + 1e-8])), [1.0 + 5e-9, 0.0])
    with pytest.raises(ValidationError, match="diagonal entry .* below -1e-8"):
        _pauli_diagonal(np.array([1.0, 0.0, 0.0, 1.0 + 3e-8]))
    # two qubits: <11|rho|11> = (r_II - r_IZ - r_ZI + r_ZZ) / 4
    tensor = np.zeros((4, 4))
    tensor[0, 0], tensor[0, 3], tensor[3, 0], tensor[3, 3] = 1.0, 0.9, 0.9, 0.7
    with pytest.raises(ValidationError, match=r"diagonal entry -0\.025\d* below -1e-8"):
        _pauli_diagonal(tensor)
    tensor = np.zeros((4, 4))
    tensor[0, 0] = 1.0 + 2e-9
    with pytest.raises(ValidationError, match="trace"):
        _pauli_diagonal(tensor)


def test_an_incomplete_kraus_set_is_refused_before_its_ptm_is_built():
    def leaky(p):
        return KrausChannel((np.sqrt(1.0 - p) * np.eye(2, dtype=complex),))

    with pytest.raises(ValidationError, match="completeness"):
        sim._part_ptm(leaky, (0.1,))


def test_expectations_read_cached_signs_bit_identically():
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        dist = sim.OutcomeDistribution(n, rng.dirichlet(np.ones(2**n)))
        idx = np.arange(2**n)
        signs = [1.0 - 2.0 * ((idx >> (n - 1 - q)) & 1) for q in range(n)]
        for a in range(n):
            got = sim.z_expectations(dist.vector[None], [(a,)])[0, 0]
            assert got == float(np.sum(dist.vector * signs[a]))
            for b in range(n):
                want = float(np.sum(dist.vector * signs[a] * signs[b]))
                assert sim.z_expectations(dist.vector[None], [(a, b)])[0, 0] == want
    cached = sim._z_signs(3, 2)
    assert cached is sim._z_signs(3, 2) and not cached.flags.writeable


def test_run_noisy_many_needs_one_qubit_count():
    profile = zero_noise_profile(4)
    assert sim.run_noisy_many([], profile) == []
    with pytest.raises(ValidationError):
        sim.run_noisy_many([circ.Circuit(2), circ.Circuit(3)], profile)


# ---------------------------------------------------------------------------
# gate fusion on states wider than a block, and readout through the kernel

@settings(max_examples=100, deadline=None)
@given(circuit=circuits(max_qubits=8, max_gates=40))
def test_fusion_plans_take_every_gate_once_and_keep_shared_qubit_order(circuit):
    shapes = tuple((g.kind, g.targets) for g in circuit.gates)
    plan = sim._fusion_plan(shapes)
    order = [i for _, members in plan for i in members]
    assert sorted(order) == list(range(len(shapes)))
    for qubits, members in plan:
        assert 1 <= len(qubits) <= sim.FUSED_QUBITS
        assert set(qubits) == {q for i in members for q in shapes[i][1]}
        assert list(members) == sorted(members)
    # a gate moves only past gates on disjoint qubits
    position = {i: p for p, i in enumerate(order)}
    for i, j in combinations(range(len(shapes)), 2):
        if not set(shapes[i][1]).isdisjoint(shapes[j][1]):
            assert position[i] < position[j]


@pytest.mark.parametrize("n", range(5, 9))
@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_gates=st.integers(1, 20),
    shift=st.floats(-np.pi, np.pi),
    profile=st.sampled_from((noise.bundled_profile("device-a"), zero_noise_profile(8))),
)
def test_fused_walks_match_gate_by_gate_runs(n, seed, n_gates, shift, profile):
    """Rows that differ only in angles and their ZNE folds, on both backends:
    from 7 qubits each circuit is evolved through its fusion plan, within
    1e-12 of its gate-by-gate run, and with the same bits whether it is
    evolved with the others or alone."""
    base = random_circuit(n, n_gates, seed)
    rows = [base, _shifted_angles(base, shift)]
    batch = rows + [f for row in rows for f in circ.fold_to_scales(row, ZneConfig().scale_factors)]
    ideal = sim.run_ideal_many(batch)
    noisy = sim.run_noisy_many(batch, profile)
    for circuit, pure, mixed in zip(batch, ideal, noisy):
        assert np.abs(pure.amplitudes - _run_ideal_alone(circuit)).max() <= 1e-12
        assert np.abs(mixed.entries - _run_noisy_alone(circuit, profile)).max() <= 1e-12
        assert np.array_equal(pure.amplitudes, sim.run_ideal(circuit).amplitudes)
        assert np.array_equal(mixed.entries, sim.run_noisy(circuit, profile).entries)


def ising_row(n: int) -> circ.Circuit:
    """A classification8-style row: RY encoder, CX ring, 3-step Ising reservoir."""
    front = qelm.QelmFront(
        qelm.EncoderSpec(((0.0, 1.0),) * n),
        qelm.ReservoirSpec("ising", n_qubits=n, seed=11, time=0.5),
        qelm.FeatureMapSpec("probabilities"),
    )
    return qelm.front_circuit(front, np.linspace(0.1, 0.9, n))


def test_an_eight_qubit_ising_row_takes_43_contractions_instead_of_124(monkeypatch):
    """Unfused walks contract states through _apply_slabs, fused ones
    through _contract."""
    kernel, planned, widths = sim._apply_slabs, sim._contract, []

    def counted(slabs, op, axes):
        if slabs.shape[1:] == (4,) * n:  # a state, not a block operator or readout
            widths.append(len(axes))
        return kernel(slabs, op, axes)

    def contracted(slabs, ops, plan):
        widths.append(len(plan.targets))
        return planned(slabs, ops, plan)

    monkeypatch.setattr(sim, "_apply_slabs", counted)
    monkeypatch.setattr(sim, "_contract", contracted)
    profile = noise.bundled_profile("device-a")
    for n, gates, contractions in ((8, 124, 43), (6, 75, 75)):
        row = ising_row(n)
        widths.clear()
        sim.noisy_probabilities([row], profile)
        assert (len(row.gates), len(widths)) == (gates, contractions)
        assert max(widths) == (sim.FUSED_QUBITS if n == 8 else 2)


def test_fused_blocks_keep_the_noise_of_every_gate():
    """A scale-3 fold G G^dagger G must carry more noise than G: blocks
    multiply noisy PTMs, never bare unitaries."""
    row = ising_row(8)
    scales = circ.fold_to_scales(row, (1.0, 3.0))
    noisy = sim.noisy_probabilities(scales, noise.bundled_profile("device-a"))
    assert np.abs(noisy[0] - noisy[1]).max() > 1e-6
    clean = sim.noisy_probabilities(scales, zero_noise_profile(8))
    assert np.abs(clean[0] - clean[1]).max() <= 1e-12


def _tensordot_readout(vec: np.ndarray, n: int, profile) -> np.ndarray:
    """Readout confusion as measure_distribution applied it before it went
    through the kernel: tensordot, then moveaxis, per qubit."""
    tensor = vec.reshape((2,) * n)
    for q in range(n):
        m = profile.confusion_matrix(q)
        tensor = np.moveaxis(np.tensordot(tensor, m, axes=([q], [0])), -1, q)
    vec = np.clip(tensor.reshape(-1), 0.0, None)
    return vec / vec.sum()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(noise.BUNDLED_PROFILES),
)
def test_readout_through_the_kernel_is_bit_identical_to_the_tensordot_loop(n, seed, name):
    profile = noise.bundled_profile(name)
    vec = np.random.default_rng(seed).dirichlet(np.ones(2**n))
    assert np.array_equal(sim._readout(vec[None], [], n, profile)[0], _tensordot_readout(vec, n, profile))


# ---------------------------------------------------------------------------
# stacked PTM builds and the stacked measurement tail, against the per-gate
# and per-row paths they replace (kept here as oracles)

def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _former_unitary_ptm(gate: circ.Gate) -> np.ndarray:
    """A gate unitary's PTM as it was built one gate at a time: np.kron and
    2-D matmuls."""
    u = sim.gate_matrix(gate)
    dim = u.shape[0]
    basis = sim._pauli_basis(len(gate.targets))
    superop = sum(np.kron(op, op.conj()) for op in (u,))
    return np.real(basis.conj() @ superop @ basis.T) / dim


GATE_TARGETS = {1: [(0,), (1,), (3,)], 2: [(0, 1), (1, 0), (0, 3), (3, 2)]}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(noise.BUNDLED_PROFILES),
    kind=st.sampled_from(["RX", "RY", "RZ", "ZZ", "H", "X", "CX"]),
    angles=st.lists(st.floats(-4 * np.pi, 4 * np.pi), min_size=1, max_size=6),
    slot=st.integers(0, 3),
)
def test_stacked_gate_ptms_are_bit_identical_to_one_gate_builds(name, kind, angles, slot):
    profile = noise.bundled_profile(name)
    options = GATE_TARGETS[2 if kind in ("ZZ", "CX") else 1]
    targets = options[slot % len(options)]
    params = [(a,) for a in angles + [0.0, np.pi]] if kind in ("RX", "RY", "RZ", "ZZ") else [()] * 3
    gates = [circ.Gate(kind, targets, p) for p in params]
    stacked = sim._noisy_gate_ptms(profile, targets, np.stack([sim.gate_matrix(g) for g in gates]))
    assert stacked.shape == (len(gates),) + (4 ** len(targets),) * 2
    unitaries = sim._kraus_ptms(np.stack([sim.gate_matrix(g) for g in gates])[:, None])
    for gate, ptm, unitary in zip(gates, stacked, unitaries):
        assert _same_bits(unitary, _former_unitary_ptm(gate))
        assert _same_bits(ptm, _gate_ptm(profile, gate))
        assert _same_bits(ptm, sim.noise_ptm(profile, targets) @ _former_unitary_ptm(gate))


def _former_distribution(vec: np.ndarray) -> np.ndarray:
    """OutcomeDistribution's checks and clip, one vector at a time."""
    if np.any(vec < -1e-12) or np.any(vec > 1.0 + 1e-12):
        raise ValidationError("probabilities must lie in [0, 1]")
    total = float(vec.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"probabilities sum to {total}, beyond 1e-9 of 1")
    return np.clip(vec, 0.0, 1.0)


def _former_noisy_tail(tensor: np.ndarray, profile) -> np.ndarray:
    """_pauli_diagonal, then _readout, one PTM state at a time: tensordot
    per axis on the {I, Z}^n corner, confusion per qubit through the kernel."""
    n = tensor.ndim
    trace = float(tensor[(0,) * n])
    if abs(trace - 1.0) > 1e-9:
        raise ValidationError(f"density matrix trace {trace} deviates from 1 beyond 1e-9")
    diagonal = tensor[np.ix_(*[(0, 3)] * n)]
    for _ in range(n):
        diagonal = np.tensordot(diagonal, sim._DIAGONAL_FROM_PAULI, axes=([0], [1]))
    diagonal = diagonal.reshape(-1)
    low = float(diagonal.min())
    if low < -1e-8:
        raise ValidationError(f"density matrix has diagonal entry {low} below -1e-8")
    probs = np.clip(diagonal, 0.0, None).reshape((2,) * n)
    for q in range(n):
        probs = sim._apply_local(probs, profile.confusion_matrix(q).T, (q,))
    vec = np.clip(probs.reshape(-1), 0.0, None)
    return _former_distribution(vec / vec.sum())


def _former_features(vec: np.ndarray, spec, seed: int) -> np.ndarray:
    """distribution_features one row at a time: sample, then one
    expectation per qubit and pair."""
    n = len(vec).bit_length() - 1
    if spec.shots > 0:
        counts = sim.sample(sim.OutcomeDistribution(n, vec), spec.shots, seed).counts
        vec = np.zeros(2**n)
        for bits, c in counts.items():
            vec[int(bits, 2)] = c / spec.shots
        vec = _former_distribution(vec)
    if spec.kind == "probabilities":
        return vec.copy()
    signs = [sim._z_signs(n, q) for q in range(n)]
    z = [float(np.sum(vec * signs[q])) for q in range(n)]
    if spec.kind == "z_expectations":
        return np.array(z)
    zz = [float(np.sum(vec * signs[a] * signs[b])) for a in range(n) for b in range(a + 1, n)]
    return np.array(z + zz)


def _final_ptm(circuit: circ.Circuit, profile) -> np.ndarray:
    """One circuit's final PTM state, walked alone (fused as in any walk)."""
    states = sim._walk_noisy([circuit], None, profile, "test", lambda s: [s[0].copy()])
    return states[0]


@pytest.mark.parametrize("n", range(1, 9))
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_gates=st.integers(0, 10),
    shift=st.floats(-np.pi, np.pi),
    name=st.sampled_from(noise.BUNDLED_PROFILES + ("zero",)),
    shots=st.sampled_from([0, 97]),
    order=st.randoms(use_true_random=False),
)
def test_the_stacked_measurement_tail_matches_the_per_row_tail(n, seed, n_gates, shift, name, shots, order):
    """Noisy and ideal rows (angle-shifted rows and their ZNE folds) are
    measured and mapped to features stack by stack, with the bits of the
    per-row tail; a row's features do not move when its batch mates are
    permuted or removed."""
    profile = zero_noise_profile(8) if name == "zero" else noise.bundled_profile(name)
    base = random_circuit(n, n_gates, seed)
    rows = [base, _shifted_angles(base, shift)]
    batch = rows + [f for row in rows for f in circ.fold_to_scales(row, (1.0, 3.0))]
    seeds = [seed % 1000 + i for i in range(len(batch))]
    noisy = sim.noisy_probabilities(batch, profile)
    ideal = sim.ideal_probabilities(batch)
    for kind in qelm.FEATURE_MAP_KINDS:
        spec = qelm.FeatureMapSpec(kind, shots)
        stacked = qelm.probabilities_features(noisy, spec, seeds)
        stacked_ideal = qelm.probabilities_features(ideal, spec, seeds)
        for j, circuit in enumerate(batch):
            vec = _former_noisy_tail(_final_ptm(circuit, profile), profile)
            assert _same_bits(stacked[j], _former_features(vec, spec, seeds[j]))
            amps = sim.run_ideal(circuit).amplitudes
            squares = np.clip(np.abs(amps) ** 2, 0.0, None)
            want = _former_features(_former_distribution(squares / squares.sum()), spec, seeds[j])
            assert _same_bits(stacked_ideal[j], want)
        kept = order.sample(range(len(batch)), order.randint(1, len(batch)))
        again = qelm.probabilities_features(
            sim.noisy_probabilities([batch[j] for j in kept], profile), spec, [seeds[j] for j in kept]
        )
        for row, j in zip(again, kept):
            assert _same_bits(row, stacked[j])


# ---------------------------------------------------------------------------
# the checks of the stacked paths: one bad state in a stack raises what the
# per-row path raises for it

def _good_ptm_stack(n: int, count: int) -> np.ndarray:
    profile = noise.bundled_profile("device-a")
    return np.stack([_final_ptm(random_circuit(n, 8, seed), profile) for seed in range(count)])


def _error_of(call) -> tuple[type, str]:
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("n", [1, 3, 4])
@pytest.mark.parametrize("defect", ["trace", "diagonal"])
def test_one_bad_ptm_state_in_a_stack_raises_the_error_of_the_per_row_path(n, defect):
    profile = noise.bundled_profile("device-a")
    stack = _good_ptm_stack(n, 5)
    if defect == "trace":
        stack[2][(0,) * n] += 1e-6
    else:  # the outcome 10...0 gets a diagonal entry of about -3e-8
        stack[2][np.ix_(*[(0, 3)] * n)] = 1.0
        stack[2][(3,) + (0,) * (n - 1)] += 2**n * 3e-8
    want = _error_of(lambda: _former_noisy_tail(stack[2], profile))
    assert want[0] is ValidationError
    assert ("trace" if defect == "trace" else "diagonal entry") in want[1]
    assert _error_of(lambda: sim._measure_pauli(stack, profile)) == want
    for row in (0, 1, 3, 4):
        _former_noisy_tail(stack[row], profile)


def test_one_bad_distribution_in_a_stack_raises_the_error_of_the_per_row_path():
    rng = np.random.default_rng(3)
    for bad, kind in ((np.array([0.5, 0.5, 1.0 + 1e-9, -1.0 - 1e-9]), "lie in"),
                      (np.array([0.25, 0.25, 0.25, 0.25 + 1e-6]), "sum to")):
        probs = rng.dirichlet(np.ones(4), size=5)
        probs[3] = bad
        want = _error_of(lambda: _former_distribution(probs[3]))
        assert want[0] is ValidationError and kind in want[1]
        assert _error_of(lambda: sim._raise_first(sim._distribution_checks(probs))) == want
        assert _error_of(lambda: sim.OutcomeDistribution(2, probs[3])) == want


def test_one_unnormalized_state_vector_in_a_stack_raises_the_error_of_the_per_row_path():
    stack = np.stack([sim.run_ideal(random_circuit(3, 8, seed)).amplitudes for seed in range(4)])
    stack[1] *= 1.0 + 1e-6
    norm = float(np.sum(np.abs(stack[1]) ** 2))
    want = (ValidationError, f"state norm {norm} deviates from 1 beyond 1e-9")
    assert _error_of(lambda: sim._measure_amplitudes(stack.reshape((4,) + (2,) * 3))) == want
    assert _error_of(lambda: sim.StateVector(3, stack[1])) == want


def test_the_first_failing_row_decides_the_error_whatever_check_it_fails():
    """Row 1 fails a late check (its diagonal), row 3 an early one (its
    trace): checking row by row meets row 1 first."""
    profile = noise.bundled_profile("device-a")
    stack = _good_ptm_stack(2, 4)
    stack[1][np.ix_((0, 3), (0, 3))] = 1.0
    stack[1][3, 0] += 4 * 3e-8
    stack[3][0, 0] += 1e-6
    want = _error_of(lambda: _former_noisy_tail(stack[1], profile))
    assert "diagonal entry" in want[1]
    assert _error_of(lambda: sim._measure_pauli(stack, profile)) == want
