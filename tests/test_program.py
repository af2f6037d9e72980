"""The program path of the feature backends (one program per front and fold
scale, rows as a table of encoder angles) against the circuit path it
replaced: one circuit per row (front_circuit), folded per row
(fold_to_scales), walked as a list of circuits by the former walker, which
is kept here as the oracle."""

import math
from collections import Counter
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qelm_lab import circuit as circ
from qelm_lab import mitigation as mit
from qelm_lab import qelm
from qelm_lab import simulator as sim
from qelm_lab.errors import DimensionMismatch, ValidationError
from qelm_lab.noise import bundled_profile, zero_noise_profile
from qelm_lab.rng import derive_seed

# ---------------------------------------------------------------------------
# the circuit path, as it was


def _former_front_circuit(front: qelm.QelmFront, x) -> circ.Circuit:
    """The encoder (one RY per feature, the CX ring) composed with the reservoir."""
    n = front.n_qubits
    x = np.asarray(x, dtype=float).reshape(-1)
    if len(x) != n:
        raise DimensionMismatch(f"got {len(x)} features for {n} qubits")
    gates = []
    for q, (value, (lo, hi)) in enumerate(zip(x, front.encoder.feature_range)):
        theta = np.pi * (value - lo) / (hi - lo)
        gates.append(circ.ry(q, float(np.clip(theta, 0.0, np.pi))))
    if front.encoder.entangle and n >= 2:
        gates += [circ.cx(q, (q + 1) % n) for q in range(n)]
    encoder = circ.Circuit(n, tuple(gates))
    return circ.compose(encoder, qelm.build_reservoir(front.reservoir))


def _former_ops(profile, steps):
    if steps.count(steps[0]) == len(steps):
        return _former_step_op(profile, steps[0])
    if isinstance(steps[0], sim._Block):
        return _former_block_ops(profile, steps)
    unitaries = np.stack([sim.gate_matrix(step) for step in steps])
    return unitaries if profile is None else sim._noisy_gate_ptms(profile, steps[0].targets, unitaries)


def _former_step_op(profile, step):
    if isinstance(step, sim._Block):
        return _former_block_ops(profile, [step])[0]
    if profile is None:
        return sim.gate_matrix(step)
    return sim._noisy_gate_ptms(profile, step.targets, sim.gate_matrix(step)[None])[0]


def _former_block_ops(profile, blocks):
    first = blocks[0]
    d = 2 if profile is None else 4
    k = len(first.targets)
    eye = np.eye(d**k, dtype=complex if profile is None else float)
    ops = np.repeat(eye.reshape((1,) + (d,) * (2 * k)), len(blocks), axis=0)
    for m, (_, targets) in enumerate(first.kind):
        axes = tuple(first.targets.index(t) for t in targets)
        ops = sim._apply_slabs(ops, _former_ops(profile, [block.gates[m] for block in blocks]), axes)
    return ops.reshape(len(blocks), d**k, d**k)


def _former_take(slabs, index):
    return slabs if index == list(range(len(slabs))) else slabs[index]


def _former_walk(circuits, initial, profile, finish):
    """The walker over a list of circuits, as it was before programs."""
    max_slabs = max(1, sim.BATCH_ENTRIES // initial.size)
    fuse = initial.size > initial.shape[0] ** (2 * sim.FUSED_QUBITS)
    lists = [sim._program(c.gates, fuse) for c in circuits]
    states = [None] * len(circuits)
    pending = [(initial[None], 0, [(0, range(len(circuits)))])]
    while pending:
        slabs, depth, members = pending.pop()
        while True:
            index, leads, groups, ending = [], [], [], []
            stop = math.inf
            for s, group in members:
                live = [i for i in group if depth < len(lists[i])]
                if len(live) < len(group):
                    ending += [(s, i) for i in group if depth == len(lists[i])]
                if not live:
                    continue
                lead = lists[live[0]]
                shared = min(len(lists[i]) for i in live)
                for i in live[1:]:
                    steps = lists[i]
                    if steps[depth:shared] != lead[depth:shared]:
                        shared = next(j for j in range(depth, shared) if steps[j] != lead[j])
                if shared > depth:
                    index.append(s)
                    leads.append(lead)
                    groups.append(live)
                    stop = min(stop, shared)
                    continue
                split = {}
                for i in live:
                    split.setdefault(lists[i][depth], []).append(i)
                for sub in split.values():
                    index.append(s)
                    leads.append(lists[sub[0]])
                    groups.append(sub)
                stop = depth + 1
            if ending:
                finished = finish(_former_take(slabs, [s for s, _ in ending]))
                for (_, i), result in zip(ending, finished):
                    states[i] = result
            if not index:
                break
            first = leads[0]
            same = all(lead is first or lead[depth:stop] == first[depth:stop] for lead in leads)
            if not same:
                for lead in leads:
                    for j in range(depth, stop):
                        if lead[j].kind != first[j].kind or lead[j].targets != first[j].targets:
                            stop = j
                            break
            if stop > depth and len(index) <= max_slabs:
                slabs = _former_take(slabs, index)
                for j in range(depth, stop):
                    steps = [first[j]] if same else [lead[j] for lead in leads]
                    slabs = sim._apply_slabs(slabs, _former_ops(profile, steps), steps[0].targets)
                members = list(enumerate(groups))
                depth = stop
                continue
            forks = {}
            for s, lead, group in zip(index, leads, groups):
                forks.setdefault((lead[depth].kind, lead[depth].targets), []).append((s, group))
            for fork in forks.values():
                for start in range(0, len(fork), max_slabs):
                    pending.append((slabs, depth, fork[start : start + max_slabs]))
            break
    return states


def _former_probabilities(circuits, profile):
    """noisy_probabilities (ideal_probabilities without a profile) through
    the former walker."""
    n = circuits[0].n_qubits
    if profile is None:
        tensor = np.zeros((2,) * n, dtype=complex)
        tensor[(0,) * n] = 1.0
        return np.array(_former_walk(circuits, tensor, None, sim._measure_amplitudes))
    tensor = np.zeros((4,) * n)
    tensor[np.ix_(*[(0, 3)] * n)] = 1.0
    return np.array(_former_walk(circuits, tensor, profile, lambda stack: sim._measure_pauli(stack, profile)))


def _former_postprocess(values, kind):
    if kind == "probabilities":
        clipped = np.clip(values, 0.0, 1.0)
        total = clipped.sum()
        if total <= 0.0:
            return np.full_like(clipped, 1.0 / len(clipped))
        return clipped / total
    return np.clip(values, -1.0, 1.0)


def _former_feature_matrix(front, inputs, kind, profile, base_seed, zne=None):
    """feature_matrix on the ideal (kind "ideal"), noisy or ZNE backend, one
    circuit per row, folded per row, one extrapolation per row."""
    circuits = [_former_front_circuit(front, x) for x in inputs]
    seeds = [derive_seed(base_seed, "row", i) for i in range(len(inputs))]
    spec = front.feature_map
    if kind != "zne":
        probs = _former_probabilities(circuits, None if kind == "ideal" else profile)
        return qelm.probabilities_features(probs, spec, seeds)
    scales = zne.scale_factors
    folds = [f for c in circuits for f in circ.fold_to_scales(c, scales)]
    fold_seeds = [
        seed if i == 0 else derive_seed(seed, "zne-scale", i) for seed in seeds for i in range(len(scales))
    ]
    features = qelm.probabilities_features(_former_probabilities(folds, profile), spec, fold_seeds)
    rows = []
    for start in range(0, len(folds), len(scales)):
        values = features[start : start + len(scales)]
        mitigated = mit.extrapolate(scales, values, zne.extrapolation, zne.degree)
        rows.append(_former_postprocess(mitigated, spec.kind))
    return np.array(rows)


def _same_bits(got, want) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _front(n, style, entangle, kind, shots=0, seed=3, time=0.5):
    return qelm.QelmFront(
        qelm.EncoderSpec(tuple((-1.0 - 0.25 * q, 2.0 + 0.5 * q) for q in range(n)), entangle=entangle),
        qelm.ReservoirSpec(style, n_qubits=n, seed=seed, layers=2, time=time),
        qelm.FeatureMapSpec(kind, shots),
    )


# ---------------------------------------------------------------------------
# the oracle property


@pytest.mark.parametrize("n", range(1, 9))
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    style=st.sampled_from(qelm.RESERVOIR_STYLES),
    entangle=st.booleans(),
    kind=st.sampled_from(qelm.FEATURE_MAP_KINDS),
    shots=st.sampled_from([0, 0, 64]),
    name=st.sampled_from(("device-a", "device-b", "zero")),
    rows=st.integers(1, 3),
    zne=st.sampled_from([mit.ZneConfig(), mit.ZneConfig((1.0, 1.5, 3.0), degree=1)]),
)
def test_the_program_path_is_bit_identical_to_the_circuit_path(
    n, seed, style, entangle, kind, shots, name, rows, zne
):
    """Ideal, noisy and ZNE feature rows of random inputs (some outside the
    feature range, so clipped, and a repeated row) on 1-8 qubits, both
    reservoir styles, entangle on and off, every feature kind, with and
    without shots."""
    _check_the_program_path(n, seed, style, entangle, kind, shots, name, rows, zne)


def test_a_step_mixing_shared_and_per_row_matrices_keeps_the_bits():
    """A ZNE walk where a fold's fixed gate and another fold's slot fall at
    one step: the folds fork there, each applying its own matrices (one for
    every row, or one per row), with the bits of the circuit path."""
    _check_the_program_path(1, 2, "rotation", False, "probabilities", 0, "device-a", 2, mit.ZneConfig())


def _check_the_program_path(n, seed, style, entangle, kind, shots, name, rows, zne):
    profile = zero_noise_profile(8) if name == "zero" else bundled_profile(name)
    front = _front(n, style, entangle, kind, shots, seed)
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-2.0, 5.0, size=(rows, n))
    inputs[-1] = inputs[0]
    kinds = ("ideal", "noisy", "zne") if n <= 6 or rows == 1 else ("ideal", "noisy")
    for backend_kind in kinds:
        backend = {
            "ideal": qelm.IdealBackend(),
            "noisy": qelm.NoisyBackend(profile),
            "zne": mit.MitigatedBackend(profile, mit.ZneMitigator(zne)),
        }[backend_kind]
        got = qelm.feature_matrix(front, inputs, backend, seed)
        want = _former_feature_matrix(front, inputs, backend_kind, profile, seed, zne)
        assert _same_bits(got, want), backend_kind
    assert qelm.front_circuit(front, inputs[0]) == _former_front_circuit(front, inputs[0])


def test_a_circuit_list_walks_as_programs_without_slots():
    """noisy_probabilities and ideal_probabilities of a list of circuits
    (rows that differ in angles, their folds, other shapes) have the bits of
    the former walker, with its slab cap forcing chunks."""
    profile = bundled_profile("device-a")
    base = mit.random_circuit(4, 14, seed=5)
    rows = [base] + [
        circ.Circuit(4, tuple(circ.Gate(g.kind, g.targets, tuple(a + 0.1 * k for a in g.params))
                              for g in base.gates))
        for k in range(1, 4)
    ]
    batch = rows + [f for row in rows for f in circ.fold_to_scales(row, (1.0, 2.0, 3.0))]
    batch += [mit.random_circuit(4, 9, seed=6), circ.Circuit(4)]
    for cap in (None, 3):
        entries = None if cap is None else cap * 4**4
        with pytest.MonkeyPatch.context() as patch:
            if entries is not None:
                patch.setattr(sim, "BATCH_ENTRIES", entries)
            assert _same_bits(sim.noisy_probabilities(batch, profile), _former_probabilities(batch, profile))
            assert _same_bits(sim.ideal_probabilities(batch), _former_probabilities(batch, None))


def test_a_table_of_no_rows_walks_nothing():
    front = _front(2, "rotation", True, "probabilities")
    program = qelm.front_program(front)
    assert sim.noisy_probabilities([program], bundled_profile("device-a"), np.zeros((0, 2))).size == 0
    assert sim.ideal_probabilities([program], np.zeros((0, 2))).size == 0


# ---------------------------------------------------------------------------
# bad rows: the errors of the circuit path, before any work


def _error_of(call):
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize(
    "inputs",
    [
        [[0.1, 0.2, 0.3], [0.4, np.nan, 0.6]],
        [[0.1, 0.2], [0.3, 0.4]],
        [[0.1, 0.2, 0.3, 0.4]],
        [[np.inf, -np.inf, np.nan], [np.nan, 0.0, 0.0]],
    ],
)
def test_a_bad_row_raises_the_error_of_the_circuit_path_before_any_work(monkeypatch, inputs):
    def no_walk(*args):
        raise AssertionError("walked before the rows were checked")

    monkeypatch.setattr(sim, "_walk", no_walk)
    front = _front(3, "ising", True, "z_expectations")
    inputs = np.array(inputs)
    want = _error_of(lambda: [_former_front_circuit(front, x) for x in inputs])
    assert want[0] in (ValidationError, DimensionMismatch)
    profile = bundled_profile("device-a")
    for backend in (
        qelm.IdealBackend(),
        qelm.NoisyBackend(profile),
        mit.MitigatedBackend(profile, mit.ZneMitigator()),
    ):
        assert _error_of(lambda: qelm.feature_matrix(front, inputs, backend, 0)) == want
        assert _error_of(lambda: qelm.feature_matrix(front, inputs, backend, 0, qelm.FeatureCache())) == want
        assert _error_of(lambda: qelm.extract_features(front, inputs[-1], backend)) == _error_of(
            lambda: _former_front_circuit(front, inputs[-1])
        )


# ---------------------------------------------------------------------------
# what a feature batch builds


def _count_builds(monkeypatch):
    counts = Counter()
    check, post_init = circ._check_gate, circ.Gate.__post_init__

    def counted_check(gate, n_qubits):
        counts["_check_gate"] += 1
        return check(gate, n_qubits)

    def counted_post_init(gate):
        counts["Gate"] += 1
        return post_init(gate)

    monkeypatch.setattr(circ, "_check_gate", counted_check)
    monkeypatch.setattr(circ.Gate, "__post_init__", counted_post_init)
    return counts


def test_gate_checks_grow_with_the_program_not_with_the_rows(monkeypatch):
    counts = _count_builds(monkeypatch)
    profile = bundled_profile("device-a")
    corpus = mit.calibration_circuits(4, 4, seed=1, max_gates=10)
    model = mit.qlear_train(corpus, profile, n_trees=2, max_depth=2, min_corpus=4,
                            feature_map=qelm.FeatureMapSpec("z_expectations"))
    backends = (
        qelm.IdealBackend(),
        qelm.NoisyBackend(profile),
        mit.MitigatedBackend(profile, mit.ZneMitigator()),
        mit.MitigatedBackend(profile, mit.QlearMitigator(model)),
    )
    rng = np.random.default_rng(2)
    for b, (backend, style) in enumerate(product(backends, qelm.RESERVOIR_STYLES)):
        warm = _front(4, style, True, "z_expectations", seed=99)
        qelm.feature_matrix(warm, rng.uniform(size=(2, 4)), backend, 0)
        seen = []  # after a warm-up, which fills the noise caches
        for rows in (4, 40):
            front = _front(4, style, True, "z_expectations", seed=100 * b + rows)  # a program of its own
            counts.clear()
            qelm.feature_matrix(front, rng.uniform(size=(rows, 4)), backend, 0)
            seen.append(dict(counts))
        assert seen[0] == seen[1], backend.key
        assert 0 < seen[1]["_check_gate"] < 40 * 20, backend.key


def test_each_distinct_fixed_block_of_an_eight_qubit_zne_walk_is_built_once(monkeypatch):
    """Four Ising rows at scales 1/2/3/5: the folds hold more distinct fixed
    blocks than the former 48-entry block cache; each is built once. A block
    holding a slot is built per row, where its row's node reaches it."""
    built, block_ops = Counter(), sim._block_ops

    def counted(profile, block, angles, rows, memo):
        op = block_ops(profile, block, angles, rows, memo)
        built[block, op.ndim == 2] += 1
        return op

    monkeypatch.setattr(sim, "_block_ops", counted)
    front = _front(8, "ising", True, "z_expectations", seed=11)
    backend = mit.MitigatedBackend(bundled_profile("device-a"), mit.ZneMitigator())
    qelm.feature_matrix(front, np.random.default_rng(1).uniform(size=(4, 8)), backend, 0)
    fixed = [count for (block, is_fixed), count in built.items() if is_fixed]
    slotted = [block for (block, is_fixed) in built if not is_fixed]
    assert len(fixed) > 48 and set(fixed) == {1}
    assert all(any(isinstance(g, circ.Slot) for g in block.gates) for block in slotted)
    assert not any(isinstance(g, circ.Slot) for (block, is_fixed) in built if is_fixed for g in block.gates)


# ---------------------------------------------------------------------------
# several parts of rows in one backend call


@lru_cache(maxsize=None)
def _qlear_backend(n, kind):
    profile = bundled_profile("device-a")
    corrector = mit.qlear_train(
        mit.calibration_circuits(n, 20, seed=n), profile, seed=1, n_trees=3, max_depth=3,
        feature_map=qelm.FeatureMapSpec(kind, 0),
    )
    return mit.MitigatedBackend(profile, mit.QlearMitigator(corrector))


def _feature_backends(n, kind):
    profile = bundled_profile("device-a")
    return (
        qelm.IdealBackend(),
        qelm.NoisyBackend(profile),
        mit.MitigatedBackend(profile, mit.ZneMitigator()),
        _qlear_backend(n, kind),
    )


class _CountedBackend:
    """A backend that counts its programs_features calls."""

    def __init__(self, backend):
        self.backend, self.key, self.calls = backend, backend.key, 0

    def programs_features(self, *args):
        self.calls += 1
        return self.backend.programs_features(*args)


def _check_parts(front, parts, backends):
    for backend in backends:
        want = [qelm.feature_matrix(front, inputs, backend, seed) for inputs, seed in parts]
        for cache in (None, qelm.FeatureCache()):
            counted = _CountedBackend(backend)
            got = qelm.feature_matrices(front, counted, parts, cache)
            assert [m.shape for m in got] == [w.shape for w in want], backend.key
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), backend.key
            assert counted.calls == (1 if any(len(inputs) for inputs, _ in parts) else 0)
        again = qelm.feature_matrices(front, counted, parts, cache)  # every row a hit
        assert all(g.tobytes() == w.tobytes() for g, w in zip(again, want)), backend.key
        assert counted.calls <= 1


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(qelm.FEATURE_MAP_KINDS),
    shots=st.sampled_from([0, 64]),
    sizes=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    seeds=st.lists(st.sampled_from([0, 7, 2**64 - 1]), min_size=3, max_size=3),
    repeat=st.booleans(),
)
def test_feature_matrices_equal_one_feature_matrix_per_part(n, seed, kind, shots, sizes, seeds, repeat):
    """Every part's matrix from one backend call has the bits of its own
    feature_matrix, on the ideal, noisy, ZNE and QLEAR backends, with and
    without a cache: parts may be empty, share a base seed, and repeat rows
    of another part."""
    front = _front(n, "ising", True, kind, shots, seed)
    rng = np.random.default_rng(seed)
    parts = [(rng.uniform(-2.0, 5.0, size=(size, n)), s) for size, s in zip(sizes, seeds)]
    if repeat and len(parts) > 1 and len(parts[0][0]) and len(parts[1][0]):
        parts[1][0][-1] = parts[0][0][0]  # a row of another part, at another index
        parts[1] = (parts[1][0], parts[0][1])  # under the same base seed
    _check_parts(front, parts, _feature_backends(n, kind))


def test_eight_qubit_feature_matrices_equal_one_feature_matrix_per_part():
    front = _front(8, "rotation", True, "z_expectations", 64)
    inputs = np.random.default_rng(8).uniform(-2.0, 5.0, size=(3, 8))
    profile = bundled_profile("device-a")
    _check_parts(front, [(inputs[:2], 5), (inputs[2:], 5)], (qelm.IdealBackend(), qelm.NoisyBackend(profile)))
