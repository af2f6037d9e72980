"""State-vector and density-matrix circuit execution.

Two backends share one evolution walker and one tensor contraction:

    run_ideal_many   pure states, exact unitary evolution, up to 20 qubits
    run_noisy_many   density matrices with per-gate Kraus channels, up to 12 qubits
    run_ideal, run_noisy   the one-circuit case of each
    ideal_probabilities, noisy_probabilities
                     the measured outcome distributions of those runs, one
                     per row of angles and circuit, read from the evolved
                     states (no density matrix) one stack at a time

The contraction (_apply_slabs) applies a k-qubit operator to a stack of
states held on a leading slab axis: the stack is transposed so the target
axes follow the slab axis (the axis order is cached per qubit count and
targets), reshaped to (S, d^k, rest), multiplied by one d^k x d^k operator
or one per slab in a single broadcast np.matmul, and handed back as a view
transposed to the original axis order. NumPy makes the same 2-D product per
slab that a single state gets, so a state is bit-identical whether it is
evolved alone or in a stack. Fused noisy walks contract through plans
instead (_contract, below).

run_noisy_many works in the Pauli-transfer-matrix (PTM) representation: the
state is the real tensor of its Pauli coefficients Tr(P_s rho), and each gate
followed by its noise is one real 4^k x 4^k matrix, the product of the
noise's PTM (cached per profile and target qubits, since the noise does not
depend on the gate's angle, and built from part PTMs cached per defining
numbers) and the gate unitary's PTM. A walk builds the matrices of its
gates as stacks, on both backends: its fixed gates' unitaries one stack per
target set, a slot's (circuit.Slot: an RY whose angle each row supplies)
one for every row; under a profile each stack becomes noisy PTMs with the
bits of one-gate builds (_noisy_gate_ptms). run_noisy_many rebuilds and
validates each density matrix once, at the end. noisy_probabilities builds
none: the diagonal of rho depends only on the coefficients whose Pauli
indices all lie in {I, Z}, so it reads those 2^n coefficients, applies
readout confusion as measure_distribution does, and checks the trace and
the diagonal on the way (_measure_pauli); the feature paths of the qelm and
mitigation modules measure through it. apply_gate_density and
apply_channel_density go through the same kernel.

The walker (_walk) evolves programs, circuits whose slots take their
angles from the rows of an angle table, for every row at once; a list of
circuits is programs without slots, for one row. It walks their step lists
as a trie of exact step prefixes: a node is one set of circuits that share
their steps so far and holds one slab per row, so the rows of a feature
matrix take one matmul per gate for all of them, and a leading run of
gates that several programs share is evolved once per row: zero-noise
extrapolation's folds share a prefix (the scale-3 fold C C^dagger C
extends the scale-1 program C). A node forks into one node per distinct
next step. Where programs end, the walker calls its ``finish`` once per
node with the stack of their states; the measurement paths measure that
stack in one pass, running every check of the one-state path on each row
and raising, for the first row that fails one, that row's error
(_raise_first). The rows are chunked once, at the root: no stack of slabs
holds more than BATCH_ENTRIES = 2^16 entries, the size of one 8-qubit PTM
state, so an 8-qubit noisy row is walked and measured alone.

Gate fusion: a state with more entries than a 3-qubit block's operator
(d^n > d^6, from 7 qubits on both backends) is evolved block by block. Each
circuit's gates are grouped into blocks of at most FUSED_QUBITS = 3 qubits
by a greedy plan that is a function of its gate shapes only (cached per
shape sequence); a gate moves only past gates on disjoint qubits. A block's
operator is the product of its gates' matrices, built by the same kernel:
under noise the gates' noisy PTMs, so every gate keeps its noise and a ZNE
fold still amplifies it. A walk builds each distinct fixed block once.
An 8-qubit Ising row takes 43 contractions instead of 124. Fused states
are within 1e-12 of gate-by-gate runs, not bit-identical to them; since
the plan depends on the circuit alone, a state still has the same bits
whether it is evolved alone or with others.

Contraction plans: a fused noisy walk holds its states flat, with a
layout that says which qubit's Pauli index each digit of a flat position
is (_plan_step). A step copies the state once: it gathers the targets'
entries first, in the order its operator needs, and the other digits
after them in their order, as a strided view of the stack read at no more
than 4^3 positions; an axis the gather leaves in another order costs no
extra copy. A fixed block whose PTM is exactly zero between Pauli strings
of different X/Y supports (the ZZ-only blocks of an Ising reservoir, under
every bundled profile; one exact-zero test per block and walk) is
multiplied as 2^k products of 2^k x 2^k, one per support pattern, instead
of one 4^k x 4^k product: the terms it leaves out are exact zeros, which
add nothing to BLAS's in-order sums. noisy_probabilities reads only the
{I, Z}^n corner, so there a qubit keeps only I and Z from its last step
on, once every circuit of the trie node is done with it: that step's
operator rows are sliced (a split block drops its X/Y patterns), and later
steps multiply fewer columns. An 8-qubit Ising row thus takes 74.6 million
multiply-adds instead of 170.9 million, with the bits of whole products.
Where circuits end, their states are gathered into natural order (the
corner only, for noisy_probabilities). Ideal walks, whose 8-qubit states
hold 256 amplitudes, and walks up to 6 qubits keep _apply_slabs.

Caches: the module-level ones are keyed on shapes or on the noise profile
only, so their size is bounded by the qubit counts, circuit shapes and
profiles a process meets: _axis_orders, _pauli_basis, _fusion_plan and
_z_signs, and the noise PTMs _part_ptm and noise_ptm. Nothing keyed on a
gate's angle outlives a walk: its gate matrices, slot stacks, fixed
blocks and contraction plans live in the walk's own tables, so fresh seeds
leave no state behind.

Bit convention: qubit 0 is the most significant bit of an outcome string,
so basis index  b = sum_q bit_q * 2^(n-1-q)  and ``format(b, "0nb")`` reads
as |q0 q1 ... q_{n-1}>. States always start from |0...0>.

Measurement produces an OutcomeDistribution (exact basis probabilities,
optionally pushed through per-qubit readout confusion matrices), which can
then be sampled into ShotCounts with the package's deterministic RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from operator import itemgetter, mul
from typing import Callable, NamedTuple

import numpy as np

from .circuit import Circuit, Gate, Slot
from .errors import CapExceeded, IncompatibleProfile, InvalidTarget, ValidationError
from .noise import KrausChannel, NoiseProfile, gate_noise_parts
from .rng import Rng

IDEAL_QUBIT_CAP = 20
DENSITY_QUBIT_CAP = 12

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def gate_matrix(gate: Gate) -> np.ndarray:
    """The unitary matrix of a gate (2x2 or 4x4)."""
    kind, params = gate.kind, gate.params
    if kind == "H":
        return _H
    if kind == "X":
        return _X
    if kind == "CX":
        return _CX
    if kind == "RX":
        t = params[0] / 2.0
        return np.array(
            [[math.cos(t), -1j * math.sin(t)], [-1j * math.sin(t), math.cos(t)]], dtype=complex
        )
    if kind == "RY":
        return _ry_matrices(params)[0]
    if kind == "RZ":
        t = params[0] / 2.0
        return np.diag([np.exp(-1j * t), np.exp(1j * t)]).astype(complex)
    if kind == "ZZ":
        t = params[0] / 2.0
        lo, hi = np.exp(-1j * t), np.exp(1j * t)
        return np.diag([lo, hi, hi, lo]).astype(complex)
    raise ValidationError(f"no matrix for gate kind {kind!r}")


def _ry_matrices(thetas) -> np.ndarray:
    """RY(theta) of each angle, stacked, from scalar math.cos and math.sin."""
    halves = [theta / 2.0 for theta in thetas]
    rows = [[[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]] for t in halves]
    return np.array(rows, dtype=complex)


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.amplitudes.size != 2**self.n_qubits:
            raise ValidationError("amplitude count must be 2^n_qubits")
        _raise_first(_norm_checks(np.abs(self.amplitudes[None]) ** 2))

    def probabilities_vector(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass
class DensityMatrix:
    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        dim = 2**self.n_qubits
        self.entries = np.asarray(self.entries, dtype=complex).reshape(dim, dim)
        self.validate()

    def validate(self) -> None:
        """Check unit trace and Hermiticity within 1e-9, and that no
        eigenvalue lies below -1e-8.

        The eigenvalue bound is decided by one Cholesky factorization of
        rho + 1e-8 I, which succeeds (up to rounding) exactly when no
        eigenvalue of rho lies below -1e-8. Only when it fails is the
        spectrum computed, to apply the bound to the smallest eigenvalue
        itself and name it in the error.
        """
        trace = complex(np.trace(self.entries))
        if abs(trace - 1.0) > 1e-9:
            raise ValidationError(f"density matrix trace {trace} deviates from 1 beyond 1e-9")
        if float(np.abs(self.entries - self.entries.conj().T).max()) > 1e-9:
            raise ValidationError("density matrix is not Hermitian within 1e-9")
        shifted = self.entries.copy()
        shifted.flat[:: len(shifted) + 1] += 1e-8
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(self.entries).min())
            if min_eig < -1e-8:
                raise ValidationError(
                    f"density matrix has eigenvalue {min_eig} below -1e-8"
                ) from None

    def probabilities_vector(self) -> np.ndarray:
        return np.clip(np.real(np.diag(self.entries)), 0.0, None)


@dataclass
class OutcomeDistribution:
    n_qubits: int
    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=float).reshape(-1)
        if self.vector.size != 2**self.n_qubits:
            raise ValidationError("probability vector length must be 2^n_qubits")
        _raise_first(_distribution_checks(self.vector[None]))
        self.vector = np.clip(self.vector, 0.0, 1.0)

    @property
    def probabilities(self) -> dict[str, float]:
        """Bitstring -> probability, omitting exactly-zero outcomes."""
        n = self.n_qubits
        return {
            format(i, f"0{n}b"): float(p) for i, p in enumerate(self.vector) if p != 0.0
        }


@dataclass
class ShotCounts:
    shots: int
    counts: dict[str, int]
    n_qubits: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValidationError("shots must be positive")
        if sum(self.counts.values()) != self.shots:
            raise ValidationError("counts must sum to shots")

    def to_distribution(self) -> OutcomeDistribution:
        vec = np.zeros(2**self.n_qubits)
        for bits, c in self.counts.items():
            vec[int(bits, 2)] = c / self.shots
        return OutcomeDistribution(self.n_qubits, vec)


# The checks of a stack of states, one row per state, evaluated for every row
# at once: each is (failed, message), a boolean per row and the error text of
# a failing row. _raise_first raises as checking the rows one by one would.

def _raise_first(checks: list[tuple[np.ndarray, Callable[[int], str]]]) -> None:
    """Raise the ValidationError of the first row that fails a check, for
    the first of ``checks`` (in the order one state runs them) it fails."""
    failed = np.stack([mask for mask, _ in checks])
    rows = failed.any(axis=0)
    if rows.any():
        row = int(np.argmax(rows))
        raise ValidationError(checks[int(np.argmax(failed[:, row]))][1](row))


def _norm_checks(squares: np.ndarray) -> list[tuple]:
    """StateVector's check on rows of squared amplitude magnitudes: each
    row sums to within 1e-9 of 1."""
    norms = squares.sum(axis=1)
    return [(
        np.abs(norms - 1.0) > 1e-9,
        lambda row: f"state norm {float(norms[row])} deviates from 1 beyond 1e-9",
    )]


def _distribution_checks(probs: np.ndarray) -> list[tuple]:
    """OutcomeDistribution's checks on rows of probabilities: every entry
    lies in [0, 1] within 1e-12, and each row sums to within 1e-9 of 1."""
    totals = probs.sum(axis=1)
    return [
        (
            np.any((probs < -1e-12) | (probs > 1.0 + 1e-12), axis=1),
            lambda row: "probabilities must lie in [0, 1]",
        ),
        (
            np.abs(totals - 1.0) > 1e-9,
            lambda row: f"probabilities sum to {float(totals[row])}, beyond 1e-9 of 1",
        ),
    ]


# ---------------------------------------------------------------------------
# tensor kernel

@lru_cache(maxsize=None)
def _axis_orders(n: int, axes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The permutation of an (S, d, ..., d) stack of n-qubit states that
    brings qubit ``axes`` to the front after the slab axis (the other qubits
    keep their order), and its inverse."""
    front = axes + tuple(a for a in range(n) if a not in axes)
    return (0,) + tuple(a + 1 for a in front), (0,) + tuple(front.index(a) + 1 for a in range(n))


def _apply_slabs(slabs: np.ndarray, op: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Apply a d^k x d^k operator to qubit ``axes`` of every state in
    ``slabs``, an (S, d, ..., d) stack of states (slabs); the output axes take
    their places. ``op`` is one matrix for every slab or an (S, d^k, d^k)
    stack, one per slab. The stack is permuted to (S, d^k, rest) and
    multiplied by one broadcast matmul, which makes the same 2-D product per
    slab as a single state gets; the result is a transposed view."""
    front, back = _axis_orders(slabs.ndim - 1, axes)
    out = np.matmul(op, slabs.transpose(front).reshape(len(slabs), op.shape[-1], -1))
    return out.reshape(slabs.shape).transpose(back)


def _apply_local(tensor: np.ndarray, op: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """_apply_slabs on one state (no slab axis)."""
    return _apply_slabs(tensor[None], op, axes)[0]


# Pauli-transfer-matrix (PTM) representation of density matrices: an n-qubit
# state is the real tensor r[s_0, ..., s_{n-1}] = Tr(P_s rho) over the Pauli
# strings P_s = P_{s_0} (x) ... (x) P_{s_{n-1}} with P = (I, X, Y, Z), so
# rho = sum_s r_s P_s / 2^n. A k-qubit map E acts on the k axes of its qubits
# through the real 4^k x 4^k matrix R[s, t] = Tr(P_s E(P_t)) / 2^k.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# one qubit's 2x2 block, flattened as 2*i + j, to and from its Pauli coefficients
_TO_PAULI = _PAULI.transpose(0, 2, 1).reshape(4, 4)
_FROM_PAULI = _PAULI.reshape(4, 4).T / 2.0
_PAULI_ZERO = (0, 3)  # |0><0| = (I + Z) / 2: r = 1 on I and Z, 0 on X and Y
# one qubit's diagonal entries (flat 0 and 3) from its I and Z coefficients:
# <0|rho|0> = (r_I + r_Z) / 2 and <1|rho|1> = (r_I - r_Z) / 2
_DIAGONAL_FROM_PAULI = _FROM_PAULI[np.ix_((0, 3), _PAULI_ZERO)].real
_I4 = np.eye(4)


def _on_each_axis(stack: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Apply ``mat`` to every qubit axis of ``stack``, an (S, d, ..., d)
    stack of states; the axis order comes back unchanged. Each round takes
    the first qubit axis and multiplies the stack, laid out as (S, rest, d),
    by mat.T: the product tensordot made, one state at a time."""
    count, shape = len(stack), stack.shape[1:]
    for _ in shape:
        moved = np.moveaxis(stack, 1, -1).reshape(count, -1, shape[0])
        stack = (moved @ mat.T).reshape((count,) + stack.shape[2:] + (mat.shape[0],))
    return stack


def _density_to_pauli(state: DensityMatrix) -> np.ndarray:
    n = state.n_qubits
    paired = state.entries.reshape((2,) * (2 * n))
    paired = paired.transpose([a for q in range(n) for a in (q, n + q)])
    return np.real(_on_each_axis(paired.reshape((1,) + (4,) * n), _TO_PAULI)[0])


def _pauli_to_density(tensor: np.ndarray) -> DensityMatrix:
    n = tensor.ndim
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    paired = _on_each_axis(tensor[None], _FROM_PAULI).reshape((2,) * (2 * n))
    # the reshape copies, so the paired tensor is freed before validation
    entries = paired.transpose(order).reshape(2**n, 2**n)
    del paired
    return DensityMatrix(n, entries)


def _pauli_diagonals(stack: np.ndarray) -> tuple[np.ndarray, list]:
    """The outcome probabilities of a stack of PTM states, one row each
    (whole tensors, or their {I, Z}^n corners: axes of 2): the diagonal of
    rho, read from the corner of each tensor and clipped at 0, as
    DensityMatrix.probabilities_vector gives them after
    _pauli_to_density (bit for bit: the corner is transformed axis by axis
    in the same order, and the X and Y terms it leaves out are exact zeros
    on the diagonal). Returns the rows and the state checks on them
    (for _readout to raise).

    The checks that stay meaningful without rho: the trace r[0, ..., 0]
    lies within 1e-9 of 1, and no diagonal entry lies below -1e-8, which
    every state without an eigenvalue below -1e-8 satisfies. Hermiticity
    holds by construction, since the coefficients are real.
    """
    count, n = len(stack), stack.ndim - 1
    if stack.shape[1:] != (2,) * n:
        stack = stack[(slice(None),) + np.ix_(*[_PAULI_ZERO] * n)]
    traces = stack[(slice(None),) + (0,) * n]
    diagonal = _on_each_axis(stack, _DIAGONAL_FROM_PAULI).reshape(count, -1)
    lows = diagonal.min(axis=1)
    return np.clip(diagonal, 0.0, None), [
        (
            np.abs(traces - 1.0) > 1e-9,
            lambda row: f"density matrix trace {float(traces[row])} deviates from 1 beyond 1e-9",
        ),
        (lows < -1e-8, lambda row: f"density matrix has diagonal entry {float(lows[row])} below -1e-8"),
    ]


def _measure_pauli(stack: np.ndarray, profile: NoiseProfile) -> np.ndarray:
    """The measured distributions of a stack of PTM states, one row each,
    as measure_distribution(_pauli_to_density(state), profile).vector gives
    them, bit for bit, with every check of that path on every row."""
    return _readout(*_pauli_diagonals(stack), stack.ndim - 1, profile)


@lru_cache(maxsize=None)
def _pauli_basis(k: int) -> np.ndarray:
    """Row s is the row-major flattening of the k-qubit Pauli string P_s."""
    strings = [reduce(np.kron, paulis) for paulis in product(_PAULI, repeat=k)]
    basis = np.array(strings).reshape(4**k, 4**k)
    basis.flags.writeable = False
    return basis


def _kraus_ptms(operators: np.ndarray) -> np.ndarray:
    """PTMs of maps rho -> sum_i K_i rho K_i^dagger, one per Kraus set of
    ``operators``, an (S, m, d, d) stack of m operators per set, through the
    row-major superoperators sum_i kron(K_i, conj(K_i)). Every step is one
    broadcast product or matmul over the stack; ``sum`` starts from 0, so a
    -0.0 entry becomes +0.0 whatever m is. A set's PTM has the same bits
    alone or in a stack."""
    count, _, dim, _ = operators.shape
    basis = _pauli_basis(int(math.log2(dim)))
    superop = sum(
        (ops[:, :, None, :, None] * ops.conj()[:, None, :, None, :]).reshape(count, dim**2, dim**2)
        for ops in operators.transpose(1, 0, 2, 3)
    )
    return np.real(basis.conj() @ superop @ basis.T) / dim


def _kraus_ptm(operators: tuple[np.ndarray, ...]) -> np.ndarray:
    """PTM of one Kraus set: _kraus_ptms of a stack of one."""
    return _kraus_ptms(np.array(operators)[None])[0]


def unitary_ptm(gate: Gate) -> np.ndarray:
    """PTM of a gate's unitary (4x4 or 16x16)."""
    return _kraus_ptm((gate_matrix(gate),))


@lru_cache(maxsize=None)
def _part_ptm(make: Callable[..., KrausChannel], numbers: tuple) -> np.ndarray:
    """PTM of one noise part (noise.gate_noise_parts), built once per kind and
    defining numbers rather than once per gate target set. Its Kraus set is
    checked to be complete (trace preserving) before the PTM is cached."""
    channel = make(*numbers)
    channel.validate()
    ptm = _kraus_ptm(channel.operators)
    ptm.flags.writeable = False
    return ptm


@lru_cache(maxsize=1024)
def noise_ptm(profile: NoiseProfile, targets: tuple[int, ...]) -> np.ndarray:
    """PTM of the profile's noise after any gate on ``targets``: the parts of
    noise.gate_noise_parts composed in order. It depends on the gate's arity
    and targets only, never on its kind or angle."""
    width = len(targets)
    ptm = np.eye(4**width)
    probe = Gate("H" if width == 1 else "CX", targets)
    for make, numbers, qubits in gate_noise_parts(profile, probe):
        part = _part_ptm(make, numbers)
        if len(qubits) < width:
            position = targets.index(qubits[0])
            part = reduce(np.kron, [part if slot == position else _I4 for slot in range(width)])
        ptm = part @ ptm
    ptm.flags.writeable = False
    return ptm


def _noisy_gate_ptms(profile: NoiseProfile, targets: tuple[int, ...], unitaries: np.ndarray) -> np.ndarray:
    """PTMs of (gate unitary, then its noise), one per unitary of the
    stack, for gates on ``targets``: one contraction applies both. Each has
    the same bits as the gate's PTM built alone."""
    return noise_ptm(profile, targets) @ _kraus_ptms(unitaries[:, None])


# Contraction plans (fused noisy walks, from 7 qubits). A stack of PTM
# states is held flat, (S, entries), with a layout: its digits from the most
# significant on, each (qubit, part). Part "f" holds a qubit's four entries
# in natural order (I, X, Y, Z), "c" only its I and Z entries, and a pair
# "b", "w" splits its four entries into the pattern bit b (1 on X and Y) and
# the index w within the pattern: (I, Z) or (X, Y), natural order within
# each pattern. A qubit's "b" digit always precedes its "w" digit.
_PART_SIZES = {"f": 4, "c": 2, "b": 2, "w": 2}
# a digit's value at each Pauli index (-1: the part does not hold it)
_PART_OFFSETS = {
    "f": np.arange(4), "c": np.array([0, -1, -1, 1]), "b": np.array([0, 1, 1, 0]), "w": np.array([0, 0, 1, 1])
}
_PAIR_CODES = np.array([[0, 3], [1, 2]])  # the Pauli index at (b, w)


class _Plan(NamedTuple):
    """One step of a fused walk (_plan_step). Its gather reads, for each
    entry of ``front`` (the targets' entries in the operator's order, as
    flat positions), the grid of the other digits: ``shape`` and
    ``strides`` (in entries) from there, ``extent`` being the number of
    positions such a grid may start at. The product takes the operator's
    rows ``select`` (``split``: the (patterns, 2^k) grid of its entries per
    pattern); the result is a state of ``layout``."""

    targets: tuple[int, ...]
    front: np.ndarray
    shape: tuple[int, ...]
    strides: tuple[int, ...]
    extent: int
    select: np.ndarray
    split: bool
    layout: tuple


def _offsets(layout: tuple, qubits) -> tuple[dict, list[int]]:
    """Per qubit of ``qubits``, the flat position in a state of ``layout``
    of each of its Pauli entries; and the stride of every digit."""
    strides, stride = [], 1
    for _, part in reversed(layout):
        strides.append(stride)
        stride *= _PART_SIZES[part]
    strides.reverse()
    offsets = dict.fromkeys(qubits, 0)
    for (q, part), stride in zip(layout, strides):
        if q in offsets:
            offsets[q] = offsets[q] + stride * _PART_OFFSETS[part]
    return offsets, strides


def _grid(offsets: list, split: bool, corner: list[bool]) -> np.ndarray:
    """Over the entries of some qubits in an operator's order, the sum of
    each qubit's ``offsets`` (by Pauli index): lexicographic over their
    Pauli indices, only I and Z for a qubit marked ``corner``; or ``split``,
    over the pattern bits of the unmarked qubits, then the indices within
    the pattern of all of them."""
    if not split:
        return reduce(np.add.outer, [off[_PAULI_ZERO,] if c else off for off, c in zip(offsets, corner)]).ravel()
    bits = [i for i, c in enumerate(corner) if not c]
    total = np.zeros((), dtype=np.intp)
    for i, (off, c) in enumerate(zip(offsets, corner)):
        shape = [1] * (len(bits) + len(offsets))
        shape[len(bits) + i] = 2
        if not c:
            shape[bits.index(i)] = 2
        total = total + (off[_PAULI_ZERO,] if c else off[_PAIR_CODES]).reshape(shape)
    return total.ravel()


def _plan_step(layout: tuple, targets: tuple[int, ...], split: bool, done: frozenset) -> _Plan:
    """The plan of a step on ``targets`` applied to a state of ``layout``.
    The gather puts the targets first, in the operator's order (natural, or
    ``split``: pattern bits, then indices within the pattern), and the other
    digits after them in their order. A qubit of ``done`` (the step is its
    last) keeps only I and Z: its operator rows are sliced, and a split step
    gathers only its I/Z patterns."""
    offsets, strides = _offsets(layout, targets)
    entries = strides[0] * _PART_SIZES[layout[0][1]]
    corner = [t in done for t in targets]
    # the other digits: blocks of them between targets, each one grid axis
    shape: list[int] = []
    steps: list[int] = []
    joined = False
    for (q, part), stride in zip(layout, strides):
        if q in offsets:
            joined = False
        elif joined:
            shape[-1] *= _PART_SIZES[part]
            steps[-1] = stride
        else:
            shape.append(_PART_SIZES[part])
            steps.append(stride)
            joined = True
    reach = sum((size - 1) * stride for size, stride in zip(shape, steps))
    front = _grid([offsets[t] for t in targets], split, corner if split else [False] * len(targets))
    k = len(targets)
    select = _grid([4 ** (k - 1 - i) * np.arange(4) for i in range(k)], split, corner)
    if split:
        select = select.reshape(-1, 2**k)
        out = tuple((t, "b") for t, c in zip(targets, corner) if not c)
        out += tuple((t, "c" if c else "w") for t, c in zip(targets, corner))
    else:
        out = tuple((t, "c" if c else "f") for t, c in zip(targets, corner))
    rest = tuple(digit for digit in layout if digit[0] not in offsets)
    return _Plan(targets, front, tuple(shape), tuple(steps), entries - reach, select, split, out + rest)


def _plan_ops(op: np.ndarray, plan: _Plan) -> np.ndarray:
    """A step's operator as _contract applies it: its kept rows, or split,
    one block per gathered pattern."""
    select = plan.select
    if plan.split:
        return op[select[:, :, None], select[:, None, :]]
    return op if len(select) == op.shape[-2] else op[..., select, :]


def _contract(slabs: np.ndarray, ops: np.ndarray, plan: _Plan) -> np.ndarray:
    """Apply a planned step to ``slabs``, an (S, entries) stack of states:
    one gather (the step's one copy: for each slab and front entry, a
    strided grid of a view of the stack) and one broadcast np.matmul, a 2-D
    product per slab, or per slab and pattern. ``ops`` is _plan_ops of one
    operator for every slab or of an (S, d^k, d^k) stack, one per slab."""
    count, item = len(slabs), slabs.itemsize
    view = np.ndarray(
        (count, plan.extent) + plan.shape, slabs.dtype, slabs, 0,
        (slabs.strides[0], item) + tuple(item * stride for stride in plan.strides),
    )
    gathered = view[np.arange(count)[:, None], plan.front]
    if plan.split:
        gathered = gathered.reshape((count,) + plan.select.shape + (-1,))
    else:
        gathered = gathered.reshape(count, ops.shape[-1], -1)
    return np.matmul(ops, gathered).reshape(count, -1)


def _pattern_diagonal(op: np.ndarray) -> bool:
    """Whether a PTM is exactly zero between Pauli strings whose X/Y
    supports differ: then its product splits into one per support pattern,
    and the terms it leaves out add exact zeros."""
    return not op.take(_OFF_PATTERN[len(op)]).any()


# ---------------------------------------------------------------------------
# execution

# Every stack of slabs of the walk below holds at most this many entries
# (and at least one state): one 8-qubit PTM state. Batching larger states
# does not pay, and it would raise the peak memory of an 8-qubit noisy run.
BATCH_ENTRIES = 2**16


# Gate fusion: on a state wider than a block, runs of gates on at most
# FUSED_QUBITS qubits are multiplied into one operator, so the state is
# copied and contracted once per block instead of once per gate. At 8 qubits
# a contraction costs about the same for 2 or 3 target qubits (the strided
# copy dominates, not the arithmetic); 4-qubit blocks cost more than they save.
FUSED_QUBITS = 3

# per operator size 4^k (k <= FUSED_QUBITS), the flat positions of its
# entries between Pauli strings of different X/Y-support patterns
_OFF_PATTERN = {}
for _k in range(1, FUSED_QUBITS + 1):
    _pattern = reduce(lambda a, b: (2 * a[:, None] + b).ravel(), [_PART_OFFSETS["b"]] * _k)
    _OFF_PATTERN[4**_k] = np.flatnonzero(_pattern[:, None] != _pattern[None, :])


class _Block(NamedTuple):
    """Gates of a fusion plan applied as one operator on ``targets``:
    ``gates`` in circuit order, ``kind`` their shapes (kind, targets), so the
    blocks of rows that differ only in angles share a shape."""

    kind: tuple[tuple[str, tuple[int, ...]], ...]
    targets: tuple[int, ...]
    gates: tuple[Gate, ...]


def _absorb(shapes: tuple, remaining: list[int], qubits: set[int]) -> list[int]:
    """The gates of ``remaining`` (positions into ``shapes``, in order) that
    a block on ``qubits`` placed before all of them takes: each gate on
    those qubits that no gate left out precedes on a shared qubit."""
    members: list[int] = []
    blocked: set[int] = set()
    for i in remaining:
        targets = shapes[i][1]
        if qubits.issuperset(targets) and blocked.isdisjoint(targets):
            members.append(i)
        else:
            blocked.update(targets)
            if blocked >= qubits:
                break
    return members


@lru_cache(maxsize=256)
def _fusion_plan(shapes: tuple[tuple[str, tuple[int, ...]], ...]) -> tuple:
    """Blocks of at most FUSED_QUBITS qubits that cover a gate list of these
    shapes (kind, targets): per block its qubits and the positions of its
    gates, in order. A gate moves only past gates on disjoint qubits, so the
    blocks applied in order make the same product as the gates.

    Greedy: a block starts on the qubits of the first gate not yet taken
    and takes every gate _absorb allows; while it has room, it adds the
    qubit, among those sharing a remaining gate with it, that lets it take
    the most gates (the lowest on ties), and stops when none takes more.
    """
    remaining = list(range(len(shapes)))
    plan = []
    while remaining:
        qubits = set(shapes[remaining[0]][1])
        members = _absorb(shapes, remaining, qubits)
        while len(qubits) < FUSED_QUBITS:
            near = {q for i in remaining for q in shapes[i][1] if not qubits.isdisjoint(shapes[i][1])}
            grown = [(q, _absorb(shapes, remaining, qubits | {q})) for q in sorted(near - qubits)]
            best = max(grown, key=lambda option: len(option[1]), default=None)
            if best is None or len(best[1]) == len(members):
                break
            qubits.add(best[0])
            members = best[1]
        plan.append((tuple(sorted(qubits)), tuple(members)))
        taken = set(members)
        remaining = [i for i in remaining if i not in taken]
    return tuple(plan)


def _program(gates: tuple[Gate, ...], fuse: bool) -> tuple:
    """The steps a walk applies for a gate list: the gates themselves, or
    with ``fuse`` the blocks of its fusion plan, a block of one gate being
    that gate. The plan depends on this gate list only."""
    if not fuse:
        return gates
    shapes = tuple((g.kind, g.targets) for g in gates)
    steps = []
    for targets, members in _fusion_plan(shapes):
        if len(members) == 1:
            steps.append(gates[members[0]])
        else:
            take = itemgetter(*members)
            steps.append(_Block(take(shapes), targets, take(gates)))
    return tuple(steps)


def _step_ops(profile: NoiseProfile | None, step, angles, rows, memo) -> np.ndarray:
    """The matrix of one walk step: a gate's noisy PTM under a profile, its
    unitary without one (the walk builds them first); a fixed block's
    product of those (_block_ops), built once per walk. A slot's and a
    slotted block's are one per row of ``rows``; a slot's come from a stack
    built once per walk for every row of ``angles``."""
    if isinstance(step, Gate):
        return memo[id(step)]
    op = memo.get(step)
    if isinstance(step, Slot):
        if op is None:
            unitaries = _ry_matrices([step.sign * theta for theta in angles[:, step.qubit].tolist()])
            op = unitaries if profile is None else _noisy_gate_ptms(profile, step.targets, unitaries)
            memo[step] = op
        return op if len(rows) == len(op) else op[rows]
    if op is None:
        op = _block_ops(profile, step, angles, rows, memo)
        if op.ndim == 2:
            memo[step] = op
    return op


def _block_ops(profile: NoiseProfile | None, block: _Block, angles, rows, memo) -> np.ndarray:
    """The operator of a block: its steps' matrices (_step_ops, so under a
    profile every gate keeps its noise and a fold G G^dagger G does not
    cancel) multiplied in order, by evolving the identity through the kernel
    as 2k-axis tensors, each step on the k output axes; one per row of
    ``rows`` from its first slot on, with the bits of a build alone."""
    d = 2 if profile is None else 4
    k = len(block.targets)
    ops = np.eye(d**k, dtype=complex if profile is None else float).reshape((1,) + (d,) * (2 * k))
    per_row = False
    for step in block.gates:
        op = _step_ops(profile, step, angles, rows, memo)
        if op.ndim == 3 and not per_row:
            ops, per_row = np.repeat(ops, len(op), axis=0), True
        ops = _apply_slabs(ops, op, tuple(block.targets.index(t) for t in step.targets))
    ops = ops.reshape(len(ops), d**k, d**k)
    return ops if per_row else ops[0]


def _last_steps(steps: tuple) -> list[frozenset]:
    """Per step of a step list, the qubits that no later step touches."""
    last = {q: j for j, step in enumerate(steps) for q in step.targets}
    return [frozenset(q for q in step.targets if last[q] == j) for j, step in enumerate(steps)]


def _fused_step(table: dict, profile, layout: tuple, step, done: frozenset, angles, rows, memo) -> tuple:
    """The plan of a fused step on a state of ``layout`` and the operator
    _contract applies, from the walk's ``table``. Per (layout, step, done),
    by identity, it keeps the plan and a fixed operator as planned; a
    per-row operator is planned per call. A miss tests a fixed PTM for
    splitting (one exact-zero test) and looks the plan up by value, so
    equal layouts share one plan and one next layout."""
    key = (id(layout), id(step), done)
    entry = table.get(key)
    if entry is not None and entry[1] is not None:
        return entry
    op = _step_ops(profile, step, angles, rows, memo)
    if entry is None:
        split = op.ndim == 2 and _pattern_diagonal(op)
        value = (layout, step.targets, split, done)
        plan = table.get(value)
        if plan is None:
            plan = table[value] = _plan_step(*value)
        ops = _plan_ops(op, plan)
        table[key] = (plan, ops if op.ndim == 2 else None)
        return plan, ops
    return entry[0], _plan_ops(op, entry[0])


def _walk(
    circuits: list[Circuit], angles, initial: np.ndarray, profile: NoiseProfile | None, finish, corner: bool = False
) -> list:
    """Evolve ``initial`` through the gate list of every circuit for every
    row of ``angles`` (None: one row, for circuits without slots), and
    return one result per (row, circuit), row by row. Where circuits end,
    ``finish`` takes the stack of their final states, one per row, and
    returns one result per state; circuits that end at one node share its
    results. With a profile the states are PTM tensors, without one state
    vectors (_step_ops). With ``corner`` (a profile), ``finish`` reads only
    the {I, Z}^n corner of each state, and a qubit's axis may hold only
    its I and Z entries.

    From 7 qubits (d^n > d^(2 * FUSED_QUBITS)) a circuit steps through its
    fusion plan (_program), else gate by gate. The step lists are walked as
    a trie of exact step prefixes: a node is the set of circuits that share
    their steps so far, holding one slab per row. It applies their shared
    run of steps to all its slabs, one kernel call per step, so a step's
    Python work does not grow with the rows; it finishes the circuits that
    end there and forks into one node per distinct next step. The rows are
    chunked once, at the root, into chunks of at most BATCH_ENTRIES
    entries, each built when it is popped. Every state is bit-identical to
    its circuit's run on its own. The gate matrices, slot stacks and fixed
    blocks (``memo``) and the contraction plans (``table``) belong to the
    walk, so threads share none.

    Unfused, a step is one _apply_slabs call and the states stay tensors.
    Fused, they are flat with a layout (_plan_step), a step is one _contract
    call, and ``finish`` gets them gathered into natural order. A fixed
    step whose PTM is pattern-diagonal (_pattern_diagonal) is applied
    pattern by pattern. With ``corner``, a qubit keeps only I and Z from
    the step on that is the last to touch it for every circuit of the node.
    """
    angles = np.zeros((1, 0)) if angles is None else np.asarray(angles, dtype=float)
    if not len(angles):
        return []
    count = len(circuits)
    n = initial.ndim
    fuse = initial.size > initial.shape[0] ** (2 * FUSED_QUBITS)
    lists = [_program(c.gates, fuse) for c in circuits]
    ends = [_last_steps(steps) for steps in lists] if fuse and corner else None
    memo: dict = {}  # by a fixed gate's id (the circuits keep it alive), a slot, a block
    table: dict = {}  # the plans of a fused walk (_fused_step)
    fixed: dict = {}  # every fixed gate's matrix (_step_ops), one stack per target set
    for gate in (g for c in circuits for g in c.gates if isinstance(g, Gate)):
        fixed.setdefault(gate.targets, {})[id(gate)] = gate
    for targets, gates in fixed.items():
        unitaries = np.stack([gate_matrix(gate) for gate in gates.values()])
        memo.update(zip(gates, unitaries if profile is None else _noisy_gate_ptms(profile, targets, unitaries)))
    results: list = [None] * (len(angles) * count)
    shape = (2 if corner else 4,) * n
    # (slabs, layout, depth, members, rows): slab i is the state of row
    # rows[i] after the first `depth` steps, which every circuit of members
    # shares, held as a tensor (layout None) or flat; a root chunk's slabs
    # are None until it is popped
    chunk = max(1, BATCH_ENTRIES // initial.size)
    start = tuple((q, "f") for q in range(n)) if fuse and profile is not None else None
    pending = [
        (None, start, 0, list(range(count)), np.arange(r, min(r + chunk, len(angles))))
        for r in range(0, len(angles), chunk)
    ]
    while pending:
        slabs, layout, depth, members, rows = pending.pop()
        if slabs is None:
            slabs = np.repeat(initial[None], len(rows), axis=0)
            if layout is not None:
                slabs = slabs.reshape(len(rows), -1)
        while True:
            live = [i for i in members if depth < len(lists[i])]
            ending = [i for i in members if depth == len(lists[i])]
            if ending:
                states = slabs
                if layout is not None:
                    natural = _grid(list(_offsets(layout, range(n))[0].values()), False, [corner] * n)
                    states = slabs[:, natural].reshape((len(slabs),) + shape)
                    if not live:
                        slabs = None  # free the node's state before its last finish
                for row, result in zip(rows.tolist(), finish(states)):
                    for i in ending:
                        results[row * count + i] = result
            if not live:
                break
            lead = lists[live[0]]
            stop = min(len(lists[i]) for i in live)
            for i in live[1:]:
                steps = lists[i]
                if steps[depth:stop] != lead[depth:stop]:
                    stop = next(j for j in range(depth, stop) if steps[j] != lead[j])
            if stop == depth:
                forks: dict = {}
                for i in live:
                    forks.setdefault(lists[i][depth], []).append(i)
                pending += [(slabs, layout, depth, fork, rows) for fork in forks.values()]
                break
            for j in range(depth, stop):
                step = lead[j]
                if layout is None:
                    slabs = _apply_slabs(slabs, _step_ops(profile, step, angles, rows, memo), step.targets)
                    continue
                done = frozenset.intersection(*(ends[i][j] for i in live)) if ends else frozenset()
                plan, ops = _fused_step(table, profile, layout, step, done, angles, rows, memo)
                slabs, layout = _contract(slabs, ops, plan), plan.layout
            members, depth = live, stop
    return results


def _qubit_count(circuits: list[Circuit], runner: str, backend: str) -> int:
    n = circuits[0].n_qubits
    cap = IDEAL_QUBIT_CAP if backend == "ideal" else DENSITY_QUBIT_CAP
    if any(c.n_qubits != n for c in circuits):
        raise ValidationError(f"{runner} needs circuits on one qubit count")
    if n > cap:
        raise CapExceeded(f"{n} qubits exceeds the {backend}-backend cap of {cap}")
    return n


def run_ideal(circuit: Circuit) -> StateVector:
    """Apply the gate list to |0...0> and return the final pure state."""
    return run_ideal_many([circuit])[0]


def run_ideal_many(circuits: list[Circuit]) -> list[StateVector]:
    """run_ideal of every circuit, in order, evolved together by one walk;
    each state is bit-identical to that circuit's run on its own."""
    return _walk_ideal(
        circuits, None, "run_ideal_many",
        lambda stack: [StateVector(state.ndim, state.reshape(-1)) for state in stack],
    )


def ideal_probabilities(circuits: list[Circuit], angles: np.ndarray | None = None) -> np.ndarray:
    """measure_distribution(run_ideal(circuit)).vector of every circuit, for
    every row of ``angles`` (without it, of circuits without slots), one row
    each, row by row and bit for bit, evolved together by one walk. The
    states are measured one stack per node, with StateVector's norm check
    and OutcomeDistribution's checks on every row."""
    return np.array(_walk_ideal(circuits, angles, "ideal_probabilities", _measure_amplitudes))


def _walk_ideal(circuits: list[Circuit], angles, runner: str, finish) -> list:
    """_walk from |0...0> in the state-vector representation."""
    if not circuits:
        return []
    n = _qubit_count(circuits, runner, "ideal")
    tensor = np.zeros((2,) * n, dtype=complex)
    tensor[(0,) * n] = 1.0
    return _walk(circuits, angles, tensor, None, finish)


def _measure_amplitudes(stack: np.ndarray) -> np.ndarray:
    """The measured distributions of a stack of state vectors, one row each,
    as measure_distribution(StateVector(n, state)).vector gives them."""
    squares = np.abs(stack.reshape(len(stack), -1)) ** 2
    return _readout(squares, _norm_checks(squares), stack.ndim - 1, None)


def run_noisy(circuit: Circuit, profile: NoiseProfile) -> DensityMatrix:
    """Evolve |0...0><0...0| through the circuit, applying each gate's unitary
    followed by the profile's noise channel for that gate."""
    return run_noisy_many([circuit], profile)[0]


def run_noisy_many(circuits: list[Circuit], profile: NoiseProfile) -> list[DensityMatrix]:
    """run_noisy of every circuit, in order, evolved together by one walk;
    each state is bit-identical to that circuit's run on its own."""
    return _walk_noisy(
        circuits, None, profile, "run_noisy_many",
        lambda stack: [_pauli_to_density(state) for state in stack],
    )


def noisy_probabilities(
    circuits: list[Circuit], profile: NoiseProfile, angles: np.ndarray | None = None
) -> np.ndarray:
    """measure_distribution(run_noisy(circuit, profile), profile).vector of
    every circuit, for every row of ``angles`` (without it, of circuits
    without slots), one row each, row by row and bit for bit, evolved
    together by one walk. No density matrix is built: the states are
    measured one stack per node by _measure_pauli, which checks each state's
    trace and diagonal."""
    return np.array(
        _walk_noisy(
            circuits, angles, profile, "noisy_probabilities",
            lambda stack: _measure_pauli(stack, profile), corner=True,
        )
    )


def _walk_noisy(
    circuits: list[Circuit], angles, profile: NoiseProfile, runner: str, finish, corner: bool = False
) -> list:
    """_walk from |0...0><0...0| in the PTM representation, each gate
    followed by the profile's noise."""
    if not circuits:
        return []
    n = _qubit_count(circuits, runner, "density")
    if profile.n_qubits < n:
        raise IncompatibleProfile(
            f"profile {profile.name!r} covers {profile.n_qubits} qubits, circuit needs {n}"
        )
    tensor = np.zeros((4,) * n)
    tensor[np.ix_(*[_PAULI_ZERO] * n)] = 1.0
    return _walk(circuits, angles, tensor, profile, finish, corner)


def _apply_ptm_density(state: DensityMatrix, ptm: np.ndarray, qubits: tuple[int, ...]) -> DensityMatrix:
    return _pauli_to_density(_apply_local(_density_to_pauli(state), ptm, qubits))


def apply_gate_density(state: DensityMatrix, gate: Gate) -> DensityMatrix:
    """Apply one gate unitary to a density matrix."""
    n = state.n_qubits
    for t in gate.targets:
        if t >= n:
            raise InvalidTarget(f"gate target {t} out of range for {n} qubits")
    return _apply_ptm_density(state, unitary_ptm(gate), gate.targets)


def apply_channel_density(
    state: DensityMatrix, channel: KrausChannel, qubits: tuple[int, ...]
) -> DensityMatrix:
    """Apply a Kraus channel to the given qubits of a density matrix."""
    n = state.n_qubits
    if len(qubits) != int(math.log2(channel.dim)):
        raise ValidationError("channel dimension does not match the qubit tuple")
    for t in qubits:
        if t >= n:
            raise InvalidTarget(f"channel qubit {t} out of range for {n} qubits")
    return _apply_ptm_density(state, _kraus_ptm(channel.operators), tuple(qubits))


# ---------------------------------------------------------------------------
# measurement

def measure_distribution(
    state: StateVector | DensityMatrix, profile: NoiseProfile | None = None
) -> OutcomeDistribution:
    """Computational-basis outcome probabilities.

    With a profile, each qubit's marginal is pushed through its 2x2 readout
    confusion matrix (independent per-qubit model) and the result is
    renormalized.
    """
    vec = state.probabilities_vector().astype(float)
    return OutcomeDistribution(state.n_qubits, _readout(vec[None], [], state.n_qubits, profile)[0])


def _readout(probs: np.ndarray, checks: list, n: int, profile: NoiseProfile | None) -> np.ndarray:
    """Measure rows of basis probabilities ``probs``: readout confusion
    (with a profile) through the kernel, one qubit at a time on the whole
    stack, then each row clipped at 0, renormalized, checked and clipped as
    an OutcomeDistribution. ``checks`` are the state checks of the rows,
    which a state runs before these."""
    if profile is not None:
        if profile.n_qubits < n:
            raise IncompatibleProfile(
                f"profile {profile.name!r} covers {profile.n_qubits} qubits, state has {n}"
            )
        tensor = probs.reshape((len(probs),) + (2,) * n)
        for q in range(n):
            tensor = _apply_slabs(tensor, profile.confusion_matrix(q).T, (q,))
        probs = tensor.reshape(len(probs), -1)
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum(axis=1, keepdims=True)
    _raise_first(checks + _distribution_checks(probs))
    return np.clip(probs, 0.0, 1.0)


def sample(dist: OutcomeDistribution, shots: int, seed: int) -> ShotCounts:
    """Multinomial draw from the distribution, deterministic given the seed."""
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    counts_vec = Rng(seed).multinomial(dist.vector, shots)
    n = dist.n_qubits
    counts = {
        format(i, f"0{n}b"): int(c) for i, c in enumerate(counts_vec) if c > 0
    }
    return ShotCounts(shots, counts, n)


def sampled_probabilities(probs: np.ndarray, shots: int, seeds) -> np.ndarray:
    """sample(dist, shots, seed).to_distribution().vector for every row of
    ``probs`` (as OutcomeDistribution.vector holds it), row r with seeds[r],
    stacked; the frequencies get OutcomeDistribution's checks."""
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    counts = np.array([Rng(seed).multinomial(p, shots) for p, seed in zip(probs, seeds)])
    freqs = counts.reshape(probs.shape) / shots
    _raise_first(_distribution_checks(freqs))
    return np.clip(freqs, 0.0, 1.0)


@lru_cache(maxsize=None)
def _z_signs(n: int, qubit: int) -> np.ndarray:
    """The read-only +-1 vector of Z_qubit over the 2^n basis outcomes. It
    is int8, so a 20-qubit register's vectors take 1 MB each; a float
    vector times it casts each +-1 exactly, so products are unchanged."""
    bits = (np.arange(2**n) >> (n - 1 - qubit)) & 1
    signs = (1 - 2 * bits).astype(np.int8)
    signs.flags.writeable = False
    return signs


def z_expectations(probs: np.ndarray, qubit_sets: list[tuple[int, ...]]) -> np.ndarray:
    """<Z_a Z_b ...> over the qubits of each set, for every row of
    ``probs`` (outcome distributions of one qubit count): one column per
    set, each the sum along a row of the row times the sets' sign vectors
    in turn."""
    n = probs.shape[1].bit_length() - 1
    for qubits in qubit_sets:
        for q in qubits:
            if not 0 <= q < n:
                raise InvalidTarget(f"qubit {q} out of range for {n}-qubit distribution")
    columns = [
        np.sum(reduce(mul, [_z_signs(n, q) for q in qubits], probs), axis=1)
        for qubits in qubit_sets
    ]
    return np.stack(columns, axis=1)


# ---------------------------------------------------------------------------
# helpers

def maximally_mixed(n_qubits: int) -> DensityMatrix:
    dim = 2**n_qubits
    return DensityMatrix(n_qubits, np.eye(dim, dtype=complex) / dim)


def density_from_state(state: StateVector) -> DensityMatrix:
    amps = state.amplitudes
    return DensityMatrix(state.n_qubits, np.outer(amps, amps.conj()))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) * trace norm of (a - b)."""
    if a.n_qubits != b.n_qubits:
        raise ValidationError("trace distance needs states on equal qubit counts")
    eigs = np.linalg.eigvalsh(a.entries - b.entries)
    return 0.5 * float(np.abs(eigs).sum())
