"""Quantum circuits as immutable gate lists, plus the structural transforms
(adjoint inversion, unitary folding) that noise scaling is built on.

Supported gate kinds:

    H, X          single-qubit, no parameter
    CX            two-qubit (control, target), no parameter
    RX, RY, RZ    single-qubit, one angle in radians
    ZZ            two-qubit exp(-i*theta/2 * Z(x)Z), one angle in radians

Circuits and gates are frozen values: every transformation returns a new
circuit and never mutates its input, which keeps experiment runs replayable.

Text form (one gate per line, used by the CLI):

    # comment
    qubits 2
    H 0
    CX 0 1
    RX 0 0.3
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ArityMismatch, InvalidTarget, ParseError, ScaleOutOfRange, ValidationError

GATE_KINDS = ("H", "X", "CX", "RX", "RY", "RZ", "ZZ")

# kind -> (number of targets, number of parameters)
_ARITY = {
    "H": (1, 0),
    "X": (1, 0),
    "CX": (2, 0),
    "RX": (1, 1),
    "RY": (1, 1),
    "RZ": (1, 1),
    "ZZ": (2, 1),
}

_SELF_ADJOINT = {"H", "X", "CX"}


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ArityMismatch(f"unknown gate kind {self.kind!r}")
        n_targets, n_params = _ARITY[self.kind]
        if len(self.targets) != n_targets:
            raise ArityMismatch(
                f"{self.kind} takes {n_targets} target(s), got {len(self.targets)}"
            )
        if len(self.params) != n_params:
            raise ArityMismatch(
                f"{self.kind} takes {n_params} parameter(s), got {len(self.params)}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise InvalidTarget(f"{self.kind} targets must be distinct, got {self.targets}")
        if any(t < 0 for t in self.targets):
            raise InvalidTarget(f"negative target index in {self.targets}")
        for p in self.params:
            if not math.isfinite(p):
                raise ValidationError(f"{self.kind} parameter must be finite, got {p}")

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    def adjoint(self) -> "Gate":
        if self.kind in _SELF_ADJOINT:
            return self
        return Gate(self.kind, self.targets, tuple(-p for p in self.params))


class Slot(NamedTuple):
    """RY(sign * angle) on ``qubit``, the angle from column ``qubit`` of a
    row's angles. A circuit with slots is a program, which the transforms
    fold for every row at once: a slot's adjoint negates its sign."""

    qubit: int
    sign: float = 1.0
    kind = "RY"

    @property
    def targets(self) -> tuple[int]:
        return (self.qubit,)

    def adjoint(self) -> "Slot":
        return Slot(self.qubit, -self.sign)


def h(q: int) -> Gate:
    return Gate("H", (q,))


def x(q: int) -> Gate:
    return Gate("X", (q,))


def cx(control: int, target: int) -> Gate:
    return Gate("CX", (control, target))


def rx(q: int, theta: float) -> Gate:
    return Gate("RX", (q,), (float(theta),))


def ry(q: int, theta: float) -> Gate:
    return Gate("RY", (q,), (float(theta),))


def rz(q: int, theta: float) -> Gate:
    return Gate("RZ", (q,), (float(theta),))


def zz(a: int, b: int, theta: float) -> Gate:
    return Gate("ZZ", (a, b), (float(theta),))


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValidationError(f"n_qubits must be positive, got {self.n_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            _check_gate(gate, self.n_qubits)

    def __len__(self) -> int:
        return len(self.gates)


def _check_gate(gate: Gate, n_qubits: int) -> None:
    for t in gate.targets:
        if t >= n_qubits:
            raise InvalidTarget(
                f"{gate.kind} target {t} out of range for {n_qubits}-qubit circuit"
            )


def compose(first: Circuit, second: Circuit) -> Circuit:
    """Concatenate two circuits over the same register."""
    if first.n_qubits != second.n_qubits:
        raise ValidationError(
            f"cannot compose circuits on {first.n_qubits} and {second.n_qubits} qubits"
        )
    return Circuit(first.n_qubits, first.gates + second.gates)


def inverse(circuit: Circuit) -> Circuit:
    """The adjoint circuit: gates reversed, each replaced by its adjoint."""
    return Circuit(circuit.n_qubits, tuple(g.adjoint() for g in reversed(circuit.gates)))


def fold_to_scale(circuit: Circuit, scale: float) -> Circuit:
    """Fold the circuit so its gate count grows by roughly ``scale``.

    Odd integer scales fold the whole circuit (2k + 1 = scale). Other scales
    fold globally to the largest odd integer below ``scale`` and then fold
    the trailing m gates individually (g -> g g' g, with g' the adjoint),
    where m = round((scale - s_odd) * gate_count / 2). Trailing gates are
    chosen so the construction stays deterministic.
    """
    return fold_to_scales(circuit, (scale,))[0]


def fold_to_scales(circuit: Circuit, scales) -> list[Circuit]:
    """fold_to_scale of the circuit at every scale, in order. The adjoint
    gates are built once for all the scales: those of the global folds, and
    those of the trailing gates, which are the first m adjoint gates."""
    for scale in scales:
        if scale < 1.0:
            raise ScaleOutOfRange(f"scale must be >= 1, got {scale}")
    gates = circuit.gates
    if not gates:
        return [circuit for _ in scales]
    adjoint = inverse(circuit).gates
    folds = []
    for scale in scales:
        nearest = round(scale)
        if abs(scale - nearest) < 1e-9 and nearest % 2 == 1:
            k, m = (nearest - 1) // 2, 0
        else:
            s_odd = int(scale)
            if s_odd % 2 == 0:
                s_odd -= 1
            k = (s_odd - 1) // 2
            m = min(round((scale - s_odd) * len(gates) / 2.0), len(gates))
        folded = gates + k * (adjoint + gates)
        tail = zip(gates[len(gates) - m :], adjoint[m - 1 :: -1])
        folded = folded[: len(folded) - m] + tuple(g for gate, inv in tail for g in (gate, inv, gate))
        folds.append(Circuit(circuit.n_qubits, folded))
    return folds


def gate_counts(circuit: Circuit) -> tuple[int, int]:
    """(single-qubit gate count, two-qubit gate count)."""
    ones = sum(1 for g in circuit.gates if len(g.targets) == 1)
    return ones, len(circuit.gates) - ones


def depth(circuit: Circuit) -> int:
    """Layered depth: each gate lands one past the deepest qubit it touches."""
    level = [0] * circuit.n_qubits
    for gate in circuit.gates:
        d = 1 + max(level[t] for t in gate.targets)
        for t in gate.targets:
            level[t] = d
    return max(level, default=0)


def to_text(circuit: Circuit) -> str:
    """Serialize to the line-oriented text form. Round-trips via from_text."""
    lines = [f"qubits {circuit.n_qubits}"]
    for gate in circuit.gates:
        parts = [gate.kind] + [str(t) for t in gate.targets] + [repr(p) for p in gate.params]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Circuit:
    """Parse the line-oriented text form produced by to_text."""
    n_qubits = None
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n_qubits is None:
            if parts[0].lower() != "qubits" or len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'qubits N' header, got {raw!r}")
            try:
                n_qubits = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad qubit count {parts[1]!r}") from None
            continue
        kind = parts[0].upper()
        if kind not in _ARITY:
            raise ParseError(f"line {lineno}: unknown gate {parts[0]!r}")
        n_targets, n_params = _ARITY[kind]
        if len(parts) != 1 + n_targets + n_params:
            raise ParseError(
                f"line {lineno}: {kind} expects {n_targets} target(s) and "
                f"{n_params} parameter(s)"
            )
        try:
            targets = tuple(int(p) for p in parts[1 : 1 + n_targets])
            params = tuple(float(p) for p in parts[1 + n_targets :])
        except ValueError:
            raise ParseError(f"line {lineno}: bad number in {raw!r}") from None
        try:
            gates.append(Gate(kind, targets, params))
        except (ArityMismatch, InvalidTarget, ValidationError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if n_qubits is None:
        raise ParseError("missing 'qubits N' header")
    try:
        return Circuit(n_qubits, tuple(gates))
    except (InvalidTarget, ValidationError) as exc:
        raise ParseError(str(exc)) from None
