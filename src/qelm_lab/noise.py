"""Parametric device noise: profiles, Kraus channels, and per-gate errors.

A NoiseProfile is a transparent synthetic stand-in for a hardware noise
model. It combines three effects:

    * depolarizing error per gate (separate strengths for 1q and 2q gates),
    * thermal relaxation per qubit during each gate, parameterized by
      T1/T2 times and gate durations,
    * classical readout confusion, one row-stochastic 2x2 matrix per qubit.

Relaxation uses the standard amplitude/phase damping decomposition. For a
gate of duration t on qubit q:

    gamma  = 1 - exp(-t / T1[q])                 (amplitude damping)
    lambda = 1 - exp(t / T1[q] - 2 t / T2[q])    (extra phase damping)

so the combined off-diagonal decay matches exp(-t / T2) exactly, and lambda
clamps to 0 when T2 = 2 T1 (relaxation-limited dephasing).

Three profiles ship with the package ("device-a", "device-b", "device-c"),
spanning typical current-device error magnitudes. The JSON schema is
documented in the README and validated on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .circuit import Gate
from .errors import ParseError, ValidationError, coerce

BUNDLED_PROFILES = ("device-a", "device-b", "device-c")

_I2 = np.eye(2, dtype=complex)
_PAULIS = {
    "I": _I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class NoiseProfile:
    """A validated synthetic device description."""

    name: str
    depol_1q: float
    depol_2q: float
    t1_us: tuple[float, ...]
    t2_us: tuple[float, ...]
    gate_time_1q_us: float
    gate_time_2q_us: float
    readout_confusion: tuple[tuple[tuple[float, float], tuple[float, float]], ...]

    def __post_init__(self):
        for label, p in (("depol_1q", self.depol_1q), ("depol_2q", self.depol_2q)):
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{label} must lie in [0, 1], got {p}")
        n = len(self.readout_confusion)
        if n == 0:
            raise ValidationError("readout needs at least one qubit entry")
        if len(self.t1_us) != n or len(self.t2_us) != n:
            raise ValidationError("t1_us, t2_us and readout must cover the same qubits")
        for q, (t1, t2) in enumerate(zip(self.t1_us, self.t2_us)):
            if t1 <= 0:
                raise ValidationError(f"t1_us[{q}] must be positive, got {t1}")
            if not 0.0 < t2 <= 2.0 * t1:
                raise ValidationError(f"t2_us[{q}] must satisfy 0 < t2 <= 2*t1, got {t2}")
        for label, t in (
            ("gate_time_1q_us", self.gate_time_1q_us),
            ("gate_time_2q_us", self.gate_time_2q_us),
        ):
            if t < 0:
                raise ValidationError(f"{label} must be non-negative, got {t}")
        for q, rows in enumerate(self.readout_confusion):
            for row in rows:
                if any(not 0.0 <= v <= 1.0 for v in row):
                    raise ValidationError(f"readout[{q}] entries must lie in [0, 1]")
                if abs(sum(row) - 1.0) > 1e-12:
                    raise ValidationError(f"readout[{q}] rows must sum to 1 within 1e-12")

    @property
    def n_qubits(self) -> int:
        return len(self.readout_confusion)

    def confusion_matrix(self, qubit: int) -> np.ndarray:
        return np.array(self.readout_confusion[qubit], dtype=float)

    @property
    def is_noiseless(self) -> bool:
        if self.depol_1q > 0 or self.depol_2q > 0:
            return False
        if any(not np.allclose(self.confusion_matrix(q), np.eye(2)) for q in range(self.n_qubits)):
            return False
        for t in (self.gate_time_1q_us, self.gate_time_2q_us):
            for q in range(self.n_qubits):
                g, lam = relaxation_params(self, q, t)
                if g > 0 or lam > 0:
                    return False
        return True


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators."""

    operators: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def completeness_defect(self) -> float:
        """Max-abs deviation of sum(K' K) from the identity."""
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for op in self.operators:
            acc += op.conj().T @ op
        return float(np.abs(acc - np.eye(self.dim)).max())

    def validate(self, tol: float = 1e-10) -> None:
        defect = self.completeness_defect()
        if defect > tol:
            raise ValidationError(f"Kraus completeness defect {defect:.3e} exceeds {tol}")


def identity_channel(n_qubits: int = 1) -> KrausChannel:
    return KrausChannel((np.eye(2**n_qubits, dtype=complex),))


def depolarizing_channel(p: float, n_qubits: int) -> KrausChannel:
    """Mix toward the maximally mixed state: rho -> (1-p) rho + p I / 2^n.

    Kraus form: sqrt(1 - p + p/4^n) I plus sqrt(p/4^n) times each of the
    4^n - 1 non-identity Pauli strings.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarizing strength must lie in [0, 1], got {p}")
    if p == 0.0:
        return identity_channel(n_qubits)
    d4 = 4**n_qubits
    ops = []
    # Pauli strings in lexicographic I,X,Y,Z order per qubit
    strings = [""]
    for _ in range(n_qubits):
        strings = [s + c for s in strings for c in "IXYZ"]
    for s in strings:
        mat = np.array([[1.0 + 0j]])
        for c in s:
            mat = np.kron(mat, _PAULIS[c])
        weight = 1.0 - p + p / d4 if s == "I" * n_qubits else p / d4
        ops.append(math.sqrt(weight) * mat)
    return KrausChannel(tuple(ops))


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"gamma must lie in [0, 1], got {gamma}")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1) if gamma > 0 else (k0,))


def phase_damping_channel(lam: float) -> KrausChannel:
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lambda must lie in [0, 1], got {lam}")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex)
    return KrausChannel((k0, k1) if lam > 0 else (k0,))


def thermal_relaxation_channel(gamma: float, lam: float) -> KrausChannel:
    """Amplitude damping followed by extra phase damping on one qubit."""
    if gamma == 0.0 and lam == 0.0:
        return identity_channel(1)
    amp = amplitude_damping_channel(gamma)
    phase = phase_damping_channel(lam)
    ops = []
    for a in amp.operators:
        for p in phase.operators:
            op = p @ a
            if np.abs(op).max() > 1e-15:
                ops.append(op)
    return KrausChannel(tuple(ops))


def relaxation_params(profile: NoiseProfile, qubit: int, duration_us: float) -> tuple[float, float]:
    """(gamma, lambda) for thermal relaxation over ``duration_us`` on ``qubit``."""
    if duration_us <= 0.0:
        return 0.0, 0.0
    t1 = profile.t1_us[qubit]
    t2 = profile.t2_us[qubit]
    gamma = 1.0 - math.exp(-duration_us / t1)
    lam = 1.0 - math.exp(duration_us / t1 - 2.0 * duration_us / t2)
    return gamma, min(max(lam, 0.0), 1.0)


def gate_channel_parts(profile: NoiseProfile, gate: Gate) -> list[tuple[KrausChannel, tuple[int, ...]]]:
    """Per-gate noise as a list of (channel, qubits) applied in order.

    Identity parts are pruned, so a noiseless profile yields an empty list.
    Applying the parts in sequence is equivalent to applying the single
    composed channel from channel_for_gate.
    """
    parts: list[tuple[KrausChannel, tuple[int, ...]]] = []
    if gate.n_targets == 1:
        p, duration = profile.depol_1q, profile.gate_time_1q_us
    else:
        p, duration = profile.depol_2q, profile.gate_time_2q_us
    if p > 0.0:
        parts.append((depolarizing_channel(p, gate.n_targets), gate.targets))
    for q in gate.targets:
        gamma, lam = relaxation_params(profile, q, duration)
        if gamma > 0.0 or lam > 0.0:
            parts.append((thermal_relaxation_channel(gamma, lam), (q,)))
    return parts


def _embed(op: np.ndarray, position: int, width: int) -> np.ndarray:
    mat = np.array([[1.0 + 0j]])
    for slot in range(width):
        mat = np.kron(mat, op if slot == position else _I2)
    return mat


def channel_for_gate(profile: NoiseProfile, gate: Gate) -> KrausChannel:
    """The full noise channel for one gate, composed into a single Kraus set.

    Composition of depolarizing noise on the gate's qubits with thermal
    relaxation on each qubit. The returned set satisfies completeness; near
    zero-strength operators are pruned.
    """
    width = gate.n_targets
    ops = [np.eye(2**width, dtype=complex)]
    for channel, qubits in gate_channel_parts(profile, gate):
        if len(qubits) == width:
            embedded = list(channel.operators)
        else:
            position = gate.targets.index(qubits[0])
            embedded = [_embed(op, position, width) for op in channel.operators]
        ops = [e @ o for o in ops for e in embedded]
    ops = [op for op in ops if np.abs(op).max() > 1e-15]
    return KrausChannel(tuple(ops)) if ops else identity_channel(width)


def zero_noise_profile(n_qubits: int = 12, name: str = "zero-noise") -> NoiseProfile:
    """An explicitly noiseless profile, useful as a control."""
    identity = ((1.0, 0.0), (0.0, 1.0))
    return NoiseProfile(
        name=name,
        depol_1q=0.0,
        depol_2q=0.0,
        t1_us=(100.0,) * n_qubits,
        t2_us=(100.0,) * n_qubits,
        gate_time_1q_us=0.0,
        gate_time_2q_us=0.0,
        readout_confusion=(identity,) * n_qubits,
    )


def _profile_from_dict(raw: dict, source: str) -> NoiseProfile:
    required = [
        "name",
        "depol_1q",
        "depol_2q",
        "t1_us",
        "t2_us",
        "gate_time_1q_us",
        "gate_time_2q_us",
        "readout",
    ]
    for key in required:
        if key not in raw:
            raise ValidationError(f"{source}: missing key {key!r}")
    readout = raw["readout"]
    if not isinstance(readout, list) or not readout:
        raise ValidationError(f"{source}: readout must be a non-empty list of 2x2 matrices")
    n = len(readout)

    def number(key):
        return coerce(f"{source}: {key}", raw[key], float, "a number")

    def per_qubit(value, label):
        if isinstance(value, (int, float)):
            return (float(value),) * n
        if isinstance(value, list) and len(value) == n:
            return tuple(
                coerce(f"{source}: {label}[{q}]", v, float, "a number")
                for q, v in enumerate(value)
            )
        raise ValidationError(f"{source}: {label} must be a number or a list of {n} numbers")

    confusion = []
    for q, mat in enumerate(readout):
        try:
            rows = tuple(tuple(float(v) for v in row) for row in mat)
        except (TypeError, ValueError):
            raise ValidationError(f"{source}: readout[{q}] is not a 2x2 matrix") from None
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValidationError(f"{source}: readout[{q}] is not a 2x2 matrix")
        confusion.append(rows)
    return NoiseProfile(
        name=str(raw["name"]),
        depol_1q=number("depol_1q"),
        depol_2q=number("depol_2q"),
        t1_us=per_qubit(raw["t1_us"], "t1_us"),
        t2_us=per_qubit(raw["t2_us"], "t2_us"),
        gate_time_1q_us=number("gate_time_1q_us"),
        gate_time_2q_us=number("gate_time_2q_us"),
        readout_confusion=tuple(confusion),
    )


def load_profile(path: str | Path) -> NoiseProfile:
    """Load and validate a profile JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return _profile_from_dict(raw, str(path))


def bundled_profile(name: str) -> NoiseProfile:
    """Load one of the profiles shipped with the package."""
    if name == "zero-noise":
        return zero_noise_profile()
    if name not in BUNDLED_PROFILES:
        raise ValidationError(f"unknown bundled profile {name!r}; choose from {BUNDLED_PROFILES}")
    text = resources.files(__package__).joinpath(f"profiles/{name}.json").read_text("utf-8")
    return _profile_from_dict(json.loads(text), f"bundled:{name}")


def resolve_profile(spec: str | Path) -> NoiseProfile:
    """Accept a bundled profile name or a path to a profile file."""
    if isinstance(spec, str) and (spec in BUNDLED_PROFILES or spec == "zero-noise"):
        return bundled_profile(spec)
    return load_profile(spec)
