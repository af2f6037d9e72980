"""Computations made apart from qelm_lab, for the benchmark's correctness
checks. Each one follows the README's definitions, not the package code:

* ``dense_noisy`` evolves a full 2^n x 2^n density matrix gate by gate: the
  gate unitary, then depolarizing noise on the gate's qubits as a mix toward
  the maximally mixed state, then thermal relaxation per target qubit with
  gamma = 1 - exp(-t/T1) and phase damping chosen so coherences decay by
  exp(-t/T2) in total.
* ``mann_whitney_exact`` enumerates the exact null distribution of U from
  mid-ranks.
* ``z_zz_features`` applies per-qubit readout confusion and reads <Z_q> and
  <Z_i Z_j> from outcome probabilities.
"""

from __future__ import annotations

import math
import string
from itertools import combinations

import numpy as np

_I = np.eye(2, dtype=complex)
_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def gate_unitary(kind: str, params: tuple) -> np.ndarray:
    """Standard gate matrices; rotations are exp(-i theta P / 2)."""
    if kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    if kind == "X":
        return _PAULI["X"]
    if kind == "CX":
        return np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    theta = params[0]
    if kind in ("RX", "RY", "RZ"):
        pauli = _PAULI[kind[1]]
        return math.cos(theta / 2) * _I - 1j * math.sin(theta / 2) * pauli
    if kind == "ZZ":
        zz = np.kron(_PAULI["Z"], _PAULI["Z"])
        return math.cos(theta / 2) * np.eye(4) - 1j * math.sin(theta / 2) * zz
    raise ValueError(f"no reference matrix for {kind}")


def embed(op: np.ndarray, targets: tuple, n: int) -> np.ndarray:
    """The full 2^n operator acting as ``op`` on ``targets`` (qubit 0 is the
    most significant bit), built basis state by basis state."""
    k = len(targets)
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_in = sum(bits[t] << (k - 1 - i) for i, t in enumerate(targets))
        for sub_out in range(2**k):
            out_bits = list(bits)
            for i, t in enumerate(targets):
                out_bits[t] = (sub_out >> (k - 1 - i)) & 1
            row = sum(b << (n - 1 - q) for q, b in enumerate(out_bits))
            full[row, col] += op[sub_out, sub_in]
    return full


def depolarize(rho: np.ndarray, targets: tuple, n: int, p: float) -> np.ndarray:
    """(1 - p) rho + p (I / 2^k on ``targets``) (x) Tr_targets(rho)."""
    if p == 0.0:
        return rho
    letters = string.ascii_letters
    tensor = rho.reshape((2,) * (2 * n))
    labels = [letters[i] for i in range(2 * n)]
    for t in targets:
        labels[n + t] = labels[t]
    kept = [labels[i] for i in range(2 * n) if i % n not in targets]
    reduced = np.einsum("".join(labels) + "->" + "".join(kept), tensor)
    out_labels = [letters[i] for i in range(2 * n)]
    fresh = iter(letters[2 * n :])
    eye_terms = []
    for t in targets:
        ket, bra = next(fresh), next(fresh)
        out_labels[t], out_labels[n + t] = ket, bra
        eye_terms.append(ket + bra)
    spec = ",".join(["".join(kept)] + eye_terms) + "->" + "".join(out_labels)
    mixed = np.einsum(spec, reduced, *([np.eye(2)] * len(targets))) / 2 ** len(targets)
    return (1.0 - p) * rho + p * mixed.reshape(rho.shape)


def relax(rho: np.ndarray, q: int, n: int, gamma: float, lam: float) -> np.ndarray:
    """Amplitude damping (gamma) and extra dephasing (lam) on qubit q,
    written element-wise on the density matrix."""
    tensor = rho.reshape((2,) * (2 * n))
    new = tensor.copy()

    def part(ket, bra):
        index = [slice(None)] * (2 * n)
        index[q], index[n + q] = ket, bra
        return tuple(index)

    new[part(0, 0)] = tensor[part(0, 0)] + gamma * tensor[part(1, 1)]
    new[part(1, 1)] = (1.0 - gamma) * tensor[part(1, 1)]
    decay = math.sqrt(1.0 - gamma) * math.sqrt(1.0 - lam)
    new[part(0, 1)] = decay * tensor[part(0, 1)]
    new[part(1, 0)] = decay * tensor[part(1, 0)]
    return new.reshape(rho.shape)


def relaxation(t1: float, t2: float, duration: float) -> tuple[float, float]:
    if duration <= 0.0:
        return 0.0, 0.0
    gamma = 1.0 - math.exp(-duration / t1)
    # amplitude damping alone decays coherences by exp(-t / 2T1); the rest
    # of exp(-t/T2) comes from dephasing: sqrt(1 - lam) = exp(t/2T1 - t/T2)
    lam = 1.0 - math.exp(duration / t1 - 2.0 * duration / t2)
    return gamma, min(max(lam, 0.0), 1.0)


def dense_noisy(circuit, profile) -> np.ndarray:
    """Density matrix of ``circuit`` from |0..0> under ``profile``'s gate noise."""
    n = circuit.n_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        full = embed(gate_unitary(gate.kind, gate.params), gate.targets, n)
        rho = full @ rho @ full.conj().T
        if len(gate.targets) == 1:
            p, duration = profile.depol_1q, profile.gate_time_1q_us
        else:
            p, duration = profile.depol_2q, profile.gate_time_2q_us
        rho = depolarize(rho, gate.targets, n, p)
        for q in gate.targets:
            gamma, lam = relaxation(profile.t1_us[q], profile.t2_us[q], duration)
            rho = relax(rho, q, n, gamma, lam)
    return rho


def midranks(values) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their positions."""
    values = np.asarray(values, dtype=float)
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = np.empty(len(values))
    start = 0
    while start < len(order):
        stop = start
        while stop + 1 < len(order) and values[order[stop + 1]] == values[order[start]]:
            stop += 1
        for k in range(start, stop + 1):
            ranks[order[k]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    return ranks


def mann_whitney_exact(a, b) -> tuple[float, float, float]:
    """(U of ``a``, two-sided exact p, A12 of ``a`` over ``b``), with U from
    mid-rank sums and p from every split of the pooled values."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = len(a), len(b)
    ranks = midranks(np.concatenate([a, b]))
    offset = m * (m + 1) / 2.0
    u_obs = float(ranks[:m].sum() - offset)
    null = [float(ranks[list(idx)].sum() - offset) for idx in combinations(range(m + n), m)]
    low = sum(u <= u_obs + 1e-9 for u in null)
    high = sum(u >= u_obs - 1e-9 for u in null)
    return u_obs, min(1.0, 2.0 * min(low, high) / len(null)), u_obs / (m * n)


def z_zz_features(probs: np.ndarray, confusion: list) -> np.ndarray:
    """<Z_q> for every qubit, then <Z_i Z_j> for i < j, after per-qubit
    readout confusion (rows are P(reported | true))."""
    n = len(confusion)
    full = np.array([[1.0]])
    for matrix in confusion:
        full = np.kron(full, np.asarray(matrix, dtype=float))
    reported = np.clip(np.asarray(probs, dtype=float) @ full, 0.0, None)
    reported = reported / reported.sum()
    signs = [
        1.0 - 2.0 * ((np.arange(2**n) >> (n - 1 - q)) & 1) for q in range(n)
    ]
    z = [float(reported @ s) for s in signs]
    zz = [float(reported @ (signs[i] * signs[j])) for i in range(n) for j in range(i + 1, n)]
    return np.array(z + zz)
