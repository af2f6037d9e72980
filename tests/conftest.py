import os

# one BLAS thread, set before numpy loads BLAS (a caller's own setting wins):
# OpenBLAS's threads double the CPU time of these small products and save no
# wall time
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from itertools import permutations  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qelm_lab import circuit as circ  # noqa: E402
from qelm_lab import qelm  # noqa: E402
from qelm_lab.noise import NoiseProfile, zero_noise_profile  # noqa: E402


@pytest.fixture
def bell():
    return circ.Circuit(2, (circ.h(0), circ.cx(0, 1)))


@pytest.fixture
def zero_profile():
    return zero_noise_profile(4)


def make_depol_profile(p1q: float, p2q: float = 0.0, n_qubits: int = 4, name: str = "depol"):
    """A profile with only depolarizing noise (no relaxation, no readout error)."""
    identity = ((1.0, 0.0), (0.0, 1.0))
    return NoiseProfile(
        name=name,
        depol_1q=p1q,
        depol_2q=p2q,
        t1_us=(100.0,) * n_qubits,
        t2_us=(100.0,) * n_qubits,
        gate_time_1q_us=0.0,
        gate_time_2q_us=0.0,
        readout_confusion=(identity,) * n_qubits,
    )


def fitted(inputs, targets, task, front, readout, backend, seed=0):
    """The model whose readout is fitted to the features of ``inputs`` on
    ``backend``: qelm.feature_matrix, then qelm.fit_model."""
    features = qelm.feature_matrix(front, inputs, backend, seed)
    return qelm.fit_model(features, targets, task, front, readout)


def predictions(model, inputs, backend, base_seed=0):
    """qelm.apply_readout on the feature matrix of ``inputs``."""
    return qelm.apply_readout(model, qelm.feature_matrix(model.front, inputs, backend, base_seed))


def random_gate_list(rng: np.random.Generator, n_qubits: int, n_gates: int):
    """Random gates for property tests (numpy Generator is fine here; these
    seeds never have to be stable across platforms)."""
    gates = []
    for _ in range(n_gates):
        if n_qubits >= 2 and rng.random() < 0.35:
            kind = rng.choice(["CX", "ZZ"])
            a, b = rng.choice(n_qubits, size=2, replace=False)
            params = (float(rng.uniform(0, 2 * np.pi)),) if kind == "ZZ" else ()
            gates.append(circ.Gate(kind, (int(a), int(b)), params))
        else:
            kind = rng.choice(["H", "X", "RX", "RY", "RZ"])
            params = (
                (float(rng.uniform(0, 2 * np.pi)),) if kind in ("RX", "RY", "RZ") else ()
            )
            gates.append(circ.Gate(kind, (int(rng.integers(n_qubits)),), params))
    return gates


@st.composite
def circuits(draw, max_qubits: int = 4, max_gates: int = 12):
    """Hypothesis strategy: a circuit on 1-``max_qubits`` qubits over every
    gate kind, targets in any order, angles in [-2 pi, 2 pi]."""
    n = draw(st.integers(1, max_qubits))
    kinds = [k for k in circ.GATE_KINDS if n >= 2 or k not in ("CX", "ZZ")]
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        k = 2 if kind in ("CX", "ZZ") else 1
        targets = draw(st.sampled_from(list(permutations(range(n), k))))
        params = (draw(st.floats(-2 * np.pi, 2 * np.pi)),) if kind in ("RX", "RY", "RZ", "ZZ") else ()
        gates.append(circ.Gate(kind, targets, params))
    return circ.Circuit(n, tuple(gates))
