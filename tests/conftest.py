import numpy as np
import pytest
from hypothesis import strategies as st

from deuteronvqe.circuits import Gate, NativeCircuit
from deuteronvqe.hamiltonian import EftConfig, build_oscillator_hamiltonian, jordan_wigner


@pytest.fixture(scope="session")
def h2():
    return build_oscillator_hamiltonian(EftConfig(2))


@pytest.fixture(scope="session")
def h3():
    return build_oscillator_hamiltonian(EftConfig(3))


@pytest.fixture(scope="session")
def h4():
    return build_oscillator_hamiltonian(EftConfig(4))


@pytest.fixture(scope="session")
def pauli_h2(h2):
    return jordan_wigner(h2)


@pytest.fixture(scope="session")
def pauli_h4(h4):
    return jordan_wigner(h4)


@st.composite
def native_circuits(draw, max_qubits=4, max_gates=12):
    n = draw(st.integers(1, max_qubits))
    angles = st.floats(-4.0, 4.0, allow_nan=False)
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        if n >= 2 and draw(st.booleans()):
            pair = tuple(draw(st.permutations(range(n)))[:2])  # both XX qubit orders
            gates.append(Gate("xx", pair, draw(angles)))
        else:
            kind = draw(st.sampled_from(["rx", "ry", "rz"]))
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),), draw(angles)))
    return NativeCircuit(n, gates)


# --- independent density-matrix channel oracle (tests only) ---

_I = np.eye(2, dtype=complex)
_P1 = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def one_hot_embedding(amps: np.ndarray) -> np.ndarray:
    """Embed one-hot-sector amplitudes into the full 2^N statevector."""
    n = len(amps)
    full = np.zeros(2**n, dtype=complex)
    for k, a in enumerate(amps):
        full[1 << (n - 1 - k)] = a
    return full


def _full_op(small: np.ndarray, qubits, n: int) -> np.ndarray:
    """Embed a 1- or 2-qubit operator by tensor reshuffling (kron-free)."""
    k = len(qubits)
    op = small.reshape((2,) * (2 * k))
    t = np.eye(2**n, dtype=complex).reshape((2,) * (2 * n))
    # contract op onto the listed qubit axes of the output side
    in_axes = list(range(k, 2 * k))
    t = np.tensordot(op, t, axes=(in_axes, list(qubits)))
    # tensordot put the op output axes first; move them back into place
    t = np.moveaxis(t, list(range(k)), list(qubits))
    return t.reshape(2**n, 2**n)


def evolve_density(circuit, p1: float, p2: float) -> np.ndarray:
    """Exact stochastic-Pauli channel evolution of |0...0><0...0|."""
    n = circuit.n_qubits
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for g in circuit.gates:
        u = _full_op(circuit.gate_matrix(g), g.qubits, n)
        rho = u @ rho @ u.conj().T
        if g.kind == "xx" and p2 > 0:
            mix = np.zeros_like(rho)
            for a in range(4):
                for b in range(4):
                    if a == b == 0:
                        continue
                    pa = _I if a == 0 else _P1[a - 1]
                    pb = _I if b == 0 else _P1[b - 1]
                    p_full = _full_op(np.kron(pa, pb), g.qubits, n)
                    mix += p_full @ rho @ p_full.conj().T
            rho = (1 - p2) * rho + (p2 / 15) * mix
        elif g.kind != "xx" and p1 > 0:
            mix = np.zeros_like(rho)
            for p in _P1:
                p_full = _full_op(p, g.qubits, n)
                mix += p_full @ rho @ p_full.conj().T
            rho = (1 - p1) * rho + (p1 / 3) * mix
    return rho
