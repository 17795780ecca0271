import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import _full_op, native_circuits

from deuteronvqe.ansatz import HypersphericalParams, build_ansatz_circuit
from deuteronvqe.circuits import PAULI, PAULI_XX, Gate, LogicalCircuit, NativeCircuit, apply_matrix, xx_matrix
from deuteronvqe.compiler import (
    decompose_cnot,
    decompose_cry,
    decompose_cx_ry_cx,
    gate_identity_report,
    optimize_native,
    transpile,
    unitary_equivalent,
    unitary_of,
)
from deuteronvqe.estimator import BASIS_LABELS, basis_rotation_circuit
from deuteronvqe.simulator import FoldSpec, fold_circuit

CX_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _native(n, gates):
    return NativeCircuit(n, list(gates))


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("rows", [None, 1, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_apply_matrix_matches_full_operator(n, rows, dtype):
    # every qubit and every ordered pair (qa > qb included); rows=None is a
    # single 2**n vector, float is the real matrices of readout inversion
    rng = np.random.default_rng(100 * n + (rows or 0))
    shape = (2**n,) if rows is None else (rows, 2**n)

    def draw(*dims):
        x = rng.normal(size=dims)
        return x + 1j * rng.normal(size=dims) if dtype is complex else x

    targets = [(q,) for q in range(n)] + list(itertools.permutations(range(n), 2))
    for qubits in targets:
        m = draw(2 ** len(qubits), 2 ** len(qubits))
        states = draw(*shape)
        out = apply_matrix(states, m, qubits, n)
        assert out.shape == states.shape and out.dtype == np.dtype(dtype)
        expected = states @ _full_op(m, qubits, n).T
        assert np.allclose(out, expected, atol=1e-12), qubits


def test_shared_gate_constants_are_read_only():
    assert np.array_equal(PAULI_XX, np.kron(PAULI["X"], PAULI["X"]))
    fixed_gates = [m for _, m in LogicalCircuit.GATES.values() if not callable(m)]
    assert len(fixed_gates) == 2  # prep_excite and cx
    for table in (PAULI_XX, PAULI["X"], PAULI["Y"], *fixed_gates):
        with pytest.raises(ValueError):
            table[0, 0] = 2.0
    # a gate matrix is the caller's own: writing into it leaves the constants alone
    m = xx_matrix(0.3)
    m[:] = 0.0
    assert np.allclose(xx_matrix(math.pi), -1j * PAULI_XX)


def test_unitary_of_empty_circuit():
    assert np.allclose(unitary_of(_native(2, [])), np.eye(4))


def test_unitary_half_angle_convention():
    u = unitary_of(_native(1, [Gate("rz", (0,), 2 * math.pi)]))
    assert np.allclose(u, -np.eye(2), atol=1e-12)


def test_unitary_xx_pi():
    u = unitary_of(_native(2, [Gate("xx", (0, 1), math.pi)]))
    xx = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    assert np.allclose(u, -1j * xx, atol=1e-12)


def test_unitary_memory_guard():
    with pytest.raises(ValueError, match="at most"):
        unitary_of(_native(11, []))


def test_decompose_cnot_matches_cx():
    frag = decompose_cnot(0, 1)
    u = unitary_of(_native(2, frag))
    assert unitary_equivalent(u, CX_MATRIX, tol=1e-10)
    assert sum(1 for g in frag if g.kind == "xx") == 1
    twice = unitary_of(_native(2, frag + frag))
    assert unitary_equivalent(twice, np.eye(4), tol=1e-10)


def test_decompose_cnot_reversed_control():
    u = unitary_of(_native(2, decompose_cnot(1, 0)))
    cx10 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
    assert unitary_equivalent(u, cx10, tol=1e-10)


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, -1.1, 2.7])
def test_decompose_cx_ry_cx(theta):
    frag = decompose_cx_ry_cx(0, 1, theta)
    assert sum(1 for g in frag if g.kind == "xx") == 1
    ry = unitary_of(_native(2, [Gate("ry", (1,), theta)]))
    target = CX_MATRIX @ ry @ CX_MATRIX
    assert unitary_equivalent(unitary_of(_native(2, frag)), target, tol=1e-10)


@pytest.mark.parametrize("angle", [0.0, math.pi / 2, 0.479, -0.9])
def test_decompose_cry(angle):
    frag = decompose_cry(0, 1, angle)
    target = unitary_of(LogicalCircuit(2, [Gate("cry", (0, 1), angle)]))
    assert unitary_equivalent(unitary_of(_native(2, frag)), target, tol=1e-10)
    if angle == 0.0:
        assert unitary_equivalent(unitary_of(_native(2, frag)), np.eye(4), tol=1e-10)


def test_transpile_empty():
    native = transpile(LogicalCircuit(3, []))
    assert native.gates == ()


def test_transpile_c2_xx_budget():
    circ = build_ansatz_circuit(2, HypersphericalParams((0.7,)))
    native = transpile(circ)
    assert unitary_equivalent(unitary_of(circ), unitary_of(native), tol=1e-9)
    assert native.xx_count() <= 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_transpile_ansatz_random_params(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        lam = tuple(rng.uniform(-math.pi, math.pi, size=n - 1))
        circ = build_ansatz_circuit(n, HypersphericalParams(lam))
        native = transpile(circ)
        assert unitary_equivalent(unitary_of(circ), unitary_of(native), tol=1e-9)


def test_transpile_rejects_unknown_gate():
    circ = _native(2, [Gate("rx", (0,), 0.1)])  # not a logical kind
    with pytest.raises(ValueError, match="unsupported"):
        transpile(circ)


def test_optimized_c4_has_five_xx(h4_params=(0.858, 0.958, 0.758)):
    circ = build_ansatz_circuit(4, HypersphericalParams(h4_params))
    native = optimize_native(transpile(circ))
    assert native.xx_count() == 5
    assert unitary_equivalent(unitary_of(circ), unitary_of(native), tol=1e-9)
    folded = fold_circuit(native, FoldSpec(3))
    assert folded.xx_count() == 35


def test_transpiled_ansatz_nearest_neighbor_only():
    for n in (2, 3, 4, 5):
        lam = tuple(0.3 + 0.1 * k for k in range(n - 1))
        native = optimize_native(transpile(build_ansatz_circuit(n, HypersphericalParams(lam))))
        for g in native.gates:
            if g.kind == "xx":
                assert abs(g.qubits[0] - g.qubits[1]) == 1


def test_optimize_cancels_inverse_xx_pair():
    circ = _native(2, [Gate("xx", (0, 1), 0.4), Gate("xx", (0, 1), -0.4)])
    out = optimize_native(circ)
    assert out.gates == ()


def test_optimize_merges_rz():
    circ = _native(1, [Gate("rz", (0,), 0.25), Gate("rz", (0,), 0.5)])
    out = optimize_native(circ)
    assert len(out.gates) == 1
    assert out.gates[0].angle == pytest.approx(0.75)


def test_optimize_merges_through_commuting_gates():
    # the RX pair straddles an XX on the same qubit; X rotations commute with XX
    circ = _native(
        2,
        [Gate("rx", (0,), 0.3), Gate("xx", (0, 1), 0.7), Gate("rx", (0,), -0.3)],
    )
    out = optimize_native(circ)
    assert out.gate_counts() == {"xx": 1}
    assert unitary_equivalent(unitary_of(circ), unitary_of(out), tol=1e-10)


def test_optimize_does_not_merge_blocked_rotations():
    circ = _native(
        2,
        [Gate("rz", (0,), 0.3), Gate("xx", (0, 1), 0.7), Gate("rz", (0,), -0.3)],
    )
    out = optimize_native(circ)
    # Z rotations do not commute with XX; nothing may be merged
    assert out.gate_counts() == {"rz": 2, "xx": 1}
    assert unitary_equivalent(unitary_of(circ), unitary_of(out), tol=1e-10)


def test_optimize_drops_full_turns():
    circ = _native(1, [Gate("rx", (0,), 2 * math.pi), Gate("ry", (0,), 4 * math.pi)])
    assert optimize_native(circ).gates == ()


def _random_native(rng, n, n_gates):
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(["rx", "ry", "rz", "xx"])
        if kind == "xx":
            q = int(rng.integers(0, n - 1))
            gates.append(Gate("xx", (q, q + 1), float(rng.uniform(-math.pi, math.pi))))
        else:
            q = int(rng.integers(0, n))
            # mix generic angles with cancellation-prone multiples of pi/2
            angle = float(rng.choice([rng.uniform(-math.pi, math.pi),
                                      rng.choice([-1, 1]) * math.pi / 2,
                                      2 * math.pi]))
            gates.append(Gate(kind, (q,), angle))
    return _native(n, gates)


def test_optimize_preserves_unitary_500_random_cases():
    rng = np.random.default_rng(2024)
    for case in range(500):
        n = int(rng.integers(2, 5))
        circ = _random_native(rng, n, int(rng.integers(1, 12)))
        out = optimize_native(circ)
        assert unitary_equivalent(unitary_of(circ), unitary_of(out), tol=1e-9), f"case {case}"
        assert out.xx_count() <= circ.xx_count()
        counts_in = circ.gate_counts()
        counts_out = out.gate_counts()
        assert counts_out.get("rx", 0) <= counts_in.get("rx", 0)


def test_gate_identity_report_is_clean():
    for record in gate_identity_report():
        assert record["max_deviation"] < 1e-12, record


def test_gate_angle_validation():
    with pytest.raises(ValueError, match="angle"):
        NativeCircuit(2, [Gate("rx", (0,))])
    with pytest.raises(ValueError, match="angle"):
        LogicalCircuit(2, [Gate("cx", (1, 0), 0.3)])
    with pytest.raises(ValueError, match="angle"):
        LogicalCircuit(2, [Gate("cry", (0, 1))])


@settings(max_examples=60)
@given(native_circuits())
def test_one_circuit_walk_properties(circ):
    # the statevector and unitary engines share `Circuit.apply`; JSON and
    # folding keep the circuit's class, gates and ideal unitary
    n = circ.n_qubits
    u = unitary_of(circ)
    assert np.abs(circ.apply(np.eye(1, 2**n, dtype=complex)[0]) - u[:, 0]).max() < 1e-12
    back = NativeCircuit.from_json(circ.to_json())
    assert type(back) is NativeCircuit and back.n_qubits == n and back.gates == circ.gates
    for m in range(4):
        assert unitary_equivalent(unitary_of(fold_circuit(circ, FoldSpec(m))), u)


@settings(max_examples=60)
@given(native_circuits(), st.integers(0, 3), st.sampled_from(BASIS_LABELS),
       st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=1, max_size=4))
def test_every_builder_returns_a_frozen_circuit(circ, m, basis, lambdas):
    # a circuit is a checked, hashable value that no caller can edit in place
    logical = build_ansatz_circuit(len(lambdas) + 1, HypersphericalParams(tuple(lambdas)))
    built = [logical, transpile(logical), optimize_native(circ), fold_circuit(circ, FoldSpec(m)),
             basis_rotation_circuit(basis, circ.n_qubits), NativeCircuit.from_json(circ.to_json()),
             LogicalCircuit.from_json(logical.to_json())]
    for c in built:
        assert type(c.gates) is tuple
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.gates = ()
        rebuilt = type(c)(c.n_qubits, c.gates)
        assert rebuilt == c and hash(rebuilt) == hash(c)
    # a gate given its qubits as a list stores a tuple: the circuit equals
    # and hashes like its tuple twin
    as_lists = NativeCircuit(circ.n_qubits, [Gate(g.kind, list(g.qubits), g.angle) for g in circ.gates])
    assert all(type(g.qubits) is tuple for g in as_lists.gates)
    assert as_lists == circ and hash(as_lists) == hash(circ)
    single = NativeCircuit(1, [Gate("rx", [0], 0.1)])
    assert single == NativeCircuit(1, [Gate("rx", (0,), 0.1)])
    assert hash(single) == hash(NativeCircuit(1, [Gate("rx", (0,), 0.1)]))
