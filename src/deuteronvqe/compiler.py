"""Transpilation of logical circuits to the trapped-ion native gate set.

The native set is axis rotations RX/RY/RZ plus the two-qubit XX gate (see
`circuits` for the matrix conventions).  Gate-level lowering uses three
circuit identities, each verified against the matrix oracle under the fixed
conventions (`gate_identity_report` re-runs the verification):

  1. CX(c,t)            = Y(pi/2)_c . XX(pi/2) . X(-pi/2)_c X(-pi/2)_t . Y(-pi/2)_c
  2. cRY(T)             = Y(T/2)_t . CX . Y(-T/2)_t . CX
  3. CX . Y(th)_t . CX  = [X(-pi/2) Z(-pi/2)]_c Z(-pi/2)_t . XX(th)
                          . [Z(pi/2) X(pi/2)]_c Z(pi/2)_t

Substituting 3 into 2 lowers a controlled rotation with a single XX, so a
controlled-RY + CX block costs two XX gates and the prepared-control first
block costs one; the four-qubit ansatz lands on five XX gates by
construction.  `optimize_native` is a peephole pass (commute, merge, cancel)
and every rewrite preserves the circuit unitary up to global phase.
"""
from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit, Gate, LogicalCircuit, NativeCircuit

MAX_UNITARY_QUBITS = 10
PHASE_TOLERANCE = 1e-9

_TWO_PI = 2 * math.pi


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full unitary of a circuit; memory-guarded to small qubit counts."""
    n = circuit.n_qubits
    if n > MAX_UNITARY_QUBITS:
        raise ValueError(f"unitary_of supports at most {MAX_UNITARY_QUBITS} qubits, got {n}")
    # row i of the batch evolves basis state i, i.e. becomes column i of U
    return circuit.apply(np.eye(2**n, dtype=complex)).T


def unitary_equivalent(u: np.ndarray, v: np.ndarray, tol: float = PHASE_TOLERANCE) -> bool:
    """Equality up to global phase: |tr(U^dag V)| / 2^n within tol of 1."""
    dim = u.shape[0]
    return abs(np.trace(u.conj().T @ v)) / dim >= 1 - tol


def decompose_cnot(control: int, target: int) -> list[Gate]:
    """Native CX fragment (one XX), equal to controlled-X up to global phase."""
    return [
        Gate("ry", (control,), math.pi / 2),
        Gate("xx", (control, target), math.pi / 2),
        Gate("rx", (control,), -math.pi / 2),
        Gate("rx", (target,), -math.pi / 2),
        Gate("ry", (control,), -math.pi / 2),
    ]


def decompose_cx_ry_cx(control: int, target: int, theta: float) -> list[Gate]:
    """Native fragment for CX . RY(theta)_target . CX, using exactly one XX."""
    return [
        Gate("rx", (control,), -math.pi / 2),
        Gate("rz", (control,), -math.pi / 2),
        Gate("rz", (target,), -math.pi / 2),
        Gate("xx", (control, target), theta),
        Gate("rz", (control,), math.pi / 2),
        Gate("rx", (control,), math.pi / 2),
        Gate("rz", (target,), math.pi / 2),
    ]


def decompose_cry(control: int, target: int, angle: float) -> list[Gate]:
    """Native fragment for the logical controlled exp(-i*angle*Y), one XX.

    Splits cRY(2*angle) as RY(angle)_t . [CX . RY(-angle)_t . CX] and lowers
    the bracket with `decompose_cx_ry_cx`.
    """
    return [Gate("ry", (target,), angle), *decompose_cx_ry_cx(control, target, -angle)]


def transpile(circuit: LogicalCircuit) -> NativeCircuit:
    """Rewrite a logical circuit over the native gate set, unitary-preserving."""
    out = NativeCircuit(circuit.n_qubits)
    for g in circuit.gates:
        if g.kind == "prep_excite":
            out.append("rx", g.qubits, math.pi)
        elif g.kind == "ry":
            # logical full-angle rotation -> native half-angle convention
            out.append("ry", g.qubits, 2 * g.angle)
        elif g.kind == "cx":
            out.extend(decompose_cnot(*g.qubits))
        elif g.kind == "cry":
            out.extend(decompose_cry(g.qubits[0], g.qubits[1], g.angle))
        else:
            raise ValueError(f"unsupported logical gate kind {g.kind!r}")
    return out


def _commutes(a: Gate, b: Gate) -> bool:
    """Sound (not complete) commutation test used by the peephole pass."""
    if not set(a.qubits) & set(b.qubits):
        return True
    if a.kind == b.kind and set(a.qubits) == set(b.qubits):
        return True  # same-axis rotations / same-pair XX
    kinds = {a.kind, b.kind}
    if kinds == {"rx", "xx"}:
        return True  # X rotation commutes with the XX interaction
    if kinds == {"xx"}:
        return True  # overlapping XX gates are mutually X-type
    return False


def _angle_is_trivial(angle: float) -> bool:
    # RP(2*pi*k) and XX(2*pi*k) are global phases
    rem = math.remainder(angle, _TWO_PI)
    return abs(rem) < 1e-12


def _merge_pass(gates: list[Gate]) -> tuple[list[Gate], bool]:
    out = list(gates)
    i = 0
    changed = False
    while i < len(out):
        g = out[i]
        partner = None
        for j in range(i + 1, len(out)):
            h = out[j]
            if h.kind == g.kind and set(h.qubits) == set(g.qubits):
                partner = j
                break
            if set(h.qubits) & set(g.qubits) and not _commutes(g, h):
                break
        if partner is None:
            i += 1
            continue
        merged = Gate(g.kind, g.qubits, g.angle + out[partner].angle)
        del out[partner]
        if _angle_is_trivial(merged.angle):
            del out[i]
        else:
            out[i] = merged
        changed = True
    return out, changed


def optimize_native(circuit: NativeCircuit) -> NativeCircuit:
    """Peephole cleanup: merge same-axis/same-pair rotations, drop trivial ones.

    XX and RX counts never increase; the unitary is preserved up to global
    phase (trivial-angle removals discard a -1 phase at most).
    """
    gates = [g for g in circuit.gates if not _angle_is_trivial(g.angle)]
    changed = True
    while changed:
        gates, changed = _merge_pass(gates)
    return NativeCircuit(circuit.n_qubits, gates)


def gate_identity_report() -> list[dict]:
    """Re-verify the lowering identities against the matrix oracle.

    Returns one record per identity with the worst-case deviation of
    |tr(U^dag V)|/2^n from 1 over a sweep of angles; consumed by the
    conventions report.
    """
    thetas = (0.0, 0.25, math.pi / 2, 1.0, -0.7, 2.2)
    # (identity, XX angle, logical gates, native fragment), each a function of theta;
    # the logical ry(theta/2) is the native ry(theta)
    cases = (
        ("cx", "pi/2", lambda th: [Gate("cx", (0, 1))], lambda th: decompose_cnot(0, 1)),
        ("cx_ry_cx", "theta",
         lambda th: [Gate("cx", (0, 1)), Gate("ry", (1,), th / 2), Gate("cx", (0, 1))],
         lambda th: decompose_cx_ry_cx(0, 1, th)),
        ("cry", "-theta", lambda th: [Gate("cry", (0, 1), th)], lambda th: decompose_cry(0, 1, th)),
    )
    records = []
    for identity, xx_angle, logical, native in cases:
        deviations = [1 - abs(np.trace(unitary_of(LogicalCircuit(2, logical(th))).conj().T
                                       @ unitary_of(NativeCircuit(2, native(th))))) / 4
                      for th in thetas]
        records.append({"identity": identity, "xx_angle": xx_angle,
                        "max_deviation": float(max(deviations))})
    return records
