"""Circuit representations: logical ansatz gates and trapped-ion native gates.

Two gate sets share one lightweight IR:

- logical: ``prep_excite`` (X-type preparation of |1>), ``ry`` (uncontrolled
  exp(-i*theta*Y)), ``cry`` (controlled exp(-i*theta*Y)), ``cx``
- native: ``rx``/``ry``/``rz`` axis rotations and the two-qubit ``xx`` gate

Fixed matrix conventions, used everywhere in the package:

    RP(theta) = exp(-i * theta * P / 2)   for P in {X, Y, Z}
    XX(chi)   = exp(-i * chi * (X tensor X) / 2)

Note the angle carried by logical ``ry``/``cry`` is the *full* rotation
exp(-i*angle*Y) (so that cos(angle)/sin(angle) appear directly in the
prepared amplitudes); the native ``ry`` uses the half-angle convention above.

Bit/state ordering: qubit 0 is the first character of a bit string and the
most significant bit of a basis-state index.

`PAULI` is the package's one table of Pauli matrices and `apply_matrix` its
one gate kernel; every statevector, unitary and readout-tensor update in the
package goes through it.  Constant arrays that the package builds once and
shares (this table, the channel and parity tables) are read-only.
`ConfigError` is what every settings check in the package raises, so that
callers can tell bad input from a numerical failure.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

LOGICAL_KINDS = {"prep_excite": 1, "ry": 1, "cry": 2, "cx": 2}
NATIVE_KINDS = {"rx": 1, "ry": 1, "rz": 1, "xx": 2}
_ANGLED_KINDS = {"ry", "cry", "rx", "rz", "xx"}


class ConfigError(ValueError):
    """A run setting out of range: basis size, model constant, noise rate or fold level."""


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark a shared constant read-only, so that no caller can change it in place."""
    a.setflags(write=False)
    return a


PAULI = {
    "I": frozen(np.eye(2, dtype=complex)),
    "X": frozen(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)),
    "Y": frozen(np.array([[0.0, -1.0j], [1.0j, 0.0]])),
    "Z": frozen(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)),
}
PAULI_XX = frozen(np.kron(PAULI["X"], PAULI["X"]))
_EYE4 = frozen(np.eye(4))


def apply_matrix(states: np.ndarray, m: np.ndarray, qubits, n: int) -> np.ndarray:
    """Apply a k-qubit matrix to the listed qubits of each row of a (B, 2**n) array.

    `m` is 2**k x 2**k and acts on `qubits` in the order listed (the first
    listed qubit is the most significant bit of its index).  A single
    2**n vector is accepted too; the result has the shape of `states`.
    """
    # bring the target qubits to the front of each row, in the order listed,
    # so that one batched (2**k, 2**k) @ (2**k, rest) product applies m;
    # results agree with any other contraction order to rounding, not bit for bit
    perm = (0, *(1 + q for q in qubits), *(1 + q for q in range(n) if q not in qubits))
    t = states.reshape((-1,) + (2,) * n).transpose(perm)
    shape = t.shape
    t = np.matmul(m, t.reshape(shape[0], 2 ** len(qubits), -1))
    inverse = sorted(range(n + 1), key=perm.__getitem__)
    return t.reshape(shape).transpose(inverse).reshape(states.shape)


@dataclass(frozen=True)
class Gate:
    """One gate: kind name, qubit tuple, optional angle in radians."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.angle is not None and not np.isfinite(self.angle):
            raise ValueError(f"non-finite angle in {self.kind}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit in {self.kind}{self.qubits}")


def _check_gates(gates, n_qubits, kinds, label):
    for g in gates:
        if g.kind not in kinds:
            raise ValueError(f"{label} circuit does not support gate kind {g.kind!r}")
        if len(g.qubits) != kinds[g.kind]:
            raise ValueError(f"{g.kind} expects {kinds[g.kind]} qubit(s), got {g.qubits}")
        if any(not 0 <= q < n_qubits for q in g.qubits):
            raise ValueError(f"qubit index out of range in {g.kind}{g.qubits}")
        if (g.kind in _ANGLED_KINDS) != (g.angle is not None):
            raise ValueError(f"{g.kind} {'needs an' if g.kind in _ANGLED_KINDS else 'takes no'} angle")


@dataclass
class LogicalCircuit:
    """Ordered gate list over the logical (ansatz-level) gate set."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        _check_gates(self.gates, self.n_qubits, LOGICAL_KINDS, "logical")

    def append(self, kind: str, qubits: tuple[int, ...], angle: float | None = None):
        g = Gate(kind, qubits, angle)
        _check_gates([g], self.n_qubits, LOGICAL_KINDS, "logical")
        self.gates.append(g)

    def to_json(self) -> str:
        return _circuit_json(self)

    @classmethod
    def from_json(cls, text: str) -> LogicalCircuit:
        n, gates = _circuit_from_json(text)
        return cls(n, gates)


@dataclass
class NativeCircuit:
    """Ordered gate list over the trapped-ion native gate set."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        _check_gates(self.gates, self.n_qubits, NATIVE_KINDS, "native")

    def append(self, kind: str, qubits: tuple[int, ...], angle: float):
        g = Gate(kind, qubits, angle)
        _check_gates([g], self.n_qubits, NATIVE_KINDS, "native")
        self.gates.append(g)

    def extend(self, gates):
        for g in gates:
            _check_gates([g], self.n_qubits, NATIVE_KINDS, "native")
            self.gates.append(g)

    def xx_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "xx")

    def gate_counts(self) -> dict[str, int]:
        return dict(Counter(g.kind for g in self.gates))

    def to_json(self) -> str:
        return _circuit_json(self)

    @classmethod
    def from_json(cls, text: str) -> NativeCircuit:
        n, gates = _circuit_from_json(text)
        return cls(n, gates)


def _circuit_json(circ) -> str:
    records = []
    for g in circ.gates:
        rec = {"gate": g.kind, "q": list(g.qubits)}
        if g.angle is not None:
            rec["angle"] = g.angle
        records.append(rec)
    return json.dumps({"n_qubits": circ.n_qubits, "gates": records})


def _circuit_from_json(text: str):
    doc = json.loads(text)
    gates = [Gate(r["gate"], tuple(r["q"]), r.get("angle")) for r in doc["gates"]]
    return int(doc["n_qubits"]), gates


def rx_matrix(theta: float) -> np.ndarray:
    return np.cos(theta / 2) * PAULI["I"] - 1j * np.sin(theta / 2) * PAULI["X"]


def ry_matrix(theta: float) -> np.ndarray:
    return np.cos(theta / 2) * PAULI["I"] - 1j * np.sin(theta / 2) * PAULI["Y"]


def rz_matrix(theta: float) -> np.ndarray:
    return np.cos(theta / 2) * PAULI["I"] - 1j * np.sin(theta / 2) * PAULI["Z"]


def xx_matrix(chi: float) -> np.ndarray:
    return np.cos(chi / 2) * _EYE4 - 1j * np.sin(chi / 2) * PAULI_XX


def native_gate_matrix(gate: Gate) -> np.ndarray:
    """2x2 or 4x4 matrix of a native gate, on the qubits in the order listed."""
    k = gate.kind
    if k == "rx":
        return rx_matrix(gate.angle)
    if k == "ry":
        return ry_matrix(gate.angle)
    if k == "rz":
        return rz_matrix(gate.angle)
    if k == "xx":
        return xx_matrix(gate.angle)
    raise ValueError(f"not a native gate kind: {gate.kind!r}")


def logical_gate_matrix(gate: Gate) -> np.ndarray:
    """Matrix of a logical gate; controlled gates are ordered (control, target)."""
    k = gate.kind
    if k == "prep_excite":
        return PAULI["X"].copy()
    if k == "ry":
        # full-angle convention: exp(-i*angle*Y)
        return ry_matrix(2 * gate.angle)
    if k == "cry":
        m = np.eye(4, dtype=complex)
        m[2:, 2:] = ry_matrix(2 * gate.angle)
        return m
    if k == "cx":
        m = np.eye(4, dtype=complex)
        m[2:, 2:] = PAULI["X"]
        return m
    raise ValueError(f"not a logical gate kind: {gate.kind!r}")
