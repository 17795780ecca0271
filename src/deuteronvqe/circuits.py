"""Circuit representations: logical ansatz gates and trapped-ion native gates.

A gate set is data.  `Circuit.GATES` maps each gate kind to (qubit count,
matrix): a function of the angle for a rotation, a fixed read-only matrix
otherwise, so a kind takes an angle exactly when its matrix is a function.
The two gate sets are subclasses that only set this table:

- `LogicalCircuit`: ``prep_excite`` (X-type preparation of |1>), ``ry``
  (uncontrolled exp(-i*theta*Y)), ``cry`` (controlled exp(-i*theta*Y)), ``cx``
- `NativeCircuit`: ``rx``/``ry``/``rz`` axis rotations and the two-qubit ``xx`` gate

A circuit is a frozen value whose `gates` tuple is checked once, when it is
constructed, so one circuit can be shared: build a list of gates, then
construct the circuit.  `Circuit` owns that one check, JSON in and out, and
`Circuit.apply`, the one walk that runs the gates through `apply_matrix`.

Fixed matrix conventions, used everywhere in the package:

    RP(theta) = exp(-i * theta * P / 2)   for P in {X, Y, Z}
    XX(chi)   = exp(-i * chi * (X tensor X) / 2)

Note the angle carried by logical ``ry``/``cry`` is the *full* rotation
exp(-i*angle*Y) (so that cos(angle)/sin(angle) appear directly in the
prepared amplitudes); the native ``ry`` uses the half-angle convention above.
Controlled gates act on (control, target).  Bit/state ordering: qubit 0 is
the first character of a bit string and the most significant index bit.

`PAULI` is the package's one Pauli table and `apply_matrix` its one gate
kernel, behind every statevector, unitary and readout-tensor update.  Shared
constant arrays (this table, fixed gate matrices, channel and parity tables)
are read-only.  `checked` is the one rule for a numeric setting, and
`ConfigError`, a `ValueError`, is what every settings check raises.
"""
from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


class ConfigError(ValueError):
    """Bad input: a run setting out of range (basis size, model constant, noise
    rate or fold level), or a circuit that is malformed or breaks its gate set."""


def checked(name: str, value, kind: type = float, *, ge=None, gt=None, le=None):
    """Return a numeric setting unchanged, or raise a `ConfigError` that names it.

    An int setting takes integers (numpy's too) and no floats; a float setting
    takes any finite real, numpy scalars included.  True/false is never a
    number.  `ge`, `gt` and `le` are optional bounds.
    """
    if (isinstance(value, numbers.Integral if kind is int else numbers.Real)
            and not isinstance(value, bool) and -math.inf < value < math.inf
            and (ge is None or value >= ge) and (gt is None or value > gt)
            and (le is None or value <= le)):
        return value
    bounds = " and ".join(f"{op} {b}" for op, b in ((">=", ge), (">", gt), ("<=", le)) if b is not None)
    what = "an integer" if kind is int else "a finite number"
    raise ConfigError(f"{name} must be {what}{f' {bounds}' if bounds else ''}, got {value!r}")


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


def rx_matrix(theta: float) -> np.ndarray:
    return np.cos(theta / 2) * PAULI["I"] - 1j * np.sin(theta / 2) * PAULI["X"]


def ry_matrix(theta: float) -> np.ndarray:
    return np.cos(theta / 2) * PAULI["I"] - 1j * np.sin(theta / 2) * PAULI["Y"]


def rz_matrix(theta: float) -> np.ndarray:
    return np.cos(theta / 2) * PAULI["I"] - 1j * np.sin(theta / 2) * PAULI["Z"]


def xx_matrix(chi: float) -> np.ndarray:
    return np.cos(chi / 2) * _EYE4 - 1j * np.sin(chi / 2) * PAULI_XX


def _controlled(u: np.ndarray) -> np.ndarray:
    """4x4 controlled-`u` on (control, target)."""
    return np.block([[PAULI["I"], np.zeros((2, 2))], [np.zeros((2, 2)), u]])


@dataclass(frozen=True)
class Gate:
    """One gate: kind name, qubit tuple, optional angle in radians."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.angle is not None:
            checked(f"{self.kind} angle", self.angle)
        if len(set(self.qubits)) != len(self.qubits):
            raise ConfigError(f"repeated qubit in {self.kind}{self.qubits}")


@dataclass(frozen=True)
class Circuit:
    """Frozen gate tuple over the gate set in the class's `GATES` table,
    checked once on construction.

    `GATES[kind]` is (qubit count, matrix): the matrix is a function of the
    angle, or a fixed read-only array for a kind that takes no angle.
    """

    GATES: ClassVar[dict] = {}

    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if g.kind not in self.GATES:
                raise ConfigError(f"{type(self).__name__} does not support gate kind {g.kind!r}")
            arity, matrix = self.GATES[g.kind]
            if len(g.qubits) != arity:
                raise ConfigError(f"{g.kind} expects {arity} qubit(s), got {g.qubits}")
            if any(not 0 <= q < self.n_qubits for q in g.qubits):
                raise ConfigError(f"qubit index out of range in {g.kind}{g.qubits}")
            if callable(matrix) != (g.angle is not None):
                raise ConfigError(f"{g.kind} {'needs an' if callable(matrix) else 'takes no'} angle")

    def xx_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "xx")

    def gate_counts(self) -> dict[str, int]:
        return dict(Counter(g.kind for g in self.gates))

    @classmethod
    def gate_matrix(cls, g: Gate) -> np.ndarray:
        """2x2 or 4x4 matrix of a gate, on its qubits in the order listed."""
        matrix = cls.GATES[g.kind][1]
        return matrix(g.angle) if callable(matrix) else matrix

    def apply(self, states: np.ndarray) -> np.ndarray:
        """Run the gates in order on each row of a (B, 2**n) array, or on one
        2**n vector; an empty circuit returns `states` itself."""
        for g in self.gates:
            states = apply_matrix(states, self.gate_matrix(g), g.qubits, self.n_qubits)
        return states

    def to_json(self) -> str:
        records = []
        for g in self.gates:
            rec = {"gate": g.kind, "q": list(g.qubits)}
            if g.angle is not None:
                rec["angle"] = g.angle
            records.append(rec)
        return json.dumps({"n_qubits": self.n_qubits, "gates": records})

    @classmethod
    def from_json(cls, text: str) -> Circuit:
        """Read `to_json` output; a malformed or ill-typed document, or a gate
        outside this gate set, raises `ConfigError`."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"circuit JSON line {exc.lineno} col {exc.colno}: {exc.msg}")
        if not isinstance(doc, dict) or not isinstance(doc.get("gates"), list):
            raise ConfigError("a circuit needs an n_qubits count and a list of gates")
        checked("n_qubits", doc.get("n_qubits"), int, ge=1)
        for r in doc["gates"]:
            if (not isinstance(r, dict) or not isinstance(r.get("gate"), str)
                    or not isinstance(r.get("q"), list) or not all(type(q) is int for q in r["q"])):
                raise ConfigError(f"gate record {r!r} needs a kind string and a list of integer "
                                  "qubits")
        return cls(doc["n_qubits"], [Gate(r["gate"], tuple(r["q"]), r.get("angle"))
                                     for r in doc["gates"]])


class LogicalCircuit(Circuit):
    """Gate tuple over the logical (ansatz-level) gate set."""

    GATES = {
        "prep_excite": (1, PAULI["X"]),
        # full-angle convention: exp(-i*angle*Y)
        "ry": (1, lambda angle: ry_matrix(2 * angle)),
        "cry": (2, lambda angle: _controlled(ry_matrix(2 * angle))),
        "cx": (2, frozen(_controlled(PAULI["X"]))),
    }


class NativeCircuit(Circuit):
    """Gate tuple over the trapped-ion native gate set."""

    GATES = {"rx": (1, rx_matrix), "ry": (1, ry_matrix), "rz": (1, rz_matrix), "xx": (2, xx_matrix)}
