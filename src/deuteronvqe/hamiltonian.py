"""Oscillator-basis deuteron Hamiltonian and its qubit (Pauli) form.

The model is a pionless-EFT contact interaction expressed in a harmonic
oscillator s-wave basis |0>, ..., |N-1>: kinetic energy is tridiagonal in
the oscillator quantum number and the potential acts only on the 0s state,

    T[n', n] = (hw/2) * [ (2n + 3/2) d(n', n)
                          - sqrt(n (n + 1/2))       d(n, n' + 1)
                          - sqrt((n + 1)(n + 3/2))  d(n, n' - 1) ]
    V[n', n] = V0 * d(n, 0) * d(n', n)

with hw = 7 MeV.  The default V0 = -5.68658 MeV is calibrated so the mapped
qubit-Hamiltonian coefficients match the published three-decimal values
(the commonly quoted rounded V0 = -5.68 gives a Z0 coefficient of 0.215
instead of 0.218); pass v0=-5.68 explicitly to use the rounded constant.

The qubit mapping keeps one qubit per oscillator state (occupation qubits):
a diagonal element h_nn maps to h_nn (I - Z_n)/2 and an adjacent hopping
element h_{n,n+1} maps to (h_{n,n+1}/2)(X_n X_{n+1} + Y_n Y_{n+1}).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .circuits import PAULI, checked, frozen

DEFAULT_HBAR_OMEGA = 7.0
DEFAULT_V0 = -5.68658

# drop merged Pauli terms below this magnitude (MeV)
COEFF_EPS = 1e-12


@dataclass(frozen=True)
class EftConfig:
    """Model parameters: oscillator spacing, contact strength, basis size."""

    n_states: int
    hbar_omega: float = DEFAULT_HBAR_OMEGA
    v0: float = DEFAULT_V0

    def __post_init__(self):
        checked("n_states", self.n_states, int, ge=1)
        checked("hbar_omega", self.hbar_omega, gt=0)
        checked("v0", self.v0)


@dataclass
class OscillatorHamiltonian:
    """Real symmetric tridiagonal N x N matrix of <n'|(T+V)|n>, in MeV."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected square matrix, got shape {m.shape}")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("matrix is not symmetric")
        self.entries = m

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_tridiagonal(self) -> bool:
        i, j = np.indices(self.entries.shape)
        return not np.any(self.entries[abs(i - j) > 1])

    def to_json(self) -> str:
        return json.dumps({"dim": self.dim, "rows": self.entries.tolist()})


def build_oscillator_hamiltonian(cfg: EftConfig) -> OscillatorHamiltonian:
    """Assemble the N x N oscillator-basis matrix from its two diagonals: the
    kinetic diagonal, with V0 added on the 0s state, and the kinetic hopping.

    Its `entries` are read-only, so that one matrix can be shared by every
    caller (`driver` keeps one per model).
    """
    k = np.arange(cfg.n_states)
    hopping = -0.5 * cfg.hbar_omega * np.sqrt((k[:-1] + 1) * (k[:-1] + 1.5))
    h = np.diag(0.5 * cfg.hbar_omega * (2 * k + 1.5)) + np.diag(hopping, 1) + np.diag(hopping, -1)
    h[0, 0] += cfg.v0
    return OscillatorHamiltonian(frozen(h))


def _check_word(word: str, n_qubits: int):
    if len(word) != n_qubits:
        raise ValueError(f"word {word!r} has length {len(word)}, expected {n_qubits}")
    bad = set(word) - set(PAULI)
    if bad:
        raise ValueError(f"invalid Pauli letters {bad} in {word!r}")


@dataclass
class PauliHamiltonian:
    """Real-coefficient Pauli-word sum over N qubits; words are merged and
    stored as strings with qubit 0 first (e.g. "ZI" is Z on qubit 0)."""

    n_qubits: int
    terms: list[tuple[float, str]] = field(default_factory=list)

    def __post_init__(self):
        merged: dict[str, float] = {}
        for coeff, word in self.terms:
            _check_word(word, self.n_qubits)
            merged[word] = merged.get(word, 0.0) + float(coeff)
        self.terms = [(c, w) for w, c in merged.items() if abs(c) > COEFF_EPS]

    def coefficient(self, word: str) -> float:
        for c, w in self.terms:
            if w == word:
                return c
        return 0.0

    @property
    def identity_coefficient(self) -> float:
        return self.coefficient("I" * self.n_qubits)

    def to_matrix(self) -> np.ndarray:
        """Dense 2^N x 2^N matrix (qubit 0 = most significant bit)."""
        dim = 2**self.n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for coeff, word in self.terms:
            m = np.array([[1.0]], dtype=complex)
            for letter in word:
                m = np.kron(m, PAULI[letter])
            out += coeff * m
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_qubits": self.n_qubits,
                "terms": [{"coeff": c, "word": w} for c, w in self.terms],
            }
        )


def _word(n_qubits: int, letters: dict[int, str]) -> str:
    return "".join(letters.get(q, "I") for q in range(n_qubits))


def jordan_wigner(h: OscillatorHamiltonian) -> PauliHamiltonian:
    """Map the tridiagonal one-particle matrix onto qubit Pauli operators.

    Only adjacent hopping is supported: longer-range matrix elements would
    need Z strings between the endpoints and are rejected.
    """
    if not h.is_tridiagonal():
        raise ValueError("only tridiagonal (adjacent-hopping) matrices are supported")
    n = h.dim
    terms: list[tuple[float, str]] = []
    for i in range(n):
        d = h.entries[i, i]
        terms.append((d / 2, _word(n, {})))
        terms.append((-d / 2, _word(n, {i: "Z"})))
    for i in range(n - 1):
        t = h.entries[i, i + 1]
        if t != 0.0:
            terms.append((t / 2, _word(n, {i: "X", i + 1: "X"})))
            terms.append((t / 2, _word(n, {i: "Y", i + 1: "Y"})))
    return PauliHamiltonian(n, terms)


def ground_state(h: OscillatorHamiltonian) -> tuple[float, np.ndarray]:
    """Lowest eigenpair; the eigenvector is sign-fixed to a non-negative
    leading component."""
    evals, evecs = np.linalg.eigh(h.entries)
    v = evecs[:, 0]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return float(evals[0]), v


def exact_ground_energy(h: OscillatorHamiltonian) -> float:
    """Lowest eigenvalue in MeV."""
    return ground_state(h)[0]
