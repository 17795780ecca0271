"""Noisy circuit simulation: stochastic Pauli noise, folding and sampling.

Noise model: after each XX gate, with probability p2 one of the fifteen
non-identity two-qubit Paulis is applied to the pair (uniformly); after each
single-qubit rotation, with probability p1 one of X/Y/Z is applied to that
qubit.  Readout is an independent per-qubit confusion matrix.

`run_density` evolves the density matrix through this channel exactly, gate
by gate, and the test suite holds it against an independent channel oracle.
Every shot is an independent draw from diag(rho) pushed through the readout
matrices, so `sample_shots_noisy`, the one sampler, returns a single
multinomial draw: the int count vector of length 2^n indexed by basis state
(qubit 0 the most significant bit) that the estimator consumes.  Exact
runs read `ideal_distributions`: `Circuit.apply`, the circuit's one walk,
on |0...0>, whose gate matrices `run_density` takes from the same table.

Reproducibility: every histogram takes an explicit seed and draws from
`numpy.random.SeedSequence([seed, tag])`, so it replays bit-exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import PAULI, ConfigError, Gate, NativeCircuit, apply_matrix, checked, frozen
from .estimator import apply_confusion

PAULIS_1Q = tuple(PAULI[a] for a in "XYZ")
# 15 non-identity two-qubit Paulis, row-major in (first, second) qubit order
PAULIS_2Q = tuple(frozen(np.kron(PAULI[a], PAULI[b])) for a in "IXYZ" for b in "IXYZ")[1:]

# stream tag that keeps the measurement draw apart from other uses of the seed
_STREAM_MEASURE = 0x6D65

DEFAULT_P2 = 0.0075
DEFAULT_P1 = 0.005
DEFAULT_READOUT_FLIP = 0.0074
DEFAULT_SHOTS = 10_000


def flip_matrix(eps: float) -> np.ndarray:
    """Row-stochastic symmetric confusion matrix with flip probability eps."""
    return np.array([[1 - eps, eps], [eps, 1 - eps]])


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Per-gate stochastic Pauli rates plus per-qubit readout confusion.

    `readout[q][true, observed]` is row-stochastic.  `p1 = p2 = 0` with
    identity readout reproduces the ideal simulator exactly.  A model is
    frozen, so one instance can serve every run that shares its setting.
    """

    p1: float = DEFAULT_P1
    p2: float = DEFAULT_P2
    readout: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        checked("p1", self.p1, ge=0, le=1)
        checked("p2", self.p2, ge=0, le=1)
        mats = []
        for m in self.readout:
            m = np.asarray(m, dtype=float)
            if (m.shape != (2, 2) or np.any((m < 0) | (m > 1))
                    or not np.allclose(m.sum(axis=1), 1.0, atol=1e-9)):
                raise ConfigError("readout confusion matrices must be 2x2, with entries in [0, 1] "
                                  "and rows summing to 1")
            mats.append(m)
        object.__setattr__(self, "readout", tuple(mats))

    @classmethod
    def ion_defaults(cls, n_qubits: int, p1: float = DEFAULT_P1, p2: float = DEFAULT_P2,
                     readout_eps: float = DEFAULT_READOUT_FLIP) -> NoiseModel:
        """One shared model per setting; every qubit shares one read-only flip matrix."""
        for name, rate in (("p1", p1), ("p2", p2), ("readout_eps", readout_eps)):
            checked(name, rate, ge=0, le=1)  # before the cache, which needs hashable arguments
        return _ion_defaults(checked("n_qubits", n_qubits, int, ge=0), p1, p2, readout_eps)


@lru_cache(maxsize=64, typed=True)  # typed: a rate of 1 and one of 1.0 are separate entries
def _ion_defaults(n_qubits: int, p1: float, p2: float, readout_eps: float) -> NoiseModel:
    return NoiseModel(p1, p2, (frozen(flip_matrix(readout_eps)),) * n_qubits)


@dataclass(frozen=True)
class FoldSpec:
    """Noise amplification level: each XX(chi) becomes 2m+1 alternating XX gates."""

    m: int

    def __post_init__(self):
        checked("fold level m", self.m, int, ge=0)

    @property
    def r(self) -> int:
        return 2 * self.m + 1


def fold_circuit(circuit: NativeCircuit, spec: FoldSpec) -> NativeCircuit:
    """Replace each XX(chi) by the run XX(chi) [XX(-chi) XX(chi)]^m.

    The ideal unitary is unchanged; two-qubit noise exposure scales with
    r = 2m + 1.  All other gates pass through untouched.
    """
    out = NativeCircuit(circuit.n_qubits)
    for g in circuit.gates:
        out.gates.append(g)
        if g.kind == "xx":
            out.gates.extend([Gate("xx", g.qubits, -g.angle), g] * spec.m)
    return out


# cap the density matrix at 2^27 entries (2 GB complex), so n <= 13
_MAX_DENSITY_ENTRIES = 1 << 27


@lru_cache(maxsize=64)
def _pauli_channel(arity: int, p: float) -> np.ndarray:
    """Superoperator (1-p) I + p/len(P) sum_P P (x) conj(P) acting on vec(rho),
    over the non-identity Paulis P on `arity` qubits; built once per (arity, p)."""
    paulis = PAULIS_1Q if arity == 1 else PAULIS_2Q
    d = paulis[0].shape[0]
    mix = sum(np.kron(pm, pm.conj()) for pm in paulis)
    return frozen((1 - p) * np.eye(d * d) + (p / len(paulis)) * mix)


def run_density(circuit: NativeCircuit, noise: NoiseModel) -> np.ndarray:
    """(2^n, 2^n) density matrix of the noisy circuit run on |0...0>.

    vec(rho) (row-major) is a 2n-qubit vector whose qubit q is the ket and
    qubit n + q the bra of circuit qubit q; each gate and its Pauli channel
    is one superoperator C (U (x) conj(U)) on qubits (q..., n + q...).
    """
    n = circuit.n_qubits
    if 4**n > _MAX_DENSITY_ENTRIES:
        raise ValueError(f"density matrix of 4^{n} entries exceeds the memory guard")
    channels = {1: _pauli_channel(1, noise.p1), 2: _pauli_channel(2, noise.p2)}
    vec = np.zeros(4**n, dtype=complex)
    vec[0] = 1.0
    for g in circuit.gates:
        u = circuit.gate_matrix(g)
        sup = channels[len(g.qubits)] @ np.kron(u, u.conj())
        vec = apply_matrix(vec, sup, (*g.qubits, *(n + q for q in g.qubits)), 2 * n)
    return vec.reshape(2**n, 2**n)


def ideal_distributions(circuit: NativeCircuit, rotations: dict) -> dict[str, np.ndarray]:
    """Noise-free outcome probabilities of `circuit` then each named rotation
    circuit, indexed like `sample_shots_noisy` counts; `circuit` is walked once."""
    state = circuit.apply(np.eye(1, 2**circuit.n_qubits, dtype=complex)[0])  # from |0...0>
    return {name: np.abs(r.apply(state)) ** 2 for name, r in rotations.items()}


def sample_shots_noisy(circuit: NativeCircuit, basis_rotations: NativeCircuit | None,
                       shots: int, noise: NoiseModel, seed: int) -> np.ndarray:
    """Shot counts of the circuit under `noise`, as one multinomial draw.

    The basis-change rotations are part of the executed circuit and are
    subject to the same single-qubit noise.  Each shot is an independent
    draw from diag(rho) pushed through the per-qubit readout matrices.
    """
    checked("shots", shots, int, ge=1)
    n = circuit.n_qubits
    if noise.readout and len(noise.readout) != n:
        raise ValueError(f"{n} qubits need {n} readout matrices, got {len(noise.readout)}")
    full = NativeCircuit(n, circuit.gates + (basis_rotations.gates if basis_rotations else []))
    # rounding can leave diagonal entries of order -1e-17
    probs = np.clip(np.diagonal(run_density(full, noise)).real, 0.0, None)
    if noise.readout:
        probs = apply_confusion(probs, noise.readout)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_MEASURE]))
    return rng.multinomial(shots, probs / probs.sum())
