"""Noisy circuit simulation: stochastic Pauli noise, folding and sampling.

Noise model: after each XX gate, with probability p2 one of the fifteen
non-identity two-qubit Paulis is applied to the pair (uniformly); after each
single-qubit rotation, with probability p1 one of X/Y/Z is applied to that
qubit: on k qubits (d = 2^k), the depolarizing channel (1 - lam) rho +
lam Tr(rho) I/d, lam = p d^2/(d^2 - 1).  Readout is an independent per-qubit
confusion matrix.

`run_density` evolves the density matrix through this channel exactly, gate
by gate, and the test suite holds it against an independent channel oracle.
`fold_circuit` builds the folded gate list and constructs one new circuit:
circuits are frozen values, never edited in place.  `sample_shots_noisy`,
the one sampler, evolves the circuit's gates, then the setting's rotations,
and builds no joined circuit.  Every shot is an independent draw from
diag(rho) pushed through the readout matrices, so it returns one multinomial draw:
the int count vector of length 2^n indexed by basis state (qubit 0 the most
significant bit) that the estimator consumes.  Exact runs read
`ideal_distributions`: `Circuit.apply`, the circuit's one walk, on |0...0>,
whose gate matrices `run_density` takes from the same table.

Reproducibility: every histogram takes an explicit seed and draws from
`numpy.random.SeedSequence([seed, tag])`, so it replays bit-exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import ConfigError, Gate, NativeCircuit, apply_matrix, checked, frozen
from .estimator import apply_confusion

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
    gates = []
    for g in circuit.gates:
        gates.append(g)
        if g.kind == "xx":
            gates += [Gate("xx", g.qubits, -g.angle), g] * spec.m
    return NativeCircuit(circuit.n_qubits, gates)


# cap the density matrix at 2^27 entries (2 GB complex), so n <= 13
_MAX_DENSITY_ENTRIES = 1 << 27


@lru_cache(maxsize=64)
def _pauli_channel(arity: int, p: float) -> np.ndarray:
    """Superoperator (1-lam) 1 + (lam/d) |vec I><vec I| of the Pauli channel on
    `arity` qubits, d = 2^arity, lam = p d^2/(d^2-1), since sum_{P != I} P rho P^dag
    = d Tr(rho) I - rho; built once per (arity, p)."""
    d = 2**arity
    lam = p * d * d / (d * d - 1)
    vec_eye = np.eye(d).ravel()
    return frozen((1 - lam) * np.eye(d * d) + (lam / d) * np.outer(vec_eye, vec_eye))


def run_density(circuit: NativeCircuit, noise: NoiseModel) -> np.ndarray:
    """(2^n, 2^n) density matrix of the noisy circuit run on |0...0>.

    vec(rho) (row-major) is a 2n-qubit vector whose qubit q is the ket and
    qubit n + q the bra of circuit qubit q; each gate and its Pauli channel
    is one superoperator C (U (x) conj(U)) on qubits (q..., n + q...).
    """
    n = circuit.n_qubits
    if 4**n > _MAX_DENSITY_ENTRIES:
        raise ConfigError(f"density matrix of 4^{n} entries exceeds the memory guard")
    vec = np.eye(1, 4**n, dtype=complex)[0]  # |0...0><0...0|
    return _evolve(vec, circuit, circuit.gates, noise).reshape(2**n, 2**n)


def _evolve(vec: np.ndarray, circuit: NativeCircuit, gates, noise: NoiseModel) -> np.ndarray:
    """vec(rho) after `gates`, read in `circuit`'s gate set, each with its channel."""
    n = circuit.n_qubits
    channels = {1: _pauli_channel(1, noise.p1), 2: _pauli_channel(2, noise.p2)}
    for g in gates:
        u = circuit.gate_matrix(g)
        sup = channels[len(g.qubits)] @ np.kron(u, u.conj())
        vec = apply_matrix(vec, sup, (*g.qubits, *(n + q for q in g.qubits)), 2 * n)
    return vec


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
    rotations = basis_rotations.gates if basis_rotations is not None else ()
    if any(g.kind not in circuit.GATES or max(g.qubits) >= n for g in rotations):
        raise ConfigError(f"basis rotations must be native gates on qubits below {n}")
    vec = _evolve(run_density(circuit, noise).ravel(), circuit, rotations, noise)
    # rounding can leave diagonal entries of order -1e-17
    probs = np.clip(np.diagonal(vec.reshape(2**n, 2**n)).real, 0.0, None)
    if noise.readout:
        probs = apply_confusion(probs, noise.readout)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_MEASURE]))
    return rng.multinomial(shots, probs / probs.sum())
