"""Noisy circuit simulation: stochastic Pauli noise, folding and sampling.

Noise model: after each XX gate, with probability p2 one of the fifteen
non-identity two-qubit Paulis is applied to the pair (uniformly); after each
single-qubit rotation, with probability p1 one of X/Y/Z is applied to that
qubit: on k qubits (d = 2^k), the depolarizing channel (1 - lam) rho +
lam Tr(rho) I/d, lam = p d^2/(d^2 - 1).  Readout is an independent per-qubit
confusion matrix.

`run_density` evolves the density matrix through this channel exactly, gate
by gate, and the test suite holds it against an independent channel oracle.
`fold_circuit` folds every gate into one new circuit: circuits are frozen
values, never edited in place.  Both kinds of run take basis labels and
return {basis: outcome probabilities} indexed by basis state (qubit 0 the
most significant bit): `noisy_distributions` folds the circuit and each
basis's rotations at one `FoldSpec` (the package's one fold), walks the
folded circuit once with `run_density`, then each basis's folded rotations
on vec(rho), through the readout matrices; `ideal_distributions` walks it
noise-free with `Circuit.apply`, whose gate matrices `run_density` takes from
the same table.  `sample_shots_noisy`, the one sampler, draws a
distribution's shots as one multinomial draw: the int count vector that the
estimator consumes.

Reproducibility: every histogram takes an explicit seed and draws from
`numpy.random.SeedSequence([seed, tag])`, so it replays bit-exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import ConfigError, Gate, NativeCircuit, apply_matrix, checked, frozen
from .estimator import apply_confusion, basis_rotation_circuit

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
    """Noise amplification level: each gate becomes 2m+1 alternating gates."""

    m: int

    def __post_init__(self):
        checked("fold level m", self.m, int, ge=0)

    @property
    def r(self) -> int:
        return 2 * self.m + 1


def fold_circuit(circuit: NativeCircuit, spec: FoldSpec) -> NativeCircuit:
    """Replace each gate G by the run G (G^dag G)^m, G^dag the same kind at
    -angle (every native gate is a rotation).

    The ideal unitary is unchanged; the noise exposure of every gate scales
    with r = 2m + 1.
    """
    gates = []
    for g in circuit.gates:
        gates += [g] + [Gate(g.kind, g.qubits, -g.angle), g] * spec.m
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


def ideal_distributions(circuit: NativeCircuit, bases) -> dict[str, np.ndarray]:
    """Noise-free outcome probabilities of `circuit` measured in each named
    basis; `circuit` is walked once."""
    n = circuit.n_qubits
    state = circuit.apply(np.eye(1, 2**n, dtype=complex)[0])  # from |0...0>
    return {b: np.abs(basis_rotation_circuit(b, n).apply(state)) ** 2 for b in bases}


def noisy_distributions(circuit: NativeCircuit, bases, noise: NoiseModel,
                        spec: FoldSpec) -> dict[str, np.ndarray]:
    """Outcome probabilities under `noise` of `circuit` measured in each named
    basis, the circuit and each basis's rotations folded at `spec`, through the
    readout matrices; the folded circuit is walked once."""
    n = circuit.n_qubits
    if noise.readout and len(noise.readout) != n:
        raise ConfigError(f"{n} qubits need {n} readout matrices, got {len(noise.readout)}")
    folded = fold_circuit(circuit, spec)
    vec = run_density(folded, noise).ravel()
    out = {}
    for b in bases:
        rotations = fold_circuit(basis_rotation_circuit(b, n), spec).gates
        rho = _evolve(vec, folded, rotations, noise).reshape(2**n, 2**n)
        probs = np.clip(np.diagonal(rho).real, 0.0, None)  # rounding can leave -1e-17 entries
        out[b] = apply_confusion(probs, noise.readout) if noise.readout else probs
    return out


def sample_shots_noisy(probabilities: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Counts of `shots` independent draws from `probabilities`: one multinomial draw."""
    checked("shots", shots, int, ge=1)
    checked("seed", seed, int, ge=0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_MEASURE]))
    return rng.multinomial(shots, probabilities / probabilities.sum())
