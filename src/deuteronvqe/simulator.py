"""Statevector simulation with stochastic Pauli noise, folding and sampling.

Noise model: after each XX gate, with probability p2 one of the fifteen
non-identity two-qubit Paulis is applied to the pair (uniformly); after each
single-qubit rotation, with probability p1 one of X/Y/Z is applied to that
qubit.  Readout is an independent per-qubit confusion matrix.  This is a
trajectory (stochastic unraveling) engine, not a density-matrix simulator:
ensemble statistics come from many seeded trajectories, and the test suite
holds it against an exact channel oracle.

Reproducibility: every public entry point takes an explicit seed.  Batched
trajectories pre-draw all noise decisions gate-major over the full
trajectory axis from `numpy.random.SeedSequence([seed, tag])`, so results
are bit-identical regardless of how the batch is chunked or parallelized;
trajectory i always consumes column i of the decision arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import PAULI, Gate, NativeCircuit, apply_matrix, native_gate_matrix

PAULIS_1Q = tuple(PAULI[a] for a in "XYZ")
# 15 non-identity two-qubit Paulis, row-major in (first, second) qubit order
PAULIS_2Q = tuple(np.kron(PAULI[a], PAULI[b]) for a in "IXYZ" for b in "IXYZ")[1:]

# internal stream tags so batched runs and measurement draws never collide
_STREAM_TRAJECTORY = 0x7261
_STREAM_MEASURE = 0x6D65

DEFAULT_P2 = 0.0075
DEFAULT_P1 = 0.005
DEFAULT_READOUT_FLIP = 0.0074
DEFAULT_SHOTS = 10_000


def flip_matrix(eps: float) -> np.ndarray:
    """Row-stochastic symmetric confusion matrix with flip probability eps."""
    return np.array([[1 - eps, eps], [eps, 1 - eps]])


@dataclass
class NoiseModel:
    """Per-gate stochastic Pauli rates plus per-qubit readout confusion.

    `readout[q][true, observed]` is row-stochastic.  `p1 = p2 = 0` with
    identity readout reproduces the ideal simulator exactly.
    """

    p1: float = DEFAULT_P1
    p2: float = DEFAULT_P2
    readout: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.p1 <= 1.0 or not 0.0 <= self.p2 <= 1.0:
            raise ValueError("Pauli rates must lie in [0, 1]")
        mats = []
        for m in self.readout:
            m = np.asarray(m, dtype=float)
            if (m.shape != (2, 2) or np.any((m < 0) | (m > 1))
                    or not np.allclose(m.sum(axis=1), 1.0, atol=1e-9)):
                raise ValueError("readout confusion matrices must be 2x2, with entries in [0, 1] "
                                 "and rows summing to 1")
            mats.append(m)
        self.readout = tuple(mats)

    @classmethod
    def ideal(cls, n_qubits: int) -> NoiseModel:
        return cls(0.0, 0.0, tuple(np.eye(2) for _ in range(n_qubits)))

    @classmethod
    def ion_defaults(cls, n_qubits: int, p1: float = DEFAULT_P1, p2: float = DEFAULT_P2,
                     readout_eps: float = DEFAULT_READOUT_FLIP) -> NoiseModel:
        return cls(p1, p2, tuple(flip_matrix(readout_eps) for _ in range(n_qubits)))


@dataclass(frozen=True)
class FoldSpec:
    """Noise amplification level: each XX(chi) becomes 2m+1 alternating XX gates."""

    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("fold level m must be non-negative")

    @property
    def r(self) -> int:
        return 2 * self.m + 1


@dataclass
class Statevector:
    """n-qubit pure state; qubit 0 is the most significant index bit."""

    n_qubits: int
    amplitudes: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.amplitudes is None:
            amps = np.zeros(2**self.n_qubits, dtype=complex)
            amps[0] = 1.0
            self.amplitudes = amps
        else:
            self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError("amplitude vector has wrong length")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm {norm} deviates from 1")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def zero_state(n_qubits: int) -> Statevector:
    return Statevector(n_qubits)


def run_ideal(circuit: NativeCircuit, initial: Statevector) -> Statevector:
    """Exact unitary application, gate by gate."""
    if initial.n_qubits != circuit.n_qubits:
        raise ValueError("circuit and state qubit counts differ")
    amps = initial.amplitudes.copy()
    for g in circuit.gates:
        amps = apply_matrix(amps, native_gate_matrix(g), g.qubits, circuit.n_qubits)
    return Statevector(circuit.n_qubits, amps)


def fold_circuit(circuit: NativeCircuit, spec: FoldSpec) -> NativeCircuit:
    """Replace each XX(chi) by the run XX(chi) [XX(-chi) XX(chi)]^m.

    The ideal unitary is unchanged; two-qubit noise exposure scales with
    r = 2m + 1.  All other gates pass through untouched.
    """
    out = NativeCircuit(circuit.n_qubits)
    for g in circuit.gates:
        out.gates.append(g)
        if g.kind == "xx":
            for _ in range(spec.m):
                out.gates.append(Gate("xx", g.qubits, -g.angle))
                out.gates.append(Gate("xx", g.qubits, g.angle))
    return out


# cap the trajectory batch at ~2 GB of amplitudes
_MAX_BATCH_AMPLITUDES = 1 << 27


def _trajectory_batch(circuit: NativeCircuit, initial: Statevector, noise: NoiseModel,
                      n_traj: int, rng: np.random.Generator) -> np.ndarray:
    """Evolve n_traj independent noise realizations; decisions are pre-drawn
    gate-major over the full trajectory axis (chunking-independent)."""
    n = circuit.n_qubits
    if n_traj * 2**n > _MAX_BATCH_AMPLITUDES:
        raise ValueError(
            f"trajectory batch of {n_traj} x 2^{n} amplitudes exceeds the memory guard")
    noisy_gates = [g for g in circuit.gates
                   if (g.kind == "xx" and noise.p2 > 0) or (g.kind != "xx" and noise.p1 > 0)]
    hits = rng.random((len(noisy_gates), n_traj))
    # one draw in [0, 15) per decision; 1q gates reduce it mod 3, which stays
    # uniform since 15 is divisible by 3
    choices = rng.integers(0, 15, size=(len(noisy_gates), n_traj))

    batch = np.broadcast_to(initial.amplitudes, (n_traj, 2**n)).copy()
    k = 0
    for g in circuit.gates:
        batch = apply_matrix(batch, native_gate_matrix(g), g.qubits, n)
        two_qubit = g.kind == "xx"
        rate = noise.p2 if two_qubit else noise.p1
        if rate <= 0:
            continue
        hit = hits[k] < rate
        choice = choices[k]
        k += 1
        if not hit.any():
            continue
        if two_qubit:
            for c in range(15):
                mask = hit & (choice == c)
                if mask.any():
                    batch[mask] = apply_matrix(batch[mask], PAULIS_2Q[c], g.qubits, n)
        else:
            for c in range(3):
                mask = hit & (choice % 3 == c)
                if mask.any():
                    batch[mask] = apply_matrix(batch[mask], PAULIS_1Q[c], g.qubits, n)
    return batch


def run_trajectories(circuit: NativeCircuit, initial: Statevector, noise: NoiseModel,
                     n_traj: int, seed: int) -> np.ndarray:
    """(n_traj, 2^n) array of final trajectory states for a master seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_TRAJECTORY]))
    return _trajectory_batch(circuit, initial, noise, n_traj, rng)


def _bits_from_indices(idx: np.ndarray, n: int) -> np.ndarray:
    return (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1


def _sample_indices(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    return (cdf > uniforms[:, None]).argmax(axis=1)


def _counts_dict(idx: np.ndarray, n: int) -> dict[str, int]:
    values, counts = np.unique(idx, return_counts=True)
    return {format(int(v), f"0{n}b"): int(c) for v, c in zip(values, counts)}


def sample_counts(state: Statevector, basis_rotations: NativeCircuit | None, shots: int,
                  readout: tuple[np.ndarray, ...], seed: int) -> dict[str, int]:
    """Histogram of measured bit strings from one state.

    Applies the basis-change gates, samples Born-rule outcomes, then sends
    each bit through its per-qubit confusion matrix.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n = state.n_qubits
    if basis_rotations is not None and basis_rotations.gates:
        state = run_ideal(basis_rotations, state)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_MEASURE]))
    probs = state.probabilities()
    idx = rng.choice(len(probs), size=shots, p=probs / probs.sum())
    bits = _bits_from_indices(idx, n)
    bits = _confuse_bits(bits, readout, rng)
    return _counts_dict((bits << np.arange(n - 1, -1, -1)).sum(axis=1), n)


def _confuse_bits(bits: np.ndarray, readout, rng: np.random.Generator) -> np.ndarray:
    if not readout:
        return bits
    n = bits.shape[1]
    u = rng.random(bits.shape)
    out = bits.copy()
    for q in range(min(n, len(readout))):
        m = readout[q]
        # P(flip | true bit b) = m[b, 1-b]
        p_flip = np.where(bits[:, q] == 0, m[0, 1], m[1, 0])
        out[:, q] = bits[:, q] ^ (u[:, q] < p_flip)
    return out


def sample_shots_noisy(circuit: NativeCircuit, basis_rotations: NativeCircuit | None,
                       shots: int, noise: NoiseModel, seed: int) -> dict[str, int]:
    """Shot histogram with a fresh noise trajectory per shot.

    The basis-change rotations are part of the executed circuit and are
    subject to the same single-qubit noise.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n = circuit.n_qubits
    full = NativeCircuit(n, list(circuit.gates))
    if basis_rotations is not None:
        full.extend(basis_rotations.gates)
    batch = run_trajectories(full, zero_state(n), noise, shots, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_MEASURE]))
    probs = np.abs(batch) ** 2
    idx = _sample_indices(probs, rng.random(shots))
    bits = _bits_from_indices(idx, n)
    bits = _confuse_bits(bits, noise.readout, rng)
    return _counts_dict((bits << np.arange(n - 1, -1, -1)).sum(axis=1), n)


def counts_to_json_dict(counts: dict[str, int | float], shots: int, seed: int, r: int) -> dict:
    """Histogram record in the external JSON shape."""
    return {"shots": shots, "counts": dict(counts), "seed": seed, "r": r}
