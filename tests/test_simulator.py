import dataclasses
import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import evolve_density, native_circuits, one_hot_embedding

from deuteronvqe.ansatz import HypersphericalParams, amplitudes, build_ansatz_circuit
from deuteronvqe.circuits import PAULI, ConfigError, Gate, NativeCircuit
from deuteronvqe.compiler import optimize_native, transpile
from deuteronvqe.estimator import BASIS_LABELS, apply_confusion, basis_rotation_circuit, histogram_dict
from deuteronvqe.simulator import (
    FoldSpec,
    NoiseModel,
    flip_matrix,
    fold_circuit,
    ideal_distributions,
    run_density,
    sample_shots_noisy,
    _pauli_channel,
)


def _native(n, gates):
    return NativeCircuit(n, list(gates))


def test_apply_empty_circuit():
    state = np.eye(1, 8, dtype=complex)[0]  # |000>
    out = _native(3, []).apply(state)
    assert np.array_equal(out, state)


def test_apply_global_phase():
    out = _native(1, [Gate("rx", (0,), 2 * math.pi)]).apply(np.array([1.0, 0.0], dtype=complex))
    assert np.allclose(out, [-1.0, 0.0], atol=1e-12)


def test_apply_prepares_ansatz_state():
    params = HypersphericalParams((0.25, 0.83))
    native = transpile(build_ansatz_circuit(3, params))
    out = native.apply(np.eye(1, 8, dtype=complex)[0])
    target = one_hot_embedding(amplitudes(params))
    assert abs(abs(np.vdot(out, target)) - 1.0) < 1e-9


def test_norm_preserved_random_circuits():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        gates = []
        for _ in range(int(rng.integers(1, 8))):
            if n >= 2 and rng.random() < 0.3:
                q = int(rng.integers(0, n - 1))
                gates.append(Gate("xx", (q, q + 1), float(rng.uniform(-4, 4))))
            else:
                kind = str(rng.choice(["rx", "ry", "rz"]))
                gates.append(Gate(kind, (int(rng.integers(0, n)),), float(rng.uniform(-4, 4))))
        out = _native(n, gates).apply(np.eye(1, 2**n, dtype=complex)[0])
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_fold_m0_is_identity_transform():
    circ = _native(2, [Gate("xx", (0, 1), 0.3), Gate("rz", (0,), 0.2)])
    folded = fold_circuit(circ, FoldSpec(0))
    assert folded.gates == circ.gates


def test_fold_counts():
    circ = _native(2, [Gate("xx", (0, 1), 0.3)] * 5)
    assert fold_circuit(circ, FoldSpec(3)).xx_count() == 35
    assert fold_circuit(circ, FoldSpec(1)).xx_count() == 15


def test_fold_alternating_signs():
    circ = _native(2, [Gate("xx", (0, 1), 0.3)])
    folded = fold_circuit(circ, FoldSpec(2))
    angles = [g.angle for g in folded.gates]
    assert angles == [0.3, -0.3, 0.3, -0.3, 0.3]


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
def test_fold_identity_up_to_phase(m):
    rng = np.random.default_rng(m)
    gates = [
        Gate("ry", (0,), 0.4),
        Gate("xx", (0, 1), float(rng.uniform(-2, 2))),
        Gate("rz", (1,), -0.7),
        Gate("xx", (1, 0), float(rng.uniform(-2, 2))),
    ]
    circ = _native(2, gates)
    ket0 = np.eye(1, 4, dtype=complex)[0]
    a = circ.apply(ket0)
    b = fold_circuit(circ, FoldSpec(m)).apply(ket0)
    assert abs(abs(np.vdot(a, b)) - 1.0) < 1e-10


def _random_native(rng, n, n_gates):
    gates = []
    for _ in range(n_gates):
        if n >= 2 and rng.random() < 0.4:
            a, b = rng.choice(n, size=2, replace=False)  # both XX qubit orders
            gates.append(Gate("xx", (int(a), int(b)), float(rng.uniform(-4, 4))))
        else:
            kind = str(rng.choice(["rx", "ry", "rz"]))
            gates.append(Gate(kind, (int(rng.integers(0, n)),), float(rng.uniform(-4, 4))))
    return _native(n, gates)


def test_density_zero_noise_equals_ideal():
    circ = _native(2, [Gate("ry", (0,), 0.8), Gate("xx", (0, 1), 0.5)])
    ideal = circ.apply(np.eye(1, 4, dtype=complex)[0])
    rho = run_density(circ, NoiseModel(0.0, 0.0))
    assert np.allclose(np.outer(ideal, ideal.conj()), rho, atol=1e-12)


def test_ideal_distributions_match_zero_noise_density():
    # each setting's distribution is the diagonal of the noise-free channel run
    # of the circuit followed by that setting's rotations
    circ = _native(3, [Gate("ry", (0,), 0.8), Gate("xx", (0, 1), 0.5), Gate("xx", (1, 2), -0.3)])
    rotations = {b: basis_rotation_circuit(b, 3) for b in ("z", "x", "y")}
    probs = ideal_distributions(circ, rotations)
    assert list(probs) == list(rotations)
    for basis, rot in rotations.items():
        rho = run_density(_native(3, circ.gates + rot.gates), NoiseModel(0.0, 0.0))
        assert np.allclose(probs[basis], np.diagonal(rho).real, atol=1e-12)
        assert math.isclose(probs[basis].sum(), 1.0, abs_tol=1e-12)


def test_density_and_draw_deterministic_in_seed():
    circ = _native(2, [Gate("ry", (0,), 0.8), Gate("xx", (0, 1), 0.5)] * 3)
    noise = NoiseModel(0.2, 0.3)
    assert np.array_equal(run_density(circ, noise), run_density(circ, noise))
    a = sample_shots_noisy(circ, None, 64, noise, seed=123)
    b = sample_shots_noisy(circ, None, 64, noise, seed=123)
    assert np.array_equal(a, b)
    assert not np.array_equal(sample_shots_noisy(circ, None, 10_000, noise, seed=5),
                              sample_shots_noisy(circ, None, 10_000, noise, seed=6))


def test_density_stays_physical():
    # the channel keeps rho Hermitian, unit-trace and positive semidefinite
    circ = _native(2, [Gate("ry", (0,), 0.8), Gate("xx", (0, 1), 0.5)])
    rho = run_density(circ, NoiseModel(0.5, 0.5))
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_density_matches_channel_oracle_two_qubits():
    # 2-qubit circuit, depolarizing XX noise, against the exact channel
    circ = _native(2, [Gate("ry", (0,), 1.1), Gate("xx", (0, 1), 0.9), Gate("rx", (1,), 0.4)])
    p1, p2 = 0.02, 0.01
    exact = evolve_density(circ, p1, p2)
    assert np.abs(run_density(circ, NoiseModel(p1, p2)) - exact).max() < 1e-12


def test_density_matches_channel_oracle_random_circuits():
    rng = np.random.default_rng(4242)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        circ = _random_native(rng, n, int(rng.integers(1, 12)))
        p1, p2 = (float(v) for v in rng.uniform(0, 0.3, size=2))
        exact = evolve_density(circ, p1, p2)
        assert np.abs(run_density(circ, NoiseModel(p1, p2)) - exact).max() < 1e-12


def test_shot_frequencies_match_channel_and_readout():
    # noisy 3-qubit circuit with distinct readout per qubit: frequencies lie
    # within 4 sigma of the confused diagonal of the exact channel
    n, shots = 3, 200_000
    circ = _native(n, [Gate("ry", (0,), 1.3), Gate("xx", (0, 1), 0.9), Gate("rx", (2,), 0.7),
                       Gate("xx", (2, 1), -1.2), Gate("ry", (1,), 0.4)])
    p1, p2 = 0.03, 0.05
    readout = (flip_matrix(0.3), np.array([[0.98, 0.02], [0.15, 0.85]]), flip_matrix(0.01))
    counts = sample_shots_noisy(circ, None, shots, NoiseModel(p1, p2, readout), seed=17)
    assert counts.sum() == shots
    expected = apply_confusion(np.diagonal(evolve_density(circ, p1, p2)).real, readout)
    for index, prob in enumerate(expected):
        sigma = math.sqrt(prob * (1 - prob) / shots)
        assert abs(counts[index] / shots - prob) <= 4 * sigma, index


def test_noise_shrinks_term_magnitudes_with_r(pauli_h2):
    # exact channel oracle on the folded two-state circuit: every Pauli-term
    # magnitude decays monotonically as the noise parameter grows
    circ = optimize_native(transpile(build_ansatz_circuit(2, HypersphericalParams((0.5943,)))))
    words = [w for _, w in pauli_h2.terms if set(w) != {"I"}]
    mags = {w: [] for w in words}
    for m in (0, 1, 2, 3):
        rho = evolve_density(fold_circuit(circ, FoldSpec(m)), 0.005, 0.0075)
        from deuteronvqe.hamiltonian import PauliHamiltonian

        for w in words:
            op = PauliHamiltonian(2, [(1.0, w)]).to_matrix()
            mags[w].append(abs(np.trace(op @ rho).real))
    for w, series in mags.items():
        assert all(series[i + 1] <= series[i] + 1e-12 for i in range(3)), (w, series)


def test_sample_shots_noisy_basis_state():
    circ = _native(2, [Gate("rx", (0,), math.pi)])  # |10> up to phase
    counts = sample_shots_noisy(circ, None, 100, NoiseModel(0, 0, (np.eye(2), np.eye(2))), seed=4)
    assert histogram_dict(counts) == {"10": 100}


def test_sample_shots_noisy_full_readout_flip():
    circ = _native(2, [Gate("rx", (0,), math.pi)])
    readout = (np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    counts = sample_shots_noisy(circ, None, 50, NoiseModel(0, 0, readout), seed=4)
    assert histogram_dict(counts) == {"00": 50}


def test_sample_shots_noisy_binomial_bound():
    n = 3
    circ = _native(n, [Gate("ry", (q,), math.pi / 2) for q in range(n)])  # uniform superposition
    shots = 100_000
    counts = sample_shots_noisy(circ, None, shots, NoiseModel(0, 0, ()), seed=11)
    p = 1 / 2**n
    bound = 4 * math.sqrt(p * (1 - p) / shots)
    assert counts.shape == (2**n,)
    for b in range(2**n):
        freq = counts[b] / shots
        assert abs(freq - p) <= bound


def test_sample_shots_noisy_basis_rotation():
    # |+> measured in the x basis is deterministic
    plus = _native(1, [Gate("ry", (0,), math.pi / 2)])
    counts = sample_shots_noisy(plus, basis_rotation_circuit("x", 1), 200, NoiseModel(0, 0, ()), seed=0)
    assert histogram_dict(counts) == {"0": 200}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(native_circuits(), st.sampled_from(BASIS_LABELS), st.integers(0, 2**32 - 1))
def test_sampler_walks_circuit_then_rotations(circ, basis, seed):
    # the sampler draws exactly what the joined circuit would draw
    n = circ.n_qubits
    rotations = basis_rotation_circuit(basis, n)
    noise = NoiseModel.ion_defaults(n)
    joined = NativeCircuit(n, circ.gates + rotations.gates)
    expected = sample_shots_noisy(joined, None, 1000, noise, seed)
    assert np.array_equal(sample_shots_noisy(circ, rotations, 1000, noise, seed), expected)


def test_sample_rejects_rotations_outside_the_circuit():
    circ = _native(2, [Gate("ry", (0,), 1.0)])
    wide = _native(3, [Gate("ry", (2,), math.pi / 2)])
    with pytest.raises(ConfigError):
        sample_shots_noisy(circ, wide, 10, NoiseModel(0, 0, ()), seed=0)


def test_sample_rejects_wrong_readout_count():
    # one matrix for three qubits would leave qubits 1 and 2 unconfused
    circ = _native(3, [Gate("rx", (q,), math.pi) for q in range(3)])
    with pytest.raises(ValueError, match="3 readout matrices"):
        sample_shots_noisy(circ, None, 10, NoiseModel(0, 0, (flip_matrix(1.0),)), seed=0)


def test_sample_shots_noisy_deterministic():
    circ = _native(2, [Gate("ry", (0,), 1.0), Gate("xx", (0, 1), 0.5)])
    noise = NoiseModel.ion_defaults(2)
    a = sample_shots_noisy(circ, None, 500, noise, seed=31)
    b = sample_shots_noisy(circ, None, 500, noise, seed=31)
    assert np.array_equal(a, b)
    assert a.sum() == 500


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(p1=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(readout=(np.array([[0.5, 0.6], [0.4, 0.6]]),))
    with pytest.raises(ValueError):
        # rows sum to one, but the entries are not probabilities
        NoiseModel.ion_defaults(2, readout_eps=2.0)
    for bad in ({"p1": "0.1"}, {"p2": None}, {"p1": float("nan")}):
        with pytest.raises(ConfigError):
            NoiseModel(**bad)
    assert NoiseModel(p1=np.float32(0.25)).p1 == 0.25
    model = NoiseModel.ion_defaults(3)
    assert model.p1 == 0.005 and model.p2 == 0.0075
    assert np.allclose(model.readout[0], flip_matrix(0.0074))
    # the qubits share one read-only flip matrix
    assert model.readout[0] is model.readout[2] and not model.readout[0].flags.writeable
    for bad in ("0.1", None, True):
        with pytest.raises(ConfigError):
            NoiseModel.ion_defaults(2, readout_eps=bad)
    # the shared models are cached, so an unhashable rate must fail the type check first
    for bad in ({"p1": [0.1]}, {"p2": {}}, {"readout_eps": [0.1]}):
        with pytest.raises(ConfigError):
            NoiseModel.ion_defaults(2, **bad)
    # a qubit count is an integer, not true/false or a float
    for bad in (True, 2.0):
        with pytest.raises(ConfigError):
            NoiseModel.ion_defaults(bad)


def test_ion_defaults_shared_and_frozen():
    model = NoiseModel.ion_defaults(3)
    assert NoiseModel.ion_defaults(3) is model
    assert NoiseModel.ion_defaults(3, p1=0.01) is not model
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.p1 = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.readout = ()


def test_fold_spec_validation():
    with pytest.raises(ValueError):
        FoldSpec(-1)
    for bad in (1.5, True, "1"):
        with pytest.raises(ConfigError):
            FoldSpec(bad)
    assert FoldSpec(3).r == 7
    assert FoldSpec(np.int64(2)).r == 5


def test_density_memory_guard():
    # 4^14 entries is past the guard; it must refuse before allocating
    circ = _native(14, [Gate("rx", (0,), 0.1)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="memory guard"):
            run_density(circ, NoiseModel(0.1, 0.1))
        with pytest.raises(ValueError, match="memory guard"):
            sample_shots_noisy(circ, None, 10, NoiseModel(0.1, 0.1), seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("arity", [1, 2])
def test_pauli_channel_built_once_and_read_only(arity):
    # reference: the explicit mixture over the non-identity Paulis, qubit 0 first
    paulis = [reduce(np.kron, (PAULI[a] for a in word))
              for word in itertools.product("IXYZ", repeat=arity)][1:]
    mix = sum(np.kron(q, q.conj()) for q in paulis)
    d = 2**arity
    for p in (0.005, 0.0075, 0.0123, 0.3):
        channel = _pauli_channel(arity, p)
        assert _pauli_channel(arity, p) is channel
        expected = (1 - p) * np.eye(d * d) + p / len(paulis) * mix
        assert np.allclose(channel, expected, rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            channel[0, 0] = 0.0
