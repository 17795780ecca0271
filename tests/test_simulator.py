import math

import numpy as np
import pytest

from conftest import evolve_density

from deuteronvqe.ansatz import HypersphericalParams, amplitudes, build_ansatz_circuit, one_hot_embedding
from deuteronvqe.circuits import Gate, NativeCircuit
from deuteronvqe.compiler import optimize_native, transpile
from deuteronvqe.estimator import basis_rotation_circuit
from deuteronvqe.simulator import (
    FoldSpec,
    NoiseModel,
    Statevector,
    flip_matrix,
    fold_circuit,
    run_ideal,
    run_trajectories,
    sample_counts,
    sample_shots_noisy,
    zero_state,
)


def _native(n, gates):
    return NativeCircuit(n, list(gates))


def test_run_ideal_empty_circuit():
    state = zero_state(3)
    out = run_ideal(_native(3, []), state)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_run_ideal_global_phase():
    out = run_ideal(_native(1, [Gate("rx", (0,), 2 * math.pi)]), zero_state(1))
    assert np.allclose(out.amplitudes, [-1.0, 0.0], atol=1e-12)


def test_run_ideal_dimension_mismatch():
    with pytest.raises(ValueError):
        run_ideal(_native(2, []), zero_state(3))


def test_run_ideal_prepares_ansatz_state():
    params = HypersphericalParams((0.25, 0.83))
    native = transpile(build_ansatz_circuit(3, params))
    out = run_ideal(native, zero_state(3))
    target = one_hot_embedding(amplitudes(params))
    assert abs(abs(np.vdot(out.amplitudes, target)) - 1.0) < 1e-9


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
        out = run_ideal(_native(n, gates), zero_state(n))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


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
    a = run_ideal(circ, zero_state(2)).amplitudes
    b = run_ideal(fold_circuit(circ, FoldSpec(m)), zero_state(2)).amplitudes
    assert abs(abs(np.vdot(a, b)) - 1.0) < 1e-10


def test_trajectory_zero_noise_equals_ideal():
    circ = _native(2, [Gate("ry", (0,), 0.8), Gate("xx", (0, 1), 0.5)])
    noise = NoiseModel(0.0, 0.0)
    ideal = run_ideal(circ, zero_state(2))
    traj = run_trajectories(circ, zero_state(2), noise, 1, seed=9)[0]
    assert np.allclose(ideal.amplitudes, traj, atol=1e-12)


def test_trajectory_deterministic_in_seed():
    circ = _native(2, [Gate("ry", (0,), 0.8), Gate("xx", (0, 1), 0.5)] * 3)
    noise = NoiseModel(0.2, 0.3)
    a = run_trajectories(circ, zero_state(2), noise, 1, seed=123)[0]
    b = run_trajectories(circ, zero_state(2), noise, 1, seed=123)[0]
    assert np.array_equal(a, b)
    batch1 = run_trajectories(circ, zero_state(2), noise, 64, seed=5)
    batch2 = run_trajectories(circ, zero_state(2), noise, 64, seed=5)
    assert np.array_equal(batch1, batch2)


def test_trajectory_states_remain_pure():
    circ = _native(2, [Gate("ry", (0,), 0.8), Gate("xx", (0, 1), 0.5)])
    batch = run_trajectories(circ, zero_state(2), NoiseModel(0.5, 0.5), 200, seed=1)
    norms = np.linalg.norm(batch, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-10)


def test_trajectory_average_matches_channel_oracle():
    # 2-qubit circuit, depolarizing XX noise; ensemble-averaged density matrix
    # against the exact channel, entrywise within 3 standard errors
    circ = _native(2, [Gate("ry", (0,), 1.1), Gate("xx", (0, 1), 0.9), Gate("rx", (1,), 0.4)])
    p1, p2 = 0.02, 0.01
    n_traj = 100_000
    batch = run_trajectories(circ, zero_state(2), NoiseModel(p1, p2), n_traj, seed=2718)
    outer = np.einsum("bi,bj->bij", batch, batch.conj())
    mean = outer.mean(axis=0)
    stderr = outer.std(axis=0) / math.sqrt(n_traj)
    exact = evolve_density(circ, p1, p2)
    diff = np.abs(mean - exact)
    assert np.all(diff <= 3 * stderr + 1e-12)


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


def test_sample_counts_deterministic_state():
    state = Statevector(2, np.array([0, 0, 1, 0], dtype=complex))  # |10>
    counts = sample_counts(state, None, 100, (np.eye(2), np.eye(2)), seed=4)
    assert counts == {"10": 100}


def test_sample_counts_full_flip():
    state = Statevector(2, np.array([0, 0, 1, 0], dtype=complex))
    readout = (np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    counts = sample_counts(state, None, 50, readout, seed=4)
    assert counts == {"00": 50}


def test_sample_counts_binomial_bound():
    n = 3
    amps = np.full(2**n, 1 / math.sqrt(2**n), dtype=complex)
    state = Statevector(n, amps)
    shots = 100_000
    counts = sample_counts(state, None, shots, (), seed=11)
    p = 1 / 2**n
    bound = 4 * math.sqrt(p * (1 - p) / shots)
    for b in range(2**n):
        freq = counts.get(format(b, f"0{n}b"), 0) / shots
        assert abs(freq - p) <= bound


def test_sample_counts_basis_rotation():
    # |+> measured in the x basis is deterministic
    plus = Statevector(1, np.array([1, 1], dtype=complex) / math.sqrt(2))
    counts = sample_counts(plus, basis_rotation_circuit("x", 1), 200, (), seed=0)
    assert counts == {"0": 200}


def test_sample_shots_noisy_deterministic():
    circ = _native(2, [Gate("ry", (0,), 1.0), Gate("xx", (0, 1), 0.5)])
    noise = NoiseModel.ion_defaults(2)
    a = sample_shots_noisy(circ, None, 500, noise, seed=31)
    b = sample_shots_noisy(circ, None, 500, noise, seed=31)
    assert a == b
    assert sum(a.values()) == 500


def test_statevector_norm_guard():
    with pytest.raises(ValueError):
        Statevector(1, np.array([1.0, 1.0], dtype=complex))


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(p1=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(readout=(np.array([[0.5, 0.6], [0.4, 0.6]]),))
    with pytest.raises(ValueError):
        # rows sum to one, but the entries are not probabilities
        NoiseModel.ion_defaults(2, readout_eps=2.0)
    model = NoiseModel.ion_defaults(3)
    assert model.p1 == 0.005 and model.p2 == 0.0075
    assert np.allclose(model.readout[0], flip_matrix(0.0074))


def test_fold_spec_validation():
    with pytest.raises(ValueError):
        FoldSpec(-1)
    assert FoldSpec(3).r == 7


def test_trajectory_batch_memory_guard():
    circ = _native(10, [Gate("rx", (0,), 0.1)])
    with pytest.raises(ValueError, match="memory guard"):
        run_trajectories(circ, zero_state(10), NoiseModel(0.1, 0.1), 200_000, seed=0)
