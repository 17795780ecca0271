import json
import math

import numpy as np
import pytest

from conftest import one_hot_embedding

from deuteronvqe.ansatz import (
    AngleConvention,
    CANDIDATE_CONVENTIONS,
    HypersphericalParams,
    RESOLVED_CONVENTION,
    amplitudes,
    build_ansatz_circuit,
    convention_scan,
    energy_expectation_exact,
    optimal_parameters,
    parameters_from_amplitudes,
)
from deuteronvqe.circuits import ConfigError, LogicalCircuit
from deuteronvqe.hamiltonian import (
    EftConfig,
    build_oscillator_hamiltonian,
    exact_ground_energy,
    ground_state,
)
from deuteronvqe.refdata import LANDSCAPE_N4

IDENTITY = AngleConvention(base="identity")


def test_amplitudes_trivial_cases():
    assert np.allclose(amplitudes(HypersphericalParams((0.0,))), [1.0, 0.0])
    a = amplitudes(HypersphericalParams((math.pi / 2, math.pi / 2)), IDENTITY)
    assert np.allclose(a, [0.0, 0.0, 1.0], atol=1e-12)


def test_amplitudes_direct_formula():
    # oracle: cos/sin chain evaluated directly
    a = amplitudes(HypersphericalParams((0.25, 0.83)), IDENTITY)
    expect = [
        math.cos(0.25),
        math.sin(0.25) * math.cos(0.83),
        math.sin(0.25) * math.sin(0.83),
    ]
    assert np.allclose(a, expect, atol=1e-14)
    assert np.allclose(a, [0.968912, 0.166968, 0.182567], atol=1e-6)


def test_amplitudes_unit_norm_random():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = rng.integers(2, 9)
        lam = rng.uniform(-2 * math.pi, 2 * math.pi, size=n - 1)
        for conv in (RESOLVED_CONVENTION, IDENTITY):
            a = amplitudes(HypersphericalParams(tuple(lam)), conv)
            assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_convention_resolution_winner(h4):
    # the scan resolves exactly the constant that the pipeline computes with
    assert RESOLVED_CONVENTION == AngleConvention(base="half", sign=1, reversed=False)
    scan = convention_scan()
    winners = [e for e in scan if e["resolved"]]
    assert [w["name"] for w in winners] == [RESOLVED_CONVENTION.name]
    assert winners[0]["max_error"] <= 5e-3
    assert len(scan) == len(CANDIDATE_CONVENTIONS)
    for row in LANDSCAPE_N4:
        e = energy_expectation_exact(HypersphericalParams(row.lambdas), h4, RESOLVED_CONVENTION)
        assert abs(e - row.predicted) <= 5e-3


def test_landscape_table_under_resolved_convention(h4):
    for row in LANDSCAPE_N4:
        e = energy_expectation_exact(HypersphericalParams(row.lambdas), h4)
        assert e == pytest.approx(row.predicted, abs=5e-3)


def test_circuit_structure_default():
    params = HypersphericalParams((0.5,))
    circ = build_ansatz_circuit(2, params)
    assert [g.kind for g in circ.gates] == ["prep_excite", "ry", "cx"]
    assert len(circ.gates) == 3
    assert circ.gates[2].qubits == (1, 0)
    # the gate carries the effective amplitude angle g(l) = l/2
    assert circ.gates[1].angle == pytest.approx(0.25)


def test_circuit_gate_count_n4():
    params = HypersphericalParams((0.858, 0.958, 0.758))
    circ = build_ansatz_circuit(4, params)
    assert len(circ.gates) == 7


def test_circuit_rejects_small_n():
    with pytest.raises(ValueError):
        build_ansatz_circuit(1, HypersphericalParams(()))
    # an angle list of the wrong length is a settings error naming the angles
    with pytest.raises(ConfigError, match="lambdas"):
        build_ansatz_circuit(3, HypersphericalParams((0.1,)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_circuit_state_matches_amplitudes(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        lam = tuple(rng.uniform(-math.pi, math.pi, size=n - 1))
        params = HypersphericalParams(lam)
        circ = build_ansatz_circuit(n, params)
        psi = circ.apply(np.eye(1, 2**n, dtype=complex)[0])
        target = one_hot_embedding(amplitudes(params))
        # equality up to global phase
        assert abs(abs(np.vdot(psi, target)) - 1.0) < 1e-10


def test_circuit_one_hot_support():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        lam = tuple(rng.uniform(0, math.pi, size=n - 1))
        circ = build_ansatz_circuit(n, HypersphericalParams(lam))
        psi = circ.apply(np.eye(1, 2**n, dtype=complex)[0])
        one_hot = {1 << (n - 1 - k) for k in range(n)}
        for idx, amp in enumerate(psi):
            if idx not in one_hot:
                assert abs(amp) <= 1e-12


def test_lambda_zero_prepares_bare_excitation():
    circ = build_ansatz_circuit(2, HypersphericalParams((0.0,)))
    psi = circ.apply(np.array([1, 0, 0, 0], dtype=complex))
    assert psi[0b10] == pytest.approx(1.0)


def test_energy_examples(h3, h4):
    params, _ = optimal_parameters(h3)
    assert energy_expectation_exact(params, h3) == pytest.approx(-2.046, abs=2e-3)
    published = HypersphericalParams((0.858, 0.958, 0.758))
    assert energy_expectation_exact(published, h4) == pytest.approx(-2.143, abs=2e-3)
    # bare excitation: the lowest diagonal element
    assert energy_expectation_exact(HypersphericalParams((0.0, 0.0)), h3) == pytest.approx(
        -0.43658, abs=1e-5
    )


def test_energy_dimension_mismatch(h4):
    with pytest.raises(ValueError):
        energy_expectation_exact(HypersphericalParams((0.1,)), h4)


@pytest.mark.parametrize("n,expected", [(2, -1.749), (3, -2.046), (4, -2.143)])
def test_optimal_parameters_reaches_exact_minimum(n, expected):
    h = build_oscillator_hamiltonian(EftConfig(n))
    params, energy = optimal_parameters(h)
    assert energy == pytest.approx(expected, abs=1e-3)
    assert energy == pytest.approx(exact_ground_energy(h), abs=1e-4)
    assert energy == pytest.approx(energy_expectation_exact(params, h), abs=1e-9)


def test_optimal_parameters_is_ground_eigenvector():
    for n in range(1, 11):
        h = build_oscillator_hamiltonian(EftConfig(n))
        exact = exact_ground_energy(h)
        _, v = ground_state(h)
        params, energy = optimal_parameters(h)
        assert energy == pytest.approx(exact, abs=1e-12)
        assert energy_expectation_exact(params, h) == pytest.approx(exact, abs=1e-12)
        assert abs(amplitudes(params) @ v) == pytest.approx(1.0, abs=1e-12)


def test_parameters_from_amplitudes_roundtrip():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 6):
        a = rng.normal(size=n)
        a /= np.linalg.norm(a)
        params = parameters_from_amplitudes(a)
        assert np.allclose(amplitudes(params), a, atol=1e-12)


def test_convention_bases_checked_and_inverted():
    # an unknown base or sign fails where it is made, not where it is used
    for bad in ({"base": "bogus"}, {"sign": 3}, {"base": "bogus", "sign": 3}):
        with pytest.raises(ConfigError):
            AngleConvention(**bad)


def test_circuit_serialization_shape():
    circ = build_ansatz_circuit(3, HypersphericalParams((0.25, 0.83)))
    doc = json.loads(circ.to_json())
    assert doc["n_qubits"] == 3
    cry = [g for g in doc["gates"] if g["gate"] == "cry"][0]
    assert cry["q"] == [1, 2]
    assert "angle" in cry
    back = LogicalCircuit.from_json(circ.to_json())
    assert back.gates == circ.gates


def test_params_validation():
    with pytest.raises(ValueError):
        HypersphericalParams((float("nan"),))
    # a bad angle is bad input, named by its index
    for bad in (float("inf"), -float("inf"), True, "0.1"):
        with pytest.raises(ConfigError, match=r"lambdas\[1\]"):
            HypersphericalParams((0.1, bad))
    with pytest.raises(ValueError):
        build_ansatz_circuit(3, HypersphericalParams((0.1,)))
