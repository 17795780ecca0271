import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import sturm_ground_energy
from deuteronvqe.hamiltonian import (
    EftConfig,
    OscillatorHamiltonian,
    PauliHamiltonian,
    build_oscillator_hamiltonian,
    exact_ground_energy,
    ground_state,
    jordan_wigner,
)

# printed three-decimal qubit-Hamiltonian coefficients, at V0 = -5.68658
EQ3_COEFFS = {
    2: {"II": 5.907, "ZI": 0.218, "IZ": -6.125, "XX": -2.143, "YY": -2.143},
    3: {"IIZ": -9.625, "IXX": -3.913, "IYY": -3.913},
    4: {"IIIZ": -13.125, "IIXX": -5.671, "IIYY": -5.671},
}


def test_kinetic_element_direct_evaluation():
    # oracle: the closed form evaluated by hand; at V0 = 0 the N = 3 matrix is
    # the kinetic energy alone
    t = build_oscillator_hamiltonian(EftConfig(3, 7.0, 0.0)).entries
    assert t[0, 0] == pytest.approx(3.5 * 1.5)
    assert t[0, 1] == pytest.approx(-3.5 * math.sqrt(1.5))
    assert t[0, 1] == pytest.approx(-4.28661, abs=1e-5)
    assert t[0, 2] == 0.0
    assert t[2, 1] == t[1, 2]


def test_potential_element():
    # the potential is the N = 3 matrix less its kinetic part: V0 on [0, 0] only
    v = (build_oscillator_hamiltonian(EftConfig(3, 7.0, -5.68658)).entries
         - build_oscillator_hamiltonian(EftConfig(3, 7.0, 0.0)).entries)
    assert v[0, 0] == pytest.approx(-5.68658, abs=1e-12)
    assert v[1, 1] == 0.0
    assert v[0, 1] == 0.0
    assert np.count_nonzero(v) == 1


def test_build_n2_matrix(h2):
    ref = np.array([[-0.43658, -4.28661], [-4.28661, 12.25]])
    assert np.allclose(h2.entries, ref, atol=1e-5)


def test_build_n1_single_element():
    h = build_oscillator_hamiltonian(EftConfig(1))
    assert h.entries.shape == (1, 1)
    assert h.entries[0, 0] == pytest.approx(-0.43658, abs=1e-10)


def test_build_shared_and_read_only():
    # the driver shares one matrix per model among its callers, so none may write to it
    h = build_oscillator_hamiltonian(EftConfig(4))
    assert np.array_equal(build_oscillator_hamiltonian(EftConfig(4)).entries, h.entries)
    assert not np.array_equal(build_oscillator_hamiltonian(EftConfig(4, hbar_omega=10.0)).entries,
                              h.entries)
    with pytest.raises(ValueError):
        h.entries[0, 0] = 0.0


def test_build_n3_matrix(h3):
    assert np.allclose(np.diag(h3.entries), [-0.43658, 12.25, 19.25], atol=1e-5)
    assert np.allclose(np.diag(h3.entries, 1), [-4.28661, -7.82624], atol=1e-5)
    assert h3.entries[2, 2] == pytest.approx(3.5 * 5.5)


def test_rejects_empty_basis():
    with pytest.raises(ValueError):
        EftConfig(0)
    with pytest.raises(ValueError):
        EftConfig(2, hbar_omega=0.0)


def test_symmetric_tridiagonal_up_to_16():
    for n in range(1, 17):
        h = build_oscillator_hamiltonian(EftConfig(n))
        assert np.array_equal(h.entries, h.entries.T)
        assert h.is_tridiagonal()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jordan_wigner_printed_coefficients(n):
    h = build_oscillator_hamiltonian(EftConfig(n))
    pauli = jordan_wigner(h)
    expected = {}
    for m in range(2, n + 1):
        for word, coeff in EQ3_COEFFS[m].items():
            expected[word.ljust(n, "I") if len(word) < n else word] = coeff
    # identity coefficient accumulates across the printed (I - Z_k) blocks
    ident = 5.907 + sum(-EQ3_COEFFS[m]["I" * (m - 1) + "Z"] for m in range(3, n + 1))
    assert pauli.coefficient("I" * n) == pytest.approx(ident, abs=5e-3)
    for word, coeff in expected.items():
        if set(word) == {"I"}:
            continue
        assert pauli.coefficient(word) == pytest.approx(coeff, abs=5e-3), word


def test_jordan_wigner_single_mode():
    h = OscillatorHamiltonian(np.array([[-3.7]]))
    pauli = jordan_wigner(h)
    assert pauli.coefficient("I") == pytest.approx(-1.85)
    assert pauli.coefficient("Z") == pytest.approx(1.85)
    assert len(pauli.terms) == 2


def test_jordan_wigner_term_count():
    for n in (2, 3, 4, 6, 8):
        pauli = jordan_wigner(build_oscillator_hamiltonian(EftConfig(n)))
        assert len(pauli.terms) == 3 * n - 1
        assert all(isinstance(c, float) for c, _ in pauli.terms)


def test_jordan_wigner_rejects_long_range():
    m = np.zeros((3, 3))
    m[0, 2] = m[2, 0] = 1.0
    with pytest.raises(ValueError, match="tridiagonal"):
        jordan_wigner(OscillatorHamiltonian(m))


def _one_hot_index(k: int, n: int) -> int:
    return 1 << (n - 1 - k)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_jordan_wigner_one_hot_roundtrip(n):
    # the 2^N matrix restricted to single-occupation states must reproduce
    # the input matrix entrywise
    rng = np.random.default_rng(123 + n)
    for _ in range(5):
        d = rng.normal(size=n) * 10
        e = rng.normal(size=n - 1) * 5
        m = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        pauli = jordan_wigner(OscillatorHamiltonian(m))
        full = pauli.to_matrix()
        idx = [_one_hot_index(k, n) for k in range(n)]
        restricted = full[np.ix_(idx, idx)]
        assert np.allclose(restricted, m, atol=1e-10)
        assert np.allclose(restricted.imag, 0.0, atol=1e-12)


def test_exact_ground_energy_reference_points(h2, h3, h4):
    assert exact_ground_energy(h2) == pytest.approx(-1.749, abs=1e-3)
    assert exact_ground_energy(h3) == pytest.approx(-2.046, abs=1e-3)
    assert exact_ground_energy(h4) == pytest.approx(-2.143, abs=1e-3)


def test_exact_ground_energy_matches_dense_solver():
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 9):
        d = rng.normal(size=n) * 4
        e = rng.normal(size=n - 1) * 3
        m = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        h = OscillatorHamiltonian(m)
        assert sturm_ground_energy(h) == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-12)
        assert exact_ground_energy(h) == pytest.approx(sturm_ground_energy(h), abs=1e-12)


@pytest.mark.parametrize("n", range(1, 21))
def test_exact_ground_energy_matches_lapack_tridiagonal(n):
    # oracles: the Sturm bisection of the tests, and LAPACK's own (stebz)
    # through scipy; the package uses no scipy
    h = build_oscillator_hamiltonian(EftConfig(n))
    assert exact_ground_energy(h) == pytest.approx(sturm_ground_energy(h), abs=1e-12)
    eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal
    expected = eigh_tridiagonal(np.diag(h.entries), np.diag(h.entries, 1), eigvals_only=True,
                                select="i", select_range=(0, 0))[0]
    assert exact_ground_energy(h) == pytest.approx(expected, abs=1e-12)
    assert sturm_ground_energy(h) == pytest.approx(expected, abs=1e-12)


def test_sturm_oracle_rejects_non_tridiagonal():
    # the bisection reads only the two diagonals; a corner entry would be dropped
    m = np.zeros((3, 3))
    m[0, 2] = m[2, 0] = 1.0
    with pytest.raises(ValueError, match="tridiagonal"):
        sturm_ground_energy(OscillatorHamiltonian(m))


def test_package_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import deuteronvqe, deuteronvqe.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_variational_bound(h4):
    e0 = exact_ground_energy(h4)
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert v @ h4.entries @ v >= e0 - 1e-12


def test_ground_state_consistency(h3):
    e, v = ground_state(h3)
    assert e == exact_ground_energy(h3)
    assert e == pytest.approx(sturm_ground_energy(h3), abs=1e-12)
    assert np.allclose(h3.entries @ v, e * v, atol=1e-10)


def test_oscillator_serialization_lossless(h4):
    parsed = json.loads(h4.to_json())
    assert np.array_equal(np.array(parsed["rows"]), h4.entries)
    assert parsed["dim"] == 4


def test_pauli_serialization_lossless(pauli_h4):
    parsed = json.loads(pauli_h4.to_json())
    assert parsed["n_qubits"] == pauli_h4.n_qubits
    assert sorted((t["coeff"], t["word"]) for t in parsed["terms"]) == sorted(pauli_h4.terms)


def test_pauli_merges_duplicates_and_drops_zeros():
    p = PauliHamiltonian(2, [(1.0, "XX"), (2.5, "XX"), (1e-15, "ZI")])
    assert p.terms == [(3.5, "XX")]
    with pytest.raises(ValueError):
        PauliHamiltonian(2, [(1.0, "XXX")])
