"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 5's coverage clause is asserted exactly as stated.  It is expected
to fail at the pinned default noise rates: rotation noise is not amplified
by XX folding, so it leaves an r-independent bias (about 0.85 MeV for the
three-state circuit) that extrapolation in r cannot remove.  The same
pipeline passes the identical coverage check when the noise budget is
dominated by XX gates (see test_driver.test_vqe_noisy_xx_only_covers_truth).
The analysis, with the exact channel's intercepts for each fold scope and fit,
is the exact-channel table under item 1 of ROADMAP.md.
"""
import math
import time

import numpy as np

from conftest import evolve_density

from deuteronvqe.ansatz import (
    RESOLVED_CONVENTION,
    HypersphericalParams,
    amplitudes,
    build_ansatz_circuit,
    convention_scan,
    optimal_parameters,
)
from deuteronvqe.circuits import Gate, NativeCircuit
from deuteronvqe.compiler import optimize_native, transpile, unitary_equivalent, unitary_of
from deuteronvqe.driver import RunConfig, fit_quadratic_minimum, zne_energy
from deuteronvqe.estimator import (
    ZnePoint,
    ZneSeries,
    apply_confusion,
    richardson_extrapolate,
    spam_correct,
)
from deuteronvqe.hamiltonian import (
    EftConfig,
    OscillatorHamiltonian,
    build_oscillator_hamiltonian,
    exact_ground_energy,
    jordan_wigner,
)
from deuteronvqe.refdata import (
    LANDSCAPE_FIT_AVERAGE,
    LANDSCAPE_FIT_MINIMA,
    UCCS_EXACT_MINIMA,
    landscape_column,
)
from deuteronvqe.simulator import (
    FoldSpec,
    NoiseModel,
    flip_matrix,
    fold_circuit,
    run_density,
)

EQ3 = {
    2: {"II": 5.907, "ZI": 0.218, "IZ": -6.125, "XX": -2.143, "YY": -2.143},
    3: {"IIZ": -9.625, "IXX": -3.913, "IYY": -3.913},
    4: {"IIIZ": -13.125, "IIXX": -5.671, "IIYY": -5.671},
}


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")


def test_criterion_1_hamiltonian_regression():
    t0 = time.perf_counter()
    failures = []
    for n in (2, 3, 4):
        pauli = jordan_wigner(build_oscillator_hamiltonian(EftConfig(n)))
        ident = 5.907 + sum(-EQ3[m]["I" * (m - 1) + "Z"] for m in range(3, n + 1))
        checks = {"I" * n: ident}
        for m in range(2, n + 1):
            for word, coeff in EQ3[m].items():
                if set(word) == {"I"}:
                    continue
                checks[word.ljust(n, "I")] = coeff
        for word, coeff in checks.items():
            got = pauli.coefficient(word)
            if abs(got - coeff) > 5e-3:
                failures.append((n, word, got, coeff))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    _report(1, "qubit-Hamiltonian coefficients", ok,
            f"all printed coefficients within 5e-3, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_2_exact_minima():
    t0 = time.perf_counter()
    energies = {}
    for n, ref in UCCS_EXACT_MINIMA.items():
        h = build_oscillator_hamiltonian(EftConfig(n))
        e_eig = exact_ground_energy(h)
        _, e_opt = optimal_parameters(h)
        assert abs(e_eig - ref) <= 2e-3, (n, e_eig)
        assert abs(e_opt - ref) <= 2e-3, (n, e_opt)
        energies[n] = e_eig
    assert energies[2] > energies[3] > energies[4] > -2.224
    elapsed = time.perf_counter() - t0
    _report(2, "exact variational minima", elapsed < 5.0,
            f"{energies[2]:.4f} > {energies[3]:.4f} > {energies[4]:.4f} > -2.224, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_3_convention_resolution():
    from deuteronvqe.ansatz import energy_expectation_exact

    t0 = time.perf_counter()
    scan = convention_scan()
    winners = [e for e in scan if e["resolved"]]
    conv = RESOLVED_CONVENTION  # the one reading of every circuit and optimum
    h4 = build_oscillator_hamiltonian(EftConfig(4))
    rows = {row.lambdas: row for col in (0, 1, 2) for row in landscape_column(col)}
    worst = max(
        abs(energy_expectation_exact(HypersphericalParams(lam), h4, conv) - row.predicted)
        for lam, row in rows.items()
    )
    elapsed = time.perf_counter() - t0
    names = [e["name"] for e in winners]
    ok = names == [conv.name] and worst <= 5e-3 and elapsed < 10.0
    _report(3, "parameter-convention resolution", ok,
            f"scan resolves {names}, pipeline reads {conv.name!r}, "
            f"13-row max error {worst:.2e}, {elapsed:.2f}s")
    assert names == [conv.name], f"the scan resolves {names}, not the pipeline's {conv.name!r}"
    assert worst <= 5e-3
    assert elapsed < 10.0


def test_criterion_4_compiler():
    t0 = time.perf_counter()
    params = HypersphericalParams((0.858, 0.958, 0.758))
    logical = build_ansatz_circuit(4, params)
    native = optimize_native(transpile(logical))
    equivalent = unitary_equivalent(unitary_of(logical), unitary_of(native), tol=1e-9)
    xx = native.xx_count()
    folded_xx = fold_circuit(native, FoldSpec(3)).xx_count()
    elapsed = time.perf_counter() - t0
    ok = equivalent and xx == 5 and folded_xx == 35 and elapsed < 5.0
    _report(4, "native compilation", ok,
            f"unitary-equivalent={equivalent}, xx={xx}, folded(m=3) xx={folded_xx}, {elapsed:.2f}s")
    assert equivalent
    assert xx == 5
    assert folded_xx == 35
    assert elapsed < 5.0


def test_criterion_5_zne_distribution():
    t0 = time.perf_counter()
    n_seeds = 20
    h3 = build_oscillator_hamiltonian(EftConfig(3))
    e_exact = exact_ground_energy(h3)
    params, _ = optimal_parameters(h3)
    covered = 0
    m0_biased = 0
    intercepts = []
    for seed in range(n_seeds):
        cfg = RunConfig(n_states=3, lambdas=params.lambdas, shots=10_000,
                        fold_levels=(0, 1, 2, 3), seed=seed,
                        noise=NoiseModel.ion_defaults(3))
        series, res = zne_energy(cfg, params)
        intercepts.append(res.intercept)
        if abs(res.intercept - e_exact) <= 3 * res.intercept_sigma:
            covered += 1
        m0 = series.points[0]
        if abs(m0.value - e_exact) > m0.sigma:
            m0_biased += 1
    elapsed = time.perf_counter() - t0
    coverage = covered / n_seeds
    detail = (f"coverage {covered}/{n_seeds}, mean intercept {np.mean(intercepts):+.3f} "
              f"(exact {e_exact:+.3f}), M=0 biased beyond sigma for {m0_biased}/{n_seeds}, "
              f"{elapsed:.0f}s")
    ok = coverage >= 0.9 and m0_biased == n_seeds and elapsed < 300.0
    _report(5, "noisy ZNE distribution", ok, detail)
    assert elapsed < 300.0
    assert m0_biased == n_seeds, "unmitigated M=0 estimate is not biased beyond its sigma"
    assert coverage >= 0.9, (
        f"intercept covers the exact energy within 3 sigma for only "
        f"{covered}/{n_seeds} seeds. Rotation (single-qubit) noise is not "
        f"amplified by XX folding, so its bias of about 0.85 MeV survives extrapolation "
        f"at the pinned defaults; see the exact-channel table under ROADMAP.md item 1."
    )


def test_criterion_6_landscape_fit_replication():
    t0 = time.perf_counter()
    minima = []
    for index in (0, 1, 2):
        rows = landscape_column(index)
        pts = [(r.lambdas[index], r.measured, r.measured_sigma) for r in rows]
        _, energy, _ = fit_quadratic_minimum(pts)
        minima.append(energy)
        assert abs(energy - LANDSCAPE_FIT_MINIMA[index]) <= 0.05, (index, energy)
    avg = float(np.mean(minima))
    elapsed = time.perf_counter() - t0
    ok = abs(avg - LANDSCAPE_FIT_AVERAGE) <= 0.05 and elapsed < 1.0
    _report(6, "landscape fit replication", ok,
            f"minima {[f'{e:.3f}' for e in minima]}, average {avg:.3f} "
            f"(published {LANDSCAPE_FIT_AVERAGE}), {elapsed:.2f}s")
    assert abs(avg - LANDSCAPE_FIT_AVERAGE) <= 0.05
    assert elapsed < 1.0


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)

    # one-hot restriction of the mapped operator reproduces the input matrix
    for n in (2, 3, 4):
        d = rng.normal(size=n) * 8
        e = rng.normal(size=n - 1) * 4
        m = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        full = jordan_wigner(OscillatorHamiltonian(m)).to_matrix()
        idx = [1 << (n - 1 - k) for k in range(n)]
        assert np.allclose(full[np.ix_(idx, idx)], m, atol=1e-10)

    # ansatz norm and one-hot support
    for _ in range(200):
        n = int(rng.integers(2, 6))
        lam = tuple(rng.uniform(-math.pi, math.pi, size=n - 1))
        a = amplitudes(HypersphericalParams(lam))
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12
        circ = build_ansatz_circuit(n, HypersphericalParams(lam))
        psi = circ.apply(np.eye(1, 2**n, dtype=complex)[0])
        one_hot = {1 << (n - 1 - k) for k in range(n)}
        assert all(abs(amp) <= 1e-10 for i, amp in enumerate(psi) if i not in one_hot)

    # folding leaves the ideal state unchanged up to global phase
    circ = optimize_native(transpile(build_ansatz_circuit(3, HypersphericalParams((0.76, 0.70)))))
    ket0 = np.eye(1, 8, dtype=complex)[0]
    base = circ.apply(ket0)
    for m_level in range(6):
        folded = fold_circuit(circ, FoldSpec(m_level)).apply(ket0)
        assert abs(abs(np.vdot(base, folded)) - 1.0) < 1e-10

    # SPAM inversion round-trip
    for _ in range(10):
        n = int(rng.integers(1, 4))
        probs = rng.dirichlet(np.ones(2**n))
        dist = {format(i, f"0{n}b"): float(p) for i, p in enumerate(probs)}
        conf = tuple(flip_matrix(float(rng.uniform(0, 0.25))) for _ in range(n))
        back = spam_correct(apply_confusion(dist, conf), conf)
        assert all(abs(back.get(k, 0.0) - v) < 1e-10 for k, v in dist.items())

    # extrapolation recovers affine data exactly, any weights
    for _ in range(10):
        a, b = rng.normal(size=2)
        sig = rng.uniform(0.01, 1.0, size=4)
        series = ZneSeries([ZnePoint(r, a + b * r, float(s)) for r, s in zip((1, 3, 5, 7), sig)])
        assert abs(richardson_extrapolate(series).intercept - a) < 1e-10

    # channel engine vs the independent density oracle on 2 qubits
    circ2 = NativeCircuit(2, [Gate("ry", (0,), 1.19), Gate("xx", (0, 1), 0.76),
                              Gate("rx", (1,), -0.4)])
    p1, p2 = 0.01, 0.01
    exact = evolve_density(circ2, p1, p2)
    assert np.abs(run_density(circ2, NoiseModel(p1, p2)) - exact).max() <= 1e-12

    elapsed = time.perf_counter() - t0
    _report(7, "property suites", True,
            f"mapping round-trip, ansatz support, fold identity, SPAM inverse, "
            f"affine extrapolation, channel oracle all hold, {elapsed:.1f}s")
