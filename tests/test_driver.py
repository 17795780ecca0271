import math
import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from deuteronvqe import driver
from deuteronvqe.ansatz import HypersphericalParams, energy_expectation_exact, optimal_parameters
from deuteronvqe.circuits import ConfigError, NativeCircuit
from deuteronvqe.driver import (
    ConcaveFitError,
    RunConfig,
    ScanSpec,
    convergence_report,
    fit_quadratic_minimum,
    landscape_scan,
    nelder_mead,
    prepared_native_circuit,
    vqe_run,
    zne_energy,
)
from deuteronvqe.estimator import (FIT_KINDS, ZneResult, basis_rotation_circuit,
                                   energy_estimate, linear_estimate, measurement_settings,
                                   richardson_extrapolate)
from deuteronvqe.hamiltonian import (EftConfig, OscillatorHamiltonian, PauliHamiltonian,
                                     build_oscillator_hamiltonian, exact_ground_energy,
                                     jordan_wigner)
from deuteronvqe.refdata import (
    LANDSCAPE_FIT_AVERAGE,
    LANDSCAPE_FIT_MINIMA,
    landscape_column,
)
from deuteronvqe.simulator import FoldSpec, NoiseModel, fold_circuit, run_density


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_states=1)
    with pytest.raises(ValueError):
        RunConfig(n_states=3, fold_levels=())
    with pytest.raises(ValueError):
        RunConfig(n_states=3, shots=-1)
    # ill-typed settings are ConfigErrors up front, not failures at the first fit
    for bad in ({"shots": 2.5}, {"shots": True}, {"fold_levels": (0.5, 1)}, {"fit": "cubic"},
                {"n_states": 2.5}, {"seed": 1.5}):
        with pytest.raises(ConfigError):
            RunConfig(**{"n_states": 3, **bad})
    # as are floats for integers, true/false, non-finite model constants and an empty budget
    for bad in (lambda: EftConfig(2.5), lambda: EftConfig(True),
                lambda: RunConfig(n_states=2, hbar_omega=float("nan")),
                lambda: RunConfig(n_states=2, max_evals=-1)):
        with pytest.raises(ConfigError):
            bad()
    # an angle list of the wrong length fails up front, naming the setting
    with pytest.raises(ConfigError, match="lambdas"):
        vqe_run(RunConfig(n_states=3, lambdas=(0.1,), shots=0))
    # fewer distinct fold levels than the fit needs fail up front, naming them;
    # an exact run does not fit, so one level is enough there
    for levels, fit in (((0,), "linear"), ((0, 0), "linear"), ((0, 1), "quadratic")):
        with pytest.raises(ConfigError, match=r"fold levels \(0"):
            RunConfig(n_states=3, shots=100, fold_levels=levels, fit=fit)
    assert RunConfig(n_states=3, shots=0, fold_levels=(0,)).fold_levels == (0,)
    # a noise model reads out every qubit or none
    with pytest.raises(ConfigError, match="readout"):
        RunConfig(n_states=3, noise=NoiseModel(0.001, 0.001, (np.eye(2),) * 2))
    assert RunConfig(n_states=3, noise=NoiseModel(0.001, 0.001)).noise.readout == ()
    # numpy integers are integers
    assert RunConfig(n_states=np.int64(3), shots=np.int64(5),
                     fold_levels=(np.int32(0), np.int32(1))).shots == 5
    cfg = RunConfig(n_states=3)
    assert cfg.noise.p2 == 0.0075
    # the default model is one shared constant, not one per configuration
    assert cfg.noise is NoiseModel.ion_defaults(3)


def test_zne_exact_mode_matches_analytic(h3):
    lam = (0.7609, 0.7044)
    cfg = RunConfig(n_states=3, lambdas=lam, shots=0)
    series, res = zne_energy(cfg, HypersphericalParams(lam))
    analytic = energy_expectation_exact(HypersphericalParams(lam), h3)
    assert res.intercept == pytest.approx(analytic, abs=1e-9)
    assert all(p.value == pytest.approx(analytic, abs=1e-9) for p in series.points)


@pytest.mark.parametrize("fit, folds", [("linear", (0, 1, 2, 3)), ("quadratic", (0, 1))])
def test_zne_exact_mode_has_nothing_to_extrapolate(h3, fit, folds):
    # the ideal state does not depend on the fold level, so no fit runs: a
    # quadratic fit through two levels is not underdetermined here
    lam = (0.7609, 0.7044)
    cfg = RunConfig(n_states=3, lambdas=lam, shots=0, fit=fit, fold_levels=folds)
    series, res = zne_energy(cfg, HypersphericalParams(lam))
    energy = series.points[0].value
    assert [p.r for p in series.points] == [2 * m + 1 for m in folds]
    assert all(p.value == energy and p.sigma == 0.0 for p in series.points)
    assert res == ZneResult(energy, 0.0, 0.0, fit, weighted=False)


@pytest.mark.parametrize("n", range(2, 11))
def test_zne_exact_mode_matches_analytic_random_angles(n):
    # the exact-mode estimator path against the ansatz quadratic form
    lam = tuple(np.random.default_rng(n).uniform(-np.pi, np.pi, size=n - 1))
    params = HypersphericalParams(lam)
    _, res = zne_energy(RunConfig(n_states=n, lambdas=lam, shots=0), params)
    h = build_oscillator_hamiltonian(EftConfig(n))
    assert res.intercept == pytest.approx(energy_expectation_exact(params, h), abs=1e-12)


def test_zne_replay_bit_exact():
    lam = (0.76, 0.70)
    cfg = RunConfig(n_states=3, lambdas=lam, shots=2000, seed=5)
    _, a = zne_energy(cfg, HypersphericalParams(lam))
    _, b = zne_energy(cfg, HypersphericalParams(lam))
    assert a == b


def test_zne_count_records():
    lam = (0.76, 0.70)
    cfg = RunConfig(n_states=3, lambdas=lam, shots=300, seed=9)
    records = []
    zne_energy(cfg, HypersphericalParams(lam), count_records=records)
    assert len(records) == 4 * 3  # fold levels x settings
    keys = {(r["r"], r["setting"]) for r in records}
    assert keys == {(r, b) for r in (1, 3, 5, 7) for b in ("z", "x", "y")}
    assert all(sum(r["counts"].values()) == 300 for r in records)
    # one evaluation's records share one parameter list
    assert records[0]["lambdas"] == list(lam)
    assert all(r["lambdas"] is records[0]["lambdas"] for r in records)


@pytest.mark.parametrize("shots", [0, 300])
def test_zne_rejects_inputs_that_disagree_with_config(h3, h4, shots):
    lam = (0.76, 0.70)
    params = HypersphericalParams(lam)
    cfg = RunConfig(n_states=3, lambdas=lam, shots=shots)
    h3_wide = build_oscillator_hamiltonian(EftConfig(3, hbar_omega=10.0))
    cases = [
        ("h", cfg, params, dict(h=h4)),                                # another size
        ("pauli", cfg, params, dict(h=h3, pauli=jordan_wigner(h4))),  # another size
        # the default Hamiltonian under another oscillator spacing
        ("h", replace(cfg, hbar_omega=10.0), params, dict(h=h3)),
        # the Pauli form of the same size under another oscillator spacing
        ("pauli", cfg, params, dict(pauli=jordan_wigner(h3_wide))),
        ("params", cfg, HypersphericalParams((0.5, 0.70)), {}),
    ]
    for name, run_cfg, run_params, kwargs in cases:
        with pytest.raises(ConfigError, match=f"^{name} "):  # the message names the argument
            zne_energy(run_cfg, run_params, **kwargs)
    # agreeing inputs pass, an equal copy of h and the terms in another order included,
    # and the run computes with the model's own Pauli form: bit for bit the same
    records, reversed_records = [], []
    plain = zne_energy(cfg, params, count_records=records)
    pauli3 = jordan_wigner(h3)
    reversed_pauli = PauliHamiltonian(3, pauli3.terms[::-1])
    assert reversed_pauli.terms != pauli3.terms
    assert zne_energy(cfg, params, OscillatorHamiltonian(h3.entries.copy()), reversed_pauli,
                      reversed_records) == plain
    assert reversed_records == records
    # vqe_run and landscape_scan, which pass neither, give what the checked inputs give
    assert vqe_run(cfg).zne == zne_energy(cfg, params, h3, pauli3)[1]
    spec = ScanSpec(0, (0.5, 0.76), lam)
    for i, row in enumerate(landscape_scan(cfg, spec)):
        row_cfg = replace(cfg, lambdas=row.lambdas, seed=driver._child_seed(cfg.seed, 104729, i))
        row_params = HypersphericalParams(row.lambdas)
        assert row.zne == zne_energy(row_cfg, row_params, h3, pauli3)[1]
        assert row.theory == energy_expectation_exact(row_params, h3)


def test_zne_per_term_mode():
    lam = (0.76, 0.70)
    base = RunConfig(n_states=3, lambdas=lam, shots=2000, seed=5)
    per_term = RunConfig(n_states=3, lambdas=lam, shots=2000, seed=5, per_term=True)
    _, a = zne_energy(base, HypersphericalParams(lam))
    _, b = zne_energy(per_term, HypersphericalParams(lam))
    assert isinstance(b, ZneResult)
    # same data, different fit decomposition: results agree to within errors
    assert b.intercept == pytest.approx(a.intercept, abs=4 * a.intercept_sigma)


@pytest.mark.parametrize("n,expected", [(2, -1.749), (3, -2.046), (4, -2.143)])
def test_vqe_exact_mode(n, expected):
    from deuteronvqe.hamiltonian import EftConfig, build_oscillator_hamiltonian

    cfg = RunConfig(n_states=n, shots=0)
    result = vqe_run(cfg)
    assert result.zne.intercept == pytest.approx(expected, abs=1e-3)
    _, best = optimal_parameters(build_oscillator_hamiltonian(EftConfig(n)))
    assert result.zne.intercept == pytest.approx(best, abs=1e-3)


@pytest.mark.parametrize("n", range(2, 11))
def test_exact_vqe_reports_closed_form_optimum(n):
    # exact mode does not search: the closed form is the exact minimiser
    start, energy = optimal_parameters(build_oscillator_hamiltonian(EftConfig(n)))
    result = vqe_run(RunConfig(n_states=n, shots=0))
    assert result.params.lambdas == start.lambdas
    assert result.converged
    assert [rec.lambdas for rec in result.trace] == [start.lambdas]
    assert result.zne.intercept == pytest.approx(energy, abs=1e-9)


def test_exact_evaluation_retains_little_memory():
    # a caller that keeps every evaluation's output (as the benchmark does)
    # grows by this much per evaluation
    h = build_oscillator_hamiltonian(EftConfig(4))
    pauli = jordan_wigner(h)
    cfg = RunConfig(n_states=4, shots=0)
    params, _ = optimal_parameters(h)
    zne_energy(cfg, params, h, pauli)  # fill every cache before measuring
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        kept = [zne_energy(cfg, params, h, pauli) for _ in range(260)]
        per_eval = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert per_eval <= 600


def test_vqe_fixed_params_records_trace(h3):
    lam = (0.7609, 0.7044)
    cfg = RunConfig(n_states=3, lambdas=lam, shots=0)
    result = vqe_run(cfg)
    assert result.params.lambdas == lam
    assert len(result.trace) == 1
    rec = result.trace[0]
    assert rec.lambdas == lam
    assert [r for r, _, _ in rec.series] == [1, 3, 5, 7]


def test_vqe_noisy_xx_only_covers_truth():
    # with noise the extrapolation can see (two-qubit only), the intercept
    # recovers the exact energy within its quoted uncertainty band
    noise = NoiseModel.ion_defaults(3, p1=0.0)
    cfg = RunConfig(n_states=3, lambdas=(0.7609, 0.7044), shots=10_000,
                    noise=noise, seed=42)
    result = vqe_run(cfg)
    assert abs(result.zne.intercept - (-2.0457)) <= 3 * result.zne.intercept_sigma
    m0 = result.trace[0].series[0]
    sigma_m0 = m0[2]
    assert abs(m0[1] - (-2.0457)) > sigma_m0  # unmitigated point is biased


def test_seed_ensemble_matches_exact_channel():
    # oracle: each fold level's energy from the exact channel, diag(rho) of every
    # setting fed to the same estimator; readout is left out, as SPAM inversion
    # undoes it on average.  The mean over seeds must lie within 4 sigma/sqrt(N).
    n = 3
    h = build_oscillator_hamiltonian(EftConfig(n))
    pauli = jordan_wigner(h)
    params, _ = optimal_parameters(h)
    cfg = RunConfig(n_states=n, lambdas=params.lambdas, shots=2000, fold_levels=(0, 1, 2, 3),
                    weighted=False)
    native = prepared_native_circuit(cfg, params)
    settings = measurement_settings(pauli)
    exact = []
    for m in cfg.fold_levels:
        folded = fold_circuit(native, FoldSpec(m))
        probs = {s.basis: np.diagonal(run_density(NativeCircuit(
                     n, folded.gates + basis_rotation_circuit(s.basis, n).gates), cfg.noise)).real
                 for s in settings}
        exact.append(energy_estimate(pauli, probs, settings)[0])
    rs = [2 * m + 1 for m in cfg.fold_levels]
    exact_intercept = np.polyfit(rs, exact, 1)[-1]

    runs = [zne_energy(replace(cfg, seed=seed), params, h, pauli) for seed in range(64)]
    energies = np.array([[p.value for p in series.points] for series, _ in runs])
    intercepts = np.array([res.intercept for _, res in runs])

    def z(samples, target):
        return (samples.mean() - target) / (samples.std(ddof=1) / math.sqrt(len(samples)))

    for k, r in enumerate(rs):
        assert abs(z(energies[:, k], exact[k])) <= 4, r
    assert abs(z(intercepts, exact_intercept)) <= 4


def _observed(gates, n, noise):
    """Outcome distribution of a noisy circuit after readout, from dense matrices."""
    probs = np.clip(np.diagonal(run_density(NativeCircuit(n, gates), noise)).real, 0.0, None)
    observed = reduce(np.kron, noise.readout).T @ probs
    return observed / observed.sum()


def _z_signs(word):
    """Parity signs of a word read in its own basis: the diagonal of its Z form."""
    z_word = "".join("I" if c == "I" else "Z" for c in word)
    return np.diagonal(PauliHamiltonian(len(word), [(1.0, z_word)]).to_matrix()).real


@pytest.mark.parametrize("n", [3, 4])
def test_sigma_is_the_exact_multinomial_sd(monkeypatch, n):
    # fed the exact expected counts, every reported sigma is the exact SD of its
    # estimator, a linear function of the multinomial counts: on each fold level's
    # energy, on each per-term point and on the per-term intercept.  The oracle
    # inverts the full 2^n readout matrix and uses the covariance N (diag p - p p^T).
    h = build_oscillator_hamiltonian(EftConfig(n))
    pauli = jordan_wigner(h)
    params, _ = optimal_parameters(h)
    cfg = RunConfig(n_states=n, lambdas=params.lambdas, per_term=True)
    shots = cfg.shots
    monkeypatch.setattr(driver, "sample_shots_noisy", lambda folded, rotations, shots_, noise, seed:
                        shots_ * _observed(folded.gates + rotations.gates, n, noise))
    series, res = zne_energy(cfg, params, h, pauli)

    inverse = np.linalg.inv(reduce(np.kron, cfg.noise.readout))
    native = prepared_native_circuit(cfg, params)
    rs = [2 * m + 1 for m in cfg.fold_levels]

    def sd(g, p):
        return math.sqrt(g @ (np.diag(p) - np.outer(p, p)) @ g / shots)

    settings = measurement_settings(pauli)
    observed = {(r, s.basis): _observed(fold_circuit(native, FoldSpec((r - 1) // 2)).gates
                                        + basis_rotation_circuit(s.basis, n).gates, n, cfg.noise)
                for r in rs for s in settings}
    energy_rows = [inverse @ sum(c * _z_signs(w) for c, w in s.terms) for s in settings]
    for point in series.points:
        exact = math.sqrt(sum(sd(g, observed[point.r, s.basis]) ** 2
                              for g, s in zip(energy_rows, settings)))
        assert abs(point.sigma - exact) <= 1e-12, (point.r, point.sigma / exact)

    intercept, variance = pauli.identity_coefficient, 0.0
    for s, readout_rows in zip(settings, measurement_settings(pauli, cfg.noise.readout)):
        combined = {r: 0.0 for r in rs}
        for (c, w), row in zip(s.terms, readout_rows.rows):
            g = inverse @ _z_signs(w)
            means = [g @ observed[r, s.basis] for r in rs]
            sigmas = [sd(g, observed[r, s.basis]) for r in rs]
            for r, mean, sigma in zip(rs, means, sigmas):  # the per-term points
                point = linear_estimate(row, shots * observed[r, s.basis])
                assert abs(point[0] - mean) <= 1e-12 and abs(point[1] - sigma) <= 1e-12, (w, r)
            # intercept row of the weighted straight-line fit through the term's points
            v = np.vander(rs, 2)
            vw = v.T / np.square(sigmas)
            a = np.linalg.solve(vw @ v, vw)[-1]
            intercept += c * (a @ means)
            for r, a_r in zip(rs, a):
                combined[r] = combined[r] + c * a_r * g
        variance += sum(sd(combined[r], observed[r, s.basis]) ** 2 for r in rs)
    assert abs(res.intercept - intercept) <= 1e-10
    exact = math.sqrt(variance)
    assert abs(res.intercept_sigma - exact) <= 1e-12, res.intercept_sigma / exact


@pytest.mark.parametrize("n", [3, 4])
def test_unweighted_sigma_agrees_with_per_term(n):
    # without weights every term shares the energy's fit, so the plain and the
    # per-term intercepts, and their propagated shot sigmas, are one number
    h = build_oscillator_hamiltonian(EftConfig(n))
    pauli = jordan_wigner(h)
    params, _ = optimal_parameters(h)
    for fit in FIT_KINDS:
        for seed in range(3):
            cfg = RunConfig(n_states=n, lambdas=params.lambdas, fit=fit, weighted=False, seed=seed)
            _, plain = zne_energy(cfg, params, h, pauli)
            _, per_term = zne_energy(replace(cfg, per_term=True), params, h, pauli)
            assert not plain.weighted and not per_term.weighted
            assert abs(plain.intercept - per_term.intercept) <= 1e-12, (fit, seed)
            assert abs(plain.intercept_sigma - per_term.intercept_sigma) <= 1e-12, (fit, seed)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("fit", FIT_KINDS)
def test_unweighted_sigma_is_the_exact_sd(monkeypatch, n, fit):
    # fed the exact expected counts, the unweighted intercept sigma, plain and
    # per-term, is the exact SD of the ordinary least-squares intercept: the
    # fit's intercept row a_r applied to each fold level's energy estimator
    h = build_oscillator_hamiltonian(EftConfig(n))
    pauli = jordan_wigner(h)
    params, _ = optimal_parameters(h)
    cfg = RunConfig(n_states=n, lambdas=params.lambdas, fit=fit, weighted=False)
    monkeypatch.setattr(driver, "sample_shots_noisy", lambda folded, rotations, shots_, noise, seed:
                        shots_ * _observed(folded.gates + rotations.gates, n, noise))
    _, plain = zne_energy(cfg, params, h, pauli)
    _, per_term = zne_energy(replace(cfg, per_term=True), params, h, pauli)

    inverse = np.linalg.inv(reduce(np.kron, cfg.noise.readout))
    native = prepared_native_circuit(cfg, params)
    rs = [2 * m + 1 for m in cfg.fold_levels]
    a = np.linalg.pinv(np.vander(rs, FIT_KINDS.index(fit) + 2))[-1]
    variance = 0.0
    for s in measurement_settings(pauli):
        g = inverse @ sum(c * _z_signs(w) for c, w in s.terms)
        for r, a_r in zip(rs, a):
            p = _observed(fold_circuit(native, FoldSpec((r - 1) // 2)).gates
                          + basis_rotation_circuit(s.basis, n).gates, n, cfg.noise)
            variance += a_r * a_r * (g @ (np.diag(p) - np.outer(p, p)) @ g) / cfg.shots
    exact = math.sqrt(variance)
    for res in (plain, per_term):
        assert abs(res.intercept_sigma - exact) <= 1e-12, res.intercept_sigma / exact


def test_intercept_sigma_matches_seed_ensemble_spread():
    # over 200 seeds at n = 4 the mean reported intercept sigma lies within 10%
    # of the intercepts' sample SD, for the energy fit and for the per-term fit
    n = 4
    h = build_oscillator_hamiltonian(EftConfig(n))
    pauli = jordan_wigner(h)
    params, _ = optimal_parameters(h)
    cfg = RunConfig(n_states=n, lambdas=params.lambdas, per_term=True)
    plain, per_term = [], []
    for seed in range(200):
        series, res = zne_energy(replace(cfg, seed=seed), params, h, pauli)
        fit = richardson_extrapolate(series, cfg.fit, cfg.weighted)
        plain.append((fit.intercept, fit.intercept_sigma))
        per_term.append((res.intercept, res.intercept_sigma))
    for name, results in (("energy", plain), ("per-term", per_term)):
        intercepts, sigmas = np.array(results).T
        ratio = sigmas.mean() / intercepts.std(ddof=1)
        assert 0.9 <= ratio <= 1.1, (name, ratio)


def test_vqe_noisy_optimize_mechanics():
    # stochastic optimizer path: runs within budget, records every
    # evaluation, and replays bit-exactly
    noise = NoiseModel.ion_defaults(2, p1=0.0)
    cfg = RunConfig(n_states=2, shots=500, fold_levels=(0, 1), noise=noise,
                    seed=8, max_evals=12)
    a = vqe_run(cfg)
    b = vqe_run(cfg)
    assert len(a.params.lambdas) == 1
    assert len(a.trace) >= 3
    assert a.zne.intercept == b.zne.intercept
    assert [r.lambdas for r in a.trace] == [r.lambdas for r in b.trace]


def test_noisy_vqe_reports_a_fresh_draw():
    # the reported evaluation has its own shot stream: it replays exactly, and
    # it is not the search's (trace-minimum) value at the reported point
    cfg = RunConfig(n_states=3, shots=10_000, seed=3, max_evals=20)
    a, b = vqe_run(cfg), vqe_run(cfg)
    assert (a.zne.intercept, a.zne.intercept_sigma) == (b.zne.intercept, b.zne.intercept_sigma)
    *search, closing = a.trace
    assert closing.lambdas == a.params.lambdas and closing.intercept == a.zne.intercept
    at_best = [r.intercept for r in search if r.lambdas == a.params.lambdas]
    assert at_best and at_best[0] == min(r.intercept for r in search)
    assert a.zne.intercept not in at_best


def test_nelder_mead_quadratic_bowl():
    calls = []

    def f(x):
        calls.append(1)
        return float((x[0] - 1.0) ** 2 + 2.0 * (x[1] + 0.5) ** 2)

    x, fx, evals, converged = nelder_mead(f, np.array([3.0, 2.0]), step=0.5,
                                          max_evals=400, ftol=1e-12)
    assert converged
    assert fx < 1e-8
    assert np.allclose(x, [1.0, -0.5], atol=1e-3)
    assert evals == len(calls)


def test_nelder_mead_budget_flag():
    def f(x):
        return float(np.sum(x**2))

    _, _, evals, converged = nelder_mead(f, np.array([5.0, 5.0, 5.0]), max_evals=10)
    assert evals >= 10  # budget consumed (soft cap, may overshoot mid-update)
    assert evals < 20
    assert not converged


def test_nelder_mead_returns_best_observed():
    rng = np.random.default_rng(0)

    def noisy(x):
        return float(np.sum(x**2)) + float(rng.normal(0, 0.05))

    x, fx, _, _ = nelder_mead(noisy, np.array([2.0, -2.0]), max_evals=150)
    assert np.sum(x**2) < 1.0  # made solid progress despite the noise


def test_scan_theory_column_matches_reference_table():
    for index in (0, 1, 2):
        rows_ref = landscape_column(index)
        values = tuple(r.lambdas[index] for r in rows_ref)
        spec = ScanSpec(index, values, (0.858, 0.958, 0.758))
        cfg = RunConfig(n_states=4, shots=0)
        rows = landscape_scan(cfg, spec)
        for row, ref in zip(rows, rows_ref):
            assert row.lambdas == ref.lambdas
            assert row.theory == pytest.approx(ref.predicted, abs=5e-3)
            assert row.zne.intercept == pytest.approx(row.theory, abs=1e-9)


def test_scan_validation():
    with pytest.raises(ValueError):
        ScanSpec(3, (0.1,), (0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        ScanSpec(0, (), (0.1, 0.2))
    cfg = RunConfig(n_states=4, shots=0)
    with pytest.raises(ConfigError, match="lambdas"):
        landscape_scan(cfg, ScanSpec(0, (0.1,), (0.1, 0.2)))


def test_fit_quadratic_exact_parabola():
    pts = [(x, (x - 1.0) ** 2 - 2.0, 0.1) for x in (0.0, 1.0, 2.0)]
    loc, energy, sigma = fit_quadratic_minimum(pts)
    assert loc == pytest.approx(1.0, abs=1e-10)
    assert energy == pytest.approx(-2.0, abs=1e-10)


def test_fit_quadratic_concave_raises():
    pts = [(x, -(x**2), 0.1) for x in (-1.0, 0.0, 1.0)]
    with pytest.raises(ConcaveFitError):
        fit_quadratic_minimum(pts)


def test_fit_quadratic_needs_three_points():
    with pytest.raises(ValueError):
        fit_quadratic_minimum([(0, 0, 0.1), (1, 1, 0.1)])


def test_landscape_fit_minima_match_published():
    minima = []
    for index in (0, 1, 2):
        rows = landscape_column(index)
        pts = [(r.lambdas[index], r.measured, r.measured_sigma) for r in rows]
        _, energy, sigma = fit_quadratic_minimum(pts)
        minima.append(energy)
        assert energy == pytest.approx(LANDSCAPE_FIT_MINIMA[index], abs=0.05)
        assert sigma > 0
    assert np.mean(minima) == pytest.approx(LANDSCAPE_FIT_AVERAGE, abs=0.05)


def test_monotone_convergence_of_exact_minima(h2, h3, h4):
    e2, e3, e4 = (exact_ground_energy(h) for h in (h2, h3, h4))
    assert e2 > e3 > e4 > -2.224


def test_convergence_report_contents():
    results = {2: (-1.749, 0.0), 3: (-2.046, 0.0), 4: (-2.143, 0.0)}
    report = convergence_report(results)
    assert report.exact_binding_energy == -2.224
    assert report.missing == []
    assert report.uccs_exact[2] == pytest.approx(-1.749, abs=1e-3)
    assert report.uccs_exact[3] == pytest.approx(-2.046, abs=1e-3)
    assert report.uccs_exact[4] == pytest.approx(-2.143, abs=1e-3)
    rows = report.csv_rows()
    platforms = {r[0] for r in rows}
    assert {"this-work", "uccs-exact", "umd-ionq"} <= platforms


def test_convergence_report_flags_gaps():
    report = convergence_report({2: (-1.7, 0.1), 3: (-2.0, 0.1)})
    assert report.missing == [4]
    with pytest.raises(ValueError):
        convergence_report({})
