import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deuteronvqe.ansatz import build_ansatz_circuit, optimal_parameters
from deuteronvqe.compiler import transpile
from deuteronvqe.estimator import (
    FIT_KINDS,
    ZnePoint,
    ZneSeries,
    apply_confusion,
    basis_rotation_circuit,
    energy_estimate,
    extrapolate_histograms,
    histogram_array,
    histogram_dict,
    measurement_settings,
    polynomial_fit,
    richardson_extrapolate,
    spam_correct,
    weight_rows,
    _bit_labels,
    _moments,
    _parity_signs,
)
from deuteronvqe.hamiltonian import (EftConfig, PauliHamiltonian, build_oscillator_hamiltonian,
                                     jordan_wigner)
from deuteronvqe.simulator import flip_matrix


def test_settings_h2(pauli_h2):
    settings = measurement_settings(pauli_h2)
    assert [s.basis for s in settings] == ["z", "x", "y"]
    x_words = {w for _, w in settings[1].terms}
    assert x_words == {"XX"}


def test_settings_h4(pauli_h4):
    settings = measurement_settings(pauli_h4)
    by_basis = {s.basis: {w for _, w in s.terms} for s in settings}
    assert by_basis["x"] == {"XXII", "IXXI", "IIXX"}
    assert by_basis["y"] == {"YYII", "IYYI", "IIYY"}
    assert by_basis["z"] == {"ZIII", "IZII", "IIZI", "IIIZ"}


def test_settings_identity_only():
    p = PauliHamiltonian(2, [(3.0, "II")])
    assert measurement_settings(p) == []


def test_settings_cover_every_term_once():
    for n in range(2, 9):
        pauli = jordan_wigner(build_oscillator_hamiltonian(EftConfig(n)))
        settings = measurement_settings(pauli)
        covered = [w for s in settings for _, w in s.terms]
        wanted = [w for _, w in pauli.terms if set(w) != {"I"}]
        assert sorted(covered) == sorted(wanted)


def test_settings_reject_mixed_axis_terms():
    p = PauliHamiltonian(2, [(1.0, "XZ")])
    with pytest.raises(ValueError, match="single"):
        measurement_settings(p)


def test_parity_row_examples():
    # a word's row on raw counts is its parity signs, so the variance is (1 - mean^2)/shots
    zz, zi, ii = weight_rows(["ZZ", "ZI", "II"])
    assert _moments(zz, histogram_array({"10": 100}, 2)) == (-1.0, 0.0)
    mean, variance = _moments(zi, histogram_array({"00": 50, "11": 50}, 2))
    assert mean == 0.0
    assert math.sqrt(variance) == pytest.approx(0.1)
    assert _moments(ii, histogram_array({"01": 7}, 2)) == (1.0, 0.0)


def test_single_outcome_histogram_has_zero_sigma():
    # every shot in one outcome: the centred variance is exactly 0, where the
    # uncentred sum w^2 p - (w.p)^2 cancelled to 6.7e-8 on the readout-inverted z row
    pauli = jordan_wigner(build_oscillator_hamiltonian(EftConfig(3)))
    z = measurement_settings(pauli, (flip_matrix(0.18),) * 3)[0]
    energy, sigma = energy_estimate(pauli, {"z": histogram_array({"100": 25}, 3)}, [z])
    assert sigma == 0.0
    assert energy == pytest.approx(pauli.identity_coefficient + z.weights[0b100], abs=1e-12)


def test_parity_signs_built_once_and_read_only():
    signs = _parity_signs("ZIZ")
    assert _parity_signs("ZIZ") is signs
    assert signs.tolist() == [1, -1, 1, -1, -1, 1, -1, 1]
    assert _parity_signs("X").tolist() == [1, -1]
    with pytest.raises(ValueError):
        signs[0] = 0.0


def test_histogram_records_share_key_objects():
    a = histogram_dict(np.array([3, 0, 1, 0, 0, 0, 0, 2]))
    b = histogram_dict(np.array([0, 0, 5, 0, 0, 0, 0, 1]))
    assert list(a) == ["000", "010", "111"] and list(b) == ["010", "111"]
    assert all(key is _bit_labels(3)[int(key, 2)] for key in [*a, *b])


def test_moments_errors():
    zi = weight_rows(["ZI"])[0]
    with pytest.raises(ValueError):
        _moments(zi, {})
    with pytest.raises(ValueError, match="no weight"):
        _moments(zi, np.zeros(4))
    # a histogram of the wrong length, and the bit-string dicts whose short or
    # long keys were once read as if they covered every qubit
    for hist in (np.ones(2), np.ones(8), np.ones((2, 2)), {"10": 5, "1": 3}, {"101": 5}):
        with pytest.raises(ValueError, match=r"histogram of shape \(4,\)"):
            _moments(zi, hist)


def test_parity_rows_match_diagonal_oracle():
    # every Z/I word at n = 1..4 against the diagonal of its dense matrix
    rng = np.random.default_rng(31)
    for n in range(1, 5):
        for letters in itertools.product("IZ", repeat=n):
            word = "".join(letters)
            diag = np.diagonal(PauliHamiltonian(n, [(1.0, word)]).to_matrix()).real
            for _ in range(5):
                p = rng.dirichlet(np.ones(2**n))
                mean, _ = _moments(weight_rows([word])[0], p)
                assert abs(mean - p @ diag) <= 1e-12, (word, mean, p @ diag)


def test_histogram_record_roundtrip():
    counts = {"000": 3, "101": 7, "110": 1}
    hist = histogram_array(counts, 3)
    assert np.array_equal(hist, [3, 0, 0, 0, 0, 7, 1, 0])
    assert histogram_dict(hist) == counts
    ints = histogram_dict(np.array([0, 4, 0, 2]))
    assert ints == {"01": 4, "11": 2} and all(type(v) is int for v in ints.values())
    with pytest.raises(ValueError, match="not a 3-bit string"):
        histogram_array({"10": 1}, 3)
    # six entries wrote the mixed-width record {"00": 1, "101": 2}
    with pytest.raises(ValueError, match="length 6"):
        histogram_dict(np.array([1, 0, 0, 0, 0, 2]))


def test_spam_identity_confusion():
    counts = {"00": 40.0, "11": 60.0}
    out = spam_correct(counts, (np.eye(2), np.eye(2)))
    assert out == counts


def test_spam_inverse_roundtrip():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        probs = rng.dirichlet(np.ones(2**n))
        dist = {format(i, f"0{n}b"): float(p) for i, p in enumerate(probs)}
        confusion = tuple(flip_matrix(float(rng.uniform(0, 0.2))) for _ in range(n))
        observed = apply_confusion(dist, confusion)
        recovered = spam_correct(observed, confusion)
        for key, val in dist.items():
            assert recovered.get(key, 0.0) == pytest.approx(val, abs=1e-10)
        # dense vectors, with asymmetric row-stochastic readout as well
        asymmetric = tuple(np.array([[1 - a, a], [b, 1 - b]])
                           for a, b in rng.uniform(0, 0.2, size=(n, 2)))
        for mats in (confusion, asymmetric):
            dense_observed = apply_confusion(probs, mats)
            dense_recovered = spam_correct(dense_observed, mats)
            assert np.abs(dense_recovered - probs).max() <= 1e-10
            # the record-dict branch gives bit-identical values
            assert histogram_dict(dense_observed) == apply_confusion(dist, mats)
            assert histogram_dict(dense_recovered) == spam_correct(apply_confusion(dist, mats), mats)


@st.composite
def _readout_case(draw):
    """A distribution p, a Pauli word and non-singular per-qubit confusion matrices."""
    n = draw(st.integers(1, 4))
    rate = st.floats(0.0, 0.3)
    confusion = tuple(np.array([[1 - a, a], [b, 1 - b]])
                      for a, b in (draw(st.tuples(rate, rate)) for _ in range(n)))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=2**n, max_size=2**n)
                   .filter(lambda w: sum(w) > 0.1))
    word = draw(st.text("IXYZ", min_size=n, max_size=n))
    return np.array(weights) / sum(weights), word, confusion


@settings(max_examples=200)
@given(_readout_case())
def test_weight_rows_fold_readout_inversion(case):
    # a word's weight row read on the readout-forwarded distribution gives the
    # parity expectation on the distribution itself, and inverting readout on a
    # forwarded distribution gives the distribution back
    p, word, confusion = case
    n = len(word)
    mask = sum(1 << (n - 1 - q) for q, letter in enumerate(word) if letter != "I")
    parity = sum(pi * (-1) ** bin(i & mask).count("1") for i, pi in enumerate(p))
    observed = apply_confusion(p, confusion)
    mean, variance = _moments(weight_rows([word], confusion)[0], observed)
    assert abs(mean - parity) <= 1e-12 and variance >= 0
    assert np.abs(spam_correct(observed, confusion) - p).max() <= 1e-12


def test_energy_sigma_counts_shared_shots():
    # two Z terms read from one setting: sigma is the SD of their sum, not the
    # quadrature sum of their binomial SDs.  {"00": 50, "11": 50} makes ZI and IZ
    # perfectly correlated: ZI + IZ is +-2 with equal odds, SD 2/sqrt(100)
    pauli = PauliHamiltonian(2, [(1.0, "ZI"), (1.0, "IZ")])
    energy, sigma = energy_estimate(pauli, {"z": histogram_array({"00": 50, "11": 50}, 2)},
                                    measurement_settings(pauli))
    assert energy == 0.0 and sigma == pytest.approx(0.2, abs=1e-15)
    # readout inversion widens sigma: the row of Z under flip rate 0.1 is +-1.25
    rows = measurement_settings(PauliHamiltonian(1, [(1.0, "Z")]), (flip_matrix(0.1),))[0].rows
    assert rows.tolist() == [[pytest.approx(1.25), pytest.approx(-1.25)]]
    with pytest.raises(ValueError):
        rows[0, 0] = 0.0


def test_spam_hand_worked_example():
    # flip rate 0.1 on one qubit: the 2x2 inverse applied by hand
    out = spam_correct({"0": 0.9, "1": 0.1}, (flip_matrix(0.1),))
    assert out.get("0", 0.0) == pytest.approx(1.0, abs=1e-12)
    assert out.get("1", 0.0) == pytest.approx(0.0, abs=1e-12)


def test_spam_preserves_total_weight():
    counts = {"01": 130.0, "10": 370.0}
    out = spam_correct(counts, (flip_matrix(0.05), flip_matrix(0.12)))
    assert sum(out.values()) == pytest.approx(sum(counts.values()), abs=1e-9)


def test_spam_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        spam_correct({"0": 1.0}, (np.array([[0.5, 0.5], [0.5, 0.5]]),))


def test_spam_rejects_malformed_keys():
    # a short key would spread its weight over a whole slice of outcomes
    for counts in ({"10": 5, "1": 3}, {"10": 5, "1a": 3}, {"10": 5, "101": 3}):
        with pytest.raises(ValueError, match="2-bit string"):
            spam_correct(counts, (np.eye(2), np.eye(2)))


def _energy(pauli, state):
    """Energy from infinite-shot histograms: exact Born probabilities in each basis."""
    settings = measurement_settings(pauli)
    probs = {s.basis: np.abs(basis_rotation_circuit(s.basis, pauli.n_qubits).apply(state)) ** 2
             for s in settings}
    return energy_estimate(pauli, probs, settings)


def test_energy_estimate_bare_excitation(h2, pauli_h2):
    energy, _ = _energy(pauli_h2, np.array([0, 0, 1, 0], dtype=complex))  # |10>
    assert energy == pytest.approx(-0.43658, abs=1e-5)


def test_energy_estimate_vacuum_is_zero(pauli_h2):
    energy, sigma = _energy(pauli_h2, np.array([1, 0, 0, 0], dtype=complex))
    # the vacuum expectation of a number-conserving operator vanishes
    assert abs(energy) < 1e-12


def test_energy_estimate_ground_state_infinite_shots(h2, pauli_h2):
    params, _ = optimal_parameters(h2)
    state = transpile(build_ansatz_circuit(2, params)).apply(np.array([1, 0, 0, 0], dtype=complex))
    energy, _ = _energy(pauli_h2, state)
    assert energy == pytest.approx(-1.749, abs=1e-3)


def test_energy_estimate_matches_matrix_on_random_states(pauli_h2):
    rng = np.random.default_rng(17)
    hmat = pauli_h2.to_matrix()
    for _ in range(25):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        energy, _ = _energy(pauli_h2, v)
        assert energy == pytest.approx(float(np.real(v.conj() @ hmat @ v)), abs=1e-10)


def test_energy_estimate_missing_setting(pauli_h2):
    with pytest.raises(KeyError):
        energy_estimate(pauli_h2, {"z": np.array([1.0, 0.0, 0.0, 0.0])},
                        measurement_settings(pauli_h2))


def test_richardson_exact_line():
    series = ZneSeries([ZnePoint(1, -2.0, 0.1), ZnePoint(3, -1.0, 0.1), ZnePoint(5, 0.0, 0.1)])
    res = richardson_extrapolate(series)
    assert res.intercept == pytest.approx(-2.5, abs=1e-10)
    assert res.slope == pytest.approx(0.5, abs=1e-10)
    assert res.weighted


def test_richardson_constant_series():
    series = ZneSeries([ZnePoint(r, -2.046, 0.05) for r in (1, 3, 5, 7)])
    res = richardson_extrapolate(series)
    assert res.intercept == pytest.approx(-2.046, abs=1e-12)
    assert res.slope == pytest.approx(0.0, abs=1e-12)


def test_richardson_affine_equivariance():
    pts = [(1, -2.0, 0.1), (3, -1.2, 0.2), (5, 0.3, 0.15), (7, 1.0, 0.3)]
    base = richardson_extrapolate(ZneSeries([ZnePoint(*p) for p in pts]))
    for s in (2.0, -3.0, 0.5):
        scaled = richardson_extrapolate(
            ZneSeries([ZnePoint(r, s * v, abs(s) * sg) for r, v, sg in pts])
        )
        assert scaled.intercept == pytest.approx(s * base.intercept, rel=1e-10)
        assert scaled.intercept_sigma == pytest.approx(abs(s) * base.intercept_sigma, rel=1e-10)


def test_richardson_exact_on_affine_data_any_weights():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a, b = rng.normal(size=2)
        rs = (1, 3, 5, 7, 9)
        sigmas = rng.uniform(0.01, 2.0, size=len(rs))
        series = ZneSeries([ZnePoint(r, a + b * r, float(s)) for r, s in zip(rs, sigmas)])
        res = richardson_extrapolate(series)
        assert res.intercept == pytest.approx(a, abs=1e-10)


def test_richardson_two_points_linear():
    series = ZneSeries([ZnePoint(1, 1.0, 0.1), ZnePoint(3, 2.0, 0.1)])
    res = richardson_extrapolate(series)
    assert res.intercept == pytest.approx(0.5, abs=1e-12)


def test_richardson_zero_sigma_falls_back_unweighted():
    series = ZneSeries([ZnePoint(1, 1.0, 0.0), ZnePoint(3, 2.0, 0.0), ZnePoint(5, 3.0, 0.0)])
    res = richardson_extrapolate(series)
    assert not res.weighted
    assert res.intercept == pytest.approx(0.5, abs=1e-12)


def test_richardson_quadratic():
    series = ZneSeries([ZnePoint(r, 1.0 + 0.5 * r + 0.25 * r * r, 0.1) for r in (1, 3, 5, 7)])
    res = richardson_extrapolate(series, kind="quadratic")
    assert res.intercept == pytest.approx(1.0, abs=1e-9)
    assert res.kind == "quadratic"


def test_richardson_underdetermined():
    with pytest.raises(ValueError):
        richardson_extrapolate(ZneSeries([ZnePoint(1, 1.0, 0.1)]))
    with pytest.raises(ValueError):
        richardson_extrapolate(
            ZneSeries([ZnePoint(1, 1.0, 0.1), ZnePoint(3, 2.0, 0.1)]), kind="quadratic"
        )


def test_series_validation():
    with pytest.raises(ValueError):
        ZneSeries([ZnePoint(1, 0.0, 0.1), ZnePoint(1, 1.0, 0.1)])
    with pytest.raises(ValueError):
        ZneSeries([ZnePoint(2, 0.0, 0.1)])


def test_polynomial_fit_matches_numpy_polyfit():
    # the fit matrix gives numpy's least-squares coefficients; with weights
    # 1/sigma^2 numpy's unscaled covariance, without them the point sigmas
    # propagated through the ordinary least-squares solution (V^T V)^-1 V^T,
    # and only for points without sigmas numpy's residual-scaled covariance
    rng = np.random.default_rng(41)
    for _ in range(30):
        deg = int(rng.integers(1, 3))
        x = np.sort(rng.uniform(-2.0, 8.0, size=int(rng.integers(deg + 2, 8))))
        y, sigma = rng.normal(size=len(x)), rng.uniform(0.05, 1.0, size=len(x))
        coef, cov, used = polynomial_fit(x, y, sigma, deg, True)
        ref, ref_cov = np.polyfit(x, y, deg, w=1.0 / sigma, cov="unscaled")
        assert used
        assert np.allclose(coef, ref, rtol=0, atol=1e-10)
        assert np.allclose(cov, ref_cov, rtol=1e-9, atol=1e-12)
        v = np.vander(x, deg + 1)
        ols = np.linalg.solve(v.T @ v, v.T)
        ref, ref_cov = np.polyfit(x, y, deg, cov=True)
        for point_sigma, want in ((sigma, ols @ np.diag(sigma**2) @ ols.T), (0 * sigma, ref_cov)):
            coef, cov, used = polynomial_fit(x, y, point_sigma, deg, False)
            assert not used
            assert np.allclose(coef, ref, rtol=0, atol=1e-10)
            assert np.allclose(cov, want, rtol=1e-9, atol=1e-12)


def test_richardson_recovers_truth_on_synthetic_series():
    # intercepts of noisy linear series must cover the truth at the stated
    # confidence: with gaussian noise of the stated sigma, 3-sigma coverage
    # holds for almost all seeds
    rng = np.random.default_rng(99)
    truth, slope, sigma = -2.046, 0.35, 0.08
    hits = 0
    for _ in range(200):
        pts = [
            ZnePoint(r, truth + slope * r + rng.normal(0, sigma), sigma)
            for r in (1, 3, 5, 7)
        ]
        res = richardson_extrapolate(ZneSeries(pts))
        hits += abs(res.intercept - truth) <= 3 * res.intercept_sigma
    assert hits >= 195


@st.composite
def _run_histograms(draw):
    """A model's Pauli form at n = 2 or 3, its settings under a random readout
    flip (or none), fold levels enough for a random fit kind, random counts
    as one (level, setting, outcome) array and whether the fit is weighted."""
    n = draw(st.integers(2, 3))
    eps = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.2)))
    kind = draw(st.sampled_from(FIT_KINDS))
    levels = draw(st.lists(st.integers(0, 5), min_size=FIT_KINDS.index(kind) + 2, max_size=5,
                           unique=True))
    pauli = jordan_wigner(build_oscillator_hamiltonian(EftConfig(n)))
    settings = measurement_settings(pauli, (flip_matrix(eps),) * n if eps else ())
    counts = st.lists(st.integers(0, 40), min_size=2**n, max_size=2**n).filter(any)
    stacked = np.array([[draw(counts) for _ in settings] for _ in levels])
    return pauli, settings, [2 * m + 1 for m in levels], stacked, kind, draw(st.booleans())


@settings(max_examples=150)
@given(_run_histograms())
def test_extrapolate_histograms_fits_the_energy_series(case):
    # the returned series is `energy_estimate` on each level, and a plain run is
    # the fit of that series, identity coefficient included: a level whose
    # histograms have no spread has sigma exactly 0, so no fit weighs a point by
    # the inverse square of a rounding residue.  Without weights every term
    # shares the energy's fit, so the per-term result equals the plain one.
    pauli, settings, rs, counts, kind, weighted = case
    series, plain = extrapolate_histograms(pauli, settings, rs, counts, kind, weighted)
    points = [ZnePoint(r, *energy_estimate(pauli, {s.basis: h for s, h in zip(settings, level)},
                                           settings))
              for r, level in zip(rs, counts)]
    for got, want in zip(series.points, points, strict=True):
        assert got.r == want.r
        assert abs(got.value - want.value) <= 1e-12 and abs(got.sigma - want.sigma) <= 1e-12
    fit = richardson_extrapolate(ZneSeries(points), kind, weighted)
    assert abs(plain.intercept - fit.intercept) <= 1e-12
    assert abs(plain.slope - fit.slope) <= 1e-12
    assert plain.weighted == fit.weighted == (weighted and all(p.sigma > 0 for p in points))
    if all(p.sigma > 0 for p in points):
        assert abs(plain.intercept_sigma - fit.intercept_sigma) <= 1e-12
    if not weighted:
        _, per_term = extrapolate_histograms(pauli, settings, rs, counts, kind, False,
                                             per_term=True)
        assert not per_term.weighted
        for a, b in ((per_term.intercept, plain.intercept), (per_term.slope, plain.slope),
                     (per_term.intercept_sigma, plain.intercept_sigma)):
            assert abs(a - b) <= 1e-12


@pytest.mark.parametrize("per_term", [False, True])
@pytest.mark.parametrize("n, flip, level", [
    # every histogram of the level holds |100>, read through readout-inverted
    # rows: the uncentred sum w^2 p - (w.p)^2 left a sigma of 6.7e-8
    (3, 0.18, [histogram_array({"100": 25}, 3)] * 3),
    # the x and y shots fall on two outcomes of one parity: a sum centred on
    # the mean alone left a sigma of 1.3e-16, and the weighted fit an intercept
    # 3.1 MeV from the unweighted one
    (2, 0.0, [[0, 0, 25, 0], [1, 0, 0, 23], [0, 1, 23, 0]]),
], ids=["one-outcome", "one-weight"])
def test_level_without_spread_is_fitted_without_weights(n, flip, level, per_term):
    # a level whose histograms have no spread has sigma exactly 0, so the fit
    # falls back to no weights instead of weighing that point by 1e14 or more
    pauli = jordan_wigner(build_oscillator_hamiltonian(EftConfig(n)))
    settings = measurement_settings(pauli, (flip_matrix(flip),) * n if flip else ())
    rng = np.random.default_rng(7)
    counts = np.array([level, *rng.integers(1, 10, size=(2, len(settings), 2**n))])
    series, result = extrapolate_histograms(pauli, settings, [1, 3, 5], counts,
                                            per_term=per_term)
    assert series.points[0].sigma == 0.0
    assert all(p.sigma > 0 for p in series.points[1:])
    assert not result.weighted
    assert result.intercept == pytest.approx(
        richardson_extrapolate(series, weighted=False).intercept, abs=1e-12)


def test_extrapolate_histograms_needs_one_histogram_set_per_r(pauli_h2):
    settings = measurement_settings(pauli_h2)
    level = [[3, 1, 0, 2]] * len(settings)
    with pytest.raises(ValueError):
        extrapolate_histograms(pauli_h2, settings, [1, 3, 5], np.array([level, level]))


def test_basis_rotation_circuits():
    assert basis_rotation_circuit("z", 3).gates == ()
    x = basis_rotation_circuit("x", 2)
    assert all(g.kind == "ry" and g.angle == -math.pi / 2 for g in x.gates)
    y = basis_rotation_circuit("y", 2)
    assert all(g.kind == "rx" and g.angle == math.pi / 2 for g in y.gates)
    with pytest.raises(ValueError):
        basis_rotation_circuit("w", 2)
