"""From shot histograms to energies: grouping, readout inversion, extrapolation.

The qubit Hamiltonians produced here contain only Z words, adjacent XX pairs
and adjacent YY pairs, so three measurement settings (all-Z, all-X, all-Y)
cover every term with qubit-wise commuting groups.

Every estimate is a linear functional of a histogram q of N shots: a weight
row w gives the mean w.q/N and the plug-in multinomial sigma
sqrt((sum w^2 q/N - (w.q/N)^2)/N) (`linear_estimate`).  A term's row is its
parity signs; a setting's energy row is the coefficient-weighted sum of its
term rows, so sigma carries the covariance of terms read from the same
shots.  Settings draw disjoint shots and add in quadrature.

Readout is inverted in the weights, not in the data: the expectation of
signs s on the corrected histogram A^T q, A the tensor product of the
inverse per-qubit confusion matrices, is (A s).q, so each term row is pushed
once through the inverse matrices and applied to the raw counts.  Sigma
then includes the variance that the inversion adds.  `spam_correct` still
inverts a histogram itself, for readers of count records; its
quasi-probabilities may be slightly negative and are kept as-is, since
clipping would bias the expectations.

A histogram is a dense count vector of length 2^n indexed by basis state
(qubit 0 the most significant bit); bit-string keys exist only in count
records, read and written by `histogram_array` and `histogram_dict`.

Zero-noise extrapolation fits measured values against the noise parameter r
(weighted least squares, weights 1/sigma^2, by default) and reports the
r = 0 intercept with the sigma that the fit propagates from the point
sigmas, weighted or not.  The fit is linear in the
values (`fit_matrix`), which lets an intercept be written as one weight row
per histogram as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .circuits import ConfigError, Gate, NativeCircuit, apply_matrix, checked, frozen
from .hamiltonian import PauliHamiltonian

# pre-measurement rotations mapping each basis onto Z:
# RY(-pi/2)^dag Z RY(-pi/2) = X and RX(pi/2)^dag Z RX(pi/2) = Y
_BASIS_ROTATIONS = {"z": (), "x": (("ry", -math.pi / 2),), "y": (("rx", math.pi / 2),)}
BASIS_LABELS = tuple(_BASIS_ROTATIONS)
# Richardson fit kinds; the polynomial degree is the position in this tuple plus one
FIT_KINDS = ("linear", "quadratic")


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """One measurement basis, the Hamiltonian terms it covers and their weights.

    `rotations` maps the basis onto Z, built once per setting.  `rows[k]` is
    the weight row of term k on this setting's raw counts and `weights` the
    energy row, sum_k c_k rows[k]; both read-only.
    """

    basis: str
    rotations: NativeCircuit
    terms: tuple[tuple[float, str], ...]
    rows: np.ndarray
    weights: np.ndarray


@dataclass(slots=True)
class ZnePoint:
    r: int
    value: float
    sigma: float

    def __post_init__(self):
        if checked("noise parameter r", self.r, int, ge=1) % 2 == 0:
            raise ConfigError(f"noise parameter r must be odd, got {self.r!r}")
        checked("value", self.value)
        checked("sigma", self.sigma, ge=0)


@dataclass(slots=True)
class ZneSeries:
    points: list[ZnePoint] = field(default_factory=list)

    def __post_init__(self):
        rs = [p.r for p in self.points]
        if len(set(rs)) != len(rs):
            raise ConfigError(f"duplicate noise parameters r in series: {rs}")


@dataclass(slots=True)
class ZneResult:
    intercept: float
    intercept_sigma: float
    slope: float
    kind: str
    weighted: bool = True


def _word_basis(word: str) -> str | None:
    letters = set(word) - {"I"}
    basis = letters.pop().lower() if len(letters) == 1 else None
    return basis if basis in _BASIS_ROTATIONS else None


def measurement_settings(h: PauliHamiltonian, readout=()) -> list[MeasurementSetting]:
    """Group all non-identity terms into the three single-basis settings.

    Each setting's weight rows read counts taken through the per-qubit
    confusion matrices `readout` (none: counts read as they are).  Raises if
    a term mixes Pauli axes; that cannot happen for Hamiltonians produced by
    the adjacent-hopping qubit mapping.
    """
    grouped: dict[str, list[tuple[float, str]]] = {b: [] for b in BASIS_LABELS}
    for coeff, word in h.terms:
        basis = _word_basis(word)
        if basis is None:
            if set(word) == {"I"}:
                continue
            raise ValueError(f"term {word!r} is not measurable in a single X/Y/Z basis")
        grouped[basis].append((coeff, word))
    settings = []
    for b in BASIS_LABELS:
        if grouped[b]:
            coeffs, words = zip(*grouped[b])
            rows = weight_rows(words, readout)
            settings.append(MeasurementSetting(b, basis_rotation_circuit(b, h.n_qubits),
                                               tuple(grouped[b]), rows,
                                               frozen(np.asarray(coeffs) @ rows)))
    return settings


def basis_rotation_circuit(basis: str, n_qubits: int) -> NativeCircuit:
    """Pre-measurement rotations mapping the given basis onto Z."""
    if basis not in _BASIS_ROTATIONS:
        raise ValueError(f"unknown basis {basis!r}")
    return NativeCircuit(n_qubits, [Gate(kind, (q,), angle) for kind, angle in _BASIS_ROTATIONS[basis]
                                    for q in range(n_qubits)])


def histogram_array(counts: dict[str, float], n: int) -> np.ndarray:
    """Dense length-2^n vector of a bit-string histogram record."""
    hist = np.zeros(2**n)
    for bits, c in counts.items():
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise ValueError(f"histogram key {bits!r} is not a {n}-bit string")
        hist[int(bits, 2)] = c
    return hist


@lru_cache(maxsize=16)
def _bit_labels(n: int) -> tuple[str, ...]:
    """The 2^n bit strings in basis-state order; records share these key objects."""
    return tuple(format(i, f"0{n}b") for i in range(2**n))


def histogram_dict(hist: np.ndarray) -> dict[str, int | float]:
    """Bit-string record of a dense histogram: nonzero entries, ints kept as ints."""
    n = len(hist).bit_length() - 1
    if len(hist) != 2**n:
        raise ValueError(f"histogram of length {len(hist)} is not indexed by n-bit states")
    labels = _bit_labels(n)
    return {labels[i]: hist[i].item() for i in np.flatnonzero(hist)}


@lru_cache(maxsize=256)
def _parity_signs(word: str) -> np.ndarray:
    """+1 on basis states of even parity on the word's support, -1 on odd."""
    return frozen(reduce(np.kron, [(1.0, 1.0) if letter == "I" else (1.0, -1.0)
                                   for letter in word], np.ones(1)))


def weight_rows(words, readout=()) -> np.ndarray:
    """Read-only (len(words), 2^n) weight rows of Pauli words on raw counts.

    Each row is the word's parity signs, pushed through the inverse of the
    per-qubit confusion matrices `readout` when there are any: the signs s
    on the corrected histogram A^T q equal (A s) on q.
    """
    rows = np.stack([_parity_signs(w) for w in words])
    if readout:
        # spam_correct(x, matrices) is A^T x; on the transposed matrices it is A x
        rows = spam_correct(rows, [np.asarray(m).T for m in readout])
    return frozen(rows)


def linear_estimate(weights: np.ndarray, hist: np.ndarray) -> tuple[float, float]:
    """Mean w.q/N of a weight row on a histogram q of N shots, and its sigma.

    Sigma is the plug-in multinomial standard deviation
    sqrt((sum w^2 q/N - (w.q/N)^2)/N), exact when q holds expected counts.
    """
    hist = np.asarray(hist)
    if hist.shape != weights.shape:
        raise ValueError(f"a weight row of length {len(weights)} needs a histogram "
                         f"of shape ({len(weights)},)")
    total = float(hist.sum())
    if total <= 0:
        raise ValueError("histogram has no weight")
    mean = float(weights @ hist) / total
    second = float((weights * weights) @ hist) / total
    return mean, math.sqrt(max(0.0, second - mean * mean) / total)


def apply_confusion(hist, confusion):
    """Push a distribution through per-qubit confusion matrices (true -> observed).

    A (B, 2^n) array is B distributions, pushed through together.
    """
    n = len(confusion)
    if isinstance(hist, dict):  # a count record comes back as one
        return histogram_dict(apply_confusion(histogram_array(hist, n), confusion))
    hist = np.asarray(hist, dtype=float)
    if hist.shape[-1:] != (2**n,) or hist.ndim > 2:
        raise ValueError(f"{n} readout matrices need a histogram of shape ({2**n},)")
    for q, m in enumerate(confusion):
        # out[..., j] = sum_i hist[..., i] * m[i, j], i.e. m^T acting on qubit q
        hist = apply_matrix(hist, np.asarray(m, dtype=float).T, (q,), n)
    return hist


def spam_correct(hist, confusion):
    """Invert per-qubit readout confusion on an empirical histogram.

    Output is a quasi-histogram with the same total weight; small negative
    entries are kept.
    """
    mats = []
    for m in confusion:
        m = np.asarray(m, dtype=float)
        if abs(np.linalg.det(m)) < 1e-12:
            raise ValueError("singular confusion matrix")
        mats.append(np.linalg.inv(m))
    return apply_confusion(hist, mats)


def energy_estimate(h: PauliHamiltonian, histograms: dict[str, np.ndarray],
                    settings: list[MeasurementSetting]) -> tuple[float, float]:
    """<H> and its sigma from one dense histogram per setting.

    `measurement_settings(h)` reads the histograms as they are, and
    `measurement_settings(h, readout)` reads raw counts taken through
    readout confusion.
    """
    energy = h.identity_coefficient
    variance = 0.0
    for setting in settings:
        if setting.basis not in histograms:
            raise KeyError(f"missing histogram for the {setting.basis!r} setting")
        mean, sigma = linear_estimate(setting.weights, histograms[setting.basis])
        energy += mean
        variance += sigma * sigma
    return energy, math.sqrt(variance)


def fit_matrix(x, sigma, deg: int, weighted: bool = True) -> tuple[np.ndarray, bool]:
    """The (deg + 1, len(x)) matrix H whose product with values y gives the
    least-squares polynomial coefficients, highest power first, and whether
    the fit uses weights 1/sigma^2.

    Weights apply only when `weighted` and every sigma is positive; with
    exactly deg + 1 points H is the inverse Vandermonde matrix either way.
    """
    x, sigma = (np.asarray(a, dtype=float) for a in (x, sigma))
    use_weights = bool(weighted and np.all(sigma > 0))
    v = np.vander(x, deg + 1)
    if len(x) == deg + 1:
        return np.linalg.inv(v), use_weights
    root_w = 1.0 / sigma if use_weights else np.ones_like(x)
    return np.linalg.pinv(v * root_w[:, None]) * root_w, use_weights


def polynomial_fit(x, y, sigma, deg: int,
                   weighted: bool = True) -> tuple[np.ndarray, np.ndarray, bool]:
    """Least-squares polynomial fit of y against x with its covariance.

    Returns (coefficients, highest power first; covariance; whether the
    fit used weights 1/sigma^2), with the fit of `fit_matrix`.  The
    covariance propagates the point sigmas, H diag(sigma^2) H^T, weighted
    or not; only a fit through more than deg + 1 points of which some have
    no sigma scales H H^T by the residual variance instead.
    """
    x, y, sigma = (np.asarray(a, dtype=float) for a in (x, y, sigma))
    hmat, use_weights = fit_matrix(x, sigma, deg, weighted)
    coef = hmat @ y
    if np.all(sigma > 0) or len(x) == deg + 1:
        cov = (hmat * np.where(sigma > 0, sigma, 0.0) ** 2) @ hmat.T
    else:
        resid = y - np.vander(x, deg + 1) @ coef
        cov = hmat @ hmat.T * (resid @ resid) / (len(x) - deg - 1)
    return coef, cov, use_weights


def fit_degree(kind: str, n_points: int) -> int:
    """Polynomial degree of a Richardson fit kind; raises unless n_points determine it."""
    if kind not in FIT_KINDS:
        raise ValueError(f"unknown fit kind {kind!r}")
    deg = FIT_KINDS.index(kind) + 1
    if n_points < deg + 1:
        raise ValueError(f"{kind} fit needs at least {deg + 1} points, got {n_points}")
    return deg


def richardson_extrapolate(series: ZneSeries, kind: str = FIT_KINDS[0],
                           weighted: bool = True) -> ZneResult:
    """Weighted polynomial fit of value against r, evaluated at r = 0.

    Falls back to an unweighted fit (flagged in the result) when any sigma
    is non-positive.
    """
    pts = series.points
    deg = fit_degree(kind, len(pts))
    coef, cov, use_weights = polynomial_fit([p.r for p in pts], [p.value for p in pts],
                                            [p.sigma for p in pts], deg, weighted)
    intercept = float(coef[-1])
    slope = float(coef[-2])
    sigma = float(np.sqrt(max(0.0, cov[-1, -1])))
    return ZneResult(intercept, sigma, slope, kind, weighted=use_weights)
