"""From shot histograms to energies: grouping, SPAM inversion, extrapolation.

The qubit Hamiltonians produced here contain only Z words, adjacent XX pairs
and adjacent YY pairs, so three measurement settings (all-Z, all-X, all-Y)
cover every term with qubit-wise commuting groups.  Per-term means carry
binomial uncertainties sigma = sqrt((1 - mean^2)/shots); setting results are
combined as independent (settings use disjoint shot budgets, cross-setting
covariance is ignored).

A histogram is a dense count vector of length 2^n indexed by basis state
(qubit 0 the most significant bit); bit-string keys exist only in count
records, read and written by `histogram_array` and `histogram_dict`.

Readout is corrected by applying the tensor-product inverse of the per-qubit
confusion matrices to the empirical distribution.  The resulting
quasi-probabilities may be slightly negative and are propagated as-is:
clipping would bias the expectations.

Zero-noise extrapolation fits measured values against the noise parameter r
(weighted least squares, weights 1/sigma^2) and reports the r = 0 intercept
with the standard error from the fit covariance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .circuits import Gate, NativeCircuit, apply_matrix, frozen
from .hamiltonian import PauliHamiltonian

# pre-measurement rotations mapping each basis onto Z:
# RY(-pi/2)^dag Z RY(-pi/2) = X and RX(pi/2)^dag Z RX(pi/2) = Y
_BASIS_ROTATIONS = {"z": (), "x": (("ry", -math.pi / 2),), "y": (("rx", math.pi / 2),)}
BASIS_LABELS = tuple(_BASIS_ROTATIONS)
# Richardson fit kinds; the polynomial degree is the position in this tuple plus one
FIT_KINDS = ("linear", "quadratic")


@dataclass(frozen=True)
class MeasurementSetting:
    """One measurement basis and the Hamiltonian terms it covers."""

    basis: str
    terms: tuple[tuple[float, str], ...]


@dataclass(slots=True)
class ZnePoint:
    r: int
    value: float
    sigma: float


@dataclass(slots=True)
class ZneSeries:
    points: list[ZnePoint] = field(default_factory=list)

    def __post_init__(self):
        rs = [p.r for p in self.points]
        if len(set(rs)) != len(rs):
            raise ValueError("duplicate r values in series")
        if any(p.r % 2 == 0 or p.r < 1 for p in self.points):
            raise ValueError("noise parameters r must be odd positive integers")


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


def measurement_settings(h: PauliHamiltonian) -> list[MeasurementSetting]:
    """Group all non-identity terms into the three single-basis settings.

    Raises if a term mixes Pauli axes; that cannot happen for Hamiltonians
    produced by the adjacent-hopping qubit mapping.
    """
    grouped: dict[str, list[tuple[float, str]]] = {b: [] for b in BASIS_LABELS}
    for coeff, word in h.terms:
        basis = _word_basis(word)
        if basis is None:
            if set(word) == {"I"}:
                continue
            raise ValueError(f"term {word!r} is not measurable in a single X/Y/Z basis")
        grouped[basis].append((coeff, word))
    return [
        MeasurementSetting(b, tuple(grouped[b])) for b in BASIS_LABELS if grouped[b]
    ]


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


def term_expectation(hist: np.ndarray, word: str) -> tuple[float, float]:
    """Parity estimate of one Pauli word from a dense (quasi-)histogram.

    Returns (mean, sigma) with the binomial sigma sqrt((1 - mean^2)/shots).
    The histogram must come from the setting that covers the word.
    """
    hist = np.asarray(hist)
    if hist.shape != (2**len(word),):
        raise ValueError(f"word {word!r} needs a histogram of shape ({2**len(word)},)")
    total = float(hist.sum())
    if total <= 0:
        raise ValueError("histogram has no weight")
    if set(word) <= {"I"}:
        return 1.0, 0.0
    mean = float(_parity_signs(word) @ hist) / total
    sigma = math.sqrt(max(0.0, 1.0 - mean * mean) / total)
    return mean, sigma


def apply_confusion(hist, confusion):
    """Push a distribution through per-qubit confusion matrices (true -> observed)."""
    n = len(confusion)
    if isinstance(hist, dict):  # a count record comes back as one
        return histogram_dict(apply_confusion(histogram_array(hist, n), confusion))
    hist = np.asarray(hist, dtype=float)
    if hist.shape != (2**n,):
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


def energy_estimate(h: PauliHamiltonian,
                    histograms: dict[str, np.ndarray]) -> tuple[float, float]:
    """Combine per-setting dense histograms into <H> with its statistical sigma."""
    settings = measurement_settings(h)
    energy = h.identity_coefficient
    variance = 0.0
    for setting in settings:
        if setting.basis not in histograms:
            raise KeyError(f"missing histogram for the {setting.basis!r} setting")
        counts = histograms[setting.basis]
        for coeff, word in setting.terms:
            mean, sigma = term_expectation(counts, word)
            energy += coeff * mean
            variance += (coeff * sigma) ** 2
    return energy, math.sqrt(variance)


def polynomial_fit(x, y, sigma, deg: int,
                   weighted: bool = True) -> tuple[np.ndarray, np.ndarray, bool]:
    """Least-squares polynomial fit of y against x with its covariance.

    Returns (coefficients, highest power first; covariance; whether the
    fit used weights 1/sigma^2).  Weights apply only when `weighted` and
    every sigma is positive.  With exactly deg + 1 points polyfit cannot
    estimate a covariance, so the point sigmas are propagated through the
    Vandermonde solve instead.
    """
    x, y, sigma = (np.asarray(a, dtype=float) for a in (x, y, sigma))
    use_weights = bool(weighted and np.all(sigma > 0))
    if len(x) == deg + 1:
        v = np.vander(x, deg + 1)
        coef = np.linalg.solve(v, y)
        vinv = np.linalg.inv(v)
        cov = vinv @ np.diag(np.where(sigma > 0, sigma, 0.0) ** 2) @ vinv.T
    else:
        coef, cov = np.polyfit(x, y, deg, w=1.0 / sigma if use_weights else None,
                               cov="unscaled" if use_weights else True)
    return coef, cov, use_weights


def richardson_extrapolate(series: ZneSeries, kind: str = FIT_KINDS[0],
                           weighted: bool = True) -> ZneResult:
    """Weighted polynomial fit of value against r, evaluated at r = 0.

    Falls back to an unweighted fit (flagged in the result) when any sigma
    is non-positive.
    """
    if kind not in FIT_KINDS:
        raise ValueError(f"unknown fit kind {kind!r}")
    deg = FIT_KINDS.index(kind) + 1
    pts = series.points
    if len(pts) < deg + 1:
        raise ValueError(f"{kind} fit needs at least {deg + 1} points, got {len(pts)}")
    coef, cov, use_weights = polynomial_fit([p.r for p in pts], [p.value for p in pts],
                                            [p.sigma for p in pts], deg, weighted)
    intercept = float(coef[-1])
    slope = float(coef[-2])
    sigma = float(np.sqrt(max(0.0, cov[-1, -1])))
    return ZneResult(intercept, sigma, slope, kind, weighted=use_weights)
