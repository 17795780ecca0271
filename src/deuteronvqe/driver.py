"""End-to-end runs: noisy ZNE pipeline, parameter optimization, scans, reports.

One evaluation of the pipeline at fixed parameters means: build the ansatz
circuit, lower it to native gates, fold it at each requested level, draw
per-setting shot histograms from the exact noise channel into one
(fold level, setting, outcome) count array, and read that array once
(`extrapolate_histograms`) for the energy series and its fit to r = 0, each
histogram through its setting's weight rows (readout inversion folded into
the weights, built once per evaluation).  With ``shots = 0``
`simulator.ideal_distributions` runs the native circuit on |0...0> with the
circuit's one walk, `Circuit.apply`, and then each setting's rotations on
that state; the squared amplitudes stand in for the setting's histogram,
read through the same weight rows, and the pipeline reproduces the analytic
ansatz energy.

Seed discipline: each (fold level, measurement basis) pair gets an
independent child seed derived as SeedSequence([seed, m, basis_index]), so
runs replay bit-exactly and are insensitive to evaluation order.

An exact run (``shots = 0``) does not search: the ansatz spans the whole
one-hot sector, so `optimal_parameters` is already the exact minimiser, and
the run reports one evaluation there, which still checks the compiled
pipeline against the analytic energy.  A noisy run searches with Nelder-Mead
started from that closed-form optimum.  Because the child seeds do not
depend on the parameters, every evaluation at the same parameters draws the
same histograms (common random numbers): the noisy objective is a
deterministic function of the parameters, so a simplex vertex's stored value
is never stale.  The returned optimum is the best point observed; its
reported energy is one more evaluation on a stream of its own, since on the
search's streams it would repeat the trace minimum, which selection biases
low.  `landscape_scan` rows are reported values too, so each row gets its
own stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .ansatz import (
    AngleConvention,
    HypersphericalParams,
    RESOLVED_CONVENTION,
    build_ansatz_circuit,
    energy_expectation_exact,
    optimal_parameters,
)
from .circuits import ConfigError, NativeCircuit, checked
from .compiler import optimize_native, transpile
from .estimator import (
    FIT_KINDS,
    ZnePoint,
    ZneResult,
    ZneSeries,
    _SINGULAR_DET,
    energy_estimate,
    extrapolate_histograms,
    fit_degree,
    histogram_dict,
    measurement_settings,
    polynomial_fit,
)
from .hamiltonian import (
    DEFAULT_HBAR_OMEGA,
    DEFAULT_V0,
    EftConfig,
    OscillatorHamiltonian,
    PauliHamiltonian,
    build_oscillator_hamiltonian,
    exact_ground_energy,
    jordan_wigner,
)
from .refdata import EXACT_BINDING_ENERGY, PLATFORM_RESULTS
from .simulator import (
    DEFAULT_SHOTS,
    FoldSpec,
    NoiseModel,
    fold_circuit,
    ideal_distributions,
    sample_shots_noisy,
)


class ConcaveFitError(RuntimeError):
    """Quadratic landscape fit came out concave; no minimum to report."""


@dataclass(slots=True)
class RunConfig:
    """Everything needed to replay a pipeline run bit-exactly.

    Every run reads its angles under the resolved convention g(l) = l/2;
    `convention` is a class constant naming it, not a field.  `max_evals`
    is the search budget, which only noisy runs read: an exact run does
    not search.
    """

    n_states: int
    lambdas: tuple[float, ...] | None = None  # None -> optimize
    shots: int = DEFAULT_SHOTS                # 0 -> exact expectations
    fold_levels: tuple[int, ...] = (0, 1, 2, 3)
    noise: NoiseModel | None = None
    seed: int = 0
    fit: str = FIT_KINDS[0]
    weighted: bool = True
    per_term: bool = False
    convention: ClassVar[AngleConvention] = RESOLVED_CONVENTION
    hbar_omega: float = DEFAULT_HBAR_OMEGA
    v0: float = DEFAULT_V0
    max_evals: int = 200

    def __post_init__(self):
        checked("n_states", self.n_states, int, ge=2)
        self.eft()  # checks the model constants
        if self.lambdas is not None:
            HypersphericalParams(self.lambdas)  # checks the angles
            if len(self.lambdas) != self.n_states - 1:
                raise ConfigError(f"lambdas must hold n_states - 1 = {self.n_states - 1} "
                                  f"angles, got {len(self.lambdas)}")
        if not self.fold_levels:
            raise ConfigError("fold levels must be a non-empty list")
        for m in self.fold_levels:
            checked("fold level", m, int, ge=0)
        checked("shots", self.shots, int, ge=0)
        checked("seed", self.seed, int, ge=0)
        checked("max_evals", self.max_evals, int, ge=1)
        if self.fit not in FIT_KINDS:
            raise ConfigError(f"fit must be one of {', '.join(FIT_KINDS)}, got {self.fit!r}")
        if self.shots:  # an exact run does not fit
            try:
                fit_degree(self.fit, len(set(self.fold_levels)))
            except ValueError as exc:
                levels = ", ".join(str(m) for m in self.fold_levels)
                raise ConfigError(f"fold levels ({levels}) give too few points: {exc}") from None
        if self.noise is None:
            self.noise = NoiseModel.ion_defaults(self.n_states)
        elif self.noise.readout and len(self.noise.readout) != self.n_states:
            raise ConfigError(f"noise readout must hold no matrices or n_states = {self.n_states}, "
                              f"got {len(self.noise.readout)}")
        if self.shots and any(abs(np.linalg.det(m)) < _SINGULAR_DET for m in self.noise.readout):
            # a run with shots inverts its readout; an exact run reads none
            raise ConfigError("noise readout must be invertible for a run with shots, got a "
                              "singular confusion matrix")

    def eft(self) -> EftConfig:
        return EftConfig(self.n_states, self.hbar_omega, self.v0)


@dataclass(slots=True)
class EvalRecord:
    """Trace of one objective evaluation: parameters, series, intercept."""

    lambdas: tuple[float, ...]
    series: list[tuple[int, float, float]]
    intercept: float
    intercept_sigma: float


@dataclass
class VqeRunResult:
    params: HypersphericalParams
    zne: ZneResult
    trace: list[EvalRecord]
    converged: bool = True


_REPORT_TAG = 0x7270  # tags the stream of a search's reported evaluation


def _child_seed(seed: int, m: int, basis_index: int) -> int:
    return int(np.random.SeedSequence([seed, m, basis_index]).generate_state(1)[0])


def _params(lambdas) -> HypersphericalParams:
    return HypersphericalParams(tuple(float(v) for v in lambdas))


@lru_cache(maxsize=64)
def _model(eft: EftConfig) -> tuple[OscillatorHamiltonian, PauliHamiltonian, HypersphericalParams]:
    """The model's oscillator matrix, its Pauli form and the closed-form
    minimiser of the ansatz energy, built once per model."""
    h = build_oscillator_hamiltonian(eft)
    return h, jordan_wigner(h), optimal_parameters(h)[0]


def prepared_native_circuit(cfg: RunConfig, params: HypersphericalParams) -> NativeCircuit:
    logical = build_ansatz_circuit(cfg.n_states, params)
    return optimize_native(transpile(logical))


def zne_energy(cfg: RunConfig, params: HypersphericalParams,
               h: OscillatorHamiltonian | None = None,
               pauli: PauliHamiltonian | None = None,
               count_records: list[dict] | None = None) -> tuple[ZneSeries, ZneResult]:
    """Full extrapolated energy estimate at fixed parameters.

    The model comes from `cfg`: it computes with the Hamiltonian of
    `cfg.eft()` and that Hamiltonian's Pauli form.  A given `h` or `pauli` is
    only checked against them (`pauli` term by term, in any order), and one
    that disagrees raises `ConfigError`, as do `params` that differ from a set
    `cfg.lambdas`.  Pass a list as `count_records` to capture one record per
    (r, setting) with the raw histogram and its derived seed.
    """
    h_cfg, pauli_cfg, _ = _model(cfg.eft())
    if h is not None and not np.array_equal(h.entries, h_cfg.entries):
        raise ConfigError("h must be the Hamiltonian of cfg, build_oscillator_hamiltonian(cfg.eft())")
    if pauli is not None and ({w: c for c, w in pauli.terms}
                              != {w: c for c, w in pauli_cfg.terms}):
        raise ConfigError("pauli must be the Pauli form of cfg's Hamiltonian, "
                          "jordan_wigner(build_oscillator_hamiltonian(cfg.eft()))")
    pauli = pauli_cfg  # one term order, whatever order a caller's copy holds
    if cfg.lambdas is not None and tuple(params.lambdas) != tuple(cfg.lambdas):
        raise ConfigError(f"params {params.lambdas} differ from cfg.lambdas {tuple(cfg.lambdas)}")
    native = prepared_native_circuit(cfg, params)
    # the weight rows read raw counts: readout inversion is folded into them
    settings = measurement_settings(pauli, cfg.noise.readout if cfg.shots else ())
    specs = [FoldSpec(m) for m in sorted(set(cfg.fold_levels))]

    if cfg.shots == 0:
        # the exact outcome distribution of each setting stands in for its histogram
        rotations = {s.basis: s.rotations for s in settings}
        energy, _ = energy_estimate(pauli, ideal_distributions(native, rotations), settings)
        # the ideal state does not depend on the fold level: nothing to extrapolate
        series = ZneSeries([ZnePoint(spec.r, energy, 0.0) for spec in specs])
        return series, ZneResult(energy, 0.0, 0.0, cfg.fit, weighted=False)

    lambdas = list(params.lambdas)  # shared by this evaluation's count records
    counts = np.zeros((len(specs), len(settings), 2**native.n_qubits))
    for i, spec in enumerate(specs):
        folded = fold_circuit(native, spec)
        for bidx, setting in enumerate(settings):
            child = _child_seed(cfg.seed, spec.m, bidx)
            hist = sample_shots_noisy(folded, setting.rotations, cfg.shots, cfg.noise, child)
            if count_records is not None:
                count_records.append({
                    "lambdas": lambdas, "r": spec.r,
                    "setting": setting.basis, "shots": cfg.shots,
                    "seed": child, "counts": histogram_dict(hist),
                })
            counts[i, bidx] = hist
    return extrapolate_histograms(pauli, settings, [spec.r for spec in specs], counts, cfg.fit,
                                  cfg.weighted, cfg.per_term)


def nelder_mead(f, x0: np.ndarray, step: float = 0.3, max_evals: int = 200,
                ftol: float = 1e-8):
    """Compact Nelder-Mead for a deterministic objective.

    Each vertex is scored once and its value kept.  Tracks and returns the
    best (x, f) ever observed rather than trusting the final simplex.  The
    budget is soft: an in-flight simplex update may overshoot `max_evals` by
    a few calls.  Returns (x_best, f_best, n_evals, converged).
    """
    n = len(x0)
    evals = 0
    best = [None, math.inf]

    def call(x):
        nonlocal evals
        evals += 1
        v = f(np.asarray(x, dtype=float))
        if v < best[1]:
            best[0], best[1] = np.array(x, dtype=float), v
        return v

    simplex = [np.array(x0, dtype=float)]
    for i in range(n):
        p = np.array(x0, dtype=float)
        p[i] += step
        simplex.append(p)
    fvals = [call(p) for p in simplex]

    converged = False
    while evals < max_evals:
        order = np.argsort(fvals)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        if abs(fvals[-1] - fvals[0]) < ftol:
            converged = True
            break
        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + (centroid - simplex[-1])
        fr = call(xr)
        if fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - simplex[-1])
            fe = call(xe)
            simplex[-1], fvals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (simplex[-1] - centroid)
            fc = call(xc)
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = xc, fc
            else:
                # shrink toward the best vertex, whose value is kept: the
                # objective is deterministic per point, even with shots
                simplex = [simplex[0]] + [simplex[0] + 0.5 * (p - simplex[0]) for p in simplex[1:]]
                fvals = [fvals[0]] + [call(p) for p in simplex[1:]]
    return best[0], best[1], evals, converged


def vqe_run(cfg: RunConfig, count_records: list[dict] | None = None) -> VqeRunResult:
    """Evaluate at fixed parameters, or find and evaluate the optimum, with a full trace.

    An exact run reports the closed-form optimum after one evaluation; a
    noisy run searches from it.  Pass a list as `count_records` to capture
    the count records of the reported (closing) evaluation, which after a
    search has its own stream.
    """
    trace: list[EvalRecord] = []

    def evaluate(params: HypersphericalParams, records=None, run_cfg=cfg) -> ZneResult:
        series, result = zne_energy(run_cfg, params, count_records=records)
        trace.append(EvalRecord(params.lambdas,
                                [(p.r, p.value, p.sigma) for p in series.points],
                                result.intercept, result.intercept_sigma))
        return result

    if cfg.lambdas is not None:
        params = _params(cfg.lambdas)
        return VqeRunResult(params, evaluate(params, count_records), trace)

    _, _, start = _model(cfg.eft())
    if cfg.shots == 0:
        return VqeRunResult(start, evaluate(start, count_records), trace)

    # the search starts at the analytic optimum, which keeps it in the physical basin
    x_best, _, _, converged = nelder_mead(lambda x: evaluate(_params(x)).intercept,
                                          np.array(start.lambdas), step=0.25,
                                          max_evals=cfg.max_evals, ftol=1e-4)
    best = _params(x_best)
    result = evaluate(best, count_records, replace(cfg, seed=_child_seed(cfg.seed, _REPORT_TAG, 0)))
    return VqeRunResult(best, result, trace, converged=converged)


@dataclass(frozen=True)
class ScanSpec:
    """Vary one parameter over a value list, holding the others fixed."""

    index: int
    values: tuple[float, ...]
    fixed: tuple[float, ...]

    def __post_init__(self):
        checked("varied index", self.index, int, ge=0, le=len(self.fixed) - 1)
        if not self.values:
            raise ConfigError("empty value list")
        for name, values in (("values", self.values), ("fixed", self.fixed)):
            for v in values:
                checked(f"{name} entry", v)

    def row_params(self, value: float) -> tuple[float, ...]:
        lam = list(self.fixed)
        lam[self.index] = value
        return tuple(lam)


@dataclass
class ScanRow:
    lambdas: tuple[float, ...]
    zne: ZneResult
    theory: float


def landscape_scan(cfg: RunConfig, spec: ScanSpec) -> list[ScanRow]:
    """One full pipeline run per value; theory column from the exact ansatz."""
    h, _, _ = _model(cfg.eft())
    rows = []
    for i, value in enumerate(spec.values):
        lambdas = spec.row_params(value)
        params = HypersphericalParams(lambdas)
        # distinct, replayable shot streams per row (104729 tags the scan stream);
        # the new config checks the angle count
        row_cfg = replace(cfg, lambdas=lambdas, seed=_child_seed(cfg.seed, 104729, i))
        _, result = zne_energy(row_cfg, params)
        rows.append(ScanRow(lambdas, result, energy_expectation_exact(params, h)))
    return rows


def fit_quadratic_minimum(points) -> tuple[float, float, float]:
    """Weighted parabola fit; returns (min location, min energy, energy sigma).

    Raises ConcaveFitError when the leading coefficient comes out
    non-positive.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f"quadratic fit needs at least 3 points, got {len(pts)}")
    x, y, s = zip(*pts)
    coef, cov, _ = polynomial_fit(x, y, s, 2)
    a, b, c = (float(t) for t in coef)
    if a <= 0:
        raise ConcaveFitError(f"leading coefficient {a} is not positive")
    location = -b / (2 * a)
    energy = c - b * b / (4 * a)
    grad = np.array([b * b / (4 * a * a), -b / (2 * a), 1.0])
    sigma = float(np.sqrt(max(0.0, grad @ cov @ grad)))
    return location, energy, sigma


def convergence_report(results: dict[int, tuple[float, float]],
                       hbar_omega: float = DEFAULT_HBAR_OMEGA, v0: float = DEFAULT_V0
                       ) -> tuple[list[tuple[str, int | None, float, float]], list[int]]:
    """Every row of the cross-N table, in file order, as (platform, n_states,
    energy, sigma): this work, the published hardware results, the exact
    minima of the N = 2, 3, 4 ladder and the experimental binding energy (no
    n_states); and the N of that ladder that `results` lacks, flagged, not fatal
    (with no results, the whole ladder)."""
    ladder = (2, 3, 4)
    rows = [("this-work", n, e, s) for n, (e, s) in sorted(results.items())]
    rows += [(platform, *entry) for platform, entries in PLATFORM_RESULTS.items()
             for entry in entries]
    rows += [("uccs-exact", n, exact_ground_energy(
        build_oscillator_hamiltonian(EftConfig(n, hbar_omega, v0))), 0.0) for n in ladder]
    rows.append(("exact-binding", None, EXACT_BINDING_ENERGY, 0.0))
    return rows, [n for n in ladder if n not in results]
