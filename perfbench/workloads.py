"""The two benchmark workloads and the checks on their outputs.

Each workload has a set-up step (Hamiltonians, their Pauli form and the
analytic optimum at a reference size) and a task, the unit whose wall time
is `run_s`.  Tasks call only the package's public API.  Every evaluation,
meaning one `zne_energy` call whether the benchmark or `vqe_run` makes it,
is seen by `EvalHook`, which times it and keeps what the checks need.

Load is a closed loop from one caller: each evaluation starts after the
previous one returns, as in the criterion-5 seed loop and in Nelder-Mead.
"""
from __future__ import annotations

import functools
import inspect
import math
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import deuteronvqe as dv
from deuteronvqe.refdata import LANDSCAPE_N4, OPTIMAL_LAMBDAS_N4, landscape_column

from tracer import Patches, wrap_everywhere

EXACT_TOL = 1e-9          # exact pipeline energy against the ansatz quadratic form
VQE_TOL = 2e-3            # criterion 2: exact optimum against the eigenvalue
SIGMA_COVERAGE = 3.0      # criterion 5: intercept within 3 sigma of the exact energy


@dataclass
class Eval:
    """One timed `zne_energy` call with its inputs and outputs."""

    cfg: object
    params: object
    h: object
    seconds: float
    records: list
    series: object = None
    result: object = None
    error: str | None = None
    exact_gap: float | None = None   # set by `check_eval` in exact mode


class EvalHook:
    """Times every `zne_energy` call, wherever the package binds it.

    It asks each call for its count records through the public
    `count_records` argument, so histogram checks see every (r, setting).
    """

    def __init__(self):
        self.evals: list[Eval] = []

    def install(self, patches: Patches):
        fn = dv.driver.zne_energy
        sig = inspect.signature(fn)
        clock = time.perf_counter
        evals = self.evals

        @functools.wraps(fn)  # keeps the layer attribution for the tracer
        def timed(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            if bound.arguments.get("count_records") is None:
                bound.arguments["count_records"] = []
            a = bound.arguments
            ev = Eval(a["cfg"], a["params"], a.get("h"), 0.0, a["count_records"])
            evals.append(ev)
            start = clock()
            try:
                ev.series, ev.result = fn(*bound.args, **bound.kwargs)
            except Exception as exc:
                ev.error = repr(exc)
                raise
            finally:
                ev.seconds = clock() - start
            return ev.series, ev.result

        wrap_everywhere(patches, fn, timed)


@dataclass
class Checks:
    """Correctness outcomes; every failure counts toward `fail_ratio`."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


def check_eval(checks: Checks, ev: Eval, ham: Hamiltonians):
    """Per-evaluation checks; an exception counts as a failed evaluation."""
    if ev.error is not None:
        checks.check(False, f"evaluation raised {ev.error}")
        return
    cfg, res = ev.cfg, ev.result
    if cfg.shots == 0:
        h = ev.h if ev.h is not None else ham.h[cfg.n_states]
        exact = dv.energy_expectation_exact(ev.params, h, cfg.convention)
        ev.exact_gap = abs(res.intercept - exact)
        checks.check(ev.exact_gap <= EXACT_TOL,
                     f"exact energy {res.intercept!r} differs from {exact!r}")
        return
    n_folds = len(set(cfg.fold_levels))
    ok = (math.isfinite(res.intercept) and math.isfinite(res.intercept_sigma)
          and res.intercept_sigma > 0 and len(ev.series.points) == n_folds)
    bad = [r for r in ev.records if sum(r["counts"].values()) != r["shots"]]
    checks.check(ok and not bad and bool(ev.records),
                 f"noisy evaluation: intercept {res.intercept!r}, sigma {res.intercept_sigma!r}, "
                 f"{len(ev.series.points)}/{n_folds} points, {len(bad)} histograms off their shots")


def check_compiler(checks: Checks):
    """Criterion 4: the n=4 circuit lowers to 5 XX gates, 35 after an m=3 fold."""
    params = dv.HypersphericalParams(OPTIMAL_LAMBDAS_N4)
    native = dv.optimize_native(dv.transpile(dv.build_ansatz_circuit(4, params)))
    folded = dv.fold_circuit(native, dv.FoldSpec(3))
    checks.check(native.xx_count() == 5 and folded.xx_count() == 35,
                 f"n=4 circuit has {native.xx_count()} XX, {folded.xx_count()} after m=3")


@dataclass
class Hamiltonians:
    h: dict = field(default_factory=dict)
    pauli: dict = field(default_factory=dict)
    exact: dict = field(default_factory=dict)
    params: object = None


def build_hamiltonians(ns, ref_n: int) -> Hamiltonians:
    """Set-up shared by every workload: build and map each Hamiltonian,
    and find the analytic optimum at the reference size."""
    ham = Hamiltonians()
    for n in ns:
        h = dv.build_oscillator_hamiltonian(dv.EftConfig(n))
        ham.h[n] = h
        ham.pauli[n] = dv.jordan_wigner(h)
        ham.exact[n] = dv.exact_ground_energy(h)
    ham.params, _ = dv.optimal_parameters(ham.h[ref_n])
    return ham


@dataclass
class TaskResult:
    """What a task returns: the energies compared bit for bit between the
    untraced and traced passes, and the whole-run checks it carries."""

    energies: list[float] = field(default_factory=list)
    vqe: list[tuple[int, float]] = field(default_factory=list)  # (n, optimum energy)


@dataclass(frozen=True)
class ZneC5:
    """Criterion-5 loop: `zne_energy` at the analytic n=3 optimum, one shot
    seed per evaluation, in blocks of `block` evaluations per task."""

    name: str = "zne-c5"
    shots: int = 10_000
    block: int = 4
    quality_evals: int = 8    # quality metrics use this fixed prefix of evaluations
    n: int = 3

    @property
    def ns(self):
        return (self.n,)

    @property
    def ref_n(self):
        return self.n

    @property
    def min_tasks(self):
        # enough evaluations for the quality prefix and for a tail percentile
        return -(-max(self.quality_evals, 11) // self.block)

    def task(self, ham: Hamiltonians, seed: int) -> TaskResult:
        out = TaskResult()
        for shot_seed in np.random.default_rng(seed).integers(0, 2**31, size=self.block):
            cfg = dv.RunConfig(n_states=self.n, lambdas=ham.params.lambdas, shots=self.shots,
                               fold_levels=(0, 1, 2, 3), seed=int(shot_seed),
                               noise=dv.NoiseModel.ion_defaults(self.n), fit="linear", weighted=True)
            _, res = dv.zne_energy(cfg, ham.params, ham.h[self.n], ham.pauli[self.n])
            out.energies += [res.intercept, res.intercept_sigma]
        return out

    def quality(self, ham: Hamiltonians, runs: list) -> dict:
        evals = [ev for run in runs for ev in run.evals if ev.error is None]
        head = evals[: self.quality_evals]
        exact = ham.exact[self.n]
        intercepts = [ev.result.intercept for ev in head]
        covered = sum(abs(ev.result.intercept - exact) <= SIGMA_COVERAGE * ev.result.intercept_sigma
                      for ev in head)
        return {
            "energy_err_mev": _metric(abs(statistics.fmean(intercepts) - exact), "MeV", len(head)),
            "coverage": _metric(covered / len(head), "ratio", len(head)),
            "sigma_mev": _metric(statistics.median(ev.result.intercept_sigma for ev in head),
                                 "MeV", len(head)),
        }


@dataclass(frozen=True)
class ExactSweep:
    """Exact (shots=0) `vqe_run` for each size, then the 13-row n=4
    landscape scan.  Exact mode draws nothing, so the seed reaches the
    package only as `RunConfig.seed` and cannot change an energy."""

    name: str = "exact-sweep"
    n_max: int = 10
    ref_n: int = 4
    min_tasks: int = 1

    @property
    def ns(self):
        return tuple(range(2, self.n_max + 1))

    def task(self, ham: Hamiltonians, seed: int) -> TaskResult:
        out = TaskResult()
        for n in self.ns:
            run = dv.vqe_run(dv.RunConfig(n_states=n, shots=0, seed=seed))
            out.vqe.append((n, run.zne.intercept))
            out.energies += [*run.params.lambdas, run.zne.intercept]
        cfg = dv.RunConfig(n_states=4, shots=0, seed=seed)
        optimum = LANDSCAPE_N4[0].lambdas
        for index in range(3):
            rows = landscape_column(index)
            # the optimum row is shared by all three columns; scan it once
            values = [r.lambdas[index] for r in (rows if index == 0 else rows[1:])]
            for row in dv.landscape_scan(cfg, dv.ScanSpec(index, tuple(values), optimum)):
                out.energies += [row.zne.intercept, row.theory]
        return out

    def quality(self, ham: Hamiltonians, runs: list) -> dict:
        """Largest gap of any energy from its independent exact value: the
        ansatz quadratic form per evaluation, the eigenvalue per optimum."""
        gaps = [ev.exact_gap for run in runs for ev in run.evals if ev.exact_gap is not None]
        gaps += [abs(e - ham.exact[n]) for run in runs if run.result for n, e in run.result.vqe]
        return {"energy_err_mev": _metric(max(gaps), "MeV", len(gaps))}


def check_task(checks: Checks, ham: Hamiltonians, task: TaskResult):
    """Whole-run checks: criterion 2's tolerance on every exact optimum."""
    for n, energy in task.vqe:
        checks.check(abs(energy - ham.exact[n]) <= VQE_TOL,
                     f"exact vqe_run at n={n}: {energy!r} vs {ham.exact[n]!r}")


def task_seeds(seed: int):
    """Endless, replayable stream of task seeds from the workload seed."""
    i = 0
    while True:
        yield int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        i += 1


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": samples}


WORKLOADS = {w.name: w for w in (ZneC5(), ExactSweep())}

# shrunken sizes for the benchmark's own smoke tests
SMOKE = {
    "zne-c5": replace(WORKLOADS["zne-c5"], shots=400, block=2, quality_evals=2),
    "exact-sweep": replace(WORKLOADS["exact-sweep"], n_max=4),
}
