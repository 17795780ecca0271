"""Benchmark of the deuteronvqe pipeline, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload zne-c5 --seed 1 --seconds 50 --trace 0

`--trace 0` measures the end-to-end metrics with nothing wrapped but the
evaluation timer.  `--trace 1` runs the same tasks twice, untraced and then
with a span around every public package function, checks that both passes
give bit-identical energies, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; a fuller report is written to
`perfbench/out/`.  See perfbench/README.md for the metric definitions.
"""
from __future__ import annotations

import os

# Cap BLAS threads before numpy loads: one closed-loop caller on a small
# machine, and thread start-up noise would swamp the small matrix products.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("zne-c5", "exact-sweep")
SETUP_PROBES = 4            # fresh-process set-ups besides this process's own
ROADMAP_EVAL_S = 2.8        # ROADMAP baseline: one n=3 zne_energy, simulator dominant
E2E_UNITS = {"setup_s": "s", "run_s": "s", "eval_s_p50": "s", "eval_s_tail": "s",
             "peak_rss_mb": "MB"}


def timed_setup(name: str, smoke: bool):
    """Package import, Hamiltonian build and mapping, analytic optimum.

    Everything before the first timed evaluation; numpy and scipy load here
    too, as they do for any user of the package.
    """
    start = time.perf_counter()
    if not (SRC / "deuteronvqe" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    dv = importlib.import_module("deuteronvqe")
    if Path(dv.__file__).resolve().parent != SRC / "deuteronvqe":
        sys.exit(f"perfbench: imported deuteronvqe from {dv.__file__}, not {SRC}")
    import workloads  # imports the package; only after the check above

    wl = (workloads.SMOKE if smoke else workloads.WORKLOADS)[name]
    ham = workloads.build_hamiltonians(wl.ns, wl.ref_n)
    return time.perf_counter() - start, workloads, wl, ham


def setup_probe(name: str, smoke: bool) -> float:
    """Time one set-up in a fresh interpreter, so the import is cold."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--setup-only"]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


@dataclass
class TaskRun:
    seed: int
    seconds: float
    result: object
    evals: list
    error: str | None


def run_tasks(wl, ham, hook, seeds, budget_s: float, min_tasks: int, count: int | None = None):
    """Closed loop over tasks.  With `count` unset, a task starts while its
    expected end (median task time so far) overshoots the budget by at most
    half a task; at least `min_tasks` run."""
    runs: list[TaskRun] = []
    start = time.perf_counter()
    for seed in seeds:
        if count is not None:
            if len(runs) >= count:
                break
        elif len(runs) >= min_tasks:
            expected = statistics.median(r.seconds for r in runs)
            if time.perf_counter() - start + expected / 2 > budget_s:
                break
        first = len(hook.evals)
        t0 = time.perf_counter()
        try:
            result, error = wl.task(ham, seed), None
        except Exception as exc:  # a failed task is counted, and the loop goes on
            result, error = None, repr(exc)
        runs.append(TaskRun(seed, time.perf_counter() - t0, result, hook.evals[first:], error))
    return runs


def check_runs(workloads, checks, ham, runs):
    for run in runs:
        checks.check(run.error is None, f"task raised {run.error}")
        for ev in run.evals:
            workloads.check_eval(checks, ev, ham)
        if run.result is not None:
            workloads.check_task(checks, ham, run.result)


def tail(samples) -> tuple[float, int]:
    """Value at the highest whole percentile with at least ten samples above
    it (nearest rank), and that percentile; the maximum below 11 samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    pct = 100 * (n - 10) // n
    return xs[max(1, math.ceil(pct * n / 100)) - 1], pct


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_cap": BLAS_THREADS,
        "machine": platform.machine(),
        "load": "closed loop, one caller, one process",
    }


def end_to_end(args, workloads, wl, ham, setup_s: float) -> tuple[dict, object, dict]:
    from tracer import Patches

    # half the probes before the tasks and half after, so the median set-up
    # spans the run's changes in machine speed as the task metrics do
    setups = [setup_s] + [setup_probe(wl.name, args.smoke) for _ in range(SETUP_PROBES // 2)]
    hook = workloads.EvalHook()
    checks = workloads.Checks()
    workloads.check_compiler(checks)
    with Patches() as patches:
        hook.install(patches)
        runs = run_tasks(wl, ham, hook, workloads.task_seeds(args.seed), args.seconds, wl.min_tasks)
    setups += [setup_probe(wl.name, args.smoke) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    check_runs(workloads, checks, ham, runs)
    evals = [ev.seconds for run in runs for ev in run.evals]
    tail_s, tail_pct = tail(evals)
    samples = {"setup_s": len(setups), "run_s": len(runs), "eval_s_p50": len(evals),
               "eval_s_tail": len(evals), "peak_rss_mb": 1}
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r.seconds for r in runs),
        "eval_s_p50": statistics.median(evals),
        "eval_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    quality = wl.quality(ham, runs) if all(r.error is None for r in runs) else {}
    quality["fail_ratio"] = {"value": checks.failed / checks.attempted, "unit": "ratio",
                             "samples": checks.attempted}
    report = {
        "metrics": {k: {**metrics[k], "samples": samples[k]} for k in metrics},
        "eval_s_tail_percentile": tail_pct,
        "report_only": quality,
        "setup_samples_s": setups,
        "task_seconds": [r.seconds for r in runs],
    }
    if wl.name == "zne-c5":
        p50 = values["eval_s_p50"]
        report["roadmap_baseline"] = {"eval_s": ROADMAP_EVAL_S, "measured_eval_s_p50": p50,
                                      "gap_s": p50 - ROADMAP_EVAL_S,
                                      "gap_ratio": p50 / ROADMAP_EVAL_S - 1}
    return metrics, checks, report


def per_layer(args, workloads, wl, ham) -> tuple[dict, object, dict]:
    from tracer import LAYERS, Patches, Tracer

    checks = workloads.Checks()
    workloads.check_compiler(checks)
    plain = workloads.EvalHook()
    with Patches() as patches:
        plain.install(patches)
        untraced = run_tasks(wl, ham, plain, workloads.task_seeds(args.seed), args.seconds / 2, 1)
    tracer = Tracer()
    traced_hook = workloads.EvalHook()
    with Patches() as patches:
        traced_hook.install(patches)  # first, so the tracer wraps the timer like the function
        tracer.install(patches)
        tracer.active = True
        try:
            traced = run_tasks(wl, ham, traced_hook, [r.seed for r in untraced], 0.0, 0,
                               count=len(untraced))
        finally:
            tracer.active = False
    check_runs(workloads, checks, ham, untraced)
    check_runs(workloads, checks, ham, traced)
    identical = _outputs(untraced) == _outputs(traced)
    checks.check(identical, "traced energies differ from untraced energies")

    k = len(traced)
    traced_s = sum(r.seconds for r in traced)
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (tracer.self_s[layer] / k, "s")
        values[f"{layer}.calls"] = (tracer.calls[layer] / k, "count")
        values[f"{layer}.share"] = (tracer.self_s[layer] / traced_s, "ratio")
    c = layer_counts(traced)
    hist, shots = c["histograms"], c["shots"]
    values.update({
        "simulator.histograms": (hist / k, "count"),
        "simulator.shots": (shots / k, "count"),
        "simulator.gates_per_histogram": (c["gates"] / hist if hist else 0.0, "count"),
        "simulator.us_per_shot": (tracer.self_s["simulator"] / shots * 1e6 if shots else 0.0, "us"),
        "compiler.native_gates": (c["native_gates"] / c["evals"], "count"),
        "compiler.xx_gates": (c["xx_gates"] / c["evals"], "count"),
        "estimator.outcomes": (c["outcomes"] / k, "count"),
        "estimator.spam_negative_mass": (c["negative_mass"] / shots if shots else 0.0, "ratio"),
        "driver.evals": (c["evals"] / k, "count"),
        "driver.improving_eval_ratio": (c["improving"] / c["evals"], "ratio"),
        "tracing_overhead_s": (statistics.median(r.seconds for r in traced)
                               - statistics.median(r.seconds for r in untraced), "s"),
    })
    metrics = {name: {"value": float(v), "unit": u} for name, (v, u) in values.items()}
    spans_path = OUT / f"spans-{wl.name}.csv.gz"
    tracer.write(spans_path)
    report = {
        "metrics": metrics,
        "tasks": k,
        "untraced_task_seconds": [r.seconds for r in untraced],
        "traced_task_seconds": [r.seconds for r in traced],
        "bit_identical": identical,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(HERE.parent)),
    }
    if wl.name == "zne-c5":
        report["roadmap_baseline"] = {"claim": "simulator dominant",
                                      "simulator_share": values["simulator.share"][0]}
    return metrics, checks, report


def _outputs(runs) -> list:
    return [(r.seed, r.error, r.result.energies if r.result else None,
             [(ev.result.intercept, ev.result.intercept_sigma) if ev.result else None
              for ev in r.evals]) for r in runs]


def layer_counts(runs) -> dict:
    """Counts from the traced pass's evaluations, through the public API
    and outside any span: histograms, shots, gates run per histogram,
    outcomes and negative weight after readout inversion, compiled gates."""
    import deuteronvqe as dv

    c = dict.fromkeys(("histograms", "shots", "gates", "outcomes", "negative_mass",
                       "native_gates", "xx_gates", "evals", "improving"), 0)
    for run in runs:
        best = math.inf
        for ev in run.evals:
            c["evals"] += 1
            native = dv.driver.prepared_native_circuit(ev.cfg, ev.params)
            c["native_gates"] += len(native.gates)
            c["xx_gates"] += native.xx_count()
            if ev.result is not None and ev.result.intercept < best:
                best = ev.result.intercept
                c["improving"] += 1
            folded = {}
            for rec in ev.records:
                m = (rec["r"] - 1) // 2
                if m not in folded:
                    folded[m] = len(dv.fold_circuit(native, dv.FoldSpec(m)).gates)
                rotations = dv.estimator.basis_rotation_circuit(rec["setting"], ev.cfg.n_states)
                c["histograms"] += 1
                c["shots"] += rec["shots"]
                c["gates"] += folded[m] + len(rotations.gates)
                c["outcomes"] += len(rec["counts"])
                if ev.cfg.noise.readout:
                    corrected = dv.spam_correct(rec["counts"], ev.cfg.noise.readout)
                    c["negative_mass"] -= sum(v for v in corrected.values() if v < 0)
    return c


def print_report(args, metrics: dict, report: dict, env: dict):
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas_threads={env['blas_threads_cap']}")
    for name, m in report["metrics"].items():
        extra = f"  n={m['samples']}" if "samples" in m else ""
        if name == "eval_s_tail":
            extra += f"  p{report['eval_s_tail_percentile']}"
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{extra}")
    for name, m in report.get("report_only", {}).items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}  n={m['samples']}  (not gated)")
    if "roadmap_baseline" in report:
        print(f"  roadmap baseline: {json.dumps(report['roadmap_baseline'])}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="shrunken workloads, for the benchmark's tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")

    setup_s, workloads, wl, ham = timed_setup(args.workload, args.smoke)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        metrics, checks, report = per_layer(args, workloads, wl, ham)
    else:
        metrics, checks, report = end_to_end(args, workloads, wl, ham, setup_s)
    env = environment()
    report.update({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "attempted": checks.attempted,
                   "failed": checks.failed, "failures": checks.messages})
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{wl.name}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print_report(args, metrics, report, env)
    for message in checks.messages:
        print(f"  FAILED: {message}")
    correct = checks.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
