"""The benchmark's own tests.  They sit outside the tier-1 `tests/` suite,
so timings cannot flake it.  Run with `python3 -m pytest perfbench/tests -q`."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import deuteronvqe as dv  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings() -> dict:
    return {(m.__name__, name): value for m in tracer.package_modules()
            for name, value in vars(m).items() if callable(value)}


def test_tracer_restores_package():
    before = _bindings()
    t = tracer.Tracer()
    hook = workloads.EvalHook()
    with tracer.Patches() as patches:
        hook.install(patches)  # same order as run.py: the tracer wraps the timer
        t.install(patches)
        assert dv.zne_energy is not before[("deuteronvqe", "zne_energy")]
        assert dv.driver.sample_shots_noisy is not before[("deuteronvqe.driver", "sample_shots_noisy")]
        t.active = True
        cfg = dv.RunConfig(n_states=2, lambdas=(0.5,), shots=0)
        dv.zne_energy(cfg, dv.HypersphericalParams((0.5,)))
        t.active = False
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert len(hook.evals) == 1 and hook.evals[0].error is None
    assert {"driver", "simulator", "compiler", "ansatz"} <= set(t.calls)
    # every span closed, and no layer's self time exceeds the root span
    root = max(end - start for _, parent, _, start, end in t.spans if parent == 0)
    assert all(0 <= v <= root for v in t.self_s.values())


def test_tail_has_ten_samples_above():
    xs = [float(i) for i in range(12)]
    value, pct = run.tail(xs)
    assert pct == 16 and sum(x > value for x in xs) == 10
    value, pct = run.tail([float(i) for i in range(1300)])
    assert pct == 99 and sum(x > value for x in range(1300)) >= 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_named_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in named]
    for m in named:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] for line in lines[:-1]), m["name"]
    if not trace:
        report_only = {"zne-c5": ["energy_err_mev", "coverage", "sigma_mev", "fail_ratio"],
                       "exact-sweep": ["energy_err_mev", "fail_ratio"]}[workload]
        for name in report_only:
            assert any(line.split()[:1] == [name] for line in lines[:-1]), name


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("zne-c5", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
