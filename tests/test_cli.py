import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from deuteronvqe import cli, driver
from deuteronvqe.ansatz import HypersphericalParams
from deuteronvqe.cli import main
from deuteronvqe.circuits import Gate, LogicalCircuit, NativeCircuit
from deuteronvqe.hamiltonian import PauliHamiltonian


def run_cli(*argv):
    return main(list(argv))


def test_ham_n2_writes_published_coefficient(tmp_path, capsys):
    assert run_cli("ham", "--n", "2", "--out", str(tmp_path)) == 0
    pauli = PauliHamiltonian.from_json((tmp_path / "h2_pauli.json").read_text())
    assert pauli.coefficient("ZI") == pytest.approx(0.218, abs=5e-3)
    assert pauli.coefficient("XX") == pytest.approx(-2.143, abs=5e-3)
    assert "ground energy" in capsys.readouterr().out


def test_ham_n1_single_entry(tmp_path):
    assert run_cli("ham", "--n", "1", "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "h1_oscillator.json").read_text())
    assert doc["dim"] == 1


def test_ham_n0_fails(tmp_path, capsys):
    code = run_cli("ham", "--n", "0", "--out", str(tmp_path))
    assert code != 0
    assert "error" in capsys.readouterr().err


def test_zne_exact_line(capsys):
    assert run_cli("zne", "--series", "1:-2.0:0.1,3:-1.0:0.1,5:0.0:0.1") == 0
    out = capsys.readouterr().out
    assert "-2.5" in out


def test_zne_underdetermined_exit_code(capsys):
    assert run_cli("zne", "--series", "1:-2.0:0.1") == 3


def test_zne_malformed_series(capsys):
    assert run_cli("zne", "--series", "1:only") == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("ham", "--n", "notanumber")
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--p1", "--p2", "--readout-eps"])
def test_out_of_range_noise_rate_is_usage_error(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli("vqe", "--n", "2", "--shots", "0", flag, "2", "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "in [0, 1]" in capsys.readouterr().err
    # subcommands that build no noise model do not take the flags
    with pytest.raises(SystemExit) as exc:
        run_cli("ham", "--n", "2", flag, "2", "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "h2_oscillator.json").exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:]: -0.5}))
    with pytest.raises(SystemExit) as exc:
        run_cli("vqe", "--config", str(cfg), "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("vqe", "--n", "2", "--shots", "-1"),
    ("simulate", "--circuit", "unused.json", "--shots", "-5"),
    ("simulate", "--circuit", "unused.json", "--shots", "0"),
    ("ham", "--n", "2", "--shots", "-1"),
])
def test_negative_shots_is_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "--shots" in capsys.readouterr().err


# circuit files that are malformed, ill-typed, or break the native gate set
_BAD_CIRCUITS = {
    "q_string": '{"n_qubits": 2, "gates": [{"gate": "rx", "q": ["0"], "angle": 0.5}]}',
    "q_scalar": '{"n_qubits": 2, "gates": [{"gate": "rx", "q": 0, "angle": 0.5}]}',
    "angle_string": '{"n_qubits": 2, "gates": [{"gate": "rx", "q": [0], "angle": "0.5"}]}',
    "unknown_kind": '{"n_qubits": 2, "gates": [{"gate": "cz", "q": [0, 1]}]}',
    "no_n_qubits": '{"gates": []}',
    "unparsable": '{"n_qubits": 2, "gates": [',
    "repeated_qubit": '{"n_qubits": 2, "gates": [{"gate": "xx", "q": [1, 1], "angle": 0.5}]}',
    "qubit_out_of_range": '{"n_qubits": 2, "gates": [{"gate": "rx", "q": [2], "angle": 0.5}]}',
}


# non-finite model constants and angles, and basis sizes below 2: the setting each names
_NAMED_SETTINGS = {
    ("ham", "--n", "2", "--hbar-omega", "nan"): "hbar_omega",
    ("ham", "--n", "2", "--v0", "nan"): "v0",
    ("ham", "--n", "2", "--v0", "inf"): "v0",
    ("vqe", "--n", "2", "--shots", "0", "--hbar-omega", "inf"): "hbar_omega",
    ("vqe", "--n", "2", "--shots", "0", "--v0", "inf"): "v0",
    ("vqe", "--n", "2", "--shots", "0", "--lambdas", "nan"): "lambdas",
    ("vqe", "--n", "3", "--fold", "0", "--shots", "100"): "fold levels (0)",
    ("ansatz", "--n", "3", "--lambdas", "0.1"): "lambdas",
    ("transpile", "--n", "3", "--lambdas", "0.1"): "lambdas",
    ("scan", "--n", "3", "--lambdas", "0.1", "--vary", "lambda0", "--values", "0.2",
     "--shots", "0"): "lambdas",
    ("scan", "--n", "3", "--lambdas", "0.1", "--vary", "lambda1", "--values", "0.2",
     "--shots", "0"): "lambdas",
    ("scan", "--n", "2", "--shots", "0", "--vary", "lambda0", "--values", "nan"): "values",
    ("report", "--ns", "1,2"): "ns",
    ("zne", "--series", "1:nan:0.1,3:-1:0.1,5:0:0.1"): "value",
    ("zne", "--series", "2:-1:0.1,3:-1:0.1,5:0:0.1"): "noise parameter r",
}


@pytest.mark.parametrize("argv", [
    ("vqe", "--n", "2", "--shots", "0", "--fold=-1"),
    ("vqe", "--n", "1", "--shots", "0"),
    ("ham", "--n", "0"),
    ("simulate", "--circuit", "{circuit}", "--fold-m", "-1"),
    ("vqe", "--n", "2", "--hbar-omega", "-1", "--shots", "0"),
    ("ansatz", "--n", "1"),
    ("transpile", "--n", "1"),
    ("scan", "--n", "3", "--vary", "lambda5", "--values", "0.1", "--shots", "0"),
    ("scan", "--n", "3", "--vary", "lambda0", "--values", ",", "--shots", "0"),
    ("zne", "--series", "1:x:0.1"),
    *(("simulate", "--circuit", f"{{{name}}}") for name in _BAD_CIRCUITS),
    ("transpile", "--circuit", "{native_gates}"),
    *_NAMED_SETTINGS,
    ("simulate", "--circuit", "{wide_circuit}"),  # too wide for the density matrix
])
def test_invalid_setting_is_usage_error(tmp_path, capsys, argv):
    # settings rejected by RunConfig, EftConfig, FoldSpec, ScanSpec, the ansatz
    # builder, the angle check, the circuit loader or the CLI's own parsers exit 2, not 3
    files = {"circuit": NativeCircuit(2, []).to_json(),
             "native_gates": NativeCircuit(2, [Gate("rx", (0,), 0.5)]).to_json(),
             "wide_circuit": NativeCircuit(14, []).to_json(), **_BAD_CIRCUITS}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
    argv = [a.format(**{name: tmp_path / f"{name}.json" for name in files}) for a in argv]
    out = [] if argv[0] == "zne" else ["--out", str(tmp_path)]  # zne writes no file
    assert run_cli(*argv, *out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and _NAMED_SETTINGS.get(tuple(argv), "") in err


@pytest.mark.parametrize("argv, rejected", [
    (("simulate", "--circuit", "{circuit}", "--shots", "10", "--fold", "3"), "--fold"),
    (("zne", "--series", "1:-2.0:0.1,3:-1.0:0.1", "--out", "{out}"), "--out"),
    (("zne", "--series", "1:-2.0:0.1,3:-1.0:0.1", "--n", "4"), "--n"),
    (("report", "--ns", "2", "--n", "5", "--out", "{out}"), "--n"),
    (("ham", "--n", "2", "--seed", "1", "--out", "{out}"), "--seed"),
    (("ansatz", "--n", "2", "--shots", "10", "--out", "{out}"), "--shots"),
    (("vqe", "--n", "2", "--shots", "0", "--lambdas", "0.59", "--unw", "--out", "{out}"), "--unw"),
    (("ham", "--n", "2", "--config", "{config}", "--out", "{out}"), "seed"),
])
def test_flag_the_command_does_not_read_is_rejected(tmp_path, capsys, argv, rejected):
    # each command takes only the flags it reads, spelled out in full
    circuit = tmp_path / "circuit.json"
    circuit.write_text(NativeCircuit(2, [Gate("xx", (0, 1), 0.5)]).to_json())
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 1}))
    out = tmp_path / "out"
    argv = [a.format(circuit=circuit, config=config, out=out) for a in argv]
    try:
        code = run_cli(*argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert rejected in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "circuit.json"]


@pytest.mark.parametrize("text", [
    "{not json",
    '{"energy": -2.1, "sigma": 0.1}',
    '{"n_states": 2, "energy": "low", "sigma": 0.1}',
    '{"n_states": 2.7, "energy": -1.7, "sigma": 0.1}',
    '{"n_states": "2", "energy": -1.7, "sigma": 0.1}',
    '{"n_states": true, "energy": -1.7, "sigma": 0.1}',
    '{"n_states": -3, "energy": -1.7, "sigma": 0.1}',
    '{"n_states": 0, "energy": -1.7, "sigma": 0.1}',
    '{"n_states": 1, "energy": -1.7, "sigma": 0.1}',
    '{"n_states": 2, "energy": "nan", "sigma": 0.1}',
    '{"n_states": 2, "energy": NaN, "sigma": 0.1}',
    '{"n_states": 2, "energy": -1.7, "sigma": -0.1}',
])
def test_report_bad_results_file_is_usage_error(tmp_path, capsys, text):
    summary = tmp_path / "summary.json"
    summary.write_text(text)
    assert run_cli("report", "--results", str(summary), "--out", str(tmp_path / "out")) == 2
    assert str(summary) in capsys.readouterr().err
    assert not (tmp_path / "out" / "report_artifact.json").exists()


def test_report_two_results_for_one_n_is_usage_error(tmp_path, capsys):
    # the second summary for a basis size would silently replace the first
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, energy in zip(paths, (-1.7, -1.2)):
        path.write_text(json.dumps({"n_states": 2, "energy": energy, "sigma": 0.1}))
    assert run_cli("report", "--results", *map(str, paths), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert all(str(path) in err for path in paths)
    assert not (tmp_path / "out" / "report_artifact.json").exists()


def test_config_file_equals_spelling(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "shots": 0, "lambdas": "0.59"}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("vqe", "--config", str(cfg), "--out", str(out_a)) == 0
    assert run_cli("vqe", f"--config={cfg}", "--out", str(out_b)) == 0
    summary = (out_a / "vqe_n2_summary.json").read_text()
    assert summary == (out_b / "vqe_n2_summary.json").read_text()
    assert json.loads(summary)["lambdas"] == [0.59]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"shotz": 0}))
    capsys.readouterr()
    assert run_cli("ham", f"--config={bad}", "--out", str(tmp_path)) == 2
    assert "shotz" in capsys.readouterr().err


def test_config_shots_checked_like_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "shots": -3, "out": str(tmp_path)}))
    with pytest.raises(SystemExit) as exc:
        run_cli("vqe", "--config", str(cfg))
    assert exc.value.code == 2
    assert "--shots" in capsys.readouterr().err


def test_ansatz_and_transpile_pipeline(tmp_path, capsys):
    assert run_cli("ansatz", "--n", "4", "--lambdas", "0.858,0.958,0.758",
                   "--out", str(tmp_path)) == 0
    circuit_file = tmp_path / "c4_logical.json"
    circ = LogicalCircuit.from_json(circuit_file.read_text())
    assert len(circ.gates) == 7
    capsys.readouterr()

    assert run_cli("transpile", "--circuit", str(circuit_file), "--optimize",
                   "--emit-counts", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "xx_count: 5" in out
    native = NativeCircuit.from_json((tmp_path / "native_circuit.json").read_text())
    assert native.xx_count() == 5


def test_simulate_counts_roundtrip(tmp_path):
    run_cli("ansatz", "--n", "2", "--lambdas", "0.59", "--out", str(tmp_path))
    run_cli("transpile", "--circuit", str(tmp_path / "c2_logical.json"),
            "--out", str(tmp_path))
    assert run_cli("simulate", "--circuit", str(tmp_path / "native_circuit.json"),
                   "--shots", "400", "--basis", "z", "--seed", "3",
                   "--p1", "0", "--p2", "0", "--readout-eps", "0",
                   "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "counts_z_r1.json").read_text())
    assert doc["shots"] == 400 and doc["seed"] == 3 and doc["r"] == 1
    assert sum(doc["counts"].values()) == 400


def test_vqe_exact_cli(tmp_path, capsys):
    assert run_cli("vqe", "--n", "3", "--shots", "0", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "-2.04" in out
    summary = json.loads((tmp_path / "vqe_n3_summary.json").read_text())
    assert summary["energy"] == pytest.approx(-2.0457, abs=1e-3)
    trace = (tmp_path / "vqe_n3_trace.jsonl").read_text().strip().splitlines()
    assert len(trace) >= 1
    assert all("intercept" in json.loads(line) for line in trace)


def test_vqe_exact_cli_reports_no_budget_warning(tmp_path, capsys):
    # exact mode reports the closed-form optimum; it has no search budget to exhaust
    assert run_cli("vqe", "--n", "7", "--shots", "0", "--out", str(tmp_path)) == 0
    assert "budget" not in capsys.readouterr().out
    summary = json.loads((tmp_path / "vqe_n7_summary.json").read_text())
    assert summary["converged"] is True
    assert len((tmp_path / "vqe_n7_trace.jsonl").read_text().splitlines()) == 1


def test_scan_exact_matches_reference_table(tmp_path, capsys):
    assert run_cli("scan", "--n", "4", "--vary", "lambda1",
                   "--values", "0.190,0.410,0.958,1.440,1.630",
                   "--lambdas", "0.858,0.958,0.758",
                   "--shots", "0", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "scan_n4_lambda1.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    theory_idx = header.index("theory")
    by_value = {}
    for line in rows[1:]:
        cells = line.split(",")
        by_value[float(cells[1])] = float(cells[theory_idx])
    expected = {0.190: -1.707, 0.410: -1.916, 0.958: -2.143, 1.440: -1.915, 1.630: -1.707}
    for value, theory in expected.items():
        assert by_value[value] == pytest.approx(theory, abs=5e-3)


def test_scan_high_parameter_index(tmp_path, capsys):
    assert run_cli("scan", "--n", "5", "--vary", "lambda3", "--values", "0.2,0.5",
                   "--lambdas", "0.8,0.9,0.7,0.5", "--shots", "0",
                   "--out", str(tmp_path)) == 0
    assert (tmp_path / "scan_n5_lambda3.csv").exists()
    assert run_cli("scan", "--n", "4", "--vary", "bogus", "--values", "0.1",
                   "--shots", "0", "--out", str(tmp_path)) == 2


def test_report_contains_reference_energy(tmp_path, capsys):
    assert run_cli("report", "--ns", "2,3", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "-2.224" in out
    assert "no results supplied for N in [4]" in out
    conv = json.loads((tmp_path / "conventions.json").read_text())
    assert conv["ansatz_convention"]["resolved"] == "g(l) = half(l)"
    assert all(rec["max_deviation"] < 1e-9 for rec in conv["gate_identities"])


def test_closed_stdout_pipe_is_io_error(tmp_path):
    # the read end is closed before the child starts, so its first write fails
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from deuteronvqe.cli import main; "
            "raise SystemExit(main(sys.argv[2:]))")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-c", code, src, "report", "--ns", "2,3,4",
                               "--out", str(tmp_path)], stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    assert "standard output closed" in done.stderr


def test_seed_reproducibility(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["vqe", "--n", "2", "--lambdas", "0.59", "--shots", "500", "--seed", "11"]
    assert run_cli(*args, "--out", str(out_a)) == 0
    assert run_cli(*args, "--out", str(out_b)) == 0
    for name in ("vqe_n2_summary.json", "vqe_n2_trace.jsonl", "vqe_n2_counts.jsonl"):
        assert (out_a / name).read_text() == (out_b / name).read_text()
    record = json.loads((out_a / "vqe_n2_counts.jsonl").read_text().splitlines()[0])
    assert {"lambdas", "r", "setting", "shots", "seed", "counts"} <= set(record)


def test_noisy_vqe_scores_each_point_once(tmp_path, monkeypatch, capsys):
    calls = []
    real = driver.zne_energy

    def counted(*args, **kwargs):
        calls.append(args[1].lambdas)
        return real(*args, **kwargs)

    # the CLI module once bound zne_energy too; count calls through either binding
    monkeypatch.setattr(driver, "zne_energy", counted)
    monkeypatch.setattr(cli, "zne_energy", counted, raising=False)
    assert run_cli("vqe", "--n", "2", "--shots", "300", "--seed", "4", "--out", str(tmp_path)) == 0
    trace = (tmp_path / "vqe_n2_trace.jsonl").read_text().splitlines()
    assert len(calls) == len(trace)
    # the counts file holds the records of the reported evaluation, as a fresh
    # evaluation at the reported parameters on the report stream writes them
    lambdas = tuple(json.loads((tmp_path / "vqe_n2_summary.json").read_text())["lambdas"])
    records: list[dict] = []
    report_seed = driver._child_seed(4, driver._REPORT_TAG, 0)
    real(driver.RunConfig(n_states=2, shots=300, seed=report_seed), HypersphericalParams(lambdas),
         count_records=records)
    expected = "\n".join(json.dumps(r) for r in records) + "\n"
    assert (tmp_path / "vqe_n2_counts.jsonl").read_text() == expected


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "shots": 0, "out": str(tmp_path)}))
    assert run_cli("vqe", "--config", str(cfg)) == 0
    assert (tmp_path / "vqe_n2_summary.json").exists()
    capsys.readouterr()
    # explicit flag beats the config file
    assert run_cli("vqe", "--config", str(cfg), "--n", "3") == 0
    assert (tmp_path / "vqe_n3_summary.json").exists()


def test_config_file_io_error(tmp_path, capsys):
    assert run_cli("vqe", "--config", str(tmp_path / "missing.json")) == 4


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "shotz": 0, "out": str(tmp_path)}))
    assert run_cli("vqe", "--config", str(cfg)) == 2
    assert "shotz" in capsys.readouterr().err
    assert not (tmp_path / "vqe_n2_summary.json").exists()


def test_config_file_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("vqe", "--config", str(bad)) == 2
    assert "line" in capsys.readouterr().err


def test_artifact_written(tmp_path):
    run_cli("ham", "--n", "2", "--out", str(tmp_path))
    artifact = json.loads((tmp_path / "h2_artifact.json").read_text())
    assert "hashes" in artifact and "config" in artifact and "timestamp" in artifact
    assert artifact["config"]["n"] == 2


def test_artifact_config_replays_bit_exactly(tmp_path):
    out_a = tmp_path / "a"
    assert run_cli("vqe", "--n", "2", "--lambdas", "0.59", "--shots", "300",
                   "--seed", "21", "--out", str(out_a)) == 0
    artifact = json.loads((out_a / "vqe_n2_artifact.json").read_text())
    replay_cfg = dict(artifact["config"])
    out_b = tmp_path / "b"
    replay_cfg["out"] = str(out_b)
    cfg_file = tmp_path / "replay.json"
    cfg_file.write_text(json.dumps(replay_cfg))
    assert run_cli("vqe", "--config", str(cfg_file)) == 0
    for name in ("vqe_n2_summary.json", "vqe_n2_trace.jsonl", "vqe_n2_counts.jsonl"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("command, values", [
    ("vqe", {"n": 2.5}),
    ("vqe", {"seed": 1.5}),
    ("simulate", {"fold_m": 1.5}),
    ("vqe", {"fit": "cubic"}),
    ("simulate", {"basis": "w"}),
    ("vqe", {"unweighted": "yes"}),
    ("vqe", {"per_term": 1}),
])
def test_ill_typed_config_value_is_usage_error(tmp_path, command, values):
    # config values parse as the flags they name, so argparse rejects them
    # exactly as it rejects a typed flag
    circuit = tmp_path / "circuit.json"
    circuit.write_text(NativeCircuit(2, [Gate("xx", (0, 1), 0.5)]).to_json())
    # simulate's required --circuit is typed, so the config value alone is at fault
    extra = ["--circuit", str(circuit)] if command == "simulate" else []
    base = {"shots": 10} if command == "simulate" else {"shots": 10, "n": 2, "lambdas": "0.59"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**base, **values}))
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--config", str(cfg), *extra, "--out", str(tmp_path))
    assert exc.value.code == 2
    assert not any(tmp_path.glob("*_artifact.json"))
