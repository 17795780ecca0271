"""Command-line front end for the whole pipeline.

Commands: ham, ansatz, transpile, simulate, zne, vqe, scan, report.
A flat JSON config file may pre-fill any flag: its values are parsed as the
flags they name, and flags typed on the command line win.  Exit codes:
0 success, 2 usage error, 3 numerical failure, 4 I/O error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import (
    HypersphericalParams,
    build_ansatz_circuit,
    amplitudes,
    convention_scan,
    energy_expectation_exact,
    optimal_parameters,
    resolve_convention,
)
from .circuits import ConfigError, LogicalCircuit, NativeCircuit
from .compiler import gate_identity_report, optimize_native, transpile, unitary_equivalent, unitary_of
from .driver import (
    ConcaveFitError,
    RunConfig,
    ScanSpec,
    convergence_report,
    landscape_scan,
    vqe_run,
)
from .estimator import (BASIS_LABELS, FIT_KINDS, ZnePoint, ZneSeries, basis_rotation_circuit,
                        histogram_dict, richardson_extrapolate)
from .hamiltonian import (
    DEFAULT_HBAR_OMEGA,
    DEFAULT_V0,
    EftConfig,
    build_oscillator_hamiltonian,
    exact_ground_energy,
    jordan_wigner,
)
from .simulator import (
    DEFAULT_P1,
    DEFAULT_P2,
    DEFAULT_READOUT_FLIP,
    DEFAULT_SHOTS,
    FoldSpec,
    NoiseModel,
    fold_circuit,
    sample_shots_noisy,
)

EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_list(text: str, kind=float) -> tuple:
    """A comma list of `kind` values; empty entries are skipped."""
    try:
        return tuple(kind(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise CliError(f"cannot parse {kind.__name__} list {text!r}: {exc}", EXIT_USAGE)


def _write(path: Path, text: str):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO)


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO)


def _noise_from_args(args, n_qubits: int) -> NoiseModel:
    return NoiseModel.ion_defaults(n_qubits, p1=args.p1, p2=args.p2,
                                   readout_eps=args.readout_eps)


def _hamiltonian(args, n: int):
    return build_oscillator_hamiltonian(EftConfig(n, args.hbar_omega, args.v0))


def _check_common(args):
    """Range checks, naming the flag, on shared flags that argparse has typed."""
    for dest in ("p1", "p2", "readout_eps"):
        value = getattr(args, dest)
        if not 0 <= value <= 1:
            raise CliError(f"--{dest.replace('_', '-')} must be in [0, 1], got {value!r}", EXIT_USAGE)
    low = 1 if args.command == "simulate" else 0
    if args.shots < low:
        raise CliError(f"{args.command} needs --shots >= {low}, got {args.shots!r}", EXIT_USAGE)


def _run_config(args, lambdas=None) -> RunConfig:
    return RunConfig(
        n_states=args.n,
        lambdas=lambdas,
        shots=args.shots,
        fold_levels=_parse_list(args.fold, int),
        noise=_noise_from_args(args, args.n),
        seed=args.seed,
        fit=args.fit,
        weighted=not args.unweighted,
        per_term=args.per_term,
        hbar_omega=args.hbar_omega,
        v0=args.v0,
    )


def _artifact(args, outputs: dict[str, Path]) -> dict:
    """Replay record: config snapshot, content hashes, seeds, timestamps."""
    hashes = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in outputs.items()}
    snapshot = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    return {
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": snapshot,
        "outputs": {k: str(v) for k, v in outputs.items()},
        "hashes": hashes,
    }


def cmd_ham(args) -> int:
    h = _hamiltonian(args, args.n)
    out = Path(args.out)
    files = {"oscillator": out / f"h{args.n}_oscillator.json"}
    _write(files["oscillator"], h.to_json())
    print(f"oscillator matrix ({h.dim}x{h.dim}) -> {files['oscillator']}")
    pauli = jordan_wigner(h)
    files["pauli"] = out / f"h{args.n}_pauli.json"
    _write(files["pauli"], pauli.to_json())
    print(f"qubit hamiltonian ({len(pauli.terms)} terms) -> {files['pauli']}")
    print(f"ground energy: {exact_ground_energy(h):.6f} MeV")
    _write(out / f"h{args.n}_artifact.json", json.dumps(_artifact(args, files), indent=2))
    return 0


def _lambdas_for(args) -> tuple[float, ...]:
    """--lambdas, checked against --n; the exact optimum when it is not given."""
    if args.lambdas is None:
        return optimal_parameters(_hamiltonian(args, args.n))[0].lambdas
    lam = _parse_list(args.lambdas)
    if len(lam) != args.n - 1:
        raise CliError(f"{args.n} states need {args.n - 1} angles, got {len(lam)}", EXIT_USAGE)
    return lam


def cmd_ansatz(args) -> int:
    lam = _lambdas_for(args)
    params = HypersphericalParams(lam)
    circ = build_ansatz_circuit(args.n, params)
    h = _hamiltonian(args, args.n)
    out = Path(args.out)
    files = {"circuit": out / f"c{args.n}_logical.json"}
    _write(files["circuit"], circ.to_json())
    amps = amplitudes(params)
    print(f"lambdas: {', '.join(f'{v:.4f}' for v in lam)}")
    print(f"amplitudes: {np.array2string(amps, precision=6)}")
    print(f"energy: {energy_expectation_exact(params, h):.6f} MeV")
    print(f"logical circuit ({len(circ.gates)} gates) -> {files['circuit']}")
    _write(out / f"c{args.n}_artifact.json", json.dumps(_artifact(args, files), indent=2))
    return 0


def cmd_transpile(args) -> int:
    if args.circuit:
        logical = LogicalCircuit.from_json(_read(Path(args.circuit)))
    else:
        logical = build_ansatz_circuit(args.n, HypersphericalParams(_lambdas_for(args)))
    native = transpile(logical)
    if args.optimize:
        native = optimize_native(native)
    if logical.n_qubits <= 10 and not unitary_equivalent(unitary_of(logical), unitary_of(native)):
        raise CliError("transpiled circuit failed the unitary equivalence check", EXIT_NUMERICAL)
    out = Path(args.out)
    files = {"native": out / "native_circuit.json"}
    _write(files["native"], native.to_json())
    print(f"xx_count: {native.xx_count()}")
    if args.emit_counts:
        for kind, count in sorted(native.gate_counts().items()):
            print(f"  {kind}: {count}")
    print(f"native circuit ({len(native.gates)} gates) -> {files['native']}")
    _write(out / "transpile_artifact.json", json.dumps(_artifact(args, files), indent=2))
    return 0


def cmd_simulate(args) -> int:
    native = NativeCircuit.from_json(_read(Path(args.circuit)))
    n = native.n_qubits
    folded = fold_circuit(native, FoldSpec(args.fold_m))
    noise = _noise_from_args(args, n)
    rotations = basis_rotation_circuit(args.basis, n)
    counts = sample_shots_noisy(folded, rotations, args.shots, noise, args.seed)
    record = {"shots": args.shots, "counts": histogram_dict(counts), "seed": args.seed,
              "r": 2 * args.fold_m + 1}
    out = Path(args.out)
    files = {"counts": out / f"counts_{args.basis}_r{record['r']}.json"}
    _write(files["counts"], json.dumps(record))
    print(f"histogram ({args.shots} shots, basis {args.basis}, r={record['r']}) -> {files['counts']}")
    _write(out / "simulate_artifact.json", json.dumps(_artifact(args, files), indent=2))
    return 0


def cmd_zne(args) -> int:
    points = []
    for chunk in args.series.split(","):
        try:
            r, value, sigma = chunk.split(":")
            points.append(ZnePoint(int(r), float(value), float(sigma)))
        except ValueError as exc:
            raise CliError(f"series entries must be r:value:sigma, got {chunk!r}: {exc}", EXIT_USAGE)
    try:
        series = ZneSeries(points)
        result = richardson_extrapolate(series, args.fit, weighted=not args.unweighted)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_NUMERICAL)
    print(f"intercept: {result.intercept:.6f} +/- {result.intercept_sigma:.6f} MeV "
          f"(slope {result.slope:.6f}, {result.kind} fit)")
    return 0


def cmd_vqe(args) -> int:
    cfg = _run_config(args, lambdas=None if args.lambdas is None else _lambdas_for(args))
    # raw per-(r, setting) counts of the reported evaluation
    records: list[dict] | None = [] if args.shots > 0 else None
    result = vqe_run(cfg, count_records=records)
    out = Path(args.out)
    files = {}
    if records is not None:
        counts_path = out / f"vqe_n{args.n}_counts.jsonl"
        _write(counts_path, "\n".join(json.dumps(r) for r in records) + "\n")
        files["counts"] = counts_path
    trace_path = out / f"vqe_n{args.n}_trace.jsonl"
    lines = [
        json.dumps({"lambdas": list(rec.lambdas), "series": rec.series,
                    "intercept": rec.intercept, "intercept_sigma": rec.intercept_sigma})
        for rec in result.trace
    ]
    _write(trace_path, "\n".join(lines) + "\n")
    summary = {
        "n_states": args.n,
        "lambdas": list(result.params.lambdas),
        "energy": result.zne.intercept,
        "sigma": result.zne.intercept_sigma,
        "fit": result.zne.kind,
        "seed": args.seed,
        "shots": args.shots,
        "converged": result.converged,
    }
    files["trace"] = trace_path
    files["summary"] = out / f"vqe_n{args.n}_summary.json"
    _write(files["summary"], json.dumps(summary, indent=2))
    print(f"extrapolated energy: {result.zne.intercept:.4f} +/- {result.zne.intercept_sigma:.4f} MeV")
    print(f"lambdas: {', '.join(f'{v:.4f}' for v in result.params.lambdas)}")
    if not result.converged:
        print("warning: evaluation budget exhausted, reporting best observed")
    _write(out / f"vqe_n{args.n}_artifact.json", json.dumps(_artifact(args, files), indent=2))
    return 0


def cmd_scan(args) -> int:
    try:
        index = int(args.vary.removeprefix("lambda"))
    except ValueError:
        raise CliError(f"--vary must be lambda0/lambda1/... or an index, got {args.vary!r}",
                       EXIT_USAGE)
    spec = ScanSpec(index, _parse_list(args.values), _lambdas_for(args))
    rows = landscape_scan(_run_config(args), spec)
    out = Path(args.out)
    csv_path = out / f"scan_n{args.n}_{args.vary}.csv"
    header = [f"lambda{i}" for i in range(args.n - 1)] + ["experiment", "experiment_sigma", "theory"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            [f"{v:.6f}" for v in row.lambdas]
            + [f"{row.zne.intercept:.6f}", f"{row.zne.intercept_sigma:.6f}", f"{row.theory:.6f}"]
        ))
    _write(csv_path, "\n".join(lines) + "\n")
    print("\n".join(lines))
    files = {"csv": csv_path}
    _write(out / f"scan_n{args.n}_artifact.json", json.dumps(_artifact(args, files), indent=2))
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    files = {}
    results = {}
    if args.results:
        for path in args.results:
            doc = json.loads(_read(Path(path)))
            results[int(doc["n_states"])] = (float(doc["energy"]), float(doc["sigma"]))
    else:
        for n in _parse_list(args.ns, int):
            results[n] = (optimal_parameters(_hamiltonian(args, n))[1], 0.0)
    report = convergence_report(results, args.hbar_omega, args.v0)
    csv_path = out / "convergence.csv"
    lines = ["platform,n_states,energy,sigma"]
    lines += [f"{p},{n},{e:.6f},{s:.6f}" for p, n, e, s in report.csv_rows()]
    lines.append(f"exact-binding,-,{report.exact_binding_energy:.6f},0.000000")
    _write(csv_path, "\n".join(lines) + "\n")
    files["csv"] = csv_path
    print("\n".join(lines))
    if report.missing:
        print(f"note: no results supplied for N in {report.missing}")

    conventions = {
        "ansatz_convention": {
            "resolved": resolve_convention().name,
            "scan": convention_scan(),
        },
        "gate_identities": gate_identity_report(),
    }
    conv_path = out / "conventions.json"
    _write(conv_path, json.dumps(conventions, indent=2))
    files["conventions"] = conv_path
    print(f"conventions report -> {conv_path}")
    _write(out / "report_artifact.json", json.dumps(_artifact(args, files), indent=2))
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=3, help="number of oscillator states / qubits")
    p.add_argument("--hbar-omega", type=float, default=DEFAULT_HBAR_OMEGA, dest="hbar_omega")
    p.add_argument("--v0", type=float, default=DEFAULT_V0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shots", type=int, default=DEFAULT_SHOTS,
                   help="shots per measurement setting; 0 = exact expectations")
    p.add_argument("--p1", type=float, default=DEFAULT_P1)
    p.add_argument("--p2", type=float, default=DEFAULT_P2)
    p.add_argument("--readout-eps", type=float, default=DEFAULT_READOUT_FLIP, dest="readout_eps")
    p.add_argument("--fold", type=str, default="0,1,2,3", help="comma list of fold levels m")
    p.add_argument("--fit", choices=FIT_KINDS, default=FIT_KINDS[0])
    p.add_argument("--unweighted", action="store_true")
    p.add_argument("--per-term", action="store_true", dest="per_term",
                   help="extrapolate each Hamiltonian term separately")
    p.add_argument("--out", type=str, default="out", help="output directory")
    p.add_argument("--config", type=str, default=None,
                   help="flat JSON file pre-filling any flag (typed flags override)")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="deuteronvqe",
        description="oscillator-basis deuteron VQE workbench with trapped-ion "
                    "compilation, noisy sampling and zero-noise extrapolation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    p = commands["ham"] = sub.add_parser("ham", help="emit oscillator and qubit Hamiltonians")
    _add_common(p)
    p.set_defaults(func=cmd_ham)

    p = commands["ansatz"] = sub.add_parser("ansatz", help="emit the logical ansatz circuit")
    _add_common(p)
    p.add_argument("--lambdas", type=str, default=None, help="comma list; default optimal")
    p.set_defaults(func=cmd_ansatz)

    p = commands["transpile"] = sub.add_parser("transpile", help="lower a logical circuit to native gates")
    _add_common(p)
    p.add_argument("--circuit", type=str, default=None, help="logical circuit JSON")
    p.add_argument("--lambdas", type=str, default=None)
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--emit-counts", action="store_true", dest="emit_counts")
    p.set_defaults(func=cmd_transpile)

    p = commands["simulate"] = sub.add_parser("simulate", help="sample a native circuit")
    _add_common(p)
    p.add_argument("--circuit", type=str, required=True, help="native circuit JSON")
    p.add_argument("--basis", choices=BASIS_LABELS, default=BASIS_LABELS[0])
    p.add_argument("--fold-m", type=int, default=0, dest="fold_m")
    p.set_defaults(func=cmd_simulate)

    p = commands["zne"] = sub.add_parser("zne", help="extrapolate an explicit r:value:sigma series")
    _add_common(p)
    p.add_argument("--series", type=str, required=True)
    p.set_defaults(func=cmd_zne)

    p = commands["vqe"] = sub.add_parser("vqe", help="run the full pipeline (fixed params or optimize)")
    _add_common(p)
    p.add_argument("--lambdas", type=str, default=None,
                   help="fixed parameters; omit to optimize")
    p.set_defaults(func=cmd_vqe)

    p = commands["scan"] = sub.add_parser("scan", help="one-parameter landscape scan")
    _add_common(p)
    p.add_argument("--vary", type=str, required=True)
    p.add_argument("--values", type=str, required=True)
    p.add_argument("--lambdas", type=str, default=None, help="fixed values; default optimal")
    p.set_defaults(func=cmd_scan)

    p = commands["report"] = sub.add_parser("report", help="convergence table and conventions report")
    _add_common(p)
    p.add_argument("--ns", type=str, default="2,3,4")
    p.add_argument("--results", nargs="*", default=None, help="vqe summary JSON files")
    p.set_defaults(func=cmd_report)
    return parser, commands


def _with_config_file(commands: dict[str, argparse.ArgumentParser], argv: list[str]) -> list[str]:
    """argv with a flat JSON file's values spliced in as flags after the subcommand,
    so that they parse as typed flags do and typed flags win.  `true` is the bare
    flag, `false` and `null` are left out, a list is the flag and its items, and any
    other value is `--flag=value`, so that a value like -5.7 is not read as an option."""
    # a pre-parse finds `--config FILE` and `--config=FILE` as argparse will
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        raise CliError("--config needs a file path", EXIT_USAGE)
    if path is None:
        return argv
    try:
        values = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}", EXIT_IO)
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} line {exc.lineno} col {exc.colno}: {exc.msg}", EXIT_USAGE)
    if not isinstance(values, dict):
        raise CliError(f"config {path} must be a flat JSON object", EXIT_USAGE)
    if argv[0] not in commands:
        return argv
    values = {k.replace("-", "_"): v for k, v in values.items()}
    flags = {a.dest: a.option_strings[0] for a in commands[argv[0]]._actions if a.dest != "help"}
    unknown = sorted(set(values) - set(flags) - {"command"})
    if unknown:
        raise CliError(f"config {path}: unknown key(s) {', '.join(unknown)}", EXIT_USAGE)
    tokens = []
    for dest, value in values.items():
        if dest == "command" or value is None or value is False:
            continue
        flag = flags[dest]
        if value is True:
            tokens.append(flag)
        elif isinstance(value, list):
            tokens += [flag, *map(str, value)]
        else:
            tokens.append(f"{flag}={value}")
    return [argv[0], *tokens, *argv[1:]]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        args = parser.parse_args(_with_config_file(commands, argv))
        _check_common(args)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConcaveFitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
