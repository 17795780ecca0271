"""Command-line front end for the whole pipeline.

Commands: ham, ansatz, transpile, simulate, zne, vqe, scan, report.  The
surface is data: `FLAGS` spells each flag once, and `COMMANDS` names each
command's handler, the flags it reads (and no others) and its replay artifact,
which `main` writes.  argparse checks types, choices and ranges, with no
abbreviations.  A flat JSON config file may pre-fill any flag of its command:
its values are parsed as the flags they name, and flags typed on the command
line win.  Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 I/O error
(a closed standard-output pipe included).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .ansatz import (
    RESOLVED_CONVENTION,
    HypersphericalParams,
    build_ansatz_circuit,
    amplitudes,
    convention_scan,
    energy_expectation_exact,
    optimal_parameters,
)
from .circuits import ConfigError, LogicalCircuit, NativeCircuit, checked
from .compiler import gate_identity_report, optimize_native, transpile, unitary_equivalent, unitary_of
from .driver import RunConfig, ScanSpec, convergence_report, landscape_scan, vqe_run
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


def _hamiltonian(args, n: int):
    return build_oscillator_hamiltonian(EftConfig(n, args.hbar_omega, args.v0))


def _run_config(args, lambdas=None) -> RunConfig:
    return RunConfig(
        n_states=args.n,
        lambdas=lambdas,
        shots=args.shots,
        fold_levels=_parse_list(args.fold, int),
        noise=NoiseModel.ion_defaults(args.n, args.p1, args.p2, args.readout_eps),
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
    snapshot = {k: v for k, v in vars(args).items() if k != "config"}
    return {
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": snapshot,
        "outputs": {k: str(v) for k, v in outputs.items()},
        "hashes": hashes,
    }


def cmd_ham(args) -> dict[str, Path]:
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
    return files


def _lambdas_for(args) -> tuple[float, ...]:
    """--lambdas; the exact optimum when it is not given."""
    if args.lambdas is None:
        return optimal_parameters(_hamiltonian(args, args.n))[0].lambdas
    return _parse_list(args.lambdas)


def cmd_ansatz(args) -> dict[str, Path]:
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
    return files


def cmd_transpile(args) -> dict[str, Path]:
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
    return files


def cmd_simulate(args) -> dict[str, Path]:
    native = NativeCircuit.from_json(_read(Path(args.circuit)))
    n = native.n_qubits
    spec = FoldSpec(args.fold_m)
    folded = fold_circuit(native, spec)
    noise = NoiseModel.ion_defaults(n, args.p1, args.p2, args.readout_eps)
    rotations = basis_rotation_circuit(args.basis, n)
    counts = sample_shots_noisy(folded, rotations, args.shots, noise, args.seed)
    record = {"shots": args.shots, "counts": histogram_dict(counts), "seed": args.seed, "r": spec.r}
    out = Path(args.out)
    files = {"counts": out / f"counts_{args.basis}_r{record['r']}.json"}
    _write(files["counts"], json.dumps(record))
    print(f"histogram ({args.shots} shots, basis {args.basis}, r={record['r']}) -> {files['counts']}")
    return files


def cmd_zne(args) -> dict[str, Path]:
    points = []
    for chunk in args.series.split(","):
        try:
            r, value, sigma = chunk.split(":")
            r, value, sigma = int(r), float(value), float(sigma)
        except ValueError as exc:
            raise CliError(f"series entries must be r:value:sigma, got {chunk!r}: {exc}", EXIT_USAGE)
        points.append(ZnePoint(r, value, sigma))
    # main exits 2 on the ConfigError of a point or series out of range, and
    # 3 on the ValueError of a fit that cannot run
    result = richardson_extrapolate(ZneSeries(points), args.fit, weighted=not args.unweighted)
    print(f"intercept: {result.intercept:.6f} +/- {result.intercept_sigma:.6f} MeV "
          f"(slope {result.slope:.6f}, {result.kind} fit)")
    return {}


def cmd_vqe(args) -> dict[str, Path]:
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
    return files


def cmd_scan(args) -> dict[str, Path]:
    try:
        index = int(args.vary.removeprefix("lambda"))
    except ValueError:
        raise CliError(f"--vary must be lambda0/lambda1/... or an index, got {args.vary!r}",
                       EXIT_USAGE)
    fixed = _lambdas_for(args)
    cfg = _run_config(args, lambdas=fixed)  # checks the angle count before the varied index
    rows = landscape_scan(cfg, ScanSpec(index, _parse_list(args.values), fixed))
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
    return {"csv": csv_path}


def cmd_report(args) -> dict[str, Path]:
    out = Path(args.out)
    results = {}
    if args.results:
        sources = {}  # n_states -> the file that gave it
        for path in args.results:
            try:
                doc = json.loads(_read(Path(path)))
                n = checked("n_states", doc["n_states"], int, ge=2)  # as in every vqe run
                if n in sources:
                    raise CliError(f"{sources[n]} and {path} both hold a vqe summary for "
                                   f"n_states = {n}", EXIT_USAGE)
                sources[n] = path
                results[n] = (checked("energy", doc["energy"]),
                              checked("sigma", doc["sigma"], ge=0))
            except (KeyError, TypeError, ValueError) as exc:
                raise CliError(f"{path} is not a vqe summary with integer n_states >= 2 and "
                               f"finite energy and sigma >= 0: {exc!r}", EXIT_USAGE)
    else:
        for n in _parse_list(args.ns, int):
            checked("ns entry", n, int, ge=2)
            results[n] = (optimal_parameters(_hamiltonian(args, n))[1], 0.0)
    report = convergence_report(results, args.hbar_omega, args.v0)
    csv_path = out / "convergence.csv"
    lines = ["platform,n_states,energy,sigma"]
    lines += [f"{p},{n},{e:.6f},{s:.6f}" for p, n, e, s in report.csv_rows()]
    lines.append(f"exact-binding,-,{report.exact_binding_energy:.6f},0.000000")
    _write(csv_path, "\n".join(lines) + "\n")
    print("\n".join(lines))
    if report.missing:
        print(f"note: no results supplied for N in {report.missing}")

    conventions = {
        "ansatz_convention": {
            "resolved": RESOLVED_CONVENTION.name,
            "scan": convention_scan(),
        },
        "gate_identities": gate_identity_report(),
    }
    conv_path = out / "conventions.json"
    _write(conv_path, json.dumps(conventions, indent=2))
    print(f"conventions report -> {conv_path}")
    return {"csv": csv_path, "conventions": conv_path}


def rate(text: str) -> float:
    """argparse type: a probability in [0, 1] (argparse names it: "invalid rate value")."""
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value!r}")
    return value


def _counts_from(low: int) -> Callable[[str], int]:
    """argparse type: an int >= low."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return count


# every flag, spelled once: name -> argparse keywords (dest is the name with "_" for "-")
FLAGS = {
    "n": dict(type=int, default=3, help="number of oscillator states / qubits"),
    "hbar-omega": dict(type=float, default=DEFAULT_HBAR_OMEGA),
    "v0": dict(type=float, default=DEFAULT_V0),
    "seed": dict(type=int, default=0),
    "shots": dict(type=_counts_from(0), default=DEFAULT_SHOTS, help="shots per setting; 0 = exact"),
    "p1": dict(type=rate, default=DEFAULT_P1),
    "p2": dict(type=rate, default=DEFAULT_P2),
    "readout-eps": dict(type=rate, default=DEFAULT_READOUT_FLIP),
    "fold": dict(default="0,1,2,3", help="comma list of fold levels m"),
    "fold-m": dict(type=int, default=0, help="fold level m of the sampled circuit"),
    "fit": dict(choices=FIT_KINDS, default=FIT_KINDS[0]),
    "unweighted": dict(action="store_true"),
    "per-term": dict(action="store_true", help="extrapolate each Hamiltonian term separately"),
    "lambdas": dict(help="comma list of N-1 angles; default: optimal (vqe: search)"),
    "circuit": dict(help="logical circuit JSON"),
    "optimize": dict(action="store_true"),
    "emit-counts": dict(action="store_true"),
    "basis": dict(choices=BASIS_LABELS, default=BASIS_LABELS[0]),
    "series": dict(required=True, help="comma list of r:value:sigma"),
    "vary": dict(required=True, help="the angle to vary: lambda0, lambda1, ..."),
    "values": dict(required=True, help="comma list of values for the varied angle"),
    "ns": dict(default="2,3,4", help="comma list of N for exact results"),
    "results": dict(nargs="*", help="vqe summary JSON files"),
    "out": dict(default="out", help="output directory"),
    "config": dict(help="flat JSON file of this command's flags (typed flags win)"),
}


class Command(NamedTuple):
    func: Callable[[argparse.Namespace], dict[str, Path]]  # returns the files it wrote
    help: str
    flags: str  # the FLAGS it reads, besides --config
    artifact: str | None  # replay artifact file name, formatted with the parsed flags
    overrides: dict[str, dict] = {}  # argparse keywords that differ from FLAGS


_PIPELINE = "n hbar-omega v0 seed shots p1 p2 readout-eps fold fit unweighted per-term lambdas out"
COMMANDS = {
    "ham": Command(cmd_ham, "emit oscillator and qubit Hamiltonians",
                   "n hbar-omega v0 out", "h{n}_artifact.json"),
    "ansatz": Command(cmd_ansatz, "emit the logical ansatz circuit",
                      "n hbar-omega v0 lambdas out", "c{n}_artifact.json"),
    "transpile": Command(cmd_transpile, "lower a logical circuit to native gates",
                         "n hbar-omega v0 circuit lambdas optimize emit-counts out",
                         "transpile_artifact.json"),
    "simulate": Command(cmd_simulate, "sample a native circuit",
                        "circuit basis fold-m seed shots p1 p2 readout-eps out",
                        "simulate_artifact.json",
                        {"circuit": dict(required=True, help="native circuit JSON"),
                         "shots": dict(type=_counts_from(1), help="shots, at least 1")}),
    "zne": Command(cmd_zne, "extrapolate an explicit r:value:sigma series",
                   "series fit unweighted", None),
    "vqe": Command(cmd_vqe, "run the full pipeline (fixed params or optimize)",
                   _PIPELINE, "vqe_n{n}_artifact.json"),
    "scan": Command(cmd_scan, "one-parameter landscape scan",
                    f"{_PIPELINE} vary values", "scan_n{n}_artifact.json"),
    "report": Command(cmd_report, "convergence table and conventions report",
                      "hbar-omega v0 ns results out", "report_artifact.json"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deuteronvqe",
        description="oscillator-basis deuteron VQE workbench with trapped-ion "
                    "compilation, noisy sampling and zero-noise extrapolation",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for flag in (*command.flags.split(), "config"):
            p.add_argument(f"--{flag}", **{**FLAGS[flag], **command.overrides.get(flag, {})})
    return parser


def _with_config_file(argv: list[str]) -> list[str]:
    """argv with a flat JSON file's values spliced in as flags after the subcommand,
    so that they parse as typed flags do and typed flags win.  `true` is the bare
    flag, `false` and `null` are left out, a list is the flag and its items, and any
    other value is `--flag=value`, so that a value like -5.7 is not read as an option."""
    # a pre-parse finds `--config FILE` and `--config=FILE` as argparse will
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False, allow_abbrev=False)
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
    if argv[0] not in COMMANDS:
        return argv
    values = {k.replace("-", "_"): v for k, v in values.items()}
    flags = {name.replace("-", "_"): f"--{name}" for name in COMMANDS[argv[0]].flags.split()}
    unknown = sorted(set(values) - set(flags) - {"command"})
    if unknown:
        raise CliError(f"config {path}: {argv[0]} takes no key(s) {', '.join(unknown)}", EXIT_USAGE)
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
    try:
        args = build_parser().parse_args(_with_config_file(argv))
        command = COMMANDS[args.command]
        files = command.func(args)
        if command.artifact:
            _write(Path(args.out) / command.artifact.format(**vars(args)),
                   json.dumps(_artifact(args, files), indent=2))
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return 0
    except BrokenPipeError:
        # the reader of stdout is gone; point stdout at devnull so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed", file=sys.stderr)
        return EXIT_IO
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
