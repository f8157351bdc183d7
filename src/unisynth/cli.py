"""Command-line interface: decompose a matrix file, verify a circuit, bench.

Exit codes: 0 success, 1 verification failure, 2 bad input (unreadable file,
malformed text, dimension or unitarity problems, bad argument ranges).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .circuit import GateCensus, census, matrix_to_circuit
from .emitters import (
    CircuitFormatError,
    check_operation_name,
    emit_json,
    emit_qasm3,
    emit_qsharp,
    parse_json,
)
from .matrix import QUBIT_LIMIT, check_tolerance, haar_random_unitary
from .matrix import MatrixFormatError, load_matrix, validate_unitary
from .simulator import default_verification_tol, verify


def _tolerance(text: str) -> float:
    """argparse type for ``--tol``: a finite float >= 0."""
    try:
        return check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unisynth",
        description="Compile unitary matrices into X and fully-controlled "
        "Ry/Rz/R1 gates, verify circuits, and tabulate gate counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="compile a matrix file to a circuit")
    dec.add_argument("--input", "-i", required=True, help="matrix JSON file")
    dec.add_argument("--output", "-o", help="write the circuit here (default stdout)")
    dec.add_argument(
        "--backend",
        choices=("qsharp", "qasm3", "json"),
        default="qsharp",
        help="output format (default qsharp)",
    )
    dec.add_argument(
        "--no-optimize",
        action="store_true",
        help="wrap each block in its own X gates instead of sharing them "
        "between consecutive blocks",
    )
    dec.add_argument(
        "--tol",
        type=_tolerance,
        help="input unitarity tolerance (default 1e-8 * dimension); the "
        "circuit is always verified at the default threshold, 1e-8 up to "
        "6 qubits and 1e-6 beyond",
    )
    dec.add_argument(
        "--name", default="ApplyUnitary", help="Q# operation name (qsharp backend)"
    )
    dec.set_defaults(func=_cmd_decompose)

    ver = sub.add_parser("verify", help="simulate a circuit against a matrix file")
    ver.add_argument("--input", "-i", required=True, help="matrix JSON file")
    ver.add_argument("--circuit", "-c", required=True, help="circuit JSON file")
    ver.add_argument("--tol", type=_tolerance, help="Frobenius pass threshold")
    ver.set_defaults(func=_cmd_verify)

    ben = sub.add_parser(
        "bench", help="gate-count study over seeded Haar-random unitaries"
    )
    ben.add_argument("--n-min", type=int, default=1, help="smallest qubit count")
    ben.add_argument("--n-max", type=int, default=6, help="largest qubit count")
    ben.add_argument(
        "--seeds-per-n", type=int, default=1, help="matrices sampled per size"
    )
    ben.add_argument("--seed", type=int, default=42, help="base RNG seed")
    ben.add_argument("--output", "-o", help="also write the table as CSV here")
    ben.set_defaults(func=_cmd_bench)
    return parser


def _read(path: str, what: str, parse, error: type[ValueError]):
    """Parse a UTF-8 file's text with ``parse``; text that is not UTF-8
    raises ``error``, and every format error names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read {what} file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: cannot decode text: {exc}") from None
    try:
        return parse(text)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _cmd_decompose(args: argparse.Namespace) -> int:
    if args.backend == "qsharp":
        check_operation_name(args.name)
    matrix = _read(args.input, "matrix", load_matrix, MatrixFormatError)
    circuit = matrix_to_circuit(matrix, optimize=not args.no_optimize, tol=args.tol)
    if args.backend == "qsharp":
        text = emit_qsharp(circuit, operation_name=args.name)
    elif args.backend == "qasm3":
        text = emit_qasm3(circuit)
    else:
        text = emit_json(circuit) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    report = verify(matrix, circuit)
    stats = census(circuit)
    print(
        f"gates: x={stats.x} ry={stats.ry} rz={stats.rz} r1={stats.r1} "
        f"fcx={stats.fcx} total={stats.total}",
        file=sys.stderr,
    )
    status = "passed" if report.passed else "FAILED"
    print(
        f"verification {status}: frobenius={report.frobenius_error:.3e} "
        f"max_entry={report.max_abs_entry_error:.3e} "
        f"tol={default_verification_tol(circuit.n):.1e}",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    matrix = validate_unitary(
        _read(args.input, "matrix", load_matrix, MatrixFormatError)
    )
    circuit = _read(args.circuit, "circuit", parse_json, CircuitFormatError)
    report = verify(matrix, circuit, tol=args.tol)
    status = "passed" if report.passed else "FAILED"
    print(
        f"verification {status}: frobenius={report.frobenius_error:.3e} "
        f"max_entry={report.max_abs_entry_error:.3e} gates={report.gate_count}"
    )
    return 0 if report.passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    if not 1 <= args.n_min <= args.n_max <= QUBIT_LIMIT:
        raise ValueError(
            f"need 1 <= n-min <= n-max <= {QUBIT_LIMIT}, "
            f"got {args.n_min}..{args.n_max}"
        )
    if args.seeds_per_n < 1:
        raise ValueError("seeds-per-n must be positive")
    rows: list[GateCensus] = []
    for n in range(args.n_min, args.n_max + 1):
        for offset in range(args.seeds_per_n):
            matrix = haar_random_unitary(n, args.seed + offset)
            circuit = matrix_to_circuit(matrix)
            report = verify(matrix, circuit)
            if not report.passed:
                print(
                    f"error: verification failed at n={n} seed={args.seed + offset}: "
                    f"frobenius={report.frobenius_error:.3e}",
                    file=sys.stderr,
                )
                return 1
            if not offset:
                rows.append(census(circuit))
    header = ("n", "x", "ry", "rz", "r1", "fcx", "total", "ratio")
    widths = (3, 8, 8, 8, 4, 4, 9, 7)
    # each row's text cells, formatted once for both the table and the CSV
    table = [header] + [
        (*map(str, (r.n, r.x, r.ry, r.rz, r.r1, r.fcx, r.total)), f"{r.ratio:.2f}")
        for r in rows
    ]
    for cells in table:
        print("".join(c.rjust(w) for c, w in zip(cells, widths)))
    if args.output:
        text = "".join(",".join(cells) + "\n" for cells in table)
        Path(args.output).write_text(text, encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # covers matrix/circuit format, dimension, unitarity and range errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
