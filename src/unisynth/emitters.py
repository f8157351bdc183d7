"""Textual backends: Q#, OpenQASM 3, and a JSON interchange format.

The IR's Ry/Rz conventions are exp(+i a sigma/2) style, while Q# and the
stdgates library define ry/rz as exp(-i theta sigma/2), so those two kinds
are emitted with the angle negated.  R1 matches Q# ``R1`` and QASM ``p``
directly.  The JSON backend stores IR angles untouched and round-trips them
bit-identically via shortest-repr decimal text.
"""

from __future__ import annotations

import json
import re

from .circuit import Circuit, Gate, GateKind, ROTATION_KINDS

JSON_IR_VERSION = 1

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_QUBIT_ORDER_NOTE = (
    "qubit j is bit j of the basis-state index (little-endian: the"
    " leftmost character of a ket string is qubit 0)"
)


class CircuitFormatError(ValueError):
    """Malformed circuit JSON text."""


def format_angle(value: float, precision: int = 17) -> str:
    """Decimal text for an angle; 17 significant digits round-trip exactly."""
    if precision >= 17:
        return repr(float(value))
    return format(float(value), f".{precision}g")


def _emitted_angle(gate: Gate) -> float:
    # Ry/Rz flip sign crossing into exp(-i theta/2) backend conventions.
    return gate.angle if gate.kind is GateKind.FCR1 else -gate.angle


def emit_qsharp(
    circuit: Circuit,
    operation_name: str = "ApplyUnitary",
    angle_precision: int = 17,
) -> str:
    """Render the circuit as a Q# operation taking a qubit array."""
    if not _IDENTIFIER_RE.match(operation_name):
        raise ValueError(f"invalid Q# operation name: {operation_name!r}")
    lines = [
        f"// Circuit on {circuit.n} qubit(s); {_QUBIT_ORDER_NOTE}.",
        f"operation {operation_name}(qs : Qubit[]) : Unit is Adj + Ctl {{",
    ]
    for gate in circuit.gates:
        lines.append(f"    {_qsharp_statement(gate, angle_precision)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _qsharp_statement(gate: Gate, precision: int) -> str:
    target = f"qs[{gate.target}]"
    controls = ", ".join(f"qs[{q}]" for q in gate.controls)
    if gate.kind in (GateKind.X, GateKind.FCX):
        if not gate.controls:
            return f"X({target});"
        return f"Controlled X([{controls}], {target});"
    name = {GateKind.FCRY: "Ry", GateKind.FCRZ: "Rz", GateKind.FCR1: "R1"}[gate.kind]
    angle = format_angle(_emitted_angle(gate), precision)
    if not gate.controls:
        return f"{name}({angle}, {target});"
    return f"Controlled {name}([{controls}], ({angle}, {target}));"


def emit_qasm3(circuit: Circuit, angle_precision: int = 17) -> str:
    """Render the circuit as an OpenQASM 3 program over register ``q``."""
    lines = [
        "OPENQASM 3.0;",
        'include "stdgates.inc";',
        f"// {_QUBIT_ORDER_NOTE}",
        f"qubit[{circuit.n}] q;",
    ]
    for gate in circuit.gates:
        lines.append(_qasm3_statement(gate, angle_precision))
    return "\n".join(lines) + "\n"


def _qasm3_statement(gate: Gate, precision: int) -> str:
    if gate.kind in (GateKind.X, GateKind.FCX):
        call = "x"
    else:
        name = {GateKind.FCRY: "ry", GateKind.FCRZ: "rz", GateKind.FCR1: "p"}[gate.kind]
        call = f"{name}({format_angle(_emitted_angle(gate), precision)})"
    operands = ", ".join(f"q[{q}]" for q in (*gate.controls, gate.target))
    k = len(gate.controls)
    if k == 0:
        return f"{call} {operands};"
    modifier = "ctrl @" if k == 1 else f"ctrl({k}) @"
    return f"{modifier} {call} {operands};"


def emit_json(circuit: Circuit) -> str:
    """Render the circuit as version-1 JSON with exact angle round-trip."""
    gates = []
    for gate in circuit.gates:
        entry: dict = {
            "kind": gate.kind.value,
            "target": gate.target,
            "controls": list(gate.controls),
        }
        if gate.angle is not None:
            entry["angle"] = gate.angle
        gates.append(entry)
    return json.dumps({"version": JSON_IR_VERSION, "n": circuit.n, "gates": gates})


def parse_json(text: str | bytes) -> Circuit:
    """Parse circuit JSON produced by ``emit_json``.

    Raises:
        CircuitFormatError: malformed JSON, unsupported version, unknown gate
        kind, or fields that violate the gate invariants.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise CircuitFormatError("expected a JSON object at top level")
    if doc.get("version") != JSON_IR_VERSION:
        raise CircuitFormatError(
            f"unsupported version {doc.get('version')!r}, expected {JSON_IR_VERSION}"
        )
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise CircuitFormatError('"n" must be an integer')
    raw_gates = doc.get("gates")
    if not isinstance(raw_gates, list):
        raise CircuitFormatError('"gates" must be an array')
    gates = []
    for i, entry in enumerate(raw_gates):
        gates.append(_parse_gate(entry, i))
    try:
        return Circuit(n, tuple(gates))
    except ValueError as exc:
        raise CircuitFormatError(str(exc)) from None


def _parse_gate(entry: object, index: int) -> Gate:
    if not isinstance(entry, dict):
        raise CircuitFormatError(f"gate {index}: expected an object")
    kind_value = entry.get("kind")
    try:
        kind = GateKind(kind_value)
    except ValueError:
        raise CircuitFormatError(f"gate {index}: unknown kind {kind_value!r}") from None
    target = entry.get("target")
    if not isinstance(target, int) or isinstance(target, bool):
        raise CircuitFormatError(f"gate {index}: target must be an integer")
    controls = entry.get("controls", [])
    if not isinstance(controls, list) or not all(
        isinstance(q, int) and not isinstance(q, bool) for q in controls
    ):
        raise CircuitFormatError(f"gate {index}: controls must be integers")
    angle = entry.get("angle")
    if angle is not None and (
        isinstance(angle, bool) or not isinstance(angle, (int, float))
    ):
        raise CircuitFormatError(f"gate {index}: angle must be a number")
    if kind in ROTATION_KINDS and angle is None:
        raise CircuitFormatError(f"gate {index}: kind {kind.value!r} needs an angle")
    try:
        return Gate(kind, target, tuple(controls), angle)
    except ValueError as exc:
        raise CircuitFormatError(f"gate {index}: {exc}") from None
