"""Textual backends: Q#, OpenQASM 3, and a JSON interchange format.

The IR's Ry/Rz conventions are exp(+i a sigma/2) style, while Q# and the
stdgates library define ry/rz as exp(-i theta sigma/2), so those two kinds
are emitted with the angle negated.  R1 matches Q# ``R1`` and QASM ``p``
directly.  The JSON backend stores IR angles untouched and round-trips them
bit-identically via shortest-repr decimal text.

Every backend relies on one invariant: a statement's text depends only on
the gate's wiring (kind, target, controls) and its angle, with the angle's
text appearing once.  So each emitter renders the text around the angle
once per distinct wiring and, per gate, formats only the angle between
those two fragments.  ``parse_json`` likewise builds the first gate of each
distinct wiring of a document through ``Gate``, which checks every field,
and checks only the angle of each later gate of that wiring.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Iterable

from .circuit import Circuit, Gate, GateKind, check_angle, trusted_gate
from .matrix import decode_json

JSON_IR_VERSION = 1

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# identifiers the emitted Q# text uses itself: an operation named X would
# call itself from its own body, one named operation would not parse
_QSHARP_TAKEN = frozenset(
    "X Ry Rz R1 Controlled qs operation is Adj Ctl Unit Qubit".split()
)

# Q#'s reserved words, which no operation may be named: the language's
# keywords, its literals and its primitive type names
_QSHARP_RESERVED = frozenset(
    """_ Adj Adjoint BigInt Bool Controlled Ctl Double Int One Pauli PauliI
    PauliX PauliY PauliZ Qubit Range Result String Unit Zero adjoint and apply
    as auto body borrow borrowing controlled distribute elif else export fail
    false fixup for function if import in internal intrinsic invert is let
    mutable namespace new newtype not open operation or repeat return self set
    struct true until use using while within""".split()
)

_QUBIT_ORDER_NOTE = (
    "qubit j is bit j of the basis-state index (little-endian: the"
    " leftmost character of a ket string is qubit 0)"
)

# Stands in for the angle text while a wiring's statement is rendered once;
# it is split out there and never reaches the emitted text.
_ANGLE_SLOT = "\0"


class CircuitFormatError(ValueError):
    """Malformed circuit JSON text."""


def _statements(
    gates: Iterable[Gate],
    statement: Callable[[GateKind, int, tuple[int, ...], str], str],
    negate: bool,
) -> list[str]:
    """The text of each gate, from fragments rendered once per wiring.

    ``statement(kind, target, controls, angle_text)`` renders one gate.
    Angles are written as their shortest repr, which round-trips exactly.
    With ``negate``, Ry and Rz angles are emitted negated.
    """
    angle_text = float.__repr__
    fragments: dict = {}
    out: list[str] = []
    append = out.append
    for gate in gates:
        angle = gate.angle
        key = (gate.kind, gate.target, gate.controls)
        try:
            fragment = fragments[key]
        except KeyError:
            if angle is None:
                fragment = statement(*key, "")
            else:
                text = statement(*key, _ANGLE_SLOT)
                head, _, tail = text.partition(_ANGLE_SLOT)
                fragment = (head, tail, negate and gate.kind is not GateKind.FCR1)
            fragments[key] = fragment
        if angle is None:
            append(fragment)
        else:
            head, tail, flip = fragment
            append(head + angle_text(-angle if flip else angle) + tail)
    return out


def check_operation_name(name: str) -> None:
    """Raise ValueError unless ``name`` is a valid Q# operation name."""
    if not _IDENTIFIER_RE.fullmatch(name):
        raise ValueError(f"invalid Q# operation name: {name!r}")
    if name in _QSHARP_TAKEN:
        raise ValueError(
            f"invalid Q# operation name: {name!r} is used by the emitted code"
        )
    if name in _QSHARP_RESERVED:
        raise ValueError(
            f"invalid Q# operation name: {name!r} is a Q# reserved word"
        )


def emit_qsharp(circuit: Circuit, operation_name: str = "ApplyUnitary") -> str:
    """Render the circuit as a Q# operation taking a qubit array."""
    check_operation_name(operation_name)
    lines = [
        f"// Circuit on {circuit.n} qubit(s); {_QUBIT_ORDER_NOTE}.",
        f"operation {operation_name}(qs : Qubit[]) : Unit is Adj + Ctl {{",
    ]
    lines += _statements(circuit.gates, _qsharp_statement, True)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _qsharp_statement(
    kind: GateKind, target: int, controls: tuple[int, ...], angle: str
) -> str:
    qubit = f"qs[{target}]"
    control_list = ", ".join(f"qs[{q}]" for q in controls)
    if kind in (GateKind.X, GateKind.FCX):
        if not controls:
            return f"    X({qubit});"
        return f"    Controlled X([{control_list}], {qubit});"
    name = {GateKind.FCRY: "Ry", GateKind.FCRZ: "Rz", GateKind.FCR1: "R1"}[kind]
    if not controls:
        return f"    {name}({angle}, {qubit});"
    return f"    Controlled {name}([{control_list}], ({angle}, {qubit}));"


def emit_qasm3(circuit: Circuit) -> str:
    """Render the circuit as an OpenQASM 3 program over register ``q``."""
    lines = [
        "OPENQASM 3.0;",
        'include "stdgates.inc";',
        f"// {_QUBIT_ORDER_NOTE}",
        f"qubit[{circuit.n}] q;",
    ]
    lines += _statements(circuit.gates, _qasm3_statement, True)
    return "\n".join(lines) + "\n"


def _qasm3_statement(
    kind: GateKind, target: int, controls: tuple[int, ...], angle: str
) -> str:
    if kind in (GateKind.X, GateKind.FCX):
        call = "x"
    else:
        name = {GateKind.FCRY: "ry", GateKind.FCRZ: "rz", GateKind.FCR1: "p"}[kind]
        call = f"{name}({angle})"
    operands = ", ".join(f"q[{q}]" for q in (*controls, target))
    k = len(controls)
    if k == 0:
        return f"{call} {operands};"
    modifier = "ctrl @" if k == 1 else f"ctrl({k}) @"
    return f"{modifier} {call} {operands};"


def emit_json(circuit: Circuit) -> str:
    """Render the circuit as version-1 JSON with exact angle round-trip.

    The text equals ``json.dumps`` of the document
    ``{"version", "n", "gates": [{"kind", "target", "controls"[, "angle"]}]}``.
    """
    entries = _statements(circuit.gates, _json_entry, False)
    envelope = json.dumps({"version": JSON_IR_VERSION, "n": circuit.n, "gates": []})
    # the envelope ends in the empty gate list "[]}"
    return envelope[:-2] + ", ".join(entries) + envelope[-2:]


def _json_entry(
    kind: GateKind, target: int, controls: tuple[int, ...], angle: str
) -> str:
    fields = {"kind": kind.value, "target": target, "controls": list(controls)}
    entry = json.dumps(fields)
    if not angle:
        return entry
    # json.dumps writes a float as its repr, and the angle key comes last
    return f'{entry[:-1]}, "angle": {angle}}}'


def parse_json(text: str | bytes) -> Circuit:
    """Parse circuit JSON produced by ``emit_json``.

    Raises:
        CircuitFormatError: malformed or too deeply nested JSON, unsupported
        version, unknown gate kind, or fields that violate the gate invariants.
    """
    doc = decode_json(text, CircuitFormatError)
    if not isinstance(doc, dict):
        raise CircuitFormatError("expected a JSON object at top level")
    version = doc.get("version")
    # true and 1.0 compare equal to 1: the version must be exactly an int
    if type(version) is not int or version != JSON_IR_VERSION:
        raise CircuitFormatError(
            f"unsupported version {version!r}, expected {JSON_IR_VERSION}"
        )
    raw_gates = doc.get("gates")
    if not isinstance(raw_gates, list):
        raise CircuitFormatError('"gates" must be an array')
    wirings: dict = {}
    gates = [_parse_gate(entry, i, wirings) for i, entry in enumerate(raw_gates)]
    try:
        return Circuit(doc.get("n"), tuple(gates))
    except ValueError as exc:
        raise CircuitFormatError(str(exc)) from None


def _parse_gate(entry: object, index: int, wirings: dict) -> Gate:
    """One gate; ``wirings`` maps each valid wiring seen so far to its gate.

    The first gate of each wiring is built, and so checked, by ``Gate``; a
    later gate of that wiring reuses the first one's checked fields, and
    only its angle is checked.  JSON's ``true`` equals ``1`` and hashes like
    it, so a wiring's lookup key is formed only when its kind is exactly a
    ``str`` and its target and every control exactly an ``int``.
    """
    if not isinstance(entry, dict):
        raise CircuitFormatError(f"gate {index}: expected an object")
    kind = entry.get("kind")
    target = entry.get("target")
    controls = entry.get("controls", [])
    angle = entry.get("angle")
    # Gate would iterate a string's characters or a dict's keys
    if type(controls) is not list:
        raise CircuitFormatError(f"gate {index}: controls must be an array")
    key = None
    if type(kind) is str and type(target) is int:
        if all(type(q) is int for q in controls):
            key = (kind, target, *controls)
    seen = wirings.get(key)
    try:
        if seen is None:
            # Gate rejects every entry whose key is None, so None is never
            # stored
            gate = wirings[key] = Gate(kind, target, controls, angle)
            return gate
        return trusted_gate(
            seen.kind, seen.target, seen.controls, check_angle(seen.kind, angle)
        )
    except ValueError as exc:
        raise CircuitFormatError(f"gate {index}: {exc}") from None
