"""Textual backends: Q#, OpenQASM 3, and a JSON interchange format.

The IR's Ry/Rz conventions are exp(+i a sigma/2) style, while Q# and the
stdgates library define ry/rz as exp(-i theta sigma/2), so those two kinds
are emitted with the angle negated.  R1 matches Q# ``R1`` and QASM ``p``
directly.  The JSON backend stores IR angles untouched and round-trips them
bit-identically via shortest-repr decimal text.

Every backend relies on one invariant: a statement's text depends only on
the gate's wiring (kind, target, controls) and its angle, with the angle's
text appearing once.  So each emitter renders the text around the angle
once per entry of the circuit's wiring table and, per gate, formats only
the angle between those two fragments, reading the circuit's columns.
``parse_json`` builds those columns directly, with no ``Gate`` per gate.
Text in ``emit_json``'s exact layout is read in bulk: each distinct entry
head is checked through ``Gate`` once and all angles are converted in one
``np.fromstring`` call.  Any other layout goes through ``json.loads``, and
the first gate of each distinct wiring of a document is checked through
``Gate``, which checks every field, and only the angle of each later gate
of that wiring is checked.  Both give the same columns, with the same angle
bits.
"""

from __future__ import annotations

import json
import re
from typing import Callable

import numpy as np

from .circuit import FOUR_PI, ROTATION_KINDS, TWO_PI, Circuit, Gate, GateKind
from .circuit import check_angle, normalize_angles
from .matrix import decode_json, parse_floats

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

# gates whose angles _statements holds as Python floats at one time
_CHUNK = 1 << 14


class CircuitFormatError(ValueError):
    """Malformed circuit JSON text."""


def _statements(
    circuit: Circuit,
    statement: Callable[[GateKind, int, tuple[int, ...], str], str],
    negate: bool,
) -> list[str]:
    """The text of each gate, from fragments rendered once per wiring.

    ``statement(kind, target, controls, angle_text)`` renders one gate.
    Angles are written as their shortest repr, which round-trips exactly.
    With ``negate``, Ry and Rz angles are emitted negated.
    """
    heads = []
    tails = []
    flips = []
    for kind, target, controls in circuit.wirings:
        if kind in ROTATION_KINDS:
            text = statement(kind, target, controls, _ANGLE_SLOT)
            head, _, tail = text.partition(_ANGLE_SLOT)
        else:
            # an X or FCX statement is whole, and its NaN angle is not written
            head, tail = statement(kind, target, controls, ""), None
        heads.append(head)
        tails.append(tail)
        flips.append(negate and kind in (GateKind.FCRY, GateKind.FCRZ))
    flips = np.array(flips, dtype=bool)
    out: list[str] = []
    # a chunk at a time, so only one chunk's angles are Python floats at once
    for start in range(0, len(circuit), _CHUNK):
        ids = circuit.wiring_ids[start : start + _CHUNK]
        angles = circuit.angles[start : start + _CHUNK]
        angles = np.where(flips[ids], -angles, angles).tolist()
        ids = ids.tolist()
        out += [
            head if tail is None else head + angle_text + tail
            for head, tail, angle_text in zip(
                map(heads.__getitem__, ids),
                map(tails.__getitem__, ids),
                map(float.__repr__, angles),
            )
        ]
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
    lines += _statements(circuit, _qsharp_statement, True)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _qsharp_statement(
    kind: GateKind, target: int, controls: tuple[int, ...], angle: str
) -> str:
    qubit = f"qs[{target}]"
    control_list = ", ".join(f"qs[{q}]" for q in controls)
    if kind not in ROTATION_KINDS:
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
    lines += _statements(circuit, _qasm3_statement, True)
    return "\n".join(lines) + "\n"


def _qasm3_statement(
    kind: GateKind, target: int, controls: tuple[int, ...], angle: str
) -> str:
    if kind not in ROTATION_KINDS:
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
    entries = _statements(circuit, _json_entry, False)
    envelope = json.dumps({"version": JSON_IR_VERSION, "n": circuit.n, "gates": []})
    # the envelope ends in the empty gate list "[]}"
    return envelope[:-2] + ", ".join(entries) + envelope[-2:]


def _json_fields(kind: GateKind, target: int, controls: tuple[int, ...]) -> dict:
    # a gate's JSON fields but its angle, in the order emit_json writes them
    return {"kind": kind.value, "target": target, "controls": list(controls)}


def _json_entry(
    kind: GateKind, target: int, controls: tuple[int, ...], angle: str
) -> str:
    entry = json.dumps(_json_fields(kind, target, controls))
    if not angle:
        return entry
    # json.dumps writes a float as its repr, and the angle key comes last
    return f'{entry[:-1]}, "angle": {angle}}}'


def parse_json(text: str | bytes) -> Circuit:
    """Parse circuit JSON produced by ``emit_json``.

    Raises:
        CircuitFormatError: malformed, too deeply nested or undecodable JSON,
        an integer with too many digits, unsupported version, unknown gate
        kind, or fields that violate the gate invariants.
    """
    circuit = _parse_emitted(text)
    return _parse_document(text) if circuit is None else circuit


# The layout emit_json writes: json.dumps's default separators, the keys in
# this order, at least one gate, and every angle in JSON float form (with a
# fraction or an exponent).  Integer tokens are left to json.loads: it reads
# -0 as the int 0, where float() gives -0.0.  "n" is bounded so that int()
# never meets CPython's digit limit.
_EMITTED_HEAD = re.compile(
    rf'\{{"version": {JSON_IR_VERSION}, "n": ([1-9][0-9]{{0,8}}), "gates": \[\{{'
)
_EMITTED_TAIL = "}]}"
_GATE_BREAK = "}, {"
_ANGLE_KEY = ', "angle": '


def _parse_emitted(text: str | bytes) -> Circuit | None:
    """Parse text in ``emit_json``'s exact layout in bulk; None for any other.

    The text may end in one newline, as ``decompose --backend json`` writes
    it.  The gate list is split at "}, {" and each entry partitioned at its
    angle key.  Each distinct (head, angle key) is one wiring, which
    ``_emitted_wirings`` checks once.  The angles are converted by one
    ``parse_floats`` call and normalized as ``check_angle`` normalizes
    them, so the result has the columns and bits the ``json.loads`` path
    returns.  Text this does not prove valid, an invalid one included, gets
    None, and that path raises its error with the gate's index.
    """
    if not isinstance(text, str):
        return None
    stop = len(text) - len(_EMITTED_TAIL) - text.endswith("\n")
    envelope = _EMITTED_HEAD.match(text)
    if envelope is None or not text.startswith(_EMITTED_TAIL, stop):
        return None
    n = int(envelope[1])
    # each (head, angle key) is numbered in order of first use; an entry's
    # head is dropped once numbered, so no more than one is held at a time
    index: dict = {}
    ids = []
    tokens = []
    for entry in text[envelope.end() : stop].split(_GATE_BREAK):
        head, key, token = entry.partition(_ANGLE_KEY)
        ids.append(index.setdefault((head, key), len(index)))
        if key:
            tokens.append(token)
    wirings = _emitted_wirings(list(index))
    if wirings is None:
        return None
    try:
        numbers = ",".join([*tokens, ""]).encode("ascii")
    except UnicodeEncodeError:
        return None
    values = parse_floats(numbers)
    # a token holding a comma reads as two values
    if values is None or values.size != len(tokens) or not np.isfinite(values).all():
        return None
    # an entry has an angle key exactly when its wiring is a rotation's
    ids = np.array(ids, dtype=np.intp)
    rotation = np.array([bool(key) for _, key in index])[ids]
    periods = [TWO_PI if kind is GateKind.FCR1 else FOUR_PI for kind, _, _ in wirings]
    angles = np.full(len(ids), np.nan)
    angles[rotation] = normalize_angles(values, np.array(periods)[ids[rotation]])
    try:
        return Circuit._of_columns(n, wirings, ids, angles)
    except ValueError:
        return None


def _emitted_wirings(heads: list[tuple[str, str]]) -> tuple | None:
    """Each (head, angle key) pair's wiring, in order.

    The key is "" for an entry with no angle, and a rotation's head is read
    with the angle 0.0.  One ``json.loads`` decodes every head, and each
    goes through ``_parse_gate``, so ``Gate`` checks every field of every
    wiring.  None unless ``Gate`` takes each head and each is the text
    ``_json_entry`` writes for its gate, which one ``json.dumps`` checks;
    so the wirings are distinct, as the heads are.
    """
    text = "[" + ", ".join(
        [f"{{{head}{key}0.0}}" if key else f"{{{head}}}" for head, key in heads]
    ) + "]"
    seen: dict = {}
    table: dict = {}
    try:
        docs = decode_json(text, CircuitFormatError)
        for doc in docs:
            _parse_gate(doc, 0, seen, table)
    except CircuitFormatError:
        return None
    wirings = tuple(table)
    if len(wirings) != len(heads):
        return None
    fields = [_json_fields(*wiring) for wiring in wirings]
    for (_, key), entry in zip(heads, fields):
        if key:
            entry["angle"] = 0.0
    # json.dumps writes the fields as _json_entry does, 0.0 as "0.0"
    if json.dumps(fields) != text:
        return None
    return wirings


def _parse_document(text: str | bytes) -> Circuit:
    """``parse_json`` for any JSON layout, through ``json.loads``."""
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
    seen: dict = {}
    table: dict = {}
    gates = [_parse_gate(entry, i, seen, table) for i, entry in enumerate(raw_gates)]
    # numpy reads an X gate's angle None as NaN
    ids = np.array([wiring for wiring, _ in gates], dtype=np.intp)
    angles = np.array([angle for _, angle in gates], dtype=np.float64)
    try:
        return Circuit._of_columns(doc.get("n"), tuple(table), ids, angles)
    except ValueError as exc:
        raise CircuitFormatError(str(exc)) from None


def _parse_gate(
    entry: object, index: int, seen: dict, table: dict
) -> tuple[int, float | None]:
    """One gate's wiring number and normalized angle.

    ``table`` numbers each distinct checked wiring, and ``seen`` maps each
    entry key seen so far to its wiring's number and kind.  The first gate
    of each key is checked by ``Gate``; a later gate of that key reuses its
    checked fields, and only its angle is checked.  JSON's ``true`` equals
    ``1`` and hashes like it, so a key is formed only when the kind is
    exactly a ``str``, the target an ``int`` and the controls a ``list`` of
    ``int``.
    """
    if not isinstance(entry, dict):
        raise CircuitFormatError(f"gate {index}: expected an object")
    kind = entry.get("kind")
    target = entry.get("target")
    controls = entry.get("controls", [])
    angle = entry.get("angle")
    key = None
    if type(kind) is str and type(target) is int and type(controls) is list:
        if all(type(q) is int for q in controls):
            key = (kind, target, *controls)
    known = seen.get(key)
    try:
        if known is None:
            # Gate rejects every entry whose key is None, so None is never
            # stored
            gate = Gate(kind, target, controls, angle)
            wiring = table.setdefault((gate.kind, gate.target, gate.controls), len(table))
            seen[key] = wiring, gate.kind
            return wiring, gate.angle
        wiring, kind = known
        return wiring, check_angle(kind, angle)
    except ValueError as exc:
        raise CircuitFormatError(f"gate {index}: {exc}") from None
