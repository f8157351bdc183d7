"""Reference gate simulator and minimal parsers for the three emitted formats.

This is the benchmark's independent check on the program's output, so it
shares no code with ``unisynth``.  Gates are held in the standard convention
of OpenQASM 3 ``stdgates.inc`` and Q#:

    ry(t) = [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]
    rz(t) = diag(exp(-i t/2), exp(i t/2))
    p(t)  = diag(1, exp(i t))
    x     = [[0, 1], [1, 0]]

The JSON interchange format stores the program's own Ry/Rz angles, which are
the negated standard ones, so ``parse_json_circuit`` flips their sign.

``simulate`` forms the product by column operations, last gate first, so its
rounding differs from a row-by-row simulator and a zero Frobenius distance
between the two would be a coincidence.
"""

from __future__ import annotations

import json
import re

import numpy as np

# One gate: (name, target, control_mask, angle); name is x, ry, rz or p and
# angle is None for x.
Gate = tuple


def frobenius_bound(n: int) -> float:
    """The library's documented Frobenius bound for an n-qubit circuit."""
    return 1e-8 if n <= 6 else 1e-6


def gate_block(name: str, angle: float | None) -> np.ndarray:
    if name == "x":
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    half = angle / 2.0
    if name == "ry":
        c, s = np.cos(half), np.sin(half)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if name == "rz":
        return np.array([[np.exp(-1j * half), 0.0], [0.0, np.exp(1j * half)]])
    if name == "p":
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * angle)]])
    raise ValueError(f"unknown gate {name!r}")


def simulate(n: int, gates: list[Gate]) -> np.ndarray:
    """Matrix of the circuit whose gates act in list order (first gate first)."""
    dim = 1 << n
    m = np.eye(dim, dtype=np.complex128, order="F")
    idx = np.arange(dim)
    pairs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    # M = G_k ... G_1 built as ((I G_k) G_{k-1}) ... G_1: right-multiplying
    # by a gate mixes the two columns of each selected pair.
    for name, target, cmask, angle in reversed(gates):
        key = (target, cmask)
        pair = pairs.get(key)
        if pair is None:
            tbit = 1 << target
            c0 = idx[(idx & (cmask | tbit)) == cmask]
            pair = pairs[key] = (c0, c0 | tbit)
        c0, c1 = pair
        a = m[:, c0]
        b = m[:, c1]
        if name == "x":
            m[:, c0] = b
            m[:, c1] = a
            continue
        g = gate_block(name, angle)
        m[:, c0] = a * g[0, 0] + b * g[1, 0]
        m[:, c1] = a * g[0, 1] + b * g[1, 1]
    return np.ascontiguousarray(m)


def _mask(controls) -> int:
    mask = 0
    for q in controls:
        mask |= 1 << q
    return mask


def _checked(n: int, target: int, controls: list[int]) -> tuple[int, int]:
    qubits = [target, *controls]
    if len(set(qubits)) != len(qubits) or not all(0 <= q < n for q in qubits):
        raise ValueError(f"bad qubits: target {target}, controls {controls}")
    return target, _mask(controls)


_JSON_NAMES = {"x": "x", "fcx": "x", "fcry": "ry", "fcrz": "rz", "fcr1": "p"}


def parse_json_circuit(text: str) -> tuple[int, list[Gate]]:
    doc = json.loads(text)
    if doc.get("version") != 1:
        raise ValueError(f"unsupported version {doc.get('version')!r}")
    n = doc["n"]
    gates = []
    for entry in doc["gates"]:
        name = _JSON_NAMES[entry["kind"]]
        target, cmask = _checked(n, entry["target"], entry["controls"])
        if entry["kind"] == "x" and cmask:
            raise ValueError("kind 'x' takes no controls")
        angle = None
        if name != "x":
            angle = float(entry["angle"])
            if name != "p":
                angle = -angle
        gates.append((name, target, cmask, angle))
    return n, gates


_QASM_GATE = re.compile(
    r"(ctrl(?:\((\d+)\))? @ )?(x|ry|rz|p)(?:\(([^()]+)\))? ((?:q\[\d+\], )*q\[\d+\]);"
)
_QASM_HEADER = re.compile(r'OPENQASM 3\.0;|include "stdgates\.inc";|//.*|qubit\[(\d+)\] q;')


def parse_qasm3(text: str) -> tuple[int, list[Gate]]:
    n = None
    gates = []
    for line in text.splitlines():
        head = _QASM_HEADER.fullmatch(line)
        if head:
            if head.group(1):
                n = int(head.group(1))
            continue
        match = _QASM_GATE.fullmatch(line)
        if match is None or n is None:
            raise ValueError(f"unrecognised QASM line: {line!r}")
        modifier, count, name, angle, operands = match.groups()
        qubits = [int(q) for q in re.findall(r"q\[(\d+)\]", operands)]
        declared = 0 if modifier is None else int(count or 1)
        if len(qubits) != declared + 1 or (name == "x") != (angle is None):
            raise ValueError(f"malformed QASM gate: {line!r}")
        target, cmask = _checked(n, qubits[-1], qubits[:-1])
        gates.append((name, target, cmask, None if angle is None else float(angle)))
    if n is None:
        raise ValueError("no qubit declaration")
    return n, gates


_QS_NAMES = {"X": "x", "Ry": "ry", "Rz": "rz", "R1": "p"}
_QS_CONTROLLED = re.compile(
    r"Controlled (X|Ry|Rz|R1)\(\[((?:qs\[\d+\], )*qs\[\d+\])\], "
    r"(?:qs\[(\d+)\]|\(([^(),]+), qs\[(\d+)\]\))\);"
)
_QS_PLAIN = re.compile(r"(X|Ry|Rz|R1)\((?:([^(),]+), )?qs\[(\d+)\]\);")


def parse_qsharp(text: str, n: int) -> list[Gate]:
    """Gates of the single operation in ``text``; ``n`` is the register size."""
    lines = text.splitlines()
    if len(lines) < 3 or not lines[1].startswith("operation ") or lines[-1] != "}":
        raise ValueError("not a single Q# operation")
    gates = []
    for line in lines[2:-1]:
        stmt = line.strip()
        match = _QS_CONTROLLED.fullmatch(stmt)
        if match:
            op, controls, x_target, angle, r_target = match.groups()
            controls = [int(q) for q in re.findall(r"qs\[(\d+)\]", controls)]
            target = x_target if op == "X" else r_target
        else:
            match = _QS_PLAIN.fullmatch(stmt)
            if match is None:
                raise ValueError(f"unrecognised Q# statement: {stmt!r}")
            op, angle, target = match.groups()
            controls = []
        if target is None or (op == "X") != (angle is None):
            raise ValueError(f"malformed Q# statement: {stmt!r}")
        target, cmask = _checked(n, int(target), controls)
        gates.append((_QS_NAMES[op], target, cmask, None if angle is None else float(angle)))
    return gates


def parse_output(backend: str, text: str, n: int) -> list[Gate]:
    """Gates of an emitted circuit on ``n`` qubits in the named backend format."""
    if backend == "qsharp":
        return parse_qsharp(text, n)
    parsed_n, gates = parse_json_circuit(text) if backend == "json" else parse_qasm3(text)
    if parsed_n != n:
        raise ValueError(f"circuit has {parsed_n} qubits, expected {n}")
    return gates
