"""Backend emission: Q#, OpenQASM 3, JSON round-trip, angle conventions.

The convention checks compare against backend gate semantics hard-coded
here from the Q# and stdgates definitions (ry/rz are exp(-i theta sigma/2),
p and R1 are diag(1, e^{i theta})), independent of the IR's rotation
constructors in ``masked_simulator.py``.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unisynth import (
    Circuit,
    CircuitFormatError,
    Gate,
    GateKind,
    circuit_matrix,
    emit_json,
    emit_qasm3,
    emit_qsharp,
    haar_random_unitary,
    matrix_to_circuit,
    parse_json,
)

from conftest import random_circuit
from masked_simulator import gate_block


def backend_ry(theta):
    h = theta / 2.0
    return np.array([[math.cos(h), -math.sin(h)], [math.sin(h), math.cos(h)]])


def backend_rz(theta):
    h = theta / 2.0
    return np.diag([np.exp(-1j * h), np.exp(1j * h)])


def backend_p(theta):
    return np.diag([1.0, np.exp(1j * theta)])


# ---------------------------------------------------------------- Q# ------


def test_qsharp_empty_circuit_has_no_statements():
    text = emit_qsharp(Circuit(1, ()))
    assert "operation ApplyUnitary(qs : Qubit[]) : Unit is Adj + Ctl {" in text
    statements = [ln for ln in text.splitlines() if ln.strip().endswith(";")]
    assert statements == []


def test_qsharp_single_x():
    text = emit_qsharp(Circuit(1, (Gate(GateKind.X, 0),)))
    statements = [ln.strip() for ln in text.splitlines() if ln.strip().endswith(";")]
    assert statements == ["X(qs[0]);"]


def test_qsharp_controlled_forms():
    c = Circuit(
        3,
        (
            Gate(GateKind.FCX, 0, (1, 2)),
            Gate(GateKind.FCRY, 1, (0, 2), 1.5),
            Gate(GateKind.FCR1, 2, (0, 1), 0.25),
        ),
    )
    text = emit_qsharp(c)
    assert "Controlled X([qs[1], qs[2]], qs[0]);" in text
    assert "Controlled Ry([qs[0], qs[2]], (-1.5, qs[1]));" in text
    assert "Controlled R1([qs[0], qs[1]], (0.25, qs[2]));" in text


def test_qsharp_uncontrolled_rotation_form():
    text = emit_qsharp(Circuit(1, (Gate(GateKind.FCRZ, 0, (), 0.5),)))
    assert "Rz(-0.5, qs[0]);" in text


def test_qsharp_statement_count_matches_census():
    circuit = matrix_to_circuit(haar_random_unitary(2, 42))
    text = emit_qsharp(circuit)
    statements = [ln for ln in text.splitlines() if ln.strip().endswith(";")]
    assert len(statements) == len(circuit.gates) == 21
    assert sum("Controlled Ry(" in ln for ln in statements) == 6
    assert sum("Controlled Rz(" in ln for ln in statements) == 12
    assert sum("Controlled R1(" in ln for ln in statements) == 1
    assert sum(ln.strip().startswith("X(") for ln in statements) == 2


def test_qsharp_rejects_bad_operation_name():
    with pytest.raises(ValueError):
        emit_qsharp(Circuit(1, ()), operation_name="123abc")
    with pytest.raises(ValueError):
        emit_qsharp(Circuit(1, ()), operation_name="has space")
    # a trailing newline once passed and broke the operation header
    with pytest.raises(ValueError):
        emit_qsharp(Circuit(1, ()), operation_name="Foo\n")


def test_qsharp_rejects_operation_names_the_emitted_code_uses():
    # an operation named X would call itself from its own body
    taken = "X Ry Rz R1 Controlled qs operation is Adj Ctl Unit Qubit".split()
    for name in taken:
        with pytest.raises(ValueError, match="used by the emitted code"):
            emit_qsharp(Circuit(1, (Gate(GateKind.X, 0),)), operation_name=name)
    # a Q# reserved word does not parse as an operation name
    for name in ("let", "use", "body", "Adjoint", "true", "_"):
        with pytest.raises(ValueError, match="is a Q# reserved word"):
            emit_qsharp(Circuit(1, ()), operation_name=name)
    for name in ("Rx", "XGate", "Operation", "Let", "uses", "_body"):
        assert f"operation {name}(" in emit_qsharp(Circuit(1, ()), operation_name=name)


def test_qsharp_deterministic():
    c = matrix_to_circuit(haar_random_unitary(3, 5))
    assert emit_qsharp(c) == emit_qsharp(c)


# ------------------------------------------------------------- QASM 3 -----


def test_qasm3_header_and_empty_body():
    text = emit_qasm3(Circuit(2, ()))
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 3.0;"
    assert lines[1] == 'include "stdgates.inc";'
    assert "qubit[2] q;" in lines
    assert not any(re.match(r"^\s*(x|ry|rz|p|ctrl)", ln) for ln in lines)


def test_qasm3_gate_forms():
    c = Circuit(
        3,
        (
            Gate(GateKind.X, 2),
            Gate(GateKind.FCX, 0, (1,)),
            Gate(GateKind.FCR1, 1, (0,), math.pi),
            Gate(GateKind.FCRY, 0, (1, 2), 1.5),
        ),
    )
    text = emit_qasm3(c)
    assert "x q[2];" in text
    assert "ctrl @ x q[1], q[0];" in text
    assert "ctrl @ p(3.141592653589793) q[0], q[1];" in text
    assert "ctrl(2) @ ry(-1.5) q[1], q[2], q[0];" in text


def test_qasm3_uncontrolled_rotation():
    text = emit_qasm3(Circuit(1, (Gate(GateKind.FCRY, 0, (), 2.0),)))
    assert "ry(-2.0) q[0];" in text


def test_qasm3_deterministic():
    c = matrix_to_circuit(haar_random_unitary(3, 5))
    assert emit_qasm3(c) == emit_qasm3(c)


_QASM_GATE_RE = re.compile(
    r"^(?:ctrl(?:\((\d+)\))? @ )?(x|ry|rz|p)(?:\(([^)]+)\))? (.+);$"
)


def parse_qasm3(text):
    """Minimal reader for the emitted subset, returning an IR circuit."""
    n = None
    gates = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(("OPENQASM", "include", "//")):
            continue
        decl = re.match(r"^qubit\[(\d+)\] q;$", line)
        if decl:
            n = int(decl.group(1))
            continue
        m = _QASM_GATE_RE.match(line)
        assert m, f"unparsed line: {line!r}"
        _, name, angle_text, operand_text = m.group(1), m.group(2), m.group(3), m.group(4)
        operands = [int(q) for q in re.findall(r"q\[(\d+)\]", operand_text)]
        controls, target = tuple(operands[:-1]), operands[-1]
        if name == "x":
            kind = GateKind.FCX if controls else GateKind.X
            gates.append(Gate(kind, target, controls))
            continue
        angle = float(angle_text)
        if name == "ry":
            gates.append(Gate(GateKind.FCRY, target, controls, -angle))
        elif name == "rz":
            gates.append(Gate(GateKind.FCRZ, target, controls, -angle))
        else:
            gates.append(Gate(GateKind.FCR1, target, controls, angle))
    assert n is not None
    return Circuit(n, tuple(gates))


def test_qasm3_parse_back_reproduces_matrix():
    a = haar_random_unitary(3, 7)
    circuit = matrix_to_circuit(a)
    recovered = parse_qasm3(emit_qasm3(circuit))
    assert np.linalg.norm(circuit_matrix(recovered) - a) <= 1e-10


def test_qasm3_parse_back_is_exact_on_gates():
    # full-precision angles survive the text round trip bit for bit
    c = matrix_to_circuit(haar_random_unitary(2, 9))
    assert parse_qasm3(emit_qasm3(c)) == c


# ------------------------------------------------------- conventions ------


@pytest.mark.parametrize(
    "kind,backend",
    [(GateKind.FCRY, backend_ry), (GateKind.FCRZ, backend_rz), (GateKind.FCR1, backend_p)],
)
def test_emitted_angles_compensate_convention_gap(kind, backend):
    rng = np.random.default_rng(41)
    for _ in range(10):
        angle = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        gate = Gate(kind, 0, (), angle)
        line = emit_qasm3(Circuit(1, (gate,))).splitlines()[-1]
        emitted = float(re.search(r"\(([-0-9.e+]+)\)", line).group(1))
        assert np.abs(backend(emitted) - gate_block(gate)).max() <= 1e-12


def test_qsharp_emitted_angles_compensate_convention_gap():
    rng = np.random.default_rng(43)
    names = {GateKind.FCRY: ("Ry", backend_ry), GateKind.FCRZ: ("Rz", backend_rz), GateKind.FCR1: ("R1", backend_p)}
    for kind, (name, backend) in names.items():
        angle = float(rng.uniform(-math.pi, math.pi))
        gate = Gate(kind, 0, (), angle)
        text = emit_qsharp(Circuit(1, (gate,)))
        emitted = float(
            re.search(rf"{name}\(([-0-9.e+]+), qs\[0\]\);", text).group(1)
        )
        assert np.abs(backend(emitted) - gate_block(gate)).max() <= 1e-12


# --------------------------------------------------------------- JSON -----


def test_json_empty_circuit_document():
    doc = json.loads(emit_json(Circuit(1, ())))
    assert doc == {"version": 1, "n": 1, "gates": []}


def test_json_gate_fields():
    c = Circuit(2, (Gate(GateKind.FCRY, 0, (1,), 1.25), Gate(GateKind.X, 1)))
    doc = json.loads(emit_json(c))
    assert doc["gates"][0] == {
        "kind": "fcry",
        "target": 0,
        "controls": [1],
        "angle": 1.25,
    }
    assert doc["gates"][1] == {"kind": "x", "target": 1, "controls": []}


def test_json_round_trip_equality():
    rng = np.random.default_rng(47)
    for n in (1, 3):
        c = random_circuit(rng, n, 100)
        assert parse_json(emit_json(c)) == c


def test_json_round_trip_on_pipeline_output():
    c = matrix_to_circuit(haar_random_unitary(3, 11))
    assert parse_json(emit_json(c)) == c


def test_json_deterministic():
    c = matrix_to_circuit(haar_random_unitary(2, 11))
    assert emit_json(c) == emit_json(c)


def test_parse_json_rejects_unknown_kind():
    text = '{"version": 1, "n": 1, "gates": [{"kind": "h", "target": 0, "controls": []}]}'
    with pytest.raises(CircuitFormatError, match="unknown kind"):
        parse_json(text)


def test_parse_json_rejects_bad_version():
    with pytest.raises(CircuitFormatError, match="version"):
        parse_json('{"version": 2, "n": 1, "gates": []}')


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "expected a JSON object at top level"),
        ('{"version": 1, "n": "1", "gates": []}',
         "qubit count must be a positive integer, got '1'"),
        ('{"version": 1, "n": 1, "gates": {}}', '"gates" must be an array'),
        ('{"version": 1, "n": 1, "gates": [1]}', "gate 0: expected an object"),
        ('{"version": 1, "n": 1, "gates": [{"kind": "x", "target": 0, "controls": ""}]}',
         "gate 0: controls must be a tuple or list, got ''"),
        ('{"version": 1, "n": 1, "gates": [{"kind": "x", "target": 0, "controls": {}}]}',
         "gate 0: controls must be a tuple or list, got {}"),
        ('{"version": 1, "n": 1, "gates": [{"kind": "x", "target": 0, "controls": null}]}',
         "gate 0: controls must be a tuple or list, got None"),
    ],
    ids=["array", "string-n", "gates-object", "gate-number", "string-controls",
         "object-controls", "null-controls"],
)
def test_parse_json_rejects_a_wrong_document_structure(text, message):
    with pytest.raises(CircuitFormatError) as excinfo:
        parse_json(text)
    assert type(excinfo.value) is CircuitFormatError
    assert str(excinfo.value) == message


def test_parse_json_rejects_malformed_text():
    with pytest.raises(CircuitFormatError, match="line"):
        parse_json("[1, 2")


def test_parse_json_rejects_missing_angle():
    text = '{"version": 1, "n": 1, "gates": [{"kind": "fcry", "target": 0, "controls": []}]}'
    with pytest.raises(CircuitFormatError, match="angle"):
        parse_json(text)


def test_parse_json_rejects_out_of_range_qubits():
    text = '{"version": 1, "n": 1, "gates": [{"kind": "x", "target": 1, "controls": []}]}'
    with pytest.raises(CircuitFormatError):
        parse_json(text)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_parse_json_rejects_non_finite_angle(token):
    text = (
        '{"version": 1, "n": 1, "gates": [{"kind": "fcrz", "target": 0, '
        f'"controls": [], "angle": {token}}}]}}'
    )
    with pytest.raises(CircuitFormatError, match="finite"):
        parse_json(text)


def test_parse_json_rejects_angle_too_large_for_a_float():
    text = (
        '{"version": 1, "n": 1, "gates": [{"kind": "fcry", "target": 0, '
        f'"controls": [], "angle": 1{"0" * 400}}}]}}'
    )
    with pytest.raises(CircuitFormatError, match="too large"):
        parse_json(text)


@pytest.mark.parametrize("token", ["true", "false"])
def test_parse_json_rejects_boolean_angle(token):
    text = (
        '{"version": 1, "n": 1, "gates": [{"kind": "fcry", "target": 0, '
        f'"controls": [], "angle": {token}}}]}}'
    )
    with pytest.raises(CircuitFormatError, match="angle must be a real number"):
        parse_json(text)


# A parsed document's wirings are checked once each; a later gate must not
# slip past a check because its fields compare equal to an earlier valid one
# (JSON's true == 1 == 1.0, with equal hashes).

_VALID_FIRST = '{"kind": "fcry", "target": 0, "controls": [1], "angle": 0.5}'


@pytest.mark.parametrize(
    "second, message",
    [
        ('{"kind": "fcry", "target": 0, "controls": [true], "angle": 0.5}',
         "gate 1: qubit index must be an integer, got True"),
        ('{"kind": "fcry", "target": 0, "controls": [1.0], "angle": 0.5}',
         "gate 1: qubit index must be an integer, got 1.0"),
        ('{"kind": "fcry", "target": 0, "controls": [1, 1], "angle": 0.5}',
         "gate 1: duplicate control qubits: (1, 1)"),
        ('{"kind": "fcry", "target": 0, "controls": [-1], "angle": 0.5}',
         "gate 1: qubit index must be nonnegative, got -1"),
        ('{"kind": "fcry", "target": 1, "controls": [1], "angle": 0.5}',
         "gate 1: target 1 appears in controls"),
        ('{"kind": "x", "target": 0, "controls": [1]}',
         "gate 1: kind 'x' takes no controls; use 'fcx'"),
        ('{"kind": "fcry", "target": 0, "controls": [1], "angle": true}',
         "gate 1: angle must be a real number, got True"),
        ('{"kind": "fcry", "target": 0, "controls": [1]}',
         "gate 1: kind 'fcry' requires an angle"),
        ('{"kind": "fcry", "target": 0, "controls": [1], "angle": NaN}',
         "gate 1: angle must be finite, got nan"),
    ],
)
def test_parse_json_checks_each_gate_after_a_valid_equal_wiring(second, message):
    text = f'{{"version": 1, "n": 2, "gates": [{_VALID_FIRST}, {second}]}}'
    with pytest.raises(CircuitFormatError, match=f"^{re.escape(message)}$"):
        parse_json(text)


def test_parse_json_rejects_boolean_target_after_integer_target():
    first = '{"kind": "fcx", "target": 1, "controls": [0]}'
    second = '{"kind": "fcx", "target": true, "controls": [0]}'
    text = f'{{"version": 1, "n": 2, "gates": [{first}, {second}]}}'
    with pytest.raises(CircuitFormatError, match="^gate 1: qubit index must be an integer, got True$"):
        parse_json(text)


def test_parse_json_shares_nothing_between_documents():
    valid = f'{{"version": 1, "n": 2, "gates": [{_VALID_FIRST}]}}'
    parse_json(valid)
    bad = valid.replace('"controls": [1]', '"controls": [true]')
    with pytest.raises(CircuitFormatError, match="qubit index must be an integer"):
        parse_json(bad)


def test_parse_json_sorts_controls_of_a_repeated_wiring():
    gate = '{"kind": "fcx", "target": 0, "controls": [2, 1]}'
    c = parse_json(f'{{"version": 1, "n": 3, "gates": [{gate}, {gate}]}}')
    assert [g.controls for g in c.gates] == [(1, 2), (1, 2)]


def _equal_to(q):
    # the JSON values that compare equal to the integer q
    return st.sampled_from([q, float(q), *([bool(q)] if q in (0, 1) else [])])


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=2)
)
_JSON_VALUES = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=2),
    st.dictionaries(st.text(max_size=1), _JSON_SCALARS, max_size=1),
)


@st.composite
def _twin_entries(draw):
    # a valid gate on 3 qubits, and an entry whose wiring fields compare
    # equal to the gate's, each an int, a float or a bool, with any angle
    kind = draw(st.sampled_from([k.value for k in GateKind]))
    target = draw(st.integers(0, 2))
    others = [q for q in range(3) if q != target]
    controls = [] if kind == "x" else draw(st.lists(st.sampled_from(others), unique=True))
    valid = {"kind": kind, "target": target, "controls": controls}
    if kind != "x" and kind != "fcx":
        valid["angle"] = 0.5
    entry = {"kind": kind, "target": draw(_equal_to(target))}
    if controls or draw(st.booleans()):
        entry["controls"] = [draw(_equal_to(q)) for q in controls]
    if draw(st.booleans()):
        entry["angle"] = draw(_JSON_VALUES)
    return valid, entry


def _last_gate(gates):
    text = json.dumps({"version": 1, "n": 3, "gates": gates})
    try:
        return parse_json(text).gates[-1]
    except CircuitFormatError:
        return None


@settings(max_examples=300, deadline=None)
@given(_twin_entries())
def test_parse_json_judges_an_entry_alike_alone_and_after_an_equal_wiring(twin):
    # a later gate of a seen wiring skips the wiring checks, so it must be
    # accepted or rejected, and built, exactly as the same entry alone
    valid, entry = twin
    assert _last_gate([valid]) is not None
    assert _last_gate([valid, entry]) == _last_gate([entry])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_json_round_trip_on_random_circuits(n):
    rng = np.random.default_rng(900 + n)
    for length in (0, 1, 300):
        c = random_circuit(rng, n, length)
        assert parse_json(emit_json(c)) == c
