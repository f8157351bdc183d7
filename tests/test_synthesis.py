"""Columnar synthesis against the gate-by-gate reference, and the columns' checks.

``matrix_to_circuit`` builds every chain and X move at once from the block
arrays; ``reference_circuit`` (``tests/reference_synthesis.py``) builds the
same circuit one gate at a time from ``two_level_angles``.  They must agree
gate for gate, angle bits and signed zeros included.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unisynth import (
    Circuit,
    CircuitFormatError,
    Gate,
    GateKind,
    census,
    emit_json,
    haar_random_unitary,
    matrix_to_circuit,
    normalize_angle,
    parse_json,
    save_matrix,
    two_level_angles,
    verify,
)
from unisynth.circuit import FOUR_PI, TWO_PI, normalize_angles
from unisynth.cli import main
from unisynth.emitters import _parse_document, _parse_emitted

from reference_synthesis import gate_bits, reference_circuit
from test_golden import BLOCK_INPUTS


def _assert_equals_reference(matrix, optimize):
    n = len(matrix).bit_length() - 1
    expected = reference_circuit(n, two_level_angles(matrix), optimize)
    assert gate_bits(matrix_to_circuit(matrix, optimize=optimize)) == gate_bits(expected)


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("n", range(1, 8))
def test_synthesis_equals_reference_on_haar_inputs(n, optimize):
    _assert_equals_reference(haar_random_unitary(n, 42), optimize)


def _haar(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _embed(dim, blocks):
    m = np.eye(dim, dtype=np.complex128)
    for start, block in blocks:
        size = len(block)
        m[start : start + size, start : start + size] = block
    return m


def _structured(kind, n, seed):
    """One of six sparse kinds: diagonal phases, controlled-U with a block
    of 2 or 2**3 states, and block-diagonal with blocks of 2, 4 and 8."""
    rng = np.random.default_rng(seed)
    dim = 1 << n
    if kind.startswith("diag"):
        return np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, dim)))
    if kind.startswith("cu"):
        size = 1 << min(1 if kind == "cu0" else 3, n - 1)
        start = size * int(rng.integers(dim // size))
        return _embed(dim, [(start, _haar(rng, size))])
    chunk = min(8, dim // 4)
    chunks = rng.choice(dim // chunk, size=3, replace=False)
    blocks = []
    for c, k in zip(chunks.tolist(), (1, 2, 3)):
        size = min(1 << k, chunk)
        start = chunk * c + size * int(rng.integers(chunk // size))
        blocks.append((start, _haar(rng, size)))
    return _embed(dim, blocks)


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize(
    "kind", ["diag0", "diag1", "cu0", "cu1", "blockdiag0", "blockdiag1"]
)
@pytest.mark.parametrize("n", range(3, 7))
def test_synthesis_equals_reference_on_structured_inputs(n, kind, optimize):
    _assert_equals_reference(_structured(kind, n, 100 * n + len(kind)), optimize)


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("name", ["permutation_n5", "near_diagonal_n5"])
def test_synthesis_equals_reference_on_swap_and_threshold_inputs(name, optimize):
    _assert_equals_reference(BLOCK_INPUTS[name], optimize)


def _drift(rng, size):
    # per entry: no drift, or a signed drift log-uniform in 1e-13..1e-9
    magnitude = 10.0 ** rng.uniform(-13.0, -9.0, size)
    return rng.choice([0.0, -1.0, 1.0], size) * magnitude


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["near_identity_diagonal", "diagonal", "near_identity"]),
    optimize=st.booleans(),
)
def test_synthesis_equals_reference_on_drifted_inputs(n, seed, kind, optimize):
    # phases and moduli drifting by 1e-13..1e-9 put links near the identity
    # tolerance and entries near the zero threshold
    rng = np.random.default_rng(seed)
    dim = 1 << n
    phases = rng.uniform(-np.pi, np.pi, dim) if kind == "diagonal" else 0.0
    u = np.diag((1.0 + _drift(rng, dim)) * np.exp(1j * (phases + _drift(rng, dim))))
    if kind == "near_identity":
        u = u + _drift(rng, (dim, dim)) + 1j * _drift(rng, (dim, dim))
    _assert_equals_reference(u, optimize)


def test_a_theta_zero_block_is_one_rz_then_its_r1():
    # every block of a diagonal input is a phase fix or the corner, theta 0
    u = np.diag(np.exp(1j * np.random.default_rng(3).uniform(-np.pi, np.pi, 8)))
    blocks = two_level_angles(u)
    assert blocks and all(angles[1] == 0 for _, _, angles in blocks)
    for optimize in (True, False):
        counts = census(matrix_to_circuit(u, optimize=optimize))
        assert (counts.ry, counts.rz, counts.r1) == (0, len(blocks), 1)
    assert verify(u, matrix_to_circuit(u)).passed


def _bits(x):
    return struct.pack("<d", x)


def _special_angles(period):
    # signed zeros, odd multiples of period/2 and their float neighbours,
    # the largest magnitudes and subnormals
    out = [0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 2.2e-308, -2.2e-308]
    for k in (1, 3, 5, 7, 2**20 + 1, 2**40 + 1):
        for edge in (k * period / 2.0, -k * period / 2.0):
            out += [edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)]
    return out


@pytest.mark.parametrize("period", [FOUR_PI, TWO_PI], ids=["4pi", "2pi"])
def test_normalize_angles_equals_normalize_angle_on_edge_values(period):
    angles = _special_angles(period)
    got = normalize_angles(np.array(angles), period).tolist()
    assert [_bits(x) for x in got] == [_bits(normalize_angle(a, period)) for a in angles]


_PERIODS = st.sampled_from([FOUR_PI, TWO_PI])
_ANGLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    _PERIODS.flatmap(lambda period: st.sampled_from(_special_angles(period))),
)


@settings(max_examples=300)
@given(st.lists(st.tuples(_ANGLES, _PERIODS), min_size=1, max_size=20))
def test_normalize_angles_equals_normalize_angle_bit_for_bit(cases):
    # one period for all the angles, and one period per angle, as
    # parse_json passes them
    angles = [angle for angle, _ in cases]
    for period in (FOUR_PI, TWO_PI):
        got = normalize_angles(np.array(angles), period).tolist()
        assert [_bits(x) for x in got] == [_bits(normalize_angle(a, period)) for a in angles]
    periods = [period for _, period in cases]
    got = normalize_angles(np.array(angles), np.array(periods)).tolist()
    expected = [normalize_angle(a, p) for a, p in cases]
    assert [_bits(x) for x in got] == [_bits(x) for x in expected]


# An out-of-range qubit is rejected once per wiring, with the message the
# per-gate walk gave: the first gate out of range names its highest qubit
# (3 here at n = 3, not the later X's 5).

_OUT_OF_RANGE = Circuit(
    6,
    (
        Gate(GateKind.FCRY, 0, (1, 2), 0.5),
        Gate(GateKind.X, 1),
        Gate(GateKind.FCRZ, 3, (0, 1, 2), 0.25),
        Gate(GateKind.FCRZ, 3, (0, 1, 2), 0.5),
        Gate(GateKind.X, 5),
    ),
)
_MESSAGE = "gate touches qubit 3 but circuit has n=3"


def test_circuit_rejects_an_out_of_range_qubit_once_per_wiring():
    with pytest.raises(ValueError, match=f"^{_MESSAGE}$"):
        Circuit(3, _OUT_OF_RANGE.gates)
    assert len(_OUT_OF_RANGE.wirings) == 4


def test_both_parse_json_paths_reject_an_out_of_range_qubit():
    assert _parse_emitted(emit_json(_OUT_OF_RANGE)) == _OUT_OF_RANGE
    text = emit_json(_OUT_OF_RANGE).replace('"n": 6', '"n": 3')
    # the bulk path takes no text it does not prove valid
    assert _parse_emitted(text) is None
    for parse in (parse_json, _parse_document):
        with pytest.raises(CircuitFormatError, match=f"^{_MESSAGE}$"):
            parse(text)
    # the same document in another layout takes only the json.loads path
    loose = text.replace(", ", ",")
    assert _parse_emitted(loose) is None
    with pytest.raises(CircuitFormatError, match=f"^{_MESSAGE}$"):
        parse_json(loose)


def test_verify_rejects_an_out_of_range_qubit_as_input_error(tmp_path, capsys):
    matrix = tmp_path / "m.json"
    matrix.write_text(save_matrix(np.eye(8)), encoding="utf-8")
    circuit = tmp_path / "c.json"
    circuit.write_text(emit_json(_OUT_OF_RANGE).replace('"n": 6', '"n": 3'), encoding="utf-8")
    assert main(["verify", "-i", str(matrix), "-c", str(circuit)]) == 2
    assert capsys.readouterr().err == f"error: {circuit}: {_MESSAGE}\n"


def test_parsed_columns_equal_the_emitted_circuit():
    circuit = matrix_to_circuit(haar_random_unitary(3, 5))
    parsed = parse_json(emit_json(circuit))
    assert parsed == circuit == Circuit(3, circuit.gates)
    assert sorted(parsed.wirings) == sorted(circuit.wirings)
    assert parsed.angles.tobytes() == circuit.angles.tobytes()
