"""Matrix utilities: validation, Haar sampling, file format."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unisynth import (
    CircuitFormatError,
    DimensionError,
    MatrixFormatError,
    UnitarityError,
    haar_random_unitary,
    load_matrix,
    num_qubits,
    parse_json,
    save_matrix,
    validate_unitary,
)
from unisynth.matrix import (
    _load_json,
    _load_saved,
    default_unitarity_tol,
    unitarity_residual,
)

from conftest import CNOT


def test_is_unitary_identity():
    assert unitarity_residual(np.eye(4)) == 0.0


def test_is_unitary_cnot():
    assert unitarity_residual(CNOT) == 0.0


def test_is_unitary_rejects_scaled_entry():
    # M†M - I has the single nonzero entry |2|^2 - 1
    m = np.eye(4, dtype=complex)
    m[0, 0] = 2.0
    assert unitarity_residual(m) == 3.0


def test_is_unitary_non_square_raises():
    with pytest.raises(DimensionError):
        unitarity_residual(np.ones((2, 3)))


def test_validate_unitary_returns_complex_copy():
    m = np.eye(2)
    out = validate_unitary(m)
    assert out.dtype == np.complex128
    out[0, 0] = 0.5
    assert m[0, 0] == 1.0


def test_validate_unitary_rejects_non_power_of_two():
    with pytest.raises(DimensionError):
        validate_unitary(np.eye(3))


def test_default_unitarity_tol_scales_with_dimension():
    assert default_unitarity_tol(4) == pytest.approx(4e-8)


@pytest.mark.parametrize("dim,n", [(2, 1), (4, 2), (8, 3), (512, 9)])
def test_num_qubits(dim, n):
    assert num_qubits(dim) == n


@pytest.mark.parametrize("dim", [0, 1, 3, 6, 12, 1024])
def test_num_qubits_rejects_bad_dimensions(dim):
    with pytest.raises(DimensionError):
        num_qubits(dim)


def test_haar_deterministic_in_seed():
    a = haar_random_unitary(2, 42)
    b = haar_random_unitary(2, 42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, haar_random_unitary(2, 43))


@pytest.mark.parametrize("n", range(1, 7))
def test_haar_unitary_over_many_seeds(n):
    dim = 1 << n
    for seed in range(100):
        u = haar_random_unitary(n, seed)
        assert u.shape == (dim, dim)
        assert unitarity_residual(u) <= default_unitarity_tol(dim)


@pytest.mark.parametrize("n", [0, -1, 10])
def test_haar_rejects_out_of_range_qubit_counts(n):
    with pytest.raises(ValueError):
        haar_random_unitary(n, 0)


def test_haar_determinant_on_unit_circle():
    u = haar_random_unitary(1, 1)
    assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-10


def test_save_load_round_trip_is_bitwise():
    u = haar_random_unitary(3, 5)
    assert np.array_equal(load_matrix(save_matrix(u)), u)


def test_load_minimal_identity_document():
    text = '{"n": 1, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}'
    assert np.array_equal(load_matrix(text), np.eye(2))


def test_load_accepts_bytes():
    data = save_matrix(np.eye(2)).encode()
    assert np.array_equal(load_matrix(data), np.eye(2))


def test_load_rejects_malformed_json_with_position():
    with pytest.raises(MatrixFormatError, match="line 1"):
        load_matrix("{not json")


def test_load_rejects_non_pair_entries():
    with pytest.raises(MatrixFormatError, match="entry"):
        load_matrix('{"n": 1, "matrix": [[1.0, 0.0], [0.0, 1.0]]}')


def test_load_rejects_three_by_three():
    rows = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(3)] for i in range(3)]
    with pytest.raises(DimensionError):
        load_matrix(json.dumps({"n": 2, "matrix": rows}))


def test_load_rejects_inconsistent_n():
    text = '{"n": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}'
    with pytest.raises(DimensionError, match='"n"'):
        load_matrix(text)


def test_load_rejects_ragged_rows():
    text = '{"n": 1, "matrix": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}'
    with pytest.raises(DimensionError, match="row 0"):
        load_matrix(text)


def test_load_returns_non_unitary_matrix_unchanged():
    # load_matrix only parses; matrix_to_circuit and the verify command check
    # unitarity
    text = '{"n": 1, "matrix": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]}'
    loaded = load_matrix(text)
    assert loaded.dtype == np.complex128
    assert np.array_equal(loaded, 2 * np.eye(2))


def _with_entry(value):
    m = np.eye(2, dtype=complex)
    m[0, 1] = value
    return m


@pytest.mark.parametrize(
    "matrix",
    [
        np.full((4, 4), np.nan),
        _with_entry(np.inf),
        _with_entry(complex(0.0, np.nan)),
    ],
)
def test_validate_unitary_rejects_non_finite_entries(matrix):
    with pytest.raises(UnitarityError, match="NaN or infinite"):
        validate_unitary(matrix)
    # a large tolerance does not let it through either
    with pytest.raises(UnitarityError):
        validate_unitary(matrix, tol=1e300)


@pytest.mark.parametrize(
    "matrix, residual",
    [
        (np.diag([1e154, 1e154]), "inf"),
        (np.diag([1e155, 1e155]), "nan"),
        (np.diag([1e200, 1e200]), "nan"),
        (np.array([[1e200 + 1e200j, 0], [0, 1]]), "nan"),
    ],
    ids=["1e154-inf", "1e155", "1e200", "1e200-complex"],
)
def test_validate_unitary_rejects_a_residual_that_overflows(matrix, residual):
    # finite entries whose M†M overflows: a NaN residual compares False in
    # "residual > tol" too, so it must fail "residual <= tol", and numpy's
    # overflow warnings stay inside
    message = f"matrix is not unitary: Frobenius residual {residual} exceeds 2.000e-08"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnitarityError) as excinfo:
            validate_unitary(matrix)
        assert str(excinfo.value) == message
        with pytest.raises(UnitarityError):
            validate_unitary(matrix, tol=1e300)
        with pytest.raises(UnitarityError):
            save_matrix(matrix)


def test_validate_unitary_rejects_a_non_square_matrix():
    with pytest.raises(DimensionError) as excinfo:
        validate_unitary(np.ones((2, 4)))
    assert str(excinfo.value) == "expected a square matrix, got shape (2, 4)"


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", 'expected an object with "n" and "matrix" keys'),
        (
            '{"n": true, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
            '"n" must be an integer',
        ),
        ('{"n": 1, "matrix": [1, 2]}', '"matrix" must be an array of rows'),
    ],
    ids=["array", "boolean-n", "rows-not-arrays"],
)
def test_load_rejects_a_wrong_document_structure(text, message):
    with pytest.raises(MatrixFormatError) as excinfo:
        load_matrix(text)
    assert type(excinfo.value) is MatrixFormatError
    assert str(excinfo.value) == message


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_validate_unitary_rejects_bad_tolerance(tol):
    # a NaN tolerance would otherwise accept any matrix: residual > nan is False
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        validate_unitary(np.full((2, 2), 5.0), tol)


def _identity_doc(entry01):
    return f'{{"n": 1, "matrix": [[[1, 0], {entry01}], [[0, 0], [1, 0]]]}}'


@pytest.mark.parametrize("entry", ["[true, 0]", "[0, false]", '["0", 0]', "[0, null]"])
def test_load_rejects_non_number_parts(entry):
    with pytest.raises(MatrixFormatError, match=r"entry \(0, 1\)"):
        load_matrix(_identity_doc(entry))


def test_load_rejects_integer_too_large_for_a_float():
    with pytest.raises(MatrixFormatError, match="too large"):
        load_matrix(_identity_doc(f"[1{'0' * 400}, 0]"))


def test_load_integer_and_float_entries_match_complex():
    values = [[1, 0], [0, -0.0], [0, 0.0], [-1, 0]]
    text = json.dumps({"n": 1, "matrix": [values[:2], values[2:]]})
    expected = np.array([[complex(*v) for v in values[:2]], [complex(*v) for v in values[2:]]])
    loaded = load_matrix(text)
    assert loaded.dtype == np.complex128
    # bitwise, signed zeros included
    assert loaded.tobytes() == expected.tobytes()


def test_load_rejects_huge_qubit_count_without_building_it():
    with pytest.raises(DimensionError, match='"n" is 1000000000000'):
        load_matrix('{"n": 1000000000000, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}')


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 1', "^invalid JSON at line 1 column 8: Expecting ',' delimiter$"),
        ("\n  [1,]", "^invalid JSON at line 2 column 6: Expecting value$"),
        ("[" * 100_000, "^JSON is nested too deeply$"),
        (
            b"\xff\xfe\x00",
            "^cannot decode text: 'utf-16-le' codec can't decode byte 0x00 "
            "in position 2: truncated data$",
        ),
    ],
    ids=["truncated", "trailing-comma", "deep", "not-unicode"],
)
def test_matrix_and_circuit_parsers_report_bad_json_alike(text, message):
    with pytest.raises(MatrixFormatError, match=message):
        load_matrix(text)
    with pytest.raises(CircuitFormatError, match=message):
        parse_json(text)


# ------------------------------------------------ bulk path for saved text -----

@st.composite
def _float_spellings(draw):
    """A JSON number with a fraction, an exponent or both, in any spelling."""
    token = draw(st.sampled_from(["", "-"])) + str(draw(st.integers(0, 10**20)))
    fraction, exponent = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    if fraction:
        token += "." + draw(st.text("0123456789", min_size=1, max_size=24))
    if exponent:
        token += draw(st.sampled_from(["e", "E", "e-", "E+", "e+"]))
        token += str(draw(st.integers(0, 999)))
    return token


# JSON float tokens: shortest reprs, 17 digits included, and other
# spellings, overflowing and underflowing ones too
_FLOAT_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    _float_spellings(),
    st.sampled_from(
        ["-0.0", "5e-324", "-5e-324", "0.30000000000000004", "1e-05", "1E+300", "1e400"]
    ),
)
# json.loads reads integers, but not with float(): -0 is the int 0, where
# float() gives -0.0.  It reads NaN and Infinity too; the rest are not JSON
# numbers, although float() reads most of them.
_OTHER_TOKENS = [
    "0", "-0", "7", "NaN", "-Infinity", "1.", ".5", "+1.0", "1e", "01.0", "1_0.0", "1\u0661.0"
]

# each document has at most one departure from the saved layout
_DEFECTS = ["none"] * 10 + ["token"] * 4 + [
    "ragged", "rows", "n", "n10", "newline", "compact", "pretty",
    "keys", "extra", "cut", "bytes", "text", "binary",
]


@st.composite
def _matrix_texts(draw):
    """Text in the saved layout, or with one departure from it."""
    defect = draw(st.sampled_from(_DEFECTS))
    if defect == "text":
        return draw(st.text())
    if defect == "binary":
        return draw(st.binary())
    n = draw(st.integers(1, 2))
    dim = 1 << n
    tokens = [draw(_FLOAT_TOKENS) for _ in range(2 * dim * dim)]
    if defect == "token":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_OTHER_TOKENS))
    pairs = [f"[{re}, {im}]" for re, im in zip(tokens[::2], tokens[1::2])]
    rows = [pairs[i : i + dim] for i in range(0, len(pairs), dim)]
    if defect in ("ragged", "rows"):
        # one pair or one row too many or too few
        changed = rows[draw(st.integers(0, dim - 1))] if defect == "ragged" else rows
        if draw(st.booleans()):
            changed.append(changed[0])
        else:
            changed.pop()
    matrix = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    header = str(n)
    if defect == "n":
        header = str(n + draw(st.sampled_from([-1, 1])))
    if defect == "n10":
        header = "10"
    text = f'{{"n": {header}, "matrix": {matrix}}}'
    if defect == "newline":
        return text + "\n"
    if defect == "compact":
        return text.replace(", ", ",").replace(": ", ":")
    if defect == "pretty":
        return text.replace("]], [[", "]],\n  [[")
    if defect == "keys":
        return f'{{"matrix": {matrix}, "n": {header}}}'
    if defect == "extra":
        return text[:-1] + ', "note": 1}'
    if defect == "cut":
        return text[: draw(st.integers(0, len(text) - 1))]
    if defect == "bytes":
        return text.encode()
    return text


def _outcome(parse, text):
    """The array's shape and bytes, or the exception's type and message."""
    try:
        m = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return m.dtype, m.shape, m.tobytes()


@settings(max_examples=300, deadline=None)
@given(_matrix_texts())
def test_load_matrix_is_bit_identical_to_the_json_path(text):
    # the bulk path either yields the json.loads path's bits, signed zeros
    # included, or declines, and then the same error comes out
    assert _outcome(load_matrix, text) == _outcome(_load_json, text)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_saved_layout_is_parsed_in_bulk(n):
    rng = np.random.default_rng(n)
    m = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 1 << n)))
    m[0, 1] = complex(-0.0, -0.0)
    m[1, 0] = complex(0.0, -0.0)
    text = save_matrix(m)
    bulk = _load_saved(text)
    assert bulk is not None
    assert bulk.tobytes() == m.tobytes()


_SAVED_I = '{"n": 1, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}'


@pytest.mark.parametrize(
    "text",
    [
        _SAVED_I.encode(),
        _SAVED_I + "\n",
        _SAVED_I.replace("]], [[", "]],\n [["),
        _SAVED_I.replace('"n": 1, ', "")[:-1] + ', "n": 1}',
        _SAVED_I.replace("1.0, 0.0]]]", "1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]"),
        _SAVED_I.replace("[1.0, 0.0]]]", "[1.0, 0.0], [0.0, 0.0]]]"),
        _SAVED_I.replace('"n": 1', '"n": 2'),
    ],
    ids=["bytes", "newline", "pretty", "key-order", "extra-row", "ragged", "wrong-n"],
)
def test_other_layouts_go_to_the_json_path(text):
    assert _load_saved(_SAVED_I) is not None
    assert _load_saved(text) is None


@pytest.mark.parametrize("token", _OTHER_TOKENS)
def test_tokens_not_in_json_float_form_go_to_the_json_path(token):
    assert _load_saved(_SAVED_I.replace("[1.0, 0.0]]]", f"[{token}, 0.0]]]")) is None
