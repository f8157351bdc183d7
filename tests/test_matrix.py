"""Matrix utilities: validation, Haar sampling, file format."""

import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from unisynth import matrix
from unisynth.matrix import (
    _load_json,
    _load_saved,
    default_unitarity_tol,
    unitarity_residual,
)

from conftest import (
    CNOT,
    INT_DIGIT_LIMIT,
    LONG_INTEGER,
    float_batches,
    needs_int_digit_limit,
)


def test_unitarity_residual_identity():
    assert unitarity_residual(np.eye(4)) == 0.0


def test_unitarity_residual_cnot():
    assert unitarity_residual(CNOT) == 0.0


def test_unitarity_residual_rejects_scaled_entry():
    # M†M - I has the single nonzero entry |2|^2 - 1
    m = np.eye(4, dtype=complex)
    m[0, 0] = 2.0
    assert unitarity_residual(m) == 3.0


@pytest.mark.parametrize(
    "m",
    [
        haar_random_unitary(3, 1),
        np.full((4, 4), 0.5 + 0.25j),
        np.diag([complex(-0.0, -0.0), 1.0]),
        np.diag([1e200, 1.0]),
    ],
    ids=["haar", "dense", "signed-zero", "1e200"],
)
def test_unitarity_residual_is_the_norm_of_gram_minus_identity(m):
    m = m.astype(np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])))
        assert np.float64(unitarity_residual(m)).tobytes() == np.float64(expected).tobytes()


def test_unitarity_residual_non_square_raises():
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
    message = f"matrix is not unitary: Frobenius residual overflows ({residual})"
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


@needs_int_digit_limit
@pytest.mark.parametrize(
    "text",
    [
        f'{{"n": {LONG_INTEGER}, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}',
        _identity_doc(f"[{LONG_INTEGER}, 0]"),
    ],
    ids=["n", "entry"],
)
def test_load_rejects_an_integer_past_the_digit_limit(text):
    # int()'s own ValueError told the user to raise the limit in Python
    assert _load_saved(text) is None
    message = f"^an integer has more than {INT_DIGIT_LIMIT} digits$"
    with pytest.raises(MatrixFormatError, match=message):
        load_matrix(text)


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


# small chunks split even an n = 1 matrix into one chunk per row, and a
# small bound on _NUMBERS splits a chunk's numbers into several matches
_CHUNKS = st.sampled_from([1, 40, matrix._CHUNK])
_BATCHES = st.sampled_from([1, 3, 256])


def _chunked_outcomes_agree(text, chunk, batch):
    with mock.patch.object(matrix, "_CHUNK", chunk), float_batches(batch):
        assert _outcome(load_matrix, text) == _outcome(_load_json, text)


@settings(max_examples=300, deadline=None)
@given(_matrix_texts(), _CHUNKS, _BATCHES)
@example('{"n": 1, "matrix": [[[]]]}', matrix._CHUNK, 256)
def test_load_matrix_is_bit_identical_to_the_json_path(text, chunk, batch):
    # the bulk path either yields the json.loads path's bits, signed zeros
    # included, or declines, and then the same error comes out
    _chunked_outcomes_agree(text, chunk, batch)


# the zeros of a sparse matrix are written 0.0; -0.0 and 1.0 are set apart
# from them in every sparse kind.  The dense kinds have no zero entry: a
# Haar matrix, and a real orthogonal one, whose imaginary parts are all 0.0.
def _kind_matrix(kind, n):
    dim = 1 << n
    rng = np.random.default_rng(n)
    if kind == "haar":
        return haar_random_unitary(n, 3)
    if kind == "real-orthogonal":
        return np.linalg.qr(rng.standard_normal((dim, dim)))[0].astype(complex)
    if kind == "diagonal":
        m = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, dim)))
        m[0, 0] = 1.0
    elif kind == "permutation":
        m = np.eye(dim, dtype=complex)[rng.permutation(dim)]
    elif kind == "controlled-u":
        k = min(n, 3)
        m = np.eye(dim, dtype=complex)
        m[dim - (1 << k) :, dim - (1 << k) :] = haar_random_unitary(k, n)
    else:
        # block-diagonal: one Haar block of each size 1..3 qubits, as fits
        m = np.eye(dim, dtype=complex)
        start = 0
        for k in range(1, 4):
            size = 1 << k
            if start + size > dim:
                break
            m[start : start + size, start : start + size] = haar_random_unitary(k, n + k)
            start += size
    zeros = np.argwhere(m == 0)
    if zeros.size:
        m[tuple(zeros[0])] = complex(-0.0, -0.0)
        m[tuple(zeros[-1])] = complex(0.0, -0.0)
    return m


_KINDS = [
    "haar", "real-orthogonal", "diagonal", "permutation", "controlled-u", "block-diagonal"
]


@pytest.mark.parametrize("n", range(1, 10))
def test_saved_layout_is_parsed_in_bulk(n):
    # a fallback to the json.loads path would give the same bits, so the
    # bulk path is checked directly
    for kind in _KINDS:
        m = _kind_matrix(kind, n)
        bulk = _load_saved(save_matrix(m))
        assert bulk is not None, kind
        assert bulk.tobytes() == m.tobytes(), kind


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
        # the same punctuation in the same order, around moved numbers
        _SAVED_I.replace("[[[1.0, 0.0]", "[[[1.0,0.0 ]"),
        save_matrix(np.eye(4)).replace("0.0], [0.0, 0.0], [", "0.0], 0.0[,0.0 ], [", 1),
        _SAVED_I.replace("]], [[0.0, 0.0], [1.0, 0.0]]]}", "]], [0.0[,0.0 ], 1.0[,0.0 ]]]}"),
    ],
    ids=[
        "bytes", "newline", "pretty", "key-order", "extra-row", "ragged", "wrong-n",
        "number-moved", "pair-moved", "row-moved",
    ],
)
def test_other_layouts_go_to_the_json_path(text):
    assert _load_saved(_SAVED_I) is not None
    assert _load_saved(text) is None


# no token is 0.0, so each chunk's tokens are one run, sliced whole
_SAVED_DENSE = '{"n": 1, "matrix": [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [-0.5, -0.5]]]}'


@pytest.mark.parametrize(
    "text",
    [
        _SAVED_DENSE.replace("-0.5]]]", "-0.5]], [[0.5, 0.5], [0.5, 0.5]]]"),
        _SAVED_DENSE.replace("]], [[0.5, 0.5], [", "], [0.5, 0.5]], [["),
        _SAVED_DENSE.replace("[[[0.5, 0.5]", "[[[0.5,0.5 ]"),
    ],
    ids=["extra-row", "ragged-same-count", "number-moved"],
)
def test_other_dense_layouts_go_to_the_json_path(text):
    assert _load_saved(_SAVED_DENSE) is not None
    assert _load_saved(text) is None
    assert _outcome(load_matrix, text) == _outcome(_load_json, text)


@pytest.mark.parametrize("token", _OTHER_TOKENS)
def test_tokens_not_in_json_float_form_go_to_the_json_path(token):
    assert _load_saved(_SAVED_I.replace("[1.0, 0.0]]]", f"[{token}, 0.0]]]")) is None


@pytest.mark.parametrize("slot", ["re", "im"])
@pytest.mark.parametrize("token", ["0.0e0", "-0.0", "0.0E-0", "-0.0e5", "0e0"])
def test_zero_look_alikes_in_float_form_are_parsed_in_bulk(token, slot):
    # not the 0.0 literal, so they are converted, and keep their sign
    pair = f"[{token}, 0.0]" if slot == "re" else f"[0.0, {token}]"
    text = _SAVED_I.replace("[[0.0, 0.0]", f"[{pair}")
    bulk = _load_saved(text)
    assert bulk is not None
    assert bulk.tobytes() == _load_json(text).tobytes()
    part = bulk[1, 0].real if slot == "re" else bulk[1, 0].imag
    assert np.signbit(part) == token.startswith("-")


@pytest.mark.parametrize("slot", ["re", "im"])
@pytest.mark.parametrize(
    "token", ["00.0", "0.", ".0", "0", "-0", "0.0.0", "0\u06610", "000", "0-0"]
)
def test_zero_look_alikes_not_in_json_float_form_go_to_the_json_path(token, slot):
    pair = f"[{token}, 0.0]" if slot == "re" else f"[0.0, {token}]"
    assert _load_saved(_SAVED_I.replace("[[0.0, 0.0]", f"[{pair}")) is None


_ZERO_LOOK_ALIKES = [
    "-0.0", "0.00", "00.0", "0.0e0", "0.0E-0", "0", "-0", "0.", ".0", "0.0.0", "0\u06610",
    "000", "0e0",
]
_SPARSE_DEFECTS = ["none"] * 7 + [
    "no-space", "two-spaces", "compact-row-break", "bracket", "moved", "newline", "cut"
]


@st.composite
def _sparse_matrix_texts(draw):
    """Sparse text in the saved layout, with at most one defect next to a 0.0."""
    n = draw(st.integers(1, 3))
    dim = 1 << n
    tokens = ["0.0"] * (2 * dim * dim)
    others = st.sampled_from(_ZERO_LOOK_ALIKES + ["1.0", "-0.5", "0.7071067811865476"])
    for _ in range(draw(st.integers(0, 3))):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(others)
    # parts alternate token and the gap after it
    parts = []
    for i, token in enumerate(tokens):
        if i % 2 == 0:
            gap = ", "
        elif (i + 1) % (2 * dim):
            gap = "], ["
        else:
            gap = "]], [["
        parts += [token, gap]
    parts[-1] = "]]]}"
    zeros = [i for i, token in enumerate(tokens) if token == "0.0"]
    defect = draw(st.sampled_from(_SPARSE_DEFECTS))
    if defect != "none" and zeros:
        i = draw(st.sampled_from(zeros))
        # the gap after the token, or before it for the last token
        gap = 2 * i + 1 if i + 1 < len(tokens) else 2 * i - 1
        if defect == "no-space":
            parts[gap] = parts[gap].replace(" ", "")
        elif defect == "two-spaces":
            parts[gap] = parts[gap].replace(" ", "  ")
        elif defect == "compact-row-break":
            breaks = [j for j, part in enumerate(parts) if part == "]], [["]
            j = min(breaks, key=lambda j: abs(j - 2 * i))
            parts[j] = "]],[["
        elif defect == "bracket":
            bracket = draw(st.sampled_from("[]"))
            parts[2 * i] = draw(st.sampled_from([bracket + "0.0", "0.0" + bracket]))
        elif defect == "moved":
            # a byte of the gap before or after moves to the token's other side
            if i and draw(st.booleans()):
                parts[2 * i - 1], moved = parts[2 * i - 1][:-1], parts[2 * i - 1][-1]
                parts[2 * i] = "0.0" + moved
            else:
                moved, parts[2 * i + 1] = parts[2 * i + 1][0], parts[2 * i + 1][1:]
                parts[2 * i] = moved + "0.0"
        elif defect == "newline":
            k = draw(st.integers(0, 3))
            parts[2 * i] = "0.0"[:k] + "\n" + "0.0"[k:]
        else:
            parts[2 * i] = "0.0"[: draw(st.integers(0, 2))]
    return f'{{"n": {n}, "matrix": [[[' + "".join(parts)


@settings(max_examples=300, deadline=None)
@given(_sparse_matrix_texts(), _CHUNKS, _BATCHES)
def test_sparse_load_matrix_is_bit_identical_to_the_json_path(text, chunk, batch):
    _chunked_outcomes_agree(text, chunk, batch)


@pytest.mark.parametrize(
    "kind, n", [("haar", 7), ("real-orthogonal", 7), ("controlled-u", 9)]
)
def test_load_matrix_temporaries_stay_within_four_times_the_text(kind, n):
    # the peak covers the result, 16 bytes per entry, and every temporary
    text = save_matrix(_kind_matrix(kind, n))
    tracemalloc.start()
    try:
        load_matrix(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)
