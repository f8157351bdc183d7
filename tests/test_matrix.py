"""Matrix utilities: validation, Haar sampling, file format."""

import json

import numpy as np
import pytest

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
from unisynth.matrix import default_unitarity_tol, unitarity_residual

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
    ],
    ids=["truncated", "trailing-comma", "deep"],
)
def test_matrix_and_circuit_parsers_report_bad_json_alike(text, message):
    with pytest.raises(MatrixFormatError, match=message):
        load_matrix(text)
    with pytest.raises(CircuitFormatError, match=message):
        parse_json(text)
