"""Dense unitary-matrix utilities: validation, Haar sampling, file format.

Matrices are plain ``complex128`` numpy arrays of shape ``(2**n, 2**n)``.
Basis states are indexed little-endian: bit ``j`` of a state index belongs to
qubit ``j``, so the leftmost character of a ket string is qubit 0 and is the
least significant bit.  For ``n=5`` the state 25 renders as ``"10011"``.

Contains:
- ``unitarity_residual`` / ``validate_unitary``: the Frobenius norm of
  ``M†M - I`` and the input check built on it (which also rejects NaN and
  infinite entries).
- ``check_tolerance``: the one rule for a caller-supplied tolerance.
- ``haar_random_unitary``: seeded Haar sampling (Ginibre + QR).
- ``save_matrix`` / ``load_matrix``: the JSON matrix file format.  Text in
  the exact layout ``save_matrix`` writes is parsed in bulk by one numpy call;
  any other JSON layout goes through ``decode_json``, which ``parse_json``
  shares, and yields the same bits.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

QUBIT_LIMIT = 9


class MatrixFormatError(ValueError):
    """Malformed matrix file text."""


class DimensionError(ValueError):
    """Matrix shape is not a square power-of-two dimension (or mismatched)."""


class UnitarityError(ValueError):
    """Matrix fails the unitarity check; the message carries the residual."""


def default_unitarity_tol(dim: int) -> float:
    """Unitarity tolerance scaled with dimension to absorb accumulated float error."""
    return 1e-8 * dim


def check_tolerance(tol: float) -> float:
    """Return ``tol`` if it is a finite number >= 0, else raise ValueError.

    A NaN tolerance would make every ``residual > tol`` test False and so
    accept anything; an infinite or negative one is never meant.
    """
    if not tol >= 0.0 or math.isinf(tol):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    return tol


def num_qubits(dim: int) -> int:
    """Qubit count for a matrix dimension; rejects non-power-of-two sizes."""
    n = max(dim, 1).bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise DimensionError(f"dimension {dim} is not a power of two >= 2")
    if n > QUBIT_LIMIT:
        raise DimensionError(f"dimension {dim} exceeds the {QUBIT_LIMIT}-qubit limit")
    return n


def unitarity_residual(matrix: np.ndarray) -> float:
    """Frobenius norm of (M†M - I)."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    eye = np.eye(m.shape[0], dtype=np.complex128)
    return float(np.linalg.norm(m.conj().T @ m - eye))


def validate_unitary(matrix: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Check shape, finiteness and unitarity, returning a fresh complex128 copy.

    Raises:
        DimensionError: non-square or non-power-of-two dimension.
        UnitarityError: a NaN or infinite entry, or a residual not at or
            below ``tol`` (default ``1e-8 * dim``), a NaN one included.
        ValueError: ``tol`` is NaN, infinite or negative.
    """
    if tol is not None:
        check_tolerance(tol)
    m = np.array(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    num_qubits(m.shape[0])
    if not np.isfinite(m).all():
        raise UnitarityError("matrix has a NaN or infinite entry")
    # finite entries near 1e154 can overflow M†M to inf or NaN; either fails
    # the test below, which a NaN would pass as ``residual > tol``
    with np.errstate(over="ignore", invalid="ignore"):
        residual = unitarity_residual(m)
    if tol is None:
        tol = default_unitarity_tol(m.shape[0])
    if not residual <= tol:
        if math.isfinite(residual):
            detail = f"{residual:.3e} exceeds {tol:.3e}"
        else:
            detail = f"overflows ({residual})"
        raise UnitarityError(f"matrix is not unitary: Frobenius residual {detail}")
    return m


def haar_random_unitary(n: int, seed: int) -> np.ndarray:
    """Draw a Haar-distributed unitary on ``n`` qubits, deterministic in ``seed``.

    Samples a complex Ginibre matrix with a Philox counter-based generator
    (the same draw on every platform for a given seed), takes its QR
    factorization, and multiplies the columns of Q by the conjugated phases
    of R's diagonal.  The QR runs threaded LAPACK, so from n = 7 on a seed's
    matrix, and with it a compile's Frobenius error, can depend on the BLAS
    thread count; its gate census does not.
    """
    if not 1 <= n <= QUBIT_LIMIT:
        raise ValueError(f"qubit count must be in 1..{QUBIT_LIMIT}, got {n}")
    rng = np.random.Generator(np.random.Philox(seed))
    dim = 1 << n
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ginibre /= math.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r)
    return q * (diag.conj() / np.abs(diag))


def save_matrix(matrix: np.ndarray) -> str:
    """Serialize a unitary to the JSON matrix format.

    The format is ``{"n": <int>, "matrix": [[[re, im], ...], ...]}`` with each
    entry a pair of decimal reals printed in shortest round-trip form, so
    ``load_matrix(save_matrix(m))`` reproduces ``m`` bitwise.
    """
    m = validate_unitary(matrix)
    n = num_qubits(m.shape[0])
    rows = [[[entry.real, entry.imag] for entry in row] for row in m]
    return json.dumps({"n": n, "matrix": rows})


def decode_json(text: str | bytes, error: type[ValueError]) -> object:
    """``json.loads``, raising ``error`` for malformed or too deeply nested JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise error("JSON is nested too deeply") from None
    except UnicodeDecodeError as exc:
        raise error(f"cannot decode text: {exc}") from None


# The layout save_matrix writes: json.dumps's default separators, the keys in
# this order, and every number in JSON float form (with a fraction or an
# exponent), which json.loads reads with float().  Integer tokens are left to
# json.loads: it reads -0 as the int 0, where float() gives -0.0.
_FLOAT = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
_SAVED_HEAD = re.compile(r'\{"n": ([1-9]), "matrix": \[\[\[')
_SAVED_TAIL = "]]]}"
# one row without its outer brackets: "re, im], [re, im], ..., [re, im"
_SAVED_ROW = re.compile(rf"{_FLOAT}, {_FLOAT}(?:\], \[{_FLOAT}, {_FLOAT})*")


def load_matrix(text: str | bytes) -> np.ndarray:
    """Parse the JSON matrix format; finiteness and unitarity are unchecked.

    Raises:
        MatrixFormatError: malformed, undecodable or too deeply nested JSON,
            wrong document structure, an entry that is not a pair of JSON
            numbers (``true``/``false`` are not numbers), or a number too
            large.
        DimensionError: dimension not 2**n or inconsistent with "n".
    """
    matrix = _load_saved(text)
    return _load_json(text) if matrix is None else matrix


def _load_saved(text: str | bytes) -> np.ndarray | None:
    """Parse text in ``save_matrix``'s exact layout in bulk; None for any other.

    Each of the ``2**n`` rows must match ``_SAVED_ROW`` with ``2**n`` pairs.
    The numbers are then converted by one ``np.fromstring`` call, which reads
    a float through the same CPython routine as ``float()``, so the result
    has the bits ``_load_json`` returns, signed zeros included.
    """
    if not isinstance(text, str) or not text.endswith(_SAVED_TAIL):
        return None
    head = _SAVED_HEAD.match(text)
    if head is None:
        return None
    dim = 1 << int(head[1])
    rows = text[head.end() : -len(_SAVED_TAIL)].split("]], [[")
    if len(rows) != dim:
        return None
    for row in rows:
        if row.count("[") != dim - 1 or _SAVED_ROW.fullmatch(row) is None:
            return None
    numbers = ", ".join(rows).replace("], [", ", ")
    pairs = np.fromstring(numbers, dtype=np.float64, sep=",")
    return pairs.view(np.complex128).reshape(dim, dim)


def _load_json(text: str | bytes) -> np.ndarray:
    """``load_matrix`` for any JSON layout, through ``json.loads``."""
    doc = decode_json(text, MatrixFormatError)
    if not isinstance(doc, dict) or "n" not in doc or "matrix" not in doc:
        raise MatrixFormatError('expected an object with "n" and "matrix" keys')
    n = doc["n"]
    rows = doc["matrix"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise MatrixFormatError('"n" must be an integer')
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise MatrixFormatError('"matrix" must be an array of rows')
    dim = len(rows)
    if n != num_qubits(dim):
        raise DimensionError(f'matrix has {dim} rows but "n" is {n}')
    # json.loads yields exactly int or float for a JSON number; the exact
    # type test keeps out bool, which is an int subclass
    reals = (int, float)
    for i, row in enumerate(rows):
        if len(row) != dim:
            raise DimensionError(f"row {i} has {len(row)} entries, expected {dim}")
        for j, entry in enumerate(row):
            if (
                type(entry) is not list
                or len(entry) != 2
                or type(entry[0]) not in reals
                or type(entry[1]) not in reals
            ):
                raise MatrixFormatError(
                    f"entry ({i}, {j}) must be a [re, im] pair of reals"
                )
    try:
        pairs = np.array(rows, dtype=np.float64)
    except OverflowError:
        raise MatrixFormatError("an entry is too large for a float") from None
    # (re, im) float pairs have complex128's memory layout
    return pairs.view(np.complex128).reshape(dim, dim)
