"""Dense unitary-matrix utilities: validation, Haar sampling, file format.

Matrices are plain ``complex128`` numpy arrays of shape ``(2**n, 2**n)``.
Basis states are indexed little-endian: bit ``j`` of a state index belongs to
qubit ``j``, so the leftmost character of a ket string is qubit 0 and is the
least significant bit.  For ``n=5`` the state 25 renders as ``"10011"``.

Contains:
- ``is_unitary`` / ``validate_unitary``: Frobenius-norm unitarity checks
  (``validate_unitary`` also rejects NaN and infinite entries).
- ``check_tolerance``: the one rule for a caller-supplied tolerance.
- ``haar_random_unitary``: seeded Haar sampling (Ginibre + QR).
- ``save_matrix`` / ``load_matrix``: the JSON matrix file format.
- ``ket_string`` / ``parse_ket``: state-index rendering helpers.
"""

from __future__ import annotations

import json
import math

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


def is_unitary(matrix: np.ndarray, tol: float | None = None) -> bool:
    """True iff the Frobenius norm of (M†M - I) is within ``tol``."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if tol is None:
        tol = default_unitarity_tol(m.shape[0])
    return unitarity_residual(m) <= tol


def validate_unitary(matrix: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Check shape, finiteness and unitarity, returning a fresh complex128 copy.

    Raises:
        DimensionError: non-square or non-power-of-two dimension.
        UnitarityError: a NaN or infinite entry, or residual above ``tol``
            (default ``1e-8 * dim``).
        ValueError: ``tol`` is NaN, infinite or negative.
    """
    if tol is not None:
        check_tolerance(tol)
    m = np.array(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    num_qubits(m.shape[0])
    # a NaN residual compares False against tol, so test finiteness first
    if not np.isfinite(m).all():
        raise UnitarityError("matrix has a NaN or infinite entry")
    residual = unitarity_residual(m)
    if tol is None:
        tol = default_unitarity_tol(m.shape[0])
    if residual > tol:
        raise UnitarityError(
            f"matrix is not unitary: Frobenius residual {residual:.3e} exceeds {tol:.3e}"
        )
    return m


def haar_random_unitary(n: int, seed: int) -> np.ndarray:
    """Draw a Haar-distributed unitary on ``n`` qubits, deterministic in ``seed``.

    Samples a complex Ginibre matrix with a Philox counter-based generator
    (portable across platforms for a given seed), takes its QR factorization,
    and multiplies the columns of Q by the conjugated phases of R's diagonal.
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


def ket_string(index: int, n: int) -> str:
    """Render a state index as its n-character ket string (qubit 0 leftmost)."""
    if not 0 <= index < (1 << n):
        raise ValueError(f"state index {index} out of range for {n} qubits")
    return "".join("1" if (index >> j) & 1 else "0" for j in range(n))


def parse_ket(ket: str) -> int:
    """Inverse of ``ket_string``; the qubit count is the string length."""
    value = 0
    for j, ch in enumerate(ket):
        if ch == "1":
            value |= 1 << j
        elif ch != "0":
            raise ValueError(f"ket strings contain only 0/1, got {ket!r}")
    return value


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


def load_matrix(text: str | bytes) -> np.ndarray:
    """Parse the JSON matrix format; finiteness and unitarity are unchecked.

    Raises:
        MatrixFormatError: malformed or too deeply nested JSON, wrong
            document structure, an entry that is not a pair of JSON numbers
            (``true``/``false`` are not numbers), or a number too large.
        DimensionError: dimension not 2**n or inconsistent with "n".
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise MatrixFormatError("JSON is nested too deeply") from None
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
