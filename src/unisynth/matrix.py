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
  the exact layout ``save_matrix`` writes is parsed in bulk, in chunks of
  whole rows, each by one byte-level scan that proves the layout and
  converts only the tokens that are not ``0.0``, through ``parse_floats``.
  Any other JSON layout goes through ``decode_json``, and yields the same
  bits.  ``parse_json`` shares both ``decode_json`` and ``parse_floats``.
"""

from __future__ import annotations

import json
import math
import re
import sys

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
    gram = m.conj().T @ m
    gram.flat[:: m.shape[0] + 1] -= 1
    return float(np.linalg.norm(gram))


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
    """``json.loads``, raising ``error`` for malformed or too deeply nested
    JSON, or an integer longer than ``sys.get_int_max_str_digits()``."""
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
    except ValueError:
        # the one other error json.loads raises: CPython's int() refuses a
        # number with more digits than its limit
        limit = sys.get_int_max_str_digits()
        raise error(f"an integer has more than {limit} digits") from None


# The layout save_matrix writes: json.dumps's default separators, the keys in
# this order, and every number in JSON float form (with a fraction or an
# exponent), which json.loads reads with float().  Integer tokens are left to
# json.loads: it reads -0 as the int 0, where float() gives -0.0.
_SAVED_HEAD = re.compile(r'\{"n": ([1-9]), "matrix": \[\[\[')
_SAVED_TAIL = "]]]}"
_ROW_BREAK = "]], [["
# 1 to 256 tokens in JSON float form, each followed by a comma; the bound
# keeps the regex's backtracking stack to a few hundred tokens
_NUMBERS = re.compile(
    rb"(?:-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+),)"
    rb"{1,256}"
)
# bytes.translate table: 1 at the layout's punctuation ", []", 0 elsewhere
_PUNCTUATION = bytes(c in b", []" for c in range(256))
_NUMBER_BYTES = b"+-.0123456789Ee"
# text is parsed in chunks of whole rows, each this many characters or one
# row more, which bounds the temporaries
_CHUNK = 1 << 16


def load_matrix(text: str | bytes) -> np.ndarray:
    """Parse the JSON matrix format; finiteness and unitarity are unchecked.

    Raises:
        MatrixFormatError: malformed, undecodable or too deeply nested JSON,
            wrong document structure, an entry that is not a pair of JSON
            numbers (``true``/``false`` are not numbers), or a number too
            large or with too many digits.
        DimensionError: dimension not 2**n or inconsistent with "n".
    """
    matrix = _load_saved(text)
    return _load_json(text) if matrix is None else matrix


def _load_saved(text: str | bytes) -> np.ndarray | None:
    """Parse text in ``save_matrix``'s exact layout in bulk; None for any other.

    The rows are read in chunks of whole rows, each by ``_parse_chunk``.
    Numbers are converted by ``np.fromstring``, which reads a float through
    the same CPython routine as ``float()``, so the result has the bits
    ``_load_json`` returns, signed zeros included.
    """
    if not isinstance(text, str) or not text.endswith(_SAVED_TAIL):
        return None
    head = _SAVED_HEAD.match(text)
    if head is None:
        return None
    dim = 1 << int(head[1])
    pairs = np.zeros(2 * dim * dim)
    start, stop = head.end(), len(text) - len(_SAVED_TAIL)
    done = 0
    while True:
        cut = text.find(_ROW_BREAK, start + _CHUNK)
        if cut < 0:
            cut = stop
        count = _parse_chunk(text, start, cut, dim, pairs[done:])
        if count is None:
            return None
        done += count
        if cut == stop:
            break
        start = cut + len(_ROW_BREAK)
    if done != pairs.size:
        return None
    return pairs.view(np.complex128).reshape(dim, dim)


def _parse_chunk(
    text: str, start: int, stop: int, dim: int, out: np.ndarray
) -> int | None:
    """Read the rows in ``text[start:stop]`` into ``out``; the number of reals.

    Each row must be ``dim`` pairs, "re, im], [re, im], ..., [re, im", else
    None.  One byte-level scan finds the tokens, the maximal runs of bytes
    other than ", []", and proves the layout from the lengths of the runs
    between them and from their bytes.  A token that is byte for byte
    ``0.0`` stays 0 in ``out`` (zero-filled).  Each run of consecutive
    other tokens is sliced whole, the runs are joined and stripped of
    " []", which leaves one comma after each token; then ``_NUMBERS``
    checks them a few hundred at a time and one ``np.fromstring`` call
    converts them.  The temporaries take one byte per byte of text or a
    few integers per token.
    """
    try:
        raw = text[start - 1 : stop + 1].encode("ascii")
    except UnicodeEncodeError:
        return None
    # raw starts with "[" and ends with "]", so token i spans
    # edges[2i]:edges[2i + 1]
    punctuation = np.frombuffer(raw.translate(_PUNCTUATION), np.bool_)
    edges = np.flatnonzero(punctuation[1:] != punctuation[:-1]) + 1
    starts, ends = edges[::2], edges[1::2]
    tokens = ends.size
    rows, extra = divmod(tokens, 2 * dim)
    if not rows or extra or tokens > out.size:
        return None
    # sizes[row, pair, part] is (token length, length of the gap after it);
    # the gap after the last token is taken to be a row break
    sizes = np.empty(2 * tokens, np.intp)
    np.subtract(edges[1:], edges[:-1], out=sizes[:-1])
    sizes[-1] = len(_ROW_BREAK)
    sizes = sizes.reshape(rows, dim, 2, 2)
    gaps = sizes[..., 1]
    if (gaps[..., 0] != 2).any() or (gaps[:, :-1, 1] != 4).any():
        return None
    if (gaps[:, -1, 1] != len(_ROW_BREAK)).any():
        return None
    row_gaps = "], [".join([", "] * dim)
    layout = f"[{_ROW_BREAK.join([row_gaps] * rows)}]".encode()
    if raw.translate(None, _NUMBER_BYTES) != layout:
        return None
    zero = sizes[..., 0].ravel() == 3
    first = starts[zero]
    a = np.frombuffer(raw, np.uint8)
    zero[zero] = (
        (a[first] == ord("0")) & (a[first + 1] == ord(".")) & (a[first + 2] == ord("0"))
    )
    # others, the tokens that are not 0.0, with a False on either side
    padded = np.zeros(tokens + 2, np.bool_)
    others = np.invert(zero, out=padded[1:-1])
    # runs[2k]:runs[2k + 1] are the token indices of the k-th run of others
    runs = np.flatnonzero(padded[1:] != padded[:-1])
    if runs.size:
        spans = zip(starts[runs[::2]].tolist(), ends[runs[1::2] - 1].tolist())
        numbers = b",".join([*(raw[i:j] for i, j in spans), b""])
        numbers = numbers.translate(None, b" []")
        # tokens hold no comma, so there is one value per token
        values = parse_floats(numbers)
        if values is None:
            return None
        out[:tokens][others] = values
    return tokens


def parse_floats(numbers: bytes) -> np.ndarray | None:
    """The values of ``numbers``, tokens each followed by a comma, in one call.

    None unless every token is in JSON float form, which ``_NUMBERS`` checks
    a few hundred tokens at a time.  Checked first, the text gives
    ``np.fromstring`` nothing malformed to warn about, and it reads each
    token through the same CPython routine as ``float()``.
    """
    checked = 0
    while checked < len(numbers):
        match = _NUMBERS.match(numbers, checked)
        if match is None:
            return None
        checked = match.end()
    # np.fromstring reads the trailing comma as the end of the text
    return np.fromstring(numbers, dtype=np.float64, sep=",")


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
