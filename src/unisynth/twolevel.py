"""Reduction of a unitary into two-level matrices on one-bit state pairs.

The input is reindexed by the binary-reflected Gray code, then brought to the
identity by right-multiplying 2x2 blocks onto adjacent column pairs, top row
first and rightmost entry first.  In the Gray frame adjacent indices differ
in one bit, so every emitted block acts on a pair of basis states one bit
apart in the original indexing, which is what lets a block become a single
fully-controlled gate downstream.

``two_level_decompose`` returns the blocks in application order: multiplying
their embeddings last-to-first (``reconstruct_matrix``) reproduces the input.
It validates its input once; the blocks it builds are unitary by formula
(or, for the trailing corner, up to the validated input's residual) and skip
the public ``TwoLevelUnitary`` unitarity check.

Each block's entries are Python complex numbers from one scalar core
(``_eliminate``, also behind ``eliminate_entry``), and the emitted block is
built from them.  numpy runs once per row, to skip the row's trailing
near-zero entries, and once per block, for the column update: a BLAS matmul,
since an elementwise update rounds differently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .matrix import UnitarityError, is_unitary, num_qubits, validate_unitary

# Entries at or below this magnitude are treated as exact zeros when picking
# the elimination branch.
ZERO_THRESHOLD = 1e-10

# A finished diagonal entry farther than this from 1 gets an explicit phase
# block; generic inputs never trip it.
_PHASE_TOL = 1e-12

# The trailing 2x2 corner is kept only if it differs from identity by more
# than this in Frobenius norm.
_FINAL_IDENTITY_TOL = 1e-10

X_BLOCK = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)

# the identity and X blocks' entries, as np.eye and X_BLOCK hold them
_ONE = complex(1.0, 0.0)
_ZERO = complex(0.0, 0.0)


def gray_code(index: int) -> int:
    """Binary-reflected Gray code of an index."""
    return index ^ (index >> 1)


def gray_permutation(n: int) -> np.ndarray:
    """Array ``pi`` with ``pi[i] = gray_code(i)`` for all ``i < 2**n``."""
    codes = np.arange(1 << n)
    return codes ^ (codes >> 1)


def gray_conjugate(matrix: np.ndarray, direction: str = "forward") -> np.ndarray:
    """Reindex both axes of a matrix by the Gray code.

    Forward maps entry ``(i, j)`` of the result to entry ``(pi_i, pi_j)`` of
    the input; inverse undoes it, so a forward/inverse round trip is the
    identity bitwise.  A matrix nontrivial only on rows/columns ``(i, j)``
    maps under inverse to one nontrivial on ``(pi_i, pi_j)``.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    pi = gray_permutation(num_qubits(m.shape[0]))
    if direction == "forward":
        return m[np.ix_(pi, pi)]
    if direction == "inverse":
        inv = np.empty_like(pi)
        inv[pi] = np.arange(pi.size)
        return m[np.ix_(inv, inv)]
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def _eliminate(
    a: complex, b: complex, zero_threshold: float
) -> tuple[complex, complex, complex, complex, complex]:
    """Scalar core of ``eliminate_entry``: the block's four entries and ``c``."""
    abs_a = abs(a)
    abs_b = abs(b)
    if abs_b <= zero_threshold:
        return _ONE, _ZERO, _ZERO, _ONE, a
    if abs_a <= zero_threshold:
        return _ZERO, _ONE, _ONE, _ZERO, b
    theta = math.atan2(abs_b, abs_a)
    lam = -cmath.phase(a)
    mu = math.pi + cmath.phase(b)
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    c = cos_t * (abs_a + abs_b**2 / abs_a)
    return (
        cos_t * cmath.exp(1j * lam),
        sin_t * cmath.exp(1j * mu),
        -sin_t * cmath.exp(-1j * mu),
        cos_t * cmath.exp(-1j * lam),
        complex(c),
    )


def eliminate_entry(
    a: complex, b: complex, zero_threshold: float = ZERO_THRESHOLD
) -> tuple[np.ndarray, complex]:
    """Find a 2x2 unitary ``block`` with ``(a, b) @ block == (c, 0)``.

    Branches:
    - ``|b| <= zero_threshold``: identity block, ``c = a``.
    - ``|a| <= zero_threshold``: swap block, ``c = b``.
    - otherwise the special unitary with ``theta = atan2(|b|, |a|)``,
      ``lam = -arg(a)``, ``mu = pi + arg(b)``, which makes ``c`` real and
      positive.

    Returns:
        ``(block, c)``.
    """
    b00, b01, b10, b11, c = _eliminate(complex(a), complex(b), zero_threshold)
    return np.array([[b00, b01], [b10, b11]], dtype=np.complex128), c


@dataclass(frozen=True, eq=False)
class TwoLevelUnitary:
    """A 2x2 unitary acting on basis states ``s1 < s2`` one bit apart."""

    s1: int
    s2: int
    block: np.ndarray

    def __post_init__(self) -> None:
        if not 0 <= self.s1 < self.s2:
            raise ValueError(f"need 0 <= s1 < s2, got ({self.s1}, {self.s2})")
        if (self.s1 ^ self.s2).bit_count() != 1:
            raise ValueError(
                f"states ({self.s1}, {self.s2}) must differ in exactly one bit"
            )
        block = np.array(self.block, dtype=np.complex128)
        if block.shape != (2, 2):
            raise ValueError(f"block must be 2x2, got shape {block.shape}")
        if not is_unitary(block, 1e-10):
            raise UnitarityError("two-level block is not unitary")
        object.__setattr__(self, "block", block)

    @classmethod
    def _trusted(cls, s1: int, s2: int, block: np.ndarray) -> TwoLevelUnitary:
        # s1 < s2 one bit apart and a 2x2 complex128 block, known by the caller
        element = object.__new__(cls)
        element.__dict__.update(s1=s1, s2=s2, block=block)
        return element

    @property
    def changed_bit(self) -> int:
        """Index of the single bit in which s1 and s2 differ."""
        return (self.s1 ^ self.s2).bit_length() - 1

    def embedded(self, dim: int) -> np.ndarray:
        """Identity of size ``dim`` with the block spliced in at (s1, s2)."""
        if dim <= self.s2:
            raise ValueError(f"dimension {dim} too small for state {self.s2}")
        m = np.eye(dim, dtype=np.complex128)
        m[self.s1, self.s1] = self.block[0, 0]
        m[self.s1, self.s2] = self.block[0, 1]
        m[self.s2, self.s1] = self.block[1, 0]
        m[self.s2, self.s2] = self.block[1, 1]
        return m


def two_level_decompose(
    matrix: np.ndarray, tol: float | None = None
) -> list[TwoLevelUnitary]:
    """Decompose a unitary into two-level matrices on one-bit state pairs.

    Args:
        matrix: square unitary of dimension ``2**n``.
        tol: unitarity tolerance override for input validation.

    Returns:
        Blocks in application order: the product of their ``embedded``
        matrices taken last-to-first equals the input.  A generic input
        yields exactly ``d*(d-1)/2`` blocks for ``d = 2**n``; blocks that
        would be the identity are skipped.
    """
    work = validate_unitary(matrix, tol)
    dim = work.shape[0]
    n = num_qubits(dim)
    pi = gray_permutation(n).tolist()
    work = gray_conjugate(work, "forward")
    out: list[TwoLevelUnitary] = []
    trusted = TwoLevelUnitary._trusted
    # one buffer holds each elimination block while it updates the columns
    rotation = np.empty((2, 2), dtype=np.complex128)

    def emit(lo: int, hi: int, block: np.ndarray) -> None:
        # Gray-frame columns (lo, hi) hold original states (pi_lo, pi_hi);
        # when those are out of order the block's basis must be swapped too.
        s1 = pi[lo]
        s2 = pi[hi]
        if s1 > s2:
            s1, s2 = s2, s1
            block = X_BLOCK @ block @ X_BLOCK
        # a C-ordered block of its own, as TwoLevelUnitary's copy gives; the
        # conjugate-transpose view would keep its base array alive as well
        out.append(trusted(s1, s2, np.ascontiguousarray(block)))

    def apply(row: int, hi: int, block: np.ndarray) -> None:
        # rows above ``row`` are finished and never read again
        work[row:, hi - 1 : hi + 1] = work[row:, hi - 1 : hi + 1] @ block

    for row in range(dim - 2):
        # A block on columns (col-1, col) changes only the entry left of col
        # in this row, so the trailing run of entries at or below the
        # threshold is skipped whole.  np.abs may round differently from
        # abs() in the last bit: the vectorized test uses half the threshold
        # and leaves the entries in between to the exact test below.
        live = np.flatnonzero(np.abs(work[row, row + 1 :]) > 0.5 * ZERO_THRESHOLD)
        last = row + 1 + int(live[-1]) if live.size else row
        for col in range(last, row, -1):
            b = work.item(row, col)
            if abs(b) <= ZERO_THRESHOLD:
                continue
            b00, b01, b10, b11, _ = _eliminate(
                work.item(row, col - 1), b, ZERO_THRESHOLD
            )
            rotation[0, 0] = b00
            rotation[0, 1] = b01
            rotation[1, 0] = b10
            rotation[1, 1] = b11
            apply(row, col, rotation)
            # Emit the conjugate transpose (complex.conjugate flips the sign
            # bit of the imaginary part, as numpy's conj does).  For an
            # out-of-order pair, X_BLOCK @ E @ X_BLOCK swaps E's rows and
            # columns.  Its products are by an exact 0 or 1, so swapping the
            # scalars gives the same bits, except for the sign of a zero
            # part, which the BLAS kernel decides: a block with a zero part
            # (or an underflowing product) goes through the matmuls.
            e00 = b00.conjugate()
            e01 = b10.conjugate()
            e10 = b01.conjugate()
            e11 = b11.conjugate()
            s1 = pi[col - 1]
            s2 = pi[col]
            if s1 < s2:
                entries = [[e00, e01], [e10, e11]]
            elif (
                e00.real * e00.imag * e01.real * e01.imag
                * e10.real * e10.imag * e11.real * e11.imag
            ):
                s1, s2 = s2, s1
                entries = [[e11, e10], [e01, e00]]
            else:
                emit(col - 1, col, rotation.conj().T)
                continue
            out.append(trusted(s1, s2, np.array(entries, dtype=np.complex128)))
        diag = work[row, row]
        if abs(diag - 1.0) > _PHASE_TOL:
            # Zero entries along the row can leave a unit-modulus phase on
            # the diagonal; rotate it onto the next column so the row
            # finishes at exactly e_row.
            phase = diag / abs(diag)
            block = np.array(
                [[phase.conjugate(), 0.0], [0.0, phase]], dtype=np.complex128
            )
            apply(row, row + 1, block)
            emit(row, row + 1, block.conj().T)
    final = np.array(work[dim - 2 :, dim - 2 :])
    if np.linalg.norm(final - np.eye(2)) > _FINAL_IDENTITY_TOL:
        emit(dim - 2, dim - 1, final)
    return out


def reconstruct_matrix(elements: list[TwoLevelUnitary], dim: int) -> np.ndarray:
    """Product of the elements' embeddings in application order."""
    m = np.eye(dim, dtype=np.complex128)
    for element in elements:
        m = element.embedded(dim) @ m
    return m
