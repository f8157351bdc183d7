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
    a = complex(a)
    b = complex(b)
    if abs(b) <= zero_threshold:
        return np.eye(2, dtype=np.complex128), a
    if abs(a) <= zero_threshold:
        return X_BLOCK.copy(), b
    theta = math.atan2(abs(b), abs(a))
    lam = -cmath.phase(a)
    mu = math.pi + cmath.phase(b)
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    block = np.array(
        [
            [cos_t * cmath.exp(1j * lam), sin_t * cmath.exp(1j * mu)],
            [-sin_t * cmath.exp(-1j * mu), cos_t * cmath.exp(-1j * lam)],
        ],
        dtype=np.complex128,
    )
    c = cos_t * (abs(a) + abs(b) ** 2 / abs(a))
    return block, complex(c)


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
    pi = gray_permutation(n)
    work = gray_conjugate(work, "forward")
    out: list[TwoLevelUnitary] = []

    def emit(lo: int, hi: int, block: np.ndarray) -> None:
        # Gray-frame columns (lo, hi) hold original states (pi_lo, pi_hi);
        # when those are out of order the block's basis must be swapped too.
        s1 = int(pi[lo])
        s2 = int(pi[hi])
        if s1 > s2:
            s1, s2 = s2, s1
            block = X_BLOCK @ block @ X_BLOCK
        # a C-ordered block of its own, as TwoLevelUnitary's copy gives; the
        # conjugate-transpose view would keep its base array alive as well
        out.append(TwoLevelUnitary._trusted(s1, s2, np.ascontiguousarray(block)))

    def apply(row: int, hi: int, block: np.ndarray) -> None:
        # rows above ``row`` are finished and never read again
        work[row:, hi - 1 : hi + 1] = work[row:, hi - 1 : hi + 1] @ block

    for row in range(dim - 2):
        for col in range(dim - 1, row, -1):
            if abs(work[row, col]) <= ZERO_THRESHOLD:
                continue
            block, _ = eliminate_entry(work[row, col - 1], work[row, col])
            apply(row, col, block)
            emit(col - 1, col, block.conj().T)
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
