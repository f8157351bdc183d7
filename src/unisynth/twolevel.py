"""Reduction of a unitary into two-level matrices on one-bit state pairs.

The input is reindexed on both axes by the binary-reflected Gray code
(``gray_permutation``), so entry ``(i, j)`` of the work matrix is entry
``(pi_i, pi_j)`` of the input, then brought to the identity by
right-multiplying 2x2 rotations onto adjacent column pairs, top row first
and rightmost entry first.  In the Gray frame adjacent indices
differ in one bit, so every emitted block acts on a pair of basis states one
bit apart in the original indexing, which is what lets a block become a single
fully-controlled gate downstream.

One elimination loop, ``_eliminate``, records the blocks in application
order as ``Blocks``, three parallel arrays: each block's Gray pair index
``j`` (it acts on states ``pi_j`` and ``pi_j+1``), the ZYZ angles
``(phi, theta, lam, mu)`` it computed (NaN for an exact X block), and the
branch that emitted it.  ``two_level_angles`` validates its input, runs it
and rebuilds one ``(s1, s2, angles)`` tuple per block; ``matrix_to_circuit``
runs it on the checked copy while ``matrix.validate_while`` computes that
copy's residual, and synthesizes from the arrays.  Zeroing ``b``
against ``a`` emits ``(0, theta, arg a, arg b)`` with
``theta = atan2(|b|, |a|)``; a pair whose states run opposite to its Gray
indices emits the X-conjugate, ``(0, -theta, -arg a, -arg b)``; the trailing
2x2 corner is factored whole.
Two rules decide every block, the corner's included: an entry at or below
``ZERO_THRESHOLD`` is an exact zero, and an angle or phase at or below
``IDENTITY_ANGLE_TOL`` is the identity, so no block is all identity links.
Neither these nor the rotation applied to the work matrix involve ``pi``,
whose float is 1.2e-16 short and would bias every block alike.
``matrix_to_circuit`` turns the angles into gates, and ``zyz_reconstruct``
multiplies a block's angles out into its 2x2 matrix.  numpy runs once per
row, to skip its trailing near-zero entries, and once per rotation, for the
column update: a BLAS matmul, since an elementwise update rounds differently.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .matrix import num_qubits, validate_unitary

# Entries at or below this magnitude are treated as exact zeros when picking
# the elimination branch.
ZERO_THRESHOLD = 1e-10

# Angles and phases at or below this magnitude act as the identity: a
# finished diagonal entry whose phase is farther from 0 gets an explicit
# phase block (drift in its modulus alone, which a phase block cannot
# remove, never does), and synthesis leaves out rotations within it.
IDENTITY_ANGLE_TOL = 1e-12

# the X block's entries; a phase block's off-diagonal is _ZERO too
_ONE = complex(1.0, 0.0)
_ZERO = complex(0.0, 0.0)

Angles = tuple[float, float, float, float]

# A block's branch: a generic rotation, an exact X (the only branch with NaN
# angles, the trailing corner's included), a phase fix on a finished row,
# or the trailing corner
GENERIC, EXACT_X, PHASE_FIX, CORNER = range(4)

_NO_ANGLES = (math.nan,) * 4


class Blocks(NamedTuple):
    """Elimination's blocks in application order, one row each."""

    pair: np.ndarray  # (K,) int: Gray pair j, on states pi_j and pi_j+1
    angles: np.ndarray  # (K, 4) float64: (phi, theta, lam, mu)
    branch: np.ndarray  # (K,) int8: GENERIC, EXACT_X, PHASE_FIX or CORNER


def gray_permutation(n: int) -> np.ndarray:
    """The binary-reflected Gray code: ``pi[i] = i ^ (i >> 1)`` for ``i < 2**n``."""
    codes = np.arange(1 << n)
    return codes ^ (codes >> 1)


def _zyz_angles(
    u00: complex, u01: complex, u10: complex, u11: complex, flip: bool = False
) -> Angles:
    # The angles of a 2x2 unitary, unchecked, as
    # U = R1(phi) Rz(lam+mu) Ry(2*theta) Rz(lam-mu): phi is det's phase, and
    # R1(-phi) scales only row 1, so the rest read row 0; atan2 keeps the
    # digits acos(|u00|) loses near 0 and gives theta in [0, pi/2]; an exact
    # zero has phase 0, so diagonal and antidiagonal inputs give canonical
    # forms.  ``flip`` gives the form with theta <= 0 that elimination emits
    # where a pair's states oppose its Gray indices.
    phi = cmath.phase(u00 * u11 - u01 * u10)
    theta = math.atan2(abs(u01), abs(u00))
    if flip:
        theta = -theta
        u01 = -u01
    lam = cmath.phase(u00) if u00 else 0.0
    mu = cmath.phase(u01) if u01 else 0.0
    return phi, theta, lam, mu


def zyz_reconstruct(angles: Angles) -> np.ndarray:
    """``R1(phi) Rz(lam+mu) Ry(2*theta) Rz(lam-mu)``, multiplied out."""
    phi, theta, lam, mu = angles
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    e_lam = cmath.exp(1j * lam)
    e_mu = cmath.exp(1j * mu)
    e_phi = cmath.exp(1j * phi)  # R1(phi) scales row 1
    u10 = -sin_t * e_phi * e_mu.conjugate()
    u11 = cos_t * e_phi * e_lam.conjugate()
    return np.array([[cos_t * e_lam, sin_t * e_mu], [u10, u11]], dtype=np.complex128)


def two_level_angles(
    matrix: np.ndarray, tol: float | None = None
) -> list[tuple[int, int, Angles | None]]:
    """Eliminate a ``2**n`` unitary (``tol``: input unitarity tolerance).

    Returns ``(s1, s2, angles)`` per block in application order: ``s1 < s2``
    one bit apart, ``angles`` the block's ``(phi, theta, lam, mu)`` or
    ``None`` for an exact X block.  A generic input yields ``d*(d-1)/2``
    blocks for ``d = 2**n``; blocks that would be the identity are skipped.
    """
    checked = validate_unitary(matrix, tol)
    pi = gray_permutation(num_qubits(len(checked)))
    pair, angles, branch = _eliminate(checked)
    first = pi[pair]
    second = pi[pair + 1]
    return [
        (s1, s2, None if code == EXACT_X else tuple(row))
        for s1, s2, row, code in zip(
            np.minimum(first, second).tolist(),
            np.maximum(first, second).tolist(),
            angles.tolist(),
            branch.tolist(),
        )
    ]


def _eliminate(matrix: np.ndarray) -> Blocks:
    """The blocks ``two_level_angles`` lists, as arrays, of a matrix
    ``validate_unitary`` already returned, unchecked; the matrix is only
    read."""
    dim = matrix.shape[0]
    pi = gray_permutation(num_qubits(dim)).tolist()
    work = matrix[np.ix_(pi, pi)]
    # Gray columns (j, j + 1) hold states (pi_j, pi_j+1); the sign turns a
    # Gray-frame block's angles into the emitted block's (-1 where the
    # X-conjugate swaps the states back into order)
    signs = [1.0 if s < t else -1.0 for s, t in zip(pi, pi[1:])]
    # the blocks' columns, flat: a pair index, four angles and a branch each
    pairs: list[int] = []
    angles: list[float] = []
    branches: list[int] = []
    # one buffer holds each rotation while it updates the columns; rows
    # above ``row`` are finished and never read again
    rotation = np.empty((2, 2), dtype=np.complex128)

    for row in range(dim - 2):
        # A rotation on columns (col-1, col) changes only the entry left of
        # col in this row, so the trailing run of entries at or below the
        # threshold is skipped whole.  np.abs may round differently from
        # abs() in the last bit: the vectorized test uses half the threshold
        # and leaves the entries in between to the exact test below.
        live = np.flatnonzero(np.abs(work[row, row + 1 :]) > 0.5 * ZERO_THRESHOLD)
        last = row + 1 + int(live[-1]) if live.size else row
        for col in range(last, row, -1):
            b = work.item(row, col)
            abs_b = abs(b)
            if abs_b <= ZERO_THRESHOLD:
                continue
            a = work.item(row, col - 1)
            abs_a = abs(a)
            sign = signs[col - 1]
            pairs.append(col - 1)
            # the rotation (row-major entries) that zeroes b against a; the
            # emitted block is its conjugate transpose
            if abs_a <= ZERO_THRESHOLD:
                entries = (_ZERO, _ONE, _ONE, _ZERO)
                angles += _NO_ANGLES
                branches.append(EXACT_X)
            else:
                theta = math.atan2(abs_b, abs_a)
                arg_a = cmath.phase(a)
                arg_b = cmath.phase(b)
                cos_t = math.cos(theta)
                sin_t = math.sin(theta)
                ea = cmath.exp(1j * arg_a)
                eb = cmath.exp(1j * arg_b)
                entries = (
                    cos_t * ea.conjugate(),
                    -sin_t * eb,
                    sin_t * eb.conjugate(),
                    cos_t * ea,
                )
                angles += (0.0, sign * theta, sign * arg_a, sign * arg_b)
                branches.append(GENERIC)
            rotation[0, 0], rotation[0, 1], rotation[1, 0], rotation[1, 1] = entries
            work[row:, col - 1 : col + 1] = work[row:, col - 1 : col + 1] @ rotation
        arg = cmath.phase(work.item(row, row))
        if abs(arg) > IDENTITY_ANGLE_TOL:
            # Zero entries along the row can leave a unit-modulus phase on
            # the diagonal; rotate it onto the next column so the row
            # finishes at exactly e_row.
            phase = cmath.exp(1j * arg)
            rotation[:] = ((phase.conjugate(), _ZERO), (_ZERO, phase))
            work[row:, row : row + 2] = work[row:, row : row + 2] @ rotation
            pairs.append(row)
            angles += (0.0, 0.0, signs[row] * arg, 0.0)
            branches.append(PHASE_FIX)
    # the trailing corner under the rows' rules: entries at or below the
    # threshold are exact zeros, and the block is kept unless theta is 0
    # (which makes mu 0) and phi and lam, rotation[::2], are identity angles
    final = work[-2:, -2:].ravel().tolist()
    corner = [z if abs(z) > ZERO_THRESHOLD else _ZERO for z in final]
    flip = signs[dim - 2] < 0
    if flip:
        corner.reverse()  # the X-conjugate's entries, row-major
    if corner == [0, 1, 1, 0]:
        pairs.append(dim - 2)
        angles += _NO_ANGLES
        branches.append(EXACT_X)
    else:
        rotation = _zyz_angles(*corner, flip)
        if rotation[1] or max(map(abs, rotation[::2])) > IDENTITY_ANGLE_TOL:
            pairs.append(dim - 2)
            angles += rotation
            branches.append(CORNER)
    return Blocks(
        np.array(pairs, dtype=np.intp),
        np.array(angles, dtype=np.float64).reshape(-1, 4),
        np.array(branches, dtype=np.int8),
    )

