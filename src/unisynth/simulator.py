"""Dense circuit simulation and decomposition verification.

``circuit_matrix`` folds gates into an identity matrix one at a time while
tracking an XOR frame: logical row ``i`` of the running product is stored at
physical row ``i ^ frame``.

- An uncontrolled X permutes rows by flipping its target bit, so it only
  flips that bit of the frame; one gather at the end restores logical order.
- A gate whose controls and target cover every qubit moves exactly one row
  pair, logical rows ``dim-1-tbit`` and ``dim-1``.  The pair is found in O(1)
  and updated in place through row views: FCX swaps the two rows, Rz scales
  both and R1 scales one.
- A gate with partial controls (as parsed circuits may hold) updates its
  row pairs in place through two views of the matrix reshaped to one axis
  of length 2 per qubit: each control's axis is fixed at the physical bit
  that reads logical 1 under the frame, the target's axis at the physical
  bit of logical 0 (one view) or 1 (the other), and every other qubit's
  axis is left whole.

The specification is the masked reference simulator in
``tests/masked_simulator.py``, which applies every gate's 2x2 block (built
there by ``gate_block``) row by row in logical order; the result equals it
(``np.array_equal``).  Moving the frame is a permutation with no arithmetic.
Each updated row goes through the same scalar-first products and sums as the
full 2x2 update.  The zero products of diagonal blocks and the product by
R1's exact 1 are skipped, which is exact because adding a zero or
multiplying by one does not change a value.  The coefficients are Python
scalars computed from the angle as ``gate_block`` computes its entries; no
2x2 array is built per gate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import ROTATION_KINDS, Circuit, Gate, GateKind
from .matrix import DimensionError, check_tolerance


def _apply_block(low: np.ndarray, high: np.ndarray, gate: Gate) -> None:
    """Apply a gate's 2x2 block in place to its target-bit-0 and -1 rows.

    Specified by ``gate_block`` in ``tests/masked_simulator.py``: the
    coefficients are Python scalars computed from the angle with the same
    expressions as its ``ry_matrix``, ``rz_matrix`` and ``r1_matrix``; numpy
    turns a float into a complex with a +0 imaginary part, as those arrays
    hold it.  Scalars multiply first (``b * row``, never ``row * b``):
    numpy's complex multiply may round the two orders differently in the
    last bit.
    """
    kind = gate.kind
    if kind is GateKind.FCRY:
        half = gate.angle / 2.0
        cos_h = math.cos(half)
        sin_h = math.sin(half)
        new_low = cos_h * low
        new_low += sin_h * high
        # b11*high + b10*low: the operands of the sum swap, which is exact
        np.multiply(cos_h, high, out=high)
        high += -sin_h * low
        low[...] = new_low
    elif kind is GateKind.FCRZ:
        # diagonal: one product per row
        half = gate.angle / 2.0
        np.multiply(cmath.exp(1j * half), low, out=low)
        np.multiply(cmath.exp(-1j * half), high, out=high)
    elif kind is GateKind.FCR1:
        # diagonal, and the upper entry is exactly 1
        np.multiply(cmath.exp(1j * gate.angle), high, out=high)
    else:
        # X and FCX swap the rows
        saved = low.copy()
        low[...] = high
        high[...] = saved


def _row_views(
    qubit_axes: np.ndarray, target: int, controls: tuple[int, ...], frame: int
) -> tuple[np.ndarray, np.ndarray]:
    """Basic-index views of a partial-control gate's target-bit-0 and -1 rows.

    ``qubit_axes`` is the matrix as ``(2,) * n + (dim,)``, so axis
    ``n - 1 - q`` runs over bit ``q`` of the physical row index.
    """
    n = qubit_axes.ndim - 1
    index: list = [slice(None)] * n
    for q in controls:
        index[n - 1 - q] = 1 ^ ((frame >> q) & 1)
    low_bit = (frame >> target) & 1
    index[n - 1 - target] = low_bit
    low = qubit_axes[tuple(index)]
    index[n - 1 - target] = low_bit ^ 1
    return low, qubit_axes[tuple(index)]


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Full matrix of a circuit, gates applied in list order."""
    dim = 1 << circuit.n
    full = circuit.n - 1
    m = np.eye(dim, dtype=np.complex128)
    qubit_axes = m.reshape((2,) * circuit.n + (dim,))
    frame = 0
    for gate in circuit.gates:
        tbit = 1 << gate.target
        controls = gate.controls
        if not controls and gate.kind not in ROTATION_KINDS:
            frame ^= tbit
        elif len(controls) == full:
            # every control bit 1, target bit 0: the one logical row dim-1-tbit
            s0 = (dim - 1 - tbit) ^ frame
            _apply_block(m[s0], m[s0 ^ tbit], gate)
        else:
            _apply_block(*_row_views(qubit_axes, gate.target, controls, frame), gate)
    return m[np.arange(dim) ^ frame] if frame else m


def default_verification_tol(n: int) -> float:
    """Frobenius tolerance for verification: 1e-8 up to n=6, 1e-6 beyond."""
    return 1e-8 if n <= 6 else 1e-6


@dataclass(frozen=True)
class VerificationReport:
    """Distance between a target unitary and a circuit's matrix."""

    passed: bool
    frobenius_error: float
    max_abs_entry_error: float
    gate_count: int


def verify(
    matrix: np.ndarray, circuit: Circuit, tol: float | None = None
) -> VerificationReport:
    """Compare a circuit against a target matrix by dense simulation.

    Args:
        matrix: target, must be ``2**circuit.n`` on a side.
        tol: Frobenius pass threshold (default scales with ``circuit.n``);
            must be finite and >= 0.
    """
    target = np.asarray(matrix, dtype=np.complex128)
    side = target.shape[0] if target.ndim == 2 else 0
    # a parsed circuit's n may be huge: match it to the side's bit length
    # before computing 2**n
    if side.bit_length() - 1 != circuit.n or target.shape != (1 << circuit.n,) * 2:
        raise DimensionError(
            f"matrix shape {target.shape} does not match a {circuit.n}-qubit circuit"
        )
    if tol is None:
        tol = default_verification_tol(circuit.n)
    else:
        check_tolerance(tol)
    diff = circuit_matrix(circuit) - target
    frobenius = float(np.linalg.norm(diff))
    max_abs = float(np.abs(diff).max())
    return VerificationReport(
        passed=frobenius <= tol,
        frobenius_error=frobenius,
        max_abs_entry_error=max_abs,
        gate_count=len(circuit.gates),
    )
