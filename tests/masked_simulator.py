"""Reference simulator: the masked row-selection design, kept as a test oracle.

Each gate builds one boolean mask per qubit over every row index, then moves
the selected rows through fancy-indexed copies; X gates swap rows.  The
library's frame-tracked ``circuit_matrix`` must agree with it bit for bit.

``gate_block`` and the rotation constructors it calls are the specification
of each gate's 2x2 block, in the conventions of ``unisynth.circuit``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from unisynth import Circuit, Gate, GateKind


_SWAP_KINDS = frozenset({GateKind.X, GateKind.FCX})


def ry_matrix(angle: float) -> np.ndarray:
    half = angle / 2.0
    return np.array(
        [[math.cos(half), math.sin(half)], [-math.sin(half), math.cos(half)]],
        dtype=np.complex128,
    )


def rz_matrix(angle: float) -> np.ndarray:
    half = angle / 2.0
    return np.array(
        [[cmath.exp(1j * half), 0.0], [0.0, cmath.exp(-1j * half)]],
        dtype=np.complex128,
    )


def r1_matrix(angle: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * angle)]], dtype=np.complex128)


def gate_block(gate: Gate) -> np.ndarray:
    """The 2x2 matrix a gate applies on its target pair."""
    if gate.kind in _SWAP_KINDS:
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    if gate.kind is GateKind.FCRY:
        return ry_matrix(gate.angle)
    if gate.kind is GateKind.FCRZ:
        return rz_matrix(gate.angle)
    return r1_matrix(gate.angle)


def _selected_rows(gate: Gate, dim: int) -> np.ndarray:
    """Row indices with target bit 0 and every control bit 1."""
    idx = np.arange(dim)
    mask = (idx >> gate.target) & 1 == 0
    for q in gate.controls:
        mask &= (idx >> q) & 1 == 1
    return idx[mask]


def _apply_gate(m: np.ndarray, gate: Gate) -> None:
    s0 = _selected_rows(gate, m.shape[0])
    s1 = s0 | (1 << gate.target)
    # fancy indexing copies, so reads below are safe against the writes
    if gate.kind in _SWAP_KINDS:
        low = m[s0]
        m[s0] = m[s1]
        m[s1] = low
        return
    block = gate_block(gate)
    low = m[s0]
    high = m[s1]
    m[s0] = block[0, 0] * low + block[0, 1] * high
    m[s1] = block[1, 0] * low + block[1, 1] * high


def masked_circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Full matrix of a circuit, gates applied in list order."""
    m = np.eye(1 << circuit.n, dtype=np.complex128)
    for gate in circuit.gates:
        _apply_gate(m, gate)
    return m
