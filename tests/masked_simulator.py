"""Reference simulator: the masked row-selection design, kept as a test oracle.

Each gate builds one boolean mask per qubit over every row index, then moves
the selected rows through fancy-indexed copies; X gates swap rows.  The
library's frame-tracked ``circuit_matrix`` must agree with it bit for bit.
"""

from __future__ import annotations

import numpy as np

from unisynth import Circuit, Gate, GateKind, gate_block


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
    if gate.kind in (GateKind.X, GateKind.FCX):
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
