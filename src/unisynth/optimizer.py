"""Peephole passes that shrink a circuit without changing its matrix.

Two rewrites, both exact:
- rotations whose normalized angle is zero are dropped;
- within each maximal run of consecutive X gates, same-qubit pairs cancel.
  X gates on distinct qubits commute, so only the per-qubit parity of a run
  matters; qubits with odd parity keep one X at their first position in the
  run.

``optimize`` runs each pass once, dropping first so the X runs on either
side of a dropped rotation merge before cancelling.  Cancelling never
creates an identity rotation and never joins two runs, so a second round
would change nothing: ``optimize`` is idempotent.
"""

from __future__ import annotations

from .circuit import IDENTITY_ANGLE_TOL, Circuit, Gate, GateKind


def drop_identity_gates(circuit: Circuit) -> Circuit:
    """Remove rotations that act as the identity after angle normalization."""
    # only rotations carry an angle (X and FCX hold None)
    kept = [
        gate
        for gate in circuit.gates
        if gate.angle is None or abs(gate.angle) > IDENTITY_ANGLE_TOL
    ]
    if len(kept) == len(circuit.gates):
        return circuit
    return Circuit(circuit.n, tuple(kept))


def cancel_x_pairs(circuit: Circuit) -> Circuit:
    """Cancel same-qubit X pairs inside maximal runs of consecutive X gates."""
    x_kind = GateKind.X
    out: list[Gate | None] = []
    # For each qubit with an X in the current run: the slot in ``out`` of
    # the run's first X on it, and that gate.  The slot holds the gate while
    # the qubit has seen an odd number of Xs in the run, and None otherwise.
    run: dict[int, tuple[int, Gate]] = {}
    for gate in circuit.gates:
        if gate.kind is x_kind:
            seen = run.get(gate.target)
            if seen is None:
                run[gate.target] = (len(out), gate)
                out.append(gate)
            else:
                slot, first = seen
                out[slot] = None if out[slot] is not None else first
        else:
            if run:
                run.clear()
            out.append(gate)
    kept = [gate for gate in out if gate is not None]
    if len(kept) == len(circuit.gates):
        return circuit
    return Circuit(circuit.n, tuple(kept))


def optimize(circuit: Circuit) -> Circuit:
    """Drop identity rotations, then cancel X pairs."""
    return cancel_x_pairs(drop_identity_gates(circuit))
