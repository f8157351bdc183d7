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

from .circuit import IDENTITY_ANGLE_TOL, Circuit, Gate, GateKind, ROTATION_KINDS


def _is_identity_rotation(gate: Gate) -> bool:
    return gate.kind in ROTATION_KINDS and abs(gate.angle) <= IDENTITY_ANGLE_TOL


def drop_identity_gates(circuit: Circuit) -> Circuit:
    """Remove rotations that act as the identity after angle normalization."""
    kept = tuple(g for g in circuit.gates if not _is_identity_rotation(g))
    if len(kept) == len(circuit.gates):
        return circuit
    return Circuit(circuit.n, kept)


def cancel_x_pairs(circuit: Circuit) -> Circuit:
    """Cancel same-qubit X pairs inside maximal runs of consecutive X gates."""
    out: list[Gate] = []
    run: list[Gate] = []

    def flush() -> None:
        parity: dict[int, int] = {}
        for gate in run:
            parity[gate.target] = parity.get(gate.target, 0) ^ 1
        emitted: set[int] = set()
        for gate in run:
            if parity[gate.target] and gate.target not in emitted:
                emitted.add(gate.target)
                out.append(gate)
        run.clear()

    for gate in circuit.gates:
        if gate.kind is GateKind.X:
            run.append(gate)
        else:
            if run:
                flush()
            out.append(gate)
    flush()
    if len(out) == len(circuit.gates):
        return circuit
    return Circuit(circuit.n, tuple(out))


def optimize(circuit: Circuit) -> Circuit:
    """Drop identity rotations, then cancel X pairs."""
    return cancel_x_pairs(drop_identity_gates(circuit))
