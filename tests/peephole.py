"""Reference X-pair cancellation: the former peephole pass, kept as a test oracle.

Within each maximal run of consecutive X gates, same-qubit pairs cancel.  X
gates on distinct qubits commute, so only the per-qubit parity of a run
matters; qubits with odd parity keep one X at their first position in the
run.  The rewrite is exact.  Synthesis now places its X gates through a
tracked frame, and ``matrix_to_circuit(u)`` must equal this pass applied to
``matrix_to_circuit(u, optimize=False)`` gate for gate.
"""

from __future__ import annotations

from unisynth import Circuit, Gate, GateKind


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
