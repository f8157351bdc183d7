"""Reference X-pair cancellation: the rule synthesis's X frame must match.

Within each maximal run of consecutive X gates, same-qubit pairs cancel.  X
gates on distinct qubits commute, so only the per-qubit parity of a run
matters; qubits with odd parity keep one X at their first position in the
run.  The rewrite is exact.  Synthesis places its X gates through a tracked
frame, and ``matrix_to_circuit(u)`` must equal this rule applied to
``matrix_to_circuit(u, optimize=False)`` gate for gate.
"""

from __future__ import annotations

from unisynth import Circuit, Gate, GateKind


def cancel_x_pairs(circuit: Circuit) -> Circuit:
    """In each maximal X run, the first X of each qubit with odd parity, in
    first-position order; every other gate as it is."""
    out: list[Gate] = []
    run: list[Gate] = []
    for gate in (*circuit.gates, None):
        if gate is not None and gate.kind is GateKind.X:
            run.append(gate)
            continue
        parity: dict[int, int] = {}
        for x in run:
            parity[x.target] = parity.get(x.target, 0) ^ 1
        # pop: only a qubit's first X in the run can be kept
        out += [x for x in run if parity.pop(x.target, 0)]
        run = []
        if gate is not None:
            out.append(gate)
    return Circuit(circuit.n, tuple(out))
