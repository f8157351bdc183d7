"""Reference synthesizer: the gate-by-gate chain loop, kept as a test oracle.

Each block of ``two_level_angles`` becomes its chain on target r under
controls on every other qubit, Rz(lam - mu), Ry(2 theta), Rz(lam + mu) and
R1(phi) with identity links left out, or one FCX (plain X at n = 1) for an
exact X block.  A block with theta 0 has the chain Rz(2 lam), R1(phi): its
Ry link is the identity, and its two Rz links merge.  X gates move one
tracked frame to each block's wrap, qubits leaving it high to low and then
qubits entering it low to high.  The library's columnar
``matrix_to_circuit`` must equal ``reference_circuit`` of the same blocks
gate for gate, angle bits and signed zeros included.
"""

from __future__ import annotations

from unisynth import Circuit, Gate, GateKind, normalize_angle
from unisynth.circuit import FOUR_PI, TWO_PI
from unisynth.twolevel import IDENTITY_ANGLE_TOL


def _chain(
    r: int, controls: tuple[int, ...], swap: Gate, angles: tuple | None
) -> list[Gate]:
    # one block's chain on target r under ``controls``: Rz, Ry, Rz, R1 with
    # identity-angle links left out, or for ``angles`` None (exactly X) the
    # ``swap`` gate, an FCX or plain X at n = 1
    if angles is None:
        return [swap]
    phi, theta, lam, mu = angles
    links = [
        (GateKind.FCRZ, lam - mu, FOUR_PI),
        (GateKind.FCRY, 2.0 * theta, FOUR_PI),
        (GateKind.FCRZ, lam + mu, FOUR_PI),
        (GateKind.FCR1, phi, TWO_PI),
    ]
    if theta == 0:
        # Ry(0) is the identity and Rz(lam - mu) Rz(lam + mu) is Rz(2 lam)
        links = [(GateKind.FCRZ, 2.0 * lam, FOUR_PI), links[3]]
    chain = []
    for kind, angle, period in links:
        angle = normalize_angle(angle, period)
        if abs(angle) > IDENTITY_ANGLE_TOL:
            chain.append(Gate(kind, r, controls, angle))
    return chain


def _move_frame(gates: list[Gate], x: list[Gate], frame: int, new: int) -> int:
    # X the qubits whose bit differs between the frames, those leaving high
    # to low, then those entering low to high, and return the new frame
    leaving = frame & ~new
    while leaving:
        q = leaving.bit_length() - 1
        gates.append(x[q])
        leaving ^= 1 << q
    entering = new & ~frame
    while entering:
        low = entering & -entering
        gates.append(x[low.bit_length() - 1])
        entering ^= low
    return new


def reference_circuit(n: int, blocks: list, optimize: bool = True) -> Circuit:
    """The circuit of ``two_level_angles`` blocks, one gate at a time."""
    x = [Gate(GateKind.X, q) for q in range(n)]
    controls = [tuple(q for q in range(n) if q != r) for r in range(n)]
    swap_kind = GateKind.FCX if n > 1 else GateKind.X
    swaps = [Gate(swap_kind, r, controls[r]) for r in range(n)]
    full = (1 << n) - 1
    gates: list[Gate] = []
    # bit q is set while qubit q is under an X
    frame = 0
    for s1, s2, angles in blocks:
        r = (s1 ^ s2).bit_length() - 1
        chain = _chain(r, controls[r], swaps[r], angles)
        # s2 is s1 with bit r set, so its 0 bits are the controls s1 leaves
        # at 0: X on each of them makes every control test for 1
        frame = _move_frame(gates, x, frame, full & ~s2)
        gates.extend(chain)
        if not optimize:
            frame = _move_frame(gates, x, frame, 0)
    _move_frame(gates, x, frame, 0)
    return Circuit(n, tuple(gates))


def gate_bits(circuit: Circuit) -> list[tuple]:
    """Every gate's fields, its angle as hex text, which keeps a zero's sign."""
    return [
        (g.kind, g.target, g.controls, None if g.angle is None else g.angle.hex())
        for g in circuit.gates
    ]
