"""Gate-level circuit representation and two-level-to-gate synthesis.

The gate set is single-qubit X plus fully-controlled Ry, Rz and R1 rotations
(and fully-controlled X as a special case).  Rotation conventions, chosen so
a two-level block factors with real rotation matrices in the middle:

    Ry(a) = [[cos(a/2),  sin(a/2)], [-sin(a/2), cos(a/2)]]
    Rz(a) = [[exp(i a/2), 0], [0, exp(-i a/2)]]
    R1(a) = [[1, 0], [0, exp(i a)]]

Angles are stored normalized: Ry/Rz to (-2*pi, 2*pi] (periodic modulo 4*pi)
and R1 to (-pi, pi] (periodic modulo 2*pi).

A two-level unitary on states (s1, s2) differing in bit r becomes a rotation
chain targeting qubit r, controlled on every other qubit, wrapped in X gates
on the qubits where s1 has a 0 bit so the controls all test for 1.
``matrix_to_circuit`` builds each chain from the angles elimination computed
(``twolevel._eliminate``), forming no 2x2 block, while ``matrix.validate_while``
computes the input's unitarity residual on a second thread.  ``census``
tallies gates.

X gates are placed through one tracked frame, the set of qubits currently
under an X.  Before each chain, synthesis flips the qubits where the frame
differs from the chain's wrap, and it empties the frame at the end.
Consecutive Gray-adjacent blocks share most of their wraps, so most X gates
are never emitted; ``optimize=False`` empties the frame after every block
instead, which wraps each block in its own X gates.  Synthesis leaves out
rotations within ``IDENTITY_ANGLE_TOL`` of the identity, the tolerance by which
elimination (``twolevel.py``) already skips whole identity blocks, so every
block it is given emits a non-empty chain.

Each call builds one X gate per qubit and one control tuple and exact-X gate
per target, which its blocks share (``Gate`` is frozen), and builds every
gate through ``trusted_gate`` without re-running ``Gate``'s checks, whose
invariants its fields hold by construction.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .matrix import num_qubits, validate_while
from .twolevel import IDENTITY_ANGLE_TOL, _eliminate

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


class GateKind(str, Enum):
    X = "x"
    FCX = "fcx"
    FCRY = "fcry"
    FCRZ = "fcrz"
    FCR1 = "fcr1"


ROTATION_KINDS = frozenset({GateKind.FCRY, GateKind.FCRZ, GateKind.FCR1})


def normalize_angle(angle: float, period: float) -> float:
    """Map an angle into (-period/2, period/2]."""
    reduced = math.remainder(angle, period)
    if reduced == -period / 2.0:
        reduced = period / 2.0
    return reduced


def _qubit(index: object) -> int:
    # an exact nonnegative integer index: Python and numpy ints pass; bool,
    # an int subclass, and any float raise
    if not isinstance(index, bool):
        try:
            index = operator.index(index)
        except TypeError:
            pass
        else:
            if index < 0:
                raise ValueError(f"qubit index must be nonnegative, got {index}")
            return index
    raise ValueError(f"qubit index must be an integer, got {index!r}")


def check_angle(kind: GateKind, angle: float | None) -> float | None:
    """Check a gate's angle against its kind and return it normalized."""
    if kind in ROTATION_KINDS:
        if angle is None:
            raise ValueError(f"kind {kind.value!r} requires an angle")
        # a real number: bool, an int subclass, and a string, which float()
        # would read, raise; a float, as parsed JSON holds, skips the slow
        # ABC test
        if type(angle) is not float and (
            isinstance(angle, bool) or not isinstance(angle, numbers.Real)
        ):
            raise ValueError(f"angle must be a real number, got {angle!r}")
        try:
            angle = float(angle)
        except OverflowError:
            raise ValueError("angle is too large for a float") from None
        if not math.isfinite(angle):
            raise ValueError(f"angle must be finite, got {angle}")
        return normalize_angle(angle, TWO_PI if kind is GateKind.FCR1 else FOUR_PI)
    if angle is not None:
        raise ValueError(f"kind {kind.value!r} takes no angle")
    return None


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: a kind, a target qubit, sorted control qubits, an angle.

    X and FCX carry no angle; rotation kinds require a finite one,
    normalized into the kind's canonical range at construction.
    """

    kind: GateKind
    target: int
    controls: tuple[int, ...] = ()
    angle: float | None = None

    def __post_init__(self) -> None:
        try:
            kind = GateKind(self.kind)
        except ValueError:
            raise ValueError(f"unknown kind {self.kind!r}") from None
        target = _qubit(self.target)
        # a string's characters or a dict's keys would pass as qubits
        if not isinstance(self.controls, (tuple, list)):
            raise ValueError(f"controls must be a tuple or list, got {self.controls!r}")
        controls = tuple(sorted(_qubit(q) for q in self.controls))
        if len(set(controls)) != len(controls):
            raise ValueError(f"duplicate control qubits: {controls}")
        if target in controls:
            raise ValueError(f"target {target} appears in controls")
        if kind is GateKind.X and controls:
            raise ValueError("kind 'x' takes no controls; use 'fcx'")
        angle = check_angle(kind, self.angle)
        _set_kind(self, kind)
        _set_target(self, target)
        _set_controls(self, controls)
        _set_angle(self, angle)


# the slots' own descriptors write past the frozen ``__setattr__``
_set_kind = Gate.kind.__set__
_set_target = Gate.target.__set__
_set_controls = Gate.controls.__set__
_set_angle = Gate.angle.__set__
_new = object.__new__


def trusted_gate(
    kind: GateKind, target: int, controls: tuple[int, ...], angle: float | None
) -> Gate:
    """A ``Gate`` from fields already checked and normalized, unchecked.

    The caller guarantees what ``Gate`` and ``check_angle`` would make of
    them: a non-negative int target, sorted distinct non-negative int
    controls without the target, and a normalized finite float angle for
    rotation kinds (``None`` otherwise).
    """
    gate = _new(Gate)
    _set_kind(gate, kind)
    _set_target(gate, target)
    _set_controls(gate, controls)
    _set_angle(gate, angle)
    return gate


@dataclass(frozen=True)
class Circuit:
    """An ordered gate sequence on ``n`` qubits; gates apply left to right."""

    n: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # exactly an int, not bool, not float: parse_json checks "n" only here
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"qubit count must be a positive integer, got {self.n!r}")
        gates = tuple(self.gates)
        for gate in gates:
            controls = gate.controls
            # controls are sorted, so the last one is the largest
            if gate.target >= self.n or (controls and controls[-1] >= self.n):
                top = max((gate.target, *controls))
                raise ValueError(f"gate touches qubit {top} but circuit has n={self.n}")
        object.__setattr__(self, "gates", gates)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)


@dataclass(frozen=True)
class GateCensus:
    """Per-kind gate counts for one circuit."""

    n: int
    x: int
    ry: int
    rz: int
    r1: int
    fcx: int

    @property
    def total(self) -> int:
        return self.x + self.ry + self.rz + self.r1 + self.fcx

    @property
    def ratio(self) -> float:
        """Total gate count relative to 4**n."""
        return self.total / 4**self.n


def census(circuit: Circuit) -> GateCensus:
    """Count gates by kind (X and FCX tallied separately)."""
    counts = {kind: 0 for kind in GateKind}
    for gate in circuit.gates:
        counts[gate.kind] += 1
    return GateCensus(
        n=circuit.n,
        x=counts[GateKind.X],
        ry=counts[GateKind.FCRY],
        rz=counts[GateKind.FCRZ],
        r1=counts[GateKind.FCR1],
        fcx=counts[GateKind.FCX],
    )


def _chain(
    r: int, controls: tuple[int, ...], swap: Gate, angles: tuple | None
) -> list[Gate]:
    # one block's chain on target r under ``controls``: Rz, Ry, Rz, R1 with
    # identity-angle links left out, or for ``angles`` None (exactly X) the
    # ``swap`` gate, an FCX or plain X at n = 1
    if angles is None:
        return [swap]
    phi, theta, lam, mu = angles
    chain = []
    for kind, angle, period in (
        (GateKind.FCRZ, lam - mu, FOUR_PI),
        (GateKind.FCRY, 2.0 * theta, FOUR_PI),
        (GateKind.FCRZ, lam + mu, FOUR_PI),
        (GateKind.FCR1, phi, TWO_PI),
    ):
        angle = normalize_angle(angle, period)
        if abs(angle) > IDENTITY_ANGLE_TOL:
            chain.append(trusted_gate(kind, r, controls, angle))
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


def matrix_to_circuit(
    matrix: np.ndarray, optimize: bool = True, tol: float | None = None
) -> Circuit:
    """Compile a unitary into an X / fully-controlled-rotation circuit.

    Args:
        matrix: unitary of dimension ``2**n`` with ``n <= 9``.
        optimize: share X gates between consecutive blocks (default True);
            False wraps each block in its own X gates.
        tol: unitarity tolerance override for input validation.

    Returns:
        A circuit whose matrix equals the input up to float round-off.
    """
    # the matrix is validated here, once: its residual is computed on a
    # second thread while _synthesize eliminates and synthesizes the checked
    # copy, and nothing downstream re-checks it
    return validate_while(lambda m: _synthesize(m, optimize), matrix, tol)


def _synthesize(matrix: np.ndarray, optimize: bool) -> Circuit:
    # matrix_to_circuit's elimination and synthesis, of a checked copy
    blocks = _eliminate(matrix)
    n = num_qubits(len(matrix))
    x = [trusted_gate(GateKind.X, q, (), None) for q in range(n)]
    controls = [tuple(q for q in range(n) if q != r) for r in range(n)]
    swap_kind = GateKind.FCX if n > 1 else GateKind.X
    swaps = [trusted_gate(swap_kind, r, controls[r], None) for r in range(n)]
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
