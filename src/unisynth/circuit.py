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

``census`` tallies a circuit's gates by kind.

Synthesis shares one X gate per qubit and one control tuple per target
(``Gate`` is frozen), reads each block once as Python scalars, and builds
rotation gates through ``trusted_gate`` without re-running ``Gate``'s
checks, whose invariants its fields hold by construction.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

from .matrix import DimensionError, UnitarityError, is_unitary, num_qubits
from .twolevel import TwoLevelUnitary, two_level_decompose

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

# Rotations with a normalized angle at or below this magnitude act as the
# identity and are dropped.
IDENTITY_ANGLE_TOL = 1e-12


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


def _angle_period(kind: GateKind) -> float:
    return TWO_PI if kind is GateKind.FCR1 else FOUR_PI


def check_wiring(
    kind: GateKind, target: int, controls: tuple[int, ...]
) -> tuple[int, ...]:
    """Check a gate's wiring and return its controls as sorted ints.

    ``Gate`` runs this for every gate it builds; ``parse_json`` runs it once
    per distinct wiring of a document.
    """
    if target < 0:
        raise ValueError(f"target must be nonnegative, got {target}")
    controls = tuple(sorted(int(q) for q in controls))
    if len(set(controls)) != len(controls):
        raise ValueError(f"duplicate control qubits: {controls}")
    if target in controls:
        raise ValueError(f"target {target} appears in controls")
    if any(q < 0 for q in controls):
        raise ValueError(f"control qubits must be nonnegative: {controls}")
    if kind is GateKind.X and controls:
        raise ValueError("kind 'x' takes no controls; use 'fcx'")
    return controls


def check_angle(kind: GateKind, angle: float | None) -> float | None:
    """Check a gate's angle against its kind and return it normalized."""
    if kind in ROTATION_KINDS:
        if angle is None:
            raise ValueError(f"kind {kind.value!r} requires an angle")
        try:
            angle = float(angle)
        except OverflowError:
            raise ValueError("angle is too large for a float") from None
        if not math.isfinite(angle):
            raise ValueError(f"angle must be finite, got {angle}")
        return normalize_angle(angle, _angle_period(kind))
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
        kind = GateKind(self.kind)
        target = int(self.target)
        controls = check_wiring(kind, target, self.controls)
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

    The caller guarantees what ``check_wiring`` and ``check_angle`` return:
    a non-negative int target, sorted distinct non-negative int controls
    without the target, and a normalized finite float angle for rotation
    kinds (``None`` otherwise).
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
        if self.n < 1:
            raise ValueError(f"qubit count must be positive, got {self.n}")
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


class ZYZAngles(NamedTuple):
    """Factorization U = R1(phi) Rz(lam+mu) Ry(2*theta) Rz(lam-mu)."""

    phi: float
    theta: float
    lam: float
    mu: float


def zyz_decompose(matrix: np.ndarray) -> ZYZAngles:
    """Factor a 2x2 unitary into the R1/Rz/Ry/Rz angle tuple.

    phi is the determinant phase; the remaining angles come from the special
    unitary R1(-phi) @ U.  Zero entries yield zero phase angles, so diagonal
    and antidiagonal inputs produce canonical forms.
    """
    u = np.asarray(matrix, dtype=np.complex128)
    if u.shape != (2, 2):
        raise DimensionError(f"expected a 2x2 matrix, got shape {u.shape}")
    if not is_unitary(u, 1e-10):
        raise UnitarityError("zyz_decompose requires a unitary matrix")
    return _zyz_angles(*u.ravel().tolist())


def _zyz_angles(u00: complex, u01: complex, u10: complex, u11: complex) -> ZYZAngles:
    # unchecked core of zyz_decompose on the entries as Python scalars;
    # R1(-phi) scales only row 1 of U, so the angles read row 0 of U itself
    phi = cmath.phase(u00 * u11 - u01 * u10)
    theta = math.acos(min(1.0, abs(u00)))
    return ZYZAngles(phi, theta, cmath.phase(u00), cmath.phase(u01))


def zyz_reconstruct(angles: ZYZAngles) -> np.ndarray:
    """Multiply the factorization back out (inverse of ``zyz_decompose``)."""
    return (
        r1_matrix(angles.phi)
        @ rz_matrix(angles.lam + angles.mu)
        @ ry_matrix(2.0 * angles.theta)
        @ rz_matrix(angles.lam - angles.mu)
    )


class _Wiring(NamedTuple):
    """What synthesis on ``n`` qubits needs of each target and state."""

    controls: tuple[tuple[int, ...], ...]  # per target, every other qubit
    swaps: tuple[Gate, ...]  # per target, the gate of an exact X block
    wraps: tuple[tuple[Gate, ...], ...]  # per state, X on each of its 0 bits


@functools.lru_cache(maxsize=16)
def _wiring(n: int) -> _Wiring:
    x_gates = tuple(Gate(GateKind.X, q) for q in range(n))
    controls = tuple(tuple(q for q in range(n) if q != r) for r in range(n))
    swap = GateKind.FCX if n > 1 else GateKind.X
    return _Wiring(
        controls,
        tuple(Gate(swap, r, controls[r]) for r in range(n)),
        tuple(
            tuple(x_gates[q] for q in range(n) if not (s >> q) & 1)
            for s in range(1 << n)
        ),
    )


def two_level_to_gates(element: TwoLevelUnitary, n: int) -> list[Gate]:
    """Realize one two-level unitary as fully-controlled gates plus X wraps.

    The rotation chain targets the changed bit ``r`` with all other qubits
    as controls.  Qubits where ``s1`` has a 0 bit get an X before (ascending
    order) and after (descending order) so every control tests for 1.  A
    block that is exactly X becomes a single FCX (plain X when ``n == 1``);
    otherwise the chain is Rz, Ry, Rz, R1 with identity-angle links skipped.
    The element's block is taken as unitary: ``TwoLevelUnitary`` checks it
    unless it came from ``two_level_decompose``, which validated the input.
    """
    if element.s2 >= (1 << n):
        raise ValueError(f"state {element.s2} out of range for {n} qubits")
    wiring = _wiring(n)
    r = element.changed_bit
    # s2 is s1 with bit r set, so its 0 bits are the controls s1 leaves at 0
    before = wiring.wraps[element.s2]
    entries = element.block.ravel().tolist()
    if entries == [0, 1, 1, 0]:  # exactly the X block
        return [*before, wiring.swaps[r], *reversed(before)]
    phi, theta, lam, mu = _zyz_angles(*entries)
    controls = wiring.controls[r]
    gates = list(before)
    for kind, angle in (
        (GateKind.FCRZ, lam - mu),
        (GateKind.FCRY, 2.0 * theta),
        (GateKind.FCRZ, lam + mu),
        (GateKind.FCR1, phi),
    ):
        angle = normalize_angle(angle, _angle_period(kind))
        if abs(angle) > IDENTITY_ANGLE_TOL:
            gates.append(trusted_gate(kind, r, controls, angle))
    gates.extend(reversed(before))
    return gates


def matrix_to_circuit(
    matrix: np.ndarray, optimize: bool = True, tol: float | None = None
) -> Circuit:
    """Compile a unitary into an X / fully-controlled-rotation circuit.

    Args:
        matrix: unitary of dimension ``2**n`` with ``n <= 9``.
        optimize: run the peephole passes on the result (default True).
        tol: unitarity tolerance override for input validation.

    Returns:
        A circuit whose matrix equals the input up to float round-off.
    """
    from . import optimizer

    # two_level_decompose validates the matrix; nothing downstream re-checks
    elements = two_level_decompose(matrix, tol)
    n = num_qubits(len(matrix))
    gates: list[Gate] = []
    for element in elements:
        gates.extend(two_level_to_gates(element, n))
    circuit = Circuit(n, tuple(gates))
    if optimize:
        circuit = optimizer.optimize(circuit)
    return circuit
