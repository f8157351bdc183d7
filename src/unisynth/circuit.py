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
(``two_level_angles``), forming no 2x2 block.  ``census`` tallies gates.

Synthesis shares one X gate per qubit and one control tuple per target
(``Gate`` is frozen) and builds rotation gates through ``trusted_gate``
without re-running ``Gate``'s checks, whose invariants its fields hold by
construction.
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
from .twolevel import _zyz_angles, angles_block, two_level_angles

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
    unitary R1(-phi) @ U, with ``theta = atan2(|u01|, |u00|)`` in
    ``[0, pi/2]``.  Zero entries yield zero phase angles, so diagonal and
    antidiagonal inputs produce canonical forms.
    """
    u = np.asarray(matrix, dtype=np.complex128)
    if u.shape != (2, 2):
        raise DimensionError(f"expected a 2x2 matrix, got shape {u.shape}")
    if not is_unitary(u, 1e-10):
        raise UnitarityError("zyz_decompose requires a unitary matrix")
    return ZYZAngles(*_zyz_angles(*u.ravel().tolist()))


def zyz_reconstruct(angles: ZYZAngles) -> np.ndarray:
    """Multiply the factorization back out (inverse of ``zyz_decompose``)."""
    return angles_block(*angles)


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


def _append_block(
    gates: list[Gate], wiring: _Wiring, s1: int, s2: int, angles: tuple | None
) -> None:
    # one block's X-wrapped chain: Rz, Ry, Rz, R1 with identity-angle links
    # skipped, or for ``angles`` None (exactly X) one FCX, plain X at n = 1
    r = (s1 ^ s2).bit_length() - 1
    # s2 is s1 with bit r set, so its 0 bits are the controls s1 leaves at 0
    before = wiring.wraps[s2]
    gates.extend(before)
    if angles is None:
        gates.append(wiring.swaps[r])
    else:
        phi, theta, lam, mu = angles
        controls = wiring.controls[r]
        for kind, angle, period in (
            (GateKind.FCRZ, lam - mu, FOUR_PI),
            (GateKind.FCRY, 2.0 * theta, FOUR_PI),
            (GateKind.FCRZ, lam + mu, FOUR_PI),
            (GateKind.FCR1, phi, TWO_PI),
        ):
            angle = normalize_angle(angle, period)
            if abs(angle) > IDENTITY_ANGLE_TOL:
                gates.append(trusted_gate(kind, r, controls, angle))
    gates.extend(reversed(before))


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

    # two_level_angles validates the matrix; nothing downstream re-checks
    blocks = two_level_angles(matrix, tol)
    n = num_qubits(len(matrix))
    wiring = _wiring(n)
    gates: list[Gate] = []
    for s1, s2, angles in blocks:
        _append_block(gates, wiring, s1, s2, angles)
    circuit = Circuit(n, tuple(gates))
    if optimize:
        circuit = optimizer.optimize(circuit)
    return circuit
