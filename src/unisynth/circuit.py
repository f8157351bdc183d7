"""Gate-level circuit representation and two-level-to-gate synthesis.

The gate set is single-qubit X plus fully-controlled Ry, Rz and R1 rotations
(and fully-controlled X as a special case).  Rotation conventions, chosen so
a two-level block factors with real rotation matrices in the middle:

    Ry(a) = [[cos(a/2),  sin(a/2)], [-sin(a/2), cos(a/2)]]
    Rz(a) = [[exp(i a/2), 0], [0, exp(-i a/2)]]
    R1(a) = [[1, 0], [0, exp(i a)]]

Angles are stored normalized: Ry/Rz to (-2*pi, 2*pi] (periodic modulo 4*pi)
and R1 to (-pi, pi] (periodic modulo 2*pi).

A ``Circuit`` is stored as columns: a table of the distinct wirings (kind,
target, controls) its gates use, and per gate an index into that table and
an angle (NaN for X and FCX).  Qubit ranges are checked once per wiring.
``Gate`` is the element type: ``Circuit(n, gates)`` takes ``Gate`` objects,
and the ``gates`` of a circuit made as columns are built on access.
``census`` tallies gates by kind from the columns.

A two-level unitary on states (s1, s2) differing in bit r becomes a rotation
chain targeting qubit r, controlled on every other qubit, wrapped in X gates
on the qubits where s1 has a 0 bit so the controls all test for 1.
``matrix_to_circuit`` builds every chain at once with numpy from the block
arrays elimination recorded (``twolevel._eliminate``), forming no 2x2 block
and no ``Gate``, while ``matrix.validate_while`` computes the input's
unitarity residual on a second thread.

X gates are placed through one tracked frame, the set of qubits currently
under an X.  Before each chain, synthesis flips the qubits where the frame
differs from the chain's wrap, those leaving the frame from high to low and
then those entering it from low to high, and it empties the frame at the
end.  Consecutive Gray-adjacent blocks share most of their wraps, so most X
gates are never emitted; ``optimize=False`` empties the frame after every
block instead, which wraps each block in its own X gates.  A block with
theta 0, as every phase fix and a diagonal corner are, has an identity Ry
link, and its two Rz links merge exactly, Rz(lam - mu) Rz(lam + mu) =
Rz(2 lam): its chain is Rz(2 lam), then R1(phi).  Synthesis leaves out
rotations within ``IDENTITY_ANGLE_TOL`` of the identity, the tolerance by
which elimination (``twolevel.py``) already skips whole identity blocks, so
every block it is given emits a non-empty chain.  Each link's angle is
normalized by ``normalize_angles``, which equals ``normalize_angle`` bit for
bit, so the chains equal those of a gate-by-gate synthesis (the reference
synthesizer ``tests/reference_synthesis.py``), angle bits included.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .matrix import num_qubits, validate_while
from .twolevel import EXACT_X, IDENTITY_ANGLE_TOL, Blocks, _eliminate, gray_permutation

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


def normalize_angles(angles: np.ndarray, period: float | np.ndarray) -> np.ndarray:
    """``normalize_angle`` of each entry, bit for bit, signed zeros included.

    ``np.fmod`` is exact, as ``math.remainder`` is, and leaves a value of the
    angle's sign below the period; moving it by one period into
    [-period/2, period/2] is exact too (Sterbenz), so both give the exact
    remainder, and a zero keeps the angle's sign in both.  ``period`` may be
    an array, one period per angle.
    """
    half = period / 2.0
    reduced = np.fmod(angles, period)
    reduced = np.where(reduced > half, reduced - period, reduced)
    reduced = np.where(reduced < -half, reduced + period, reduced)
    return np.where(reduced == -half, half, reduced)


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


def _with_angle(wiring: Gate, angle: float) -> Gate:
    # a Gate of a checked rotation wiring with a normalized finite angle,
    # built without re-running Gate's checks, which it would pass
    gate = _new(Gate)
    _set_kind(gate, wiring.kind)
    _set_target(gate, wiring.target)
    _set_controls(gate, wiring.controls)
    _set_angle(gate, angle)
    return gate


Wiring = tuple[GateKind, int, tuple[int, ...]]


class Circuit:
    """An ordered gate sequence on ``n`` qubits; gates apply left to right.

    A circuit is stored as columns: ``wirings``, the distinct
    ``(kind, target, controls)`` its gates use; ``wiring_ids``, each gate's
    index into ``wirings``; and ``angles``, each gate's angle, NaN for X and
    FCX.  Both arrays are read-only.  ``Circuit(n, gates)`` takes ``Gate``
    objects, and its ``gates`` are those objects; a circuit built as columns
    (by synthesis or ``parse_json``) builds its ``gates`` on access.
    """

    __slots__ = ("n", "wirings", "wiring_ids", "angles", "_gates")

    def __init__(self, n: int, gates: Iterable[Gate] = ()) -> None:
        gates = tuple(gates)
        table: dict = {}
        ids = [
            table.setdefault((gate.kind, gate.target, gate.controls), len(table))
            for gate in gates
        ]
        # numpy reads an X gate's angle None as NaN
        angles = np.array([gate.angle for gate in gates], dtype=np.float64)
        self._assign(n, tuple(table), np.array(ids, dtype=np.intp), angles, gates)

    @classmethod
    def _of_columns(
        cls, n: int, wirings: tuple[Wiring, ...], wiring_ids: np.ndarray, angles: np.ndarray
    ) -> Circuit:
        """A circuit of distinct wirings ``Gate`` accepts, with each rotation's
        angle normalized and finite; only ``n`` and the wirings' qubits are
        checked against each other."""
        circuit = _new(cls)
        circuit._assign(n, wirings, wiring_ids, angles, None)
        return circuit

    def _assign(
        self,
        n: int,
        wirings: tuple[Wiring, ...],
        wiring_ids: np.ndarray,
        angles: np.ndarray,
        gates: tuple[Gate, ...] | None,
    ) -> None:
        # exactly an int, not bool, not float: parse_json checks "n" only here
        if type(n) is not int or n < 1:
            raise ValueError(f"qubit count must be a positive integer, got {n!r}")
        # one check per wiring, in order of first use
        for _, target, controls in wirings:
            # controls are sorted, so the last one is the largest
            if target >= n or (controls and controls[-1] >= n):
                top = max((target, *controls))
                raise ValueError(f"gate touches qubit {top} but circuit has n={n}")
        wiring_ids.flags.writeable = False
        angles.flags.writeable = False
        for name, value in zip(self.__slots__, (n, wirings, wiring_ids, angles, gates)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates; built on access, sharing each X or FCX wiring's gate,
        unless they were given."""
        if self._gates is not None:
            return self._gates
        wirings = [
            Gate(kind, target, controls, 0.0 if kind in ROTATION_KINDS else None)
            for kind, target, controls in self.wirings
        ]
        # an angle that is not equal to itself is NaN: an X or FCX gate
        return tuple(
            wiring if angle != angle else _with_angle(wiring, angle)
            for wiring, angle in zip(
                map(wirings.__getitem__, self.wiring_ids.tolist()), self.angles.tolist()
            )
        )

    def __len__(self) -> int:
        return len(self.wiring_ids)

    def __iter__(self):
        return iter(self.gates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        if self.n != other.n or len(self) != len(other):
            return False
        # other's wirings as indices into this table, -1 where it has none
        index = {wiring: i for i, wiring in enumerate(self.wirings)}
        ids = np.array([index.get(w, -1) for w in other.wirings], dtype=np.intp)
        return np.array_equal(ids[other.wiring_ids], self.wiring_ids) and np.array_equal(
            self.angles, other.angles, equal_nan=True
        )

    def __hash__(self) -> int:
        return hash((self.n, self.gates))

    def __repr__(self) -> str:
        return f"Circuit(n={self.n!r}, gates={self.gates!r})"


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
    counts = dict.fromkeys(GateKind, 0)
    per_wiring = np.bincount(circuit.wiring_ids, minlength=len(circuit.wirings))
    for (kind, _, _), count in zip(circuit.wirings, per_wiring.tolist()):
        counts[kind] += count
    return GateCensus(
        n=circuit.n,
        x=counts[GateKind.X],
        ry=counts[GateKind.FCRY],
        rz=counts[GateKind.FCRZ],
        r1=counts[GateKind.FCR1],
        fcx=counts[GateKind.FCX],
    )


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
    return _chains(num_qubits(len(matrix)), _eliminate(matrix), optimize)


# a block's chain, its links in order: Rz(lam - mu), Ry(2 theta), Rz(lam + mu)
# and R1(phi), each with its period and its row of _chains's wiring table
_LINK_PERIODS = np.array([FOUR_PI, FOUR_PI, FOUR_PI, TWO_PI])
_LINK_ROWS = np.array([1, 2, 1, 3])


def _chains(n: int, blocks: Blocks, optimize: bool) -> Circuit:
    """Every block's chain and X moves, built at once from the block arrays.

    Each block gets 3n + 4 gate slots, in order: an X on each qubit that
    leaves the frame (high to low), on each that enters it (low to high),
    the four chain links, and an X on each qubit the block's closing move
    clears (high to low).  The filled slots, read row by row, are the gates.
    """
    pair, angles, branch = blocks
    pi = gray_permutation(n)
    first = pi[pair]
    second = pi[pair + 1]
    target = np.frexp(first ^ second)[1].astype(np.intp) - 1
    # the larger state's 0 bits are the controls the smaller one leaves at 0:
    # X on each makes every control test for 1.  Bit q of a frame is set
    # while qubit q is under an X.
    wrap = ((1 << n) - 1) & ~(first | second)
    start = np.zeros_like(wrap)
    close = np.zeros_like(wrap)
    if optimize:
        # each block's moves start from the frame the one before left, and
        # only the last block's closing move empties it
        start[1:] = wrap[:-1]
        close[-1:] = wrap[-1:]
    else:
        close = wrap
    down = np.arange(n - 1, -1, -1)
    up = np.arange(n)

    phi, theta, lam, mu = angles.T
    # with theta 0 the Ry link is the identity, and Rz(lam - mu) Rz(lam + mu)
    # is Rz(2 lam): the chain is that one Rz, then R1(phi)
    merged = theta == 0
    first_rz = np.where(merged, 2.0 * lam, lam - mu)
    links = np.stack([first_rz, 2.0 * theta, lam + mu, phi], axis=1)
    links = normalize_angles(links, _LINK_PERIODS)
    # an exact X block's angles are NaN, so it keeps no link but its swap
    keep = np.abs(links) > IDENTITY_ANGLE_TOL
    keep[merged, 2] = False
    swap = branch == EXACT_X
    keep[:, 0] |= swap

    slots = np.concatenate(
        [_has(start & ~wrap, down), _has(wrap & ~start, up), keep, _has(close, down)],
        axis=1,
    )
    block, slot = np.divmod(np.flatnonzero(slots), slots.shape[1])

    # the wiring table: rows of n wirings, X, FCRZ, FCRY, FCR1 and FCX, one
    # per target; at n = 1 the swap is the plain X
    table = [(GateKind.X, q, ()) for q in range(n)] + [
        (kind, q, tuple(c for c in range(n) if c != q))
        for kind in (GateKind.FCRZ, GateKind.FCRY, GateKind.FCR1, GateKind.FCX)
        for q in range(n)
    ]
    link_wiring = _LINK_ROWS * n + target[:, None]
    link_wiring[swap, 0] = (4 * n if n > 1 else 0) + target[swap]
    # an X slot's wiring is its qubit's
    wiring = np.concatenate([down, up, [0] * 4, down])[slot]
    link = slot - 2 * n
    is_link = (link >= 0) & (link < 4)
    rows = block[is_link]
    wiring[is_link] = link_wiring[rows, link[is_link]]
    gate_angles = np.full(len(slot), np.nan)
    gate_angles[is_link] = links[rows, link[is_link]]

    used = np.bincount(wiring, minlength=len(table)) > 0
    renumber = np.cumsum(used) - 1
    wirings = tuple(w for w, u in zip(table, used.tolist()) if u)
    return Circuit._of_columns(n, wirings, renumber[wiring], gate_angles)


def _has(frames: np.ndarray, qubits: np.ndarray) -> np.ndarray:
    # whether each frame holds each qubit, one row per frame
    return ((frames[:, None] >> qubits) & 1).astype(bool)
