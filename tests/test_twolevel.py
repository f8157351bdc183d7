"""Gray-code reindexing, single-entry elimination, two-level decomposition."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unisynth import (
    Gate,
    GateKind,
    UnitarityError,
    census,
    gray_permutation,
    haar_random_unitary,
    matrix_to_circuit,
    verify,
)
from unisynth import circuit as circuit_module
from unisynth.twolevel import two_level_angles, zyz_reconstruct

from conftest import CNOT, SWAP_2Q
from peephole import cancel_x_pairs


def test_gray_code_first_eight():
    assert gray_permutation(3).tolist() == [0, 1, 3, 2, 6, 7, 5, 4]


def test_gray_code_adjacent_indices_differ_in_one_bit():
    codes = gray_permutation(8).tolist()
    for i in range(255):
        assert (codes[i] ^ codes[i + 1]).bit_count() == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_gray_permutation_is_a_bijection(n):
    perm = gray_permutation(n)
    assert sorted(perm.tolist()) == list(range(1 << n))


def _pair_unitary(a: complex, b: complex) -> np.ndarray:
    # two qubits, first row (a, b, 0, 0): an SU(2) block on states 0 and 1,
    # which are also Gray indices 0 and 1, so row 0 eliminates b against a
    u = np.eye(4, dtype=np.complex128)
    u[:2, :2] = [[a, b], [-np.conj(b), np.conj(a)]]
    return u


def _product(entries, dim: int) -> np.ndarray:
    # the entries' blocks embedded at their state pairs, in application order
    m = np.eye(dim, dtype=np.complex128)
    for s1, s2, angles in entries:
        g = np.eye(dim, dtype=np.complex128)
        block = [[0, 1], [1, 0]] if angles is None else zyz_reconstruct(angles)
        g[np.ix_([s1, s2], [s1, s2])] = block
        m = g @ m
    return m


def test_eliminate_entry_identity_branch():
    # b == 0 takes no rotation; only a leftover phase gets a (theta 0) block
    assert two_level_angles(_pair_unitary(1.0, 0.0)) == []
    a = np.exp(0.5j)
    assert two_level_angles(_pair_unitary(a, 0.0)) == [(0, 1, (0.0, 0.0, 0.5, 0.0))]


def test_eliminate_entry_swap_branch():
    u = np.eye(4, dtype=np.complex128)[[1, 0, 2, 3]]
    assert two_level_angles(u) == [(0, 1, None)]


def test_eliminate_entry_equal_weights():
    s = 1.0 / np.sqrt(2.0)
    u = _pair_unitary(s, s)
    [(s1, s2, angles)] = two_level_angles(u)
    assert (s1, s2) == (0, 1)
    assert angles == pytest.approx((0.0, np.pi / 4, 0.0, 0.0), abs=1e-15)
    assert np.allclose(zyz_reconstruct(angles), u[:2, :2], atol=1e-15)


def test_eliminate_entry_threshold_behavior():
    # |b| at or below ZERO_THRESHOLD is skipped; |a| below it means a swap
    eps = 1e-11
    assert two_level_angles(_pair_unitary(np.cos(eps), np.sin(eps))) == []
    assert two_level_angles(_pair_unitary(np.sin(eps), np.cos(eps)))[0] == (0, 1, None)


def test_eliminate_entry_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        norm = np.hypot(abs(a), abs(b))
        a, b = a / norm, b / norm
        u = _pair_unitary(a, b)
        [(s1, s2, angles)] = two_level_angles(u)
        assert (s1, s2) == (0, 1)
        # phi is exactly 0: every block but the last is special unitary
        assert angles == (0.0, math.atan2(abs(b), abs(a)), cmath.phase(a), cmath.phase(b))
        assert np.abs(zyz_reconstruct(angles) - u[:2, :2]).max() <= 1e-15


@pytest.mark.parametrize("n", range(1, 4))
def test_decompose_identity_is_empty(n):
    assert two_level_angles(np.eye(1 << n)) == []


def test_decompose_single_qubit_diagonal():
    u = np.diag([1.0, np.exp(1j * np.pi / 3)])
    [(s1, s2, angles)] = two_level_angles(u)
    assert (s1, s2) == (0, 1)
    assert np.allclose(zyz_reconstruct(angles), u, atol=1e-15)


def test_decompose_generic_count_and_reconstruction():
    a = haar_random_unitary(2, 42)
    entries = two_level_angles(a)
    assert len(entries) == 6  # d*(d-1)/2 for d=4
    assert np.linalg.norm(_product(entries, 4) - a) <= 1e-10


@pytest.mark.parametrize("n", range(1, 5))
def test_decompose_properties_over_seeds(n):
    dim = 1 << n
    for seed in range(10):
        a = haar_random_unitary(n, seed)
        entries = two_level_angles(a)
        assert len(entries) == dim * (dim - 1) // 2
        assert all(angles[0] == 0.0 for _, _, angles in entries[:-1])
        assert np.linalg.norm(_product(entries, dim) - a) <= 1e-8


def test_decompose_block_determinants_multiply_to_input_determinant():
    # a block's determinant is exp(i phi), and -1 for an exact X
    a = haar_random_unitary(3, 9)
    dets = [-1.0 if g is None else cmath.exp(1j * g[0]) for _, _, g in two_level_angles(a)]
    assert abs(np.prod(dets) - np.linalg.det(a)) <= 1e-10


@pytest.mark.parametrize("matrix", [CNOT, SWAP_2Q], ids=["cnot", "swap"])
def test_decompose_handles_permutation_matrices(matrix):
    entries = two_level_angles(matrix)
    assert np.linalg.norm(_product(entries, 4) - matrix) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_decompose_handles_sparse_diagonal_phases(n):
    # rows with exact zeros exercise the residual-phase repair path
    rng = np.random.default_rng(n)
    u = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, size=1 << n)))
    entries = two_level_angles(u)
    assert np.linalg.norm(_product(entries, 1 << n) - u) <= 1e-12


def test_decompose_skips_a_diagonal_entry_whose_modulus_alone_drifts():
    # 1 - 1e-11 has phase 0: no phase block can remove modulus drift, so
    # none is emitted, and the raw circuit holds no X wraps either
    u = np.diag([1, 1, 1 - 1e-11, 1, 1, 1, 1, 1]).astype(np.complex128)
    assert two_level_angles(u) == []
    assert matrix_to_circuit(u, optimize=False).gates == ()


def test_decompose_keeps_a_phase_just_above_the_phase_tolerance():
    # state 1 sits at Gray index 1: its row's phase moves onto state 3, and
    # the trailing corner, states (2, 3), carries it as det's phase
    u = np.diag([1, cmath.exp(2e-12j), 1, 1]).astype(np.complex128)
    phase = cmath.phase(u[1, 1])
    assert two_level_angles(u) == [
        (1, 3, (0.0, 0.0, phase, 0.0)),
        (2, 3, (phase, -0.0, 0.0, 0.0)),
    ]


def test_decompose_skips_a_trailing_corner_whose_modulus_alone_drifts():
    # the corner is judged by the rows' rules: 1 + 1e-9 has phase 0, so the
    # corner's angles are all identity and no block is emitted
    u = np.diag([1, 1, 1, 1 + 1e-9]).astype(np.complex128)
    assert two_level_angles(u) == []
    assert matrix_to_circuit(u, optimize=False).gates == ()


@pytest.mark.parametrize(
    "diagonal, pair",
    [
        ([1, 1, cmath.exp(2e-12j), 1], (2, 3)),
        ([1, 1, 1, cmath.exp(2e-12j)], (2, 3)),
        ([1, 1, 1, cmath.exp(5e-11j)], (2, 3)),
        ([1, cmath.exp(5e-11j)], (0, 1)),
    ],
    ids=["state2-2e-12", "state3-2e-12", "state3-5e-11", "n1-5e-11"],
)
def test_a_phase_in_the_trailing_corner_gets_its_r1(diagonal, pair):
    # the phase sits in the last Gray pair, so only the corner can carry it;
    # a phase above the identity-angle tolerance is kept there as in a row
    u = np.diag(diagonal).astype(np.complex128)
    blocks = two_level_angles(u)
    assert [(s1, s2) for s1, s2, _ in blocks] == [pair]
    circuit = matrix_to_circuit(u)
    assert census(circuit).r1 == 1
    assert verify(u, circuit).frobenius_error == 0.0


def _drift(rng, size):
    # per entry: no drift, or a signed drift log-uniform in 1e-13..1e-9
    magnitude = 10.0 ** rng.uniform(-13.0, -9.0, size)
    return rng.choice([0.0, -1.0, 1.0], size) * magnitude


@settings(max_examples=60)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["near_identity_diagonal", "diagonal", "near_identity"]),
)
def test_every_block_of_a_drifted_input_emits_gates(n, seed, kind):
    # diagonal and near-identity inputs whose phases and moduli drift by
    # 1e-13..1e-9: each block elimination returns has a non-empty chain,
    # the corner's R1 is the only one, and the X frame is the oracle's
    rng = np.random.default_rng(seed)
    dim = 1 << n
    phases = rng.uniform(-np.pi, np.pi, dim) if kind == "diagonal" else 0.0
    u = np.diag((1.0 + _drift(rng, dim)) * np.exp(1j * (phases + _drift(rng, dim))))
    if kind == "near_identity":
        u = u + _drift(rng, (dim, dim)) + 1j * _drift(rng, (dim, dim))
    for s1, s2, angles in two_level_angles(u):
        r = (s1 ^ s2).bit_length() - 1
        controls = tuple(q for q in range(n) if q != r)
        swap = Gate(GateKind.FCX if n > 1 else GateKind.X, r, controls)
        assert circuit_module._chain(r, controls, swap, angles)
    circuit = matrix_to_circuit(u)
    assert census(circuit).r1 <= 1
    assert verify(u, circuit).passed
    raw = matrix_to_circuit(u, optimize=False)
    assert circuit.gates == cancel_x_pairs(raw).gates


def test_decompose_rejects_non_unitary():
    with pytest.raises(UnitarityError):
        two_level_angles(np.ones((4, 4)))


def test_decompose_pairs_differ_in_one_bit():
    for s1, s2, _ in two_level_angles(haar_random_unitary(3, 2)):
        assert (s1 ^ s2).bit_count() == 1
        assert s1 < s2
