"""Accuracy of the compiled circuits on structured inputs, and the ZYZ angle.

Diagonal, phase-permutation and near-diagonal inputs make blocks whose
rotation angle is 0 or tiny.  ``acos(|u00|)`` loses half the digits there
(a zero angle came out near 1.5e-8, a spurious Ry, and the circuit off by
about 1e-8); ``atan2(|u01|, |u00|)`` keeps them, so these inputs verify at
round-off like Haar-random ones.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unisynth import (
    GateKind,
    census,
    gray_permutation,
    haar_random_unitary,
    matrix_to_circuit,
    verify,
)
from unisynth.matrix import default_unitarity_tol, unitarity_residual
from unisynth.twolevel import _zyz_angles

from masked_simulator import ry_matrix


def _diagonal(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, 1 << n)))


def _phase_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    return _diagonal(n, rng)[rng.permutation(1 << n)]


def _near_diagonal(n: int, rng: np.random.Generator) -> np.ndarray:
    # diagonal phases mixed by rotations of 1e-9 .. 1e-5 on disjoint random
    # index pairs; overlapping pairs would add second-order entries below
    # ZERO_THRESHOLD, which elimination drops by design
    dim = 1 << n
    u = _diagonal(n, rng)
    for i, j in rng.permutation(dim)[: 2 * max(1, dim // 4)].reshape(-1, 2):
        eps = 10.0 ** rng.uniform(-9.0, -5.0)
        phase = np.exp(1j * rng.uniform(-math.pi, math.pi))
        g = np.eye(dim, dtype=np.complex128)
        g[i, i] = g[j, j] = math.cos(eps)
        g[i, j] = math.sin(eps) * phase
        g[j, i] = -math.sin(eps) * np.conj(phase)
        u = g @ u
    return u


FAMILIES = {
    "diagonal": _diagonal,
    "phase_permutation": _phase_permutation,
    "near_diagonal": _near_diagonal,
}

# far below the 1e-8-scale errors of a lost half of the digits, and above
# the round-off of every structured input at n <= 6 (about 2e-15)
ROUND_OFF = 1e-13


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", range(1, 7))
def test_structured_inputs_verify_at_round_off(family, n):
    for seed in range(4):
        u = FAMILIES[family](n, np.random.default_rng(seed))
        report = verify(u, matrix_to_circuit(u), tol=ROUND_OFF)
        assert report.passed, f"seed {seed}: frobenius {report.frobenius_error:.2e}"


@pytest.mark.parametrize("n", range(1, 7))
def test_diagonal_inputs_compile_without_ry(n):
    for seed in range(4):
        u = _diagonal(n, np.random.default_rng(seed))
        assert census(matrix_to_circuit(u)).ry == 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_structured_families_verify_at_round_off(family, n, seed):
    u = FAMILIES[family](n, np.random.default_rng(seed))
    circuit = matrix_to_circuit(u)
    assert verify(u, circuit, tol=ROUND_OFF).passed
    if family == "diagonal":
        assert census(circuit).ry == 0


# The ZYZ tests call the unchecked core that factors the trailing corner.
# ``two_level_angles`` cannot stand in for it: at theta = 1e-13 the 1-qubit
# input Ry(2 theta) has off-diagonal entries under ZERO_THRESHOLD, which
# elimination reads as exact zeros, so it yields no block.


def test_zyz_diagonal_angle_is_exactly_zero():
    rng = np.random.default_rng(0)
    for _ in range(200):
        u = np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, 2)))
        assert _zyz_angles(*u.ravel().tolist())[1] == 0.0


@pytest.mark.parametrize("theta", [1e-13, 1e-10, 1e-7, 1e-4])
def test_zyz_small_angle_keeps_full_precision(theta):
    got = _zyz_angles(*ry_matrix(2.0 * theta).ravel().tolist())[1]
    assert got == pytest.approx(theta, rel=1e-14, abs=0.0)


def test_diagonal_block_synthesizes_without_ry():
    rng = np.random.default_rng(1)
    for _ in range(100):
        # states 2 and 6 are Gray-adjacent; the phase left on state 6 moves
        # on through later rows as theta-0 blocks
        u = np.eye(8, dtype=np.complex128)
        u[2, 2], u[6, 6] = np.exp(1j * rng.uniform(-math.pi, math.pi, 2))
        circuit = matrix_to_circuit(u, optimize=False)
        assert all(g.kind is not GateKind.FCRY for g in circuit.gates)
        assert verify(u, circuit, tol=1e-13).passed


def test_haar_n6_seed42_is_no_less_accurate():
    # With the rotation written with math.pi (1.2e-16 below pi, the same
    # bias in every block) and its angles read back from the block, this
    # input verified at 1.435e-14.  The pi-free rotation, its angles handed
    # straight to synthesis, gives about 1.05e-14; math.pi with those
    # angles about 2.9e-14.
    u = haar_random_unitary(6, 42)
    assert verify(u, matrix_to_circuit(u)).frobenius_error <= 1.43e-14


def _perturbation(u: np.ndarray, shape: str, rng: np.random.Generator) -> np.ndarray:
    # a direction E of Frobenius norm 1 to add to u
    dim = len(u)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if shape == "hermitian":
        e = u @ (g + g.conj().T)
    elif shape == "anti_hermitian":
        e = u @ (g - g.conj().T)
    elif shape == "column_scale":
        e = u * rng.standard_normal(dim)
    elif shape == "gray_lower":
        # strictly lower-triangular in the Gray frame, where elimination
        # works: M = (I + K) U is already M = L Q, the shape that meets the
        # bound
        back = np.argsort(gray_permutation(dim.bit_length() - 1))
        e = np.tril(g, -1)[np.ix_(back, back)] @ u
    else:
        e = g
    return e / np.linalg.norm(e)


@settings(max_examples=60)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(
        ["entries", "hermitian", "anti_hermitian", "column_scale", "gray_lower"]
    ),
    level=st.floats(-4.0, 0.0, exclude_max=True),
)
def test_perturbed_input_circuit_is_within_half_root_two_residual(n, seed, shape, level):
    # Elimination factors M = L Q, L lower-triangular, and the circuit is
    # Q; to first order ||M - Q||_F <= ||M†M - I||_F / sqrt(2), so a matrix
    # the input check accepts compiles to a circuit that close to it
    u = haar_random_unitary(n, seed % 1000)
    rng = np.random.default_rng(seed)
    tol = default_unitarity_tol(len(u))
    # ||U†E + E†U||_F <= 2, so the residual is at most 0.98 tol to first order
    m = u + 0.49 * tol * 10.0**level * _perturbation(u, shape, rng)
    r = unitarity_residual(m)
    assert r <= tol
    error = verify(m, matrix_to_circuit(m), tol=1.0).frobenius_error
    assert error <= r / math.sqrt(2) + 1e-12
