"""X-pair cancellation: the oracle's rule, and synthesis's X frame against it.

``cancel_x_pairs`` (``tests/peephole.py``) states the rule plainly; the
compiler's X frame (``matrix_to_circuit``) must give what it gives on the
unoptimized circuit, gate for gate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unisynth import (
    Circuit,
    Gate,
    GateKind,
    circuit_matrix,
    haar_random_unitary,
    matrix_to_circuit,
)

from conftest import random_circuit
from peephole import cancel_x_pairs
from test_golden import BLOCK_INPUTS, INPUTS


def _x(q):
    return Gate(GateKind.X, q)


def test_adjacent_pair_cancels():
    c = Circuit(1, (_x(0), _x(0)))
    assert cancel_x_pairs(c).gates == ()


def test_nested_pairs_cancel():
    c = Circuit(2, (_x(0), _x(1), _x(1), _x(0)))
    assert cancel_x_pairs(c).gates == ()


def test_odd_parity_keeps_first_occurrence():
    c = Circuit(2, (_x(0), _x(1), _x(0)))
    assert cancel_x_pairs(c).gates == (_x(1),)


def test_triple_on_one_qubit_keeps_one():
    c = Circuit(1, (_x(0), _x(0), _x(0)))
    assert cancel_x_pairs(c).gates == (_x(0),)


def test_runs_do_not_cancel_through_controlled_gates():
    rot = Gate(GateKind.FCRY, 1, (0,), 1.0)
    c = Circuit(2, (_x(0), rot, _x(0)))
    assert cancel_x_pairs(c).gates == c.gates


def test_fcx_blocks_cancellation_too():
    fcx = Gate(GateKind.FCX, 1, (0,))
    c = Circuit(2, (_x(0), fcx, _x(0)))
    assert cancel_x_pairs(c).gates == c.gates


def test_optimize_empty_circuit():
    c = Circuit(3, ())
    assert cancel_x_pairs(c).gates == ()


def test_optimize_is_idempotent_and_monotone():
    rng = np.random.default_rng(21)
    for n in range(1, 5):
        for _ in range(10):
            c = random_circuit(rng, n, int(rng.integers(0, 30)))
            once = cancel_x_pairs(c)
            assert len(once.gates) <= len(c.gates)
            assert cancel_x_pairs(once).gates == once.gates


def test_optimize_preserves_matrix():
    rng = np.random.default_rng(22)
    for n in range(1, 5):
        for _ in range(10):
            c = random_circuit(rng, n, int(rng.integers(0, 30)))
            delta = circuit_matrix(cancel_x_pairs(c)) - circuit_matrix(c)
            assert np.linalg.norm(delta) <= 1e-12


def test_interleaved_runs_reduce_to_parity():
    # q0 appears twice (even), q1 once (odd), q2 thrice (odd)
    c = Circuit(3, (_x(2), _x(0), _x(1), _x(2), _x(0), _x(2)))
    out = cancel_x_pairs(c)
    assert out.gates == (_x(2), _x(1))
    assert np.array_equal(circuit_matrix(out), circuit_matrix(c))


def test_pipeline_x_count_strictly_drops():
    a = haar_random_unitary(3, 1)
    raw = matrix_to_circuit(a, optimize=False)
    cooked = matrix_to_circuit(a)
    raw_x = sum(g.kind is GateKind.X for g in raw.gates)
    cooked_x = sum(g.kind is GateKind.X for g in cooked.gates)
    assert cooked_x < raw_x


def test_optimize_preserves_pipeline_matrix():
    a = haar_random_unitary(3, 13)
    raw = matrix_to_circuit(a, optimize=False)
    delta = circuit_matrix(matrix_to_circuit(a)) - circuit_matrix(raw)
    assert np.linalg.norm(delta) <= 1e-12


def test_parity_back_to_odd_keeps_the_first_gate_object_and_position():
    first, again, third = _x(0), _x(0), _x(0)
    c = Circuit(2, (first, _x(1), again, third, Gate(GateKind.FCX, 1, (0,))))
    out = cancel_x_pairs(c).gates
    assert out == (_x(0), _x(1), Gate(GateKind.FCX, 1, (0,)))
    assert out[0] is first


def _assert_frame_matches_oracle(matrix):
    raw = matrix_to_circuit(matrix, optimize=False)
    assert matrix_to_circuit(matrix).gates == cancel_x_pairs(raw).gates


@pytest.mark.parametrize("name", sorted(INPUTS) + sorted(BLOCK_INPUTS))
def test_frame_equals_oracle_on_golden_and_block_inputs(name):
    _assert_frame_matches_oracle({**INPUTS, **BLOCK_INPUTS}[name])


@pytest.mark.parametrize("n", range(1, 8))
def test_frame_equals_oracle_on_haar(n):
    for seed in range(4):
        _assert_frame_matches_oracle(haar_random_unitary(n, seed))


@settings(max_examples=40)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.one_of(st.none(), st.floats(-14.0, -9.0)),
)
def test_frame_equals_oracle_on_haar_and_perturbed_inputs(n, seed, exponent):
    # a perturbation far inside the input tolerance (1e-8 per dimension)
    # leaves entries near ZERO_THRESHOLD and phases near the identity-angle
    # tolerance, where elimination skips a block rather than emit one of
    # identity links
    u = haar_random_unitary(n, seed)
    if exponent is not None:
        rng = np.random.default_rng(seed)
        dim = 1 << n
        noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u = u + 10.0**exponent * noise
    _assert_frame_matches_oracle(u)
