"""Peephole passes: exactness, idempotence, and the cancellation rule."""

import math

import numpy as np
import pytest

from unisynth import (
    Circuit,
    Gate,
    GateKind,
    cancel_x_pairs,
    circuit_matrix,
    drop_identity_gates,
    haar_random_unitary,
    matrix_to_circuit,
    optimize,
)

from conftest import random_circuit


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
    assert optimize(c).gates == c.gates


def test_fcx_blocks_cancellation_too():
    fcx = Gate(GateKind.FCX, 1, (0,))
    c = Circuit(2, (_x(0), fcx, _x(0)))
    assert cancel_x_pairs(c).gates == c.gates


def test_drop_identity_angles():
    c = Circuit(
        1,
        (
            Gate(GateKind.FCRZ, 0, (), 1e-15),
            Gate(GateKind.FCRY, 0, (), 4.0 * math.pi),  # normalizes to 0
            Gate(GateKind.FCR1, 0, (), 2.0 * math.pi),  # normalizes to 0
        ),
    )
    assert drop_identity_gates(c).gates == ()


def test_keep_two_pi_ry():
    # Ry(2*pi) is -I on the block, not the identity
    c = Circuit(1, (Gate(GateKind.FCRY, 0, (), 2.0 * math.pi),))
    assert drop_identity_gates(c).gates == c.gates


def test_optimize_empty_circuit():
    c = Circuit(3, ())
    assert optimize(c).gates == ()


def test_optimize_is_idempotent_and_monotone():
    rng = np.random.default_rng(21)
    for n in range(1, 5):
        for _ in range(10):
            c = random_circuit(rng, n, int(rng.integers(0, 30)))
            once = optimize(c)
            assert len(once.gates) <= len(c.gates)
            assert optimize(once).gates == once.gates


def test_optimize_preserves_matrix():
    rng = np.random.default_rng(22)
    for n in range(1, 5):
        for _ in range(10):
            c = random_circuit(rng, n, int(rng.integers(0, 30)))
            delta = circuit_matrix(optimize(c)) - circuit_matrix(c)
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
    cooked = cancel_x_pairs(raw)
    raw_x = sum(g.kind is GateKind.X for g in raw.gates)
    cooked_x = sum(g.kind is GateKind.X for g in cooked.gates)
    assert cooked_x < raw_x


def test_optimize_preserves_pipeline_matrix():
    a = haar_random_unitary(3, 13)
    raw = matrix_to_circuit(a, optimize=False)
    delta = circuit_matrix(optimize(raw)) - circuit_matrix(raw)
    assert np.linalg.norm(delta) <= 1e-12


@pytest.mark.parametrize("pass_fn", [drop_identity_gates, cancel_x_pairs])
def test_passes_return_same_object_when_nothing_changes(pass_fn):
    c = Circuit(2, (Gate(GateKind.FCRY, 0, (1,), 1.0),))
    assert pass_fn(c) is c


def _reference_cancel(gates):
    # the rule stated plainly: per maximal X run, the first X of each qubit
    # with odd parity, in first-position order
    out, run = [], []
    for gate in (*gates, None):
        if gate is not None and gate.kind is GateKind.X:
            run.append(gate)
            continue
        parity = {}
        for x in run:
            parity[x.target] = parity.get(x.target, 0) ^ 1
        for x in run:
            if parity.pop(x.target, 0):
                out.append(x)
        run = []
        if gate is not None:
            out.append(gate)
    return out


def test_parity_back_to_odd_keeps_the_first_gate_object_and_position():
    first, again, third = _x(0), _x(0), _x(0)
    c = Circuit(2, (first, _x(1), again, third, Gate(GateKind.FCX, 1, (0,))))
    out = cancel_x_pairs(c).gates
    assert out == (_x(0), _x(1), Gate(GateKind.FCX, 1, (0,)))
    assert out[0] is first


@pytest.mark.parametrize("n", range(1, 6))
def test_cancel_matches_the_plain_rule_gate_for_gate(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(20):
        c = random_circuit(rng, n, int(rng.integers(0, 120)))
        # a gate soup has few X runs: splice in runs of fresh X objects
        gates = list(c.gates)
        for _ in range(int(rng.integers(0, 8))):
            at = int(rng.integers(len(gates) + 1))
            run = [_x(int(q)) for q in rng.integers(n, size=int(rng.integers(1, 7)))]
            gates[at:at] = run
        c = Circuit(n, tuple(gates))
        want = _reference_cancel(c.gates)
        got = cancel_x_pairs(c).gates
        assert [id(g) for g in got] == [id(g) for g in want]


@pytest.mark.parametrize("n", range(1, 5))
def test_drop_keeps_exactly_the_non_identity_gates(n):
    c = random_circuit(np.random.default_rng(400 + n), n, 200)
    want = [
        g
        for g in c.gates
        if not (g.kind in (GateKind.FCRY, GateKind.FCRZ, GateKind.FCR1)
                and abs(g.angle) <= 1e-12)
    ]
    assert [id(g) for g in drop_identity_gates(c).gates] == [id(g) for g in want]
