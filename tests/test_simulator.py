"""Dense simulation semantics and verification reports."""

import numpy as np
import pytest

from unisynth import (
    Circuit,
    DimensionError,
    Gate,
    GateKind,
    circuit_matrix,
    gate_block,
    gate_matrix,
    haar_random_unitary,
    matrix_to_circuit,
    ry_matrix,
    verify,
)
from unisynth.simulator import default_verification_tol

from conftest import CNOT, random_circuit
from masked_simulator import masked_circuit_matrix


def test_single_x_matrix():
    assert np.array_equal(gate_matrix(Gate(GateKind.X, 0), 1), [[0, 1], [1, 0]])


def test_x_on_qubit_one_of_two():
    # qubit 1 is the high bit, so the swap pairs are (0,2) and (1,3)
    got = gate_matrix(Gate(GateKind.X, 1), 2)
    expected = np.zeros((4, 4))
    for i in range(4):
        expected[i ^ 2, i] = 1.0
    assert np.array_equal(got, expected)


def test_fcx_control_high_target_low_is_cnot():
    # control qubit 1, target qubit 0: block sits on states 2 and 3
    got = gate_matrix(Gate(GateKind.FCX, 0, (1,)), 2)
    assert np.array_equal(got, CNOT)


def test_fcx_control_low_target_high():
    got = gate_matrix(Gate(GateKind.FCX, 1, (0,)), 2)
    expected = np.eye(4)[:, [0, 3, 2, 1]]
    assert np.array_equal(got, expected)


def test_fcry_pi_acts_on_controlled_pair():
    # controls satisfied only on states with qubit 1 set: the (2, 3) pair
    got = gate_matrix(Gate(GateKind.FCRY, 0, (1,), np.pi), 2)
    expected = np.eye(4, dtype=complex)
    expected[2:, 2:] = ry_matrix(np.pi)
    assert np.allclose(got, expected, atol=1e-15)
    assert np.allclose(expected[2:, 2:], [[0, 1], [-1, 0]], atol=1e-15)


def test_gate_block_matches_kind():
    assert np.array_equal(gate_block(Gate(GateKind.FCX, 0, (1,))), [[0, 1], [1, 0]])
    assert np.allclose(
        gate_block(Gate(GateKind.FCR1, 0, (), 0.5)), np.diag([1, np.exp(0.5j)])
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_gate_matrix_is_unitary(n):
    rng = np.random.default_rng(n)
    for kind in GateKind:
        for target in range(n):
            others = [q for q in range(n) if q != target]
            if kind is GateKind.X:
                control_sets = [()]
            else:
                control_sets = [
                    tuple(q for i, q in enumerate(others) if (mask >> i) & 1)
                    for mask in range(1 << len(others))
                ]
            for controls in control_sets:
                if kind in (GateKind.X, GateKind.FCX):
                    gate = Gate(kind, target, controls)
                else:
                    gate = Gate(kind, target, controls, float(rng.uniform(-6, 6)))
                m = gate_matrix(gate, n)
                assert np.linalg.norm(m.conj().T @ m - np.eye(1 << n)) <= 1e-12


def test_empty_circuit_is_identity():
    assert np.array_equal(circuit_matrix(Circuit(2, ())), np.eye(4))


def test_x_pair_is_identity_exactly():
    c = Circuit(1, (Gate(GateKind.X, 0), Gate(GateKind.X, 0)))
    assert np.array_equal(circuit_matrix(c), np.eye(2))


def test_gate_matrix_bounds_check():
    with pytest.raises(ValueError):
        gate_matrix(Gate(GateKind.X, 3), 2)


def test_two_level_realization_matches_embedding():
    # states 5 and 4 are the last Gray pair: one X-wrapped chain with an R1
    u = np.eye(8, dtype=np.complex128)
    u[np.ix_([4, 5], [4, 5])] = haar_random_unitary(1, 77)
    c = matrix_to_circuit(u, optimize=False)
    assert any(g.kind is GateKind.FCR1 for g in c.gates)
    assert np.linalg.norm(circuit_matrix(c) - u) <= 1e-12


def test_concatenation_multiplies():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        gates = random_circuit(rng, n, 12).gates
        cut = int(rng.integers(0, 13))
        whole = circuit_matrix(Circuit(n, gates))
        head = circuit_matrix(Circuit(n, gates[:cut]))
        tail = circuit_matrix(Circuit(n, gates[cut:]))
        assert np.linalg.norm(tail @ head - whole) <= 1e-13


def test_verify_identity_report_is_exact():
    report = verify(np.eye(4), Circuit(2, ()), tol=1e-10)
    assert report.passed
    assert report.frobenius_error == 0.0
    assert report.max_abs_entry_error == 0.0
    assert report.gate_count == 0


def test_verify_end_to_end_haar():
    a = haar_random_unitary(3, 7)
    report = verify(a, matrix_to_circuit(a))
    assert report.passed
    assert report.frobenius_error <= 1e-10


def test_verify_flags_perturbed_circuit():
    a = haar_random_unitary(2, 3)
    circuit = matrix_to_circuit(a)
    bumped = []
    perturbed = False
    for gate in circuit.gates:
        if gate.angle is not None and not perturbed:
            bumped.append(
                Gate(gate.kind, gate.target, gate.controls, gate.angle + 1e-3)
            )
            perturbed = True
        else:
            bumped.append(gate)
    assert perturbed
    report = verify(a, Circuit(circuit.n, tuple(bumped)))
    assert not report.passed
    assert report.frobenius_error > 1e-8


def test_verify_dimension_mismatch():
    with pytest.raises(DimensionError):
        verify(np.eye(4), Circuit(3, ()))


def test_default_verification_tol_steps_at_seven_qubits():
    assert default_verification_tol(6) == 1e-8
    assert default_verification_tol(7) == 1e-6


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pipeline_round_trip_small_sample(n):
    for seed in range(5):
        a = haar_random_unitary(n, seed)
        assert verify(a, matrix_to_circuit(a)).passed


# The frame-tracked simulator against the masked reference, bit for bit.


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_matches_masked_reference_on_random_circuits(n):
    rng = np.random.default_rng(100 + n)
    for length in (1, 20, 200):
        c = random_circuit(rng, n, length)
        assert np.array_equal(circuit_matrix(c), masked_circuit_matrix(c))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_matches_masked_reference_on_compiled_circuits(n):
    c = matrix_to_circuit(haar_random_unitary(n, 42))
    assert np.array_equal(circuit_matrix(c), masked_circuit_matrix(c))


def _x(q):
    return Gate(GateKind.X, q)


def test_matches_masked_reference_when_ending_on_a_nonzero_frame():
    c = Circuit(3, (
        Gate(GateKind.FCRY, 1, (0, 2), 0.7),
        _x(0),
        Gate(GateKind.FCRZ, 0, (1, 2), -1.3),
        _x(2),
        _x(1),
    ))
    assert np.array_equal(circuit_matrix(c), masked_circuit_matrix(c))


def test_matches_masked_reference_under_a_nonzero_frame():
    # full-control FCX/R1 and partial-control rotations with X gates pending
    c = Circuit(3, (
        _x(0),
        _x(2),
        Gate(GateKind.FCX, 1, (0, 2)),
        Gate(GateKind.FCRY, 0, (2,), 0.4),
        Gate(GateKind.FCR1, 2, (0, 1), 2.1),
        Gate(GateKind.FCRZ, 1, (), 0.9),
        Gate(GateKind.FCX, 0, (1,)),
        _x(0),
        Gate(GateKind.FCX, 2, ()),
        Gate(GateKind.FCRY, 1, (0, 2), -2.5),
    ))
    assert np.array_equal(circuit_matrix(c), masked_circuit_matrix(c))


def test_matches_masked_reference_at_seven_qubits_for_every_control_count():
    # partial-control gates of each control count 0..6 on every target,
    # each after X gates leave a different nonzero frame
    n = 7
    rng = np.random.default_rng(77)
    kinds = (GateKind.FCRY, GateKind.FCRZ, GateKind.FCR1, GateKind.FCX)
    gates = []
    for k in range(n):
        for target in range(n):
            for q in range(n):
                if rng.random() < 0.5:
                    gates.append(_x(q))
            others = [q for q in range(n) if q != target]
            controls = tuple(int(q) for q in rng.choice(others, size=k, replace=False))
            kind = kinds[(k + target) % len(kinds)]
            angle = None if kind is GateKind.FCX else float(rng.uniform(-6.0, 6.0))
            gates.append(Gate(kind, target, controls, angle))
    c = Circuit(n, tuple(gates))
    assert {len(g.controls) for g in c.gates if g.kind is not GateKind.X} == set(range(n))
    assert np.array_equal(circuit_matrix(c), masked_circuit_matrix(c))


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_x_only_single_qubit_circuits(count):
    c = Circuit(1, (_x(0),) * count)
    expected = np.eye(2)[::-1] if count % 2 else np.eye(2)
    assert np.array_equal(circuit_matrix(c), expected)
    assert np.array_equal(circuit_matrix(c), masked_circuit_matrix(c))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_verify_rejects_bad_tolerance(tol):
    circuit = Circuit(1, (Gate(GateKind.X, 0),))
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        verify(np.array([[0, 1], [1, 0]]), circuit, tol=tol)
