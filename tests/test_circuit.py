"""Gate/Circuit invariants, angle handling, and two-level gate synthesis."""

import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unisynth import (
    Circuit,
    Gate,
    GateKind,
    UnitarityError,
    circuit_matrix,
    gray_permutation,
    haar_random_unitary,
    matrix_to_circuit,
    normalize_angle,
    verify,
    zyz_reconstruct,
)
from unisynth.circuit import IDENTITY_ANGLE_TOL, ROTATION_KINDS, _synthesize
from unisynth.matrix import _judge, unitarity_residual
from unisynth.twolevel import _zyz_angles

from conftest import NOT_UNITARY_N3
from masked_simulator import r1_matrix, ry_matrix, rz_matrix
from test_golden import BLOCK_INPUTS, GOLDEN

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


def test_rotation_matrices_match_definitions():
    a = 0.7
    assert np.allclose(
        ry_matrix(a),
        [[math.cos(a / 2), math.sin(a / 2)], [-math.sin(a / 2), math.cos(a / 2)]],
    )
    assert np.allclose(
        rz_matrix(a), np.diag([np.exp(1j * a / 2), np.exp(-1j * a / 2)])
    )
    assert np.allclose(r1_matrix(a), np.diag([1.0, np.exp(1j * a)]))


@pytest.mark.parametrize(
    "angle,period,expected",
    [
        (0.0, FOUR_PI, 0.0),
        (5.0 * math.pi, FOUR_PI, math.pi),
        (-2.0 * math.pi, FOUR_PI, 2.0 * math.pi),  # boundary maps to +period/2
        (2.0 * math.pi, FOUR_PI, 2.0 * math.pi),
        (2.0 * math.pi, TWO_PI, 0.0),
        (-math.pi, TWO_PI, math.pi),
        (1.5, TWO_PI, 1.5),
    ],
)
def test_normalize_angle(angle, period, expected):
    assert normalize_angle(angle, period) == pytest.approx(expected, abs=1e-15)


def test_normalize_angle_idempotent():
    rng = np.random.default_rng(5)
    for period in (TWO_PI, FOUR_PI):
        for raw in rng.uniform(-20.0, 20.0, size=100):
            once = normalize_angle(float(raw), period)
            assert normalize_angle(once, period) == once
            assert -period / 2 < once <= period / 2


def test_gate_normalizes_angle_at_construction():
    assert Gate(GateKind.FCRY, 0, (), 5.0 * math.pi).angle == pytest.approx(math.pi)
    assert Gate(GateKind.FCR1, 0, (), TWO_PI).angle == pytest.approx(0.0, abs=1e-15)
    assert Gate(GateKind.FCRY, 0, (), TWO_PI).angle == pytest.approx(TWO_PI)


def test_gate_sorts_controls():
    g = Gate(GateKind.FCRY, 0, (3, 1, 2), 1.0)
    assert g.controls == (1, 2, 3)
    # a list, as parsed JSON holds, is read as its tuple
    assert Gate(GateKind.FCRY, 0, [3, 1, 2], 1.0) == g


def test_gate_invariants():
    with pytest.raises(ValueError):
        Gate(GateKind.X, 0, (1,))  # x takes no controls
    with pytest.raises(ValueError):
        Gate(GateKind.FCRY, 0, (0,), 1.0)  # target among controls
    with pytest.raises(ValueError):
        Gate(GateKind.FCRY, 0, (1, 1), 1.0)  # duplicate controls
    with pytest.raises(ValueError):
        Gate(GateKind.FCRY, 0, ())  # rotation without angle
    with pytest.raises(ValueError):
        Gate(GateKind.FCX, 0, (1,), 1.0)  # x kinds take no angle
    with pytest.raises(ValueError):
        Gate(GateKind.X, -1)


@pytest.mark.parametrize("bad", [1.7, 1.0, np.float64(2.0)])
def test_gate_rejects_non_integer_qubit_indices(bad):
    # int() would truncate 1.7 to qubit 1 and put the gate on the wrong wire
    with pytest.raises(ValueError, match="qubit index must be an integer"):
        Gate(GateKind.X, bad)
    with pytest.raises(ValueError, match="qubit index must be an integer"):
        Gate(GateKind.FCRY, 0, (bad,), 1.0)


def test_gate_rejects_bool_qubit_indices():
    # operator.index(True) is 1: the gate would land on qubit 1
    with pytest.raises(ValueError, match="qubit index must be an integer, got True"):
        Gate(GateKind.X, True)
    with pytest.raises(ValueError, match="qubit index must be an integer, got False"):
        Gate(GateKind.FCRY, 1, (False,), 1.0)


def test_gate_names_an_unknown_kind_and_a_negative_index():
    # parse_json reports these messages as they are, after "gate <i>: "
    with pytest.raises(ValueError, match="^unknown kind 'h'$"):
        Gate("h", 0)
    with pytest.raises(ValueError, match="^qubit index must be nonnegative, got -2$"):
        Gate(GateKind.FCX, 0, (1, -2))


@pytest.mark.parametrize(
    "controls",
    ["", {}, None, 5, "ab", range(1, 3)],
    ids=["empty-string", "empty-dict", "None", "int", "string", "range"],
)
def test_gate_rejects_controls_that_are_not_a_tuple_or_list(controls):
    # iterating them would read "" and {} as no controls, a string's
    # characters or a dict's keys as qubits and range(1, 3) as (1, 2)
    with pytest.raises(ValueError, match="^controls must be a tuple or list, got "):
        Gate(GateKind.FCRY, 0, controls, 1.0)


@pytest.mark.parametrize(
    "n", [2.5, 2.0, True, np.int64(2)], ids=["2.5", "2.0", "True", "int64"]
)
def test_circuit_rejects_a_qubit_count_that_is_not_an_int(n):
    # emit_json would write it, and parse_json rejects anything but an int
    with pytest.raises(ValueError, match="qubit count must be a positive integer"):
        Circuit(n, ())


def test_gate_accepts_numpy_integer_qubit_indices():
    g = Gate(GateKind.FCRY, np.int64(2), (np.int32(1), np.uint8(0)), 1.0)
    assert (g.target, g.controls) == (2, (0, 1))
    assert type(g.target) is int and all(type(q) is int for q in g.controls)


def test_circuit_rejects_out_of_range_qubits():
    with pytest.raises(ValueError):
        Circuit(2, (Gate(GateKind.X, 2),))
    with pytest.raises(ValueError):
        Circuit(2, (Gate(GateKind.FCRY, 0, (2,), 1.0),))
    with pytest.raises(ValueError):
        Circuit(0, ())


def _zyz(u):
    """``(phi, theta, lam, mu)`` of a 2x2 unitary, by the trailing-corner core."""
    return _zyz_angles(*np.asarray(u, dtype=np.complex128).ravel().tolist())


def test_zyz_identity_is_all_zero():
    angles = _zyz(np.eye(2))
    assert angles == (0.0, 0.0, 0.0, 0.0)


def test_zyz_phase_gate_canonical_form():
    # phase lands entirely in phi: row 0 of R1(-phi)*U stays (1, 0)
    angles = _zyz(np.diag([1.0, 1j]))
    phi, theta, lam, mu = angles
    assert phi == pytest.approx(math.pi / 2)
    assert theta == pytest.approx(0.0, abs=1e-15)
    assert lam == pytest.approx(0.0, abs=1e-15)
    assert mu == pytest.approx(0.0, abs=1e-15)
    assert np.abs(zyz_reconstruct(angles) - np.diag([1.0, 1j])).max() <= 1e-12


def test_zyz_pure_ry_recovers_half_angle():
    phi, theta, _, _ = _zyz(ry_matrix(1.0))
    assert theta == pytest.approx(0.5)
    assert phi == pytest.approx(0.0, abs=1e-15)


def test_zyz_swap_block():
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    angles = _zyz(x)
    phi, theta, _, _ = angles
    assert theta == pytest.approx(math.pi / 2)
    assert phi == pytest.approx(math.pi)
    assert np.allclose(zyz_reconstruct(angles), x, atol=1e-15)


def test_zyz_round_trip_over_many_unitaries():
    for seed in range(200):
        u = haar_random_unitary(1, seed)
        angles = _zyz(u)
        assert np.abs(zyz_reconstruct(angles) - u).max() <= 1e-12


def _gates_matrix(gates, n):
    return circuit_matrix(Circuit(n, tuple(gates)))


def _two_level(s1, s2, block, n):
    """Identity on ``n`` qubits with ``block`` acting on states ``s1, s2``."""
    u = np.eye(1 << n, dtype=np.complex128)
    u[np.ix_([s1, s2], [s1, s2])] = block
    return u


def _su2(seed):
    block = haar_random_unitary(1, seed)
    return block / np.linalg.det(block) ** 0.5


def _gray_pairs(n):
    """Each pair of Gray-adjacent states, in order, with s1 < s2."""
    pi = gray_permutation(n).tolist()
    return [(min(s, t), max(s, t)) for s, t in zip(pi, pi[1:])]


# A two-level unitary on Gray-adjacent states compiles, unoptimized, into one
# X-wrapped chain when its block is special unitary (no phase is left for a
# later row) or when its pair is the last Gray pair (the trailing corner).


def test_two_level_to_gates_five_qubit_wrappers():
    # states 00101 and 00111 (Gray indices 24 and 23) differ in bit 3; bits
    # 0 and 1 of s1 are zero
    s1 = 20  # ket 00101: qubit 0 is the leftmost character, bit 0
    s2 = 28  # ket 00111
    u = _two_level(s1, s2, _su2(3), 5)
    gates = matrix_to_circuit(u, optimize=False).gates
    assert [g.kind for g in gates[:2]] == [GateKind.X, GateKind.X]
    assert [g.target for g in gates[:2]] == [0, 1]
    assert [g.target for g in gates[-2:]] == [1, 0]
    core = gates[2:-2]
    assert core and all(g.target == 3 and g.controls == (0, 1, 2, 4) for g in core)
    assert np.linalg.norm(_gates_matrix(gates, 5) - u) <= 1e-10


def test_two_level_to_gates_single_qubit_swap_is_plain_x():
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    assert matrix_to_circuit(x, optimize=False).gates == (Gate(GateKind.X, 0),)


def test_two_level_to_gates_exact_swap_block_is_fcx():
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    # the trailing corner (states 3, 2) and a swap during elimination (0, 1)
    assert matrix_to_circuit(_two_level(2, 3, x, 2), optimize=False).gates == (
        Gate(GateKind.FCX, 0, (1,)),
    )
    assert matrix_to_circuit(_two_level(0, 1, x, 2), optimize=False).gates == (
        Gate(GateKind.X, 1),
        Gate(GateKind.FCX, 0, (1,)),
        Gate(GateKind.X, 1),
    )


def test_two_level_to_gates_su2_block_has_no_r1():
    for s1, s2 in _gray_pairs(2):
        u = _two_level(s1, s2, _su2(8), 2)
        circuit = matrix_to_circuit(u, optimize=False)
        assert all(g.kind is not GateKind.FCR1 for g in circuit.gates)
        assert verify(u, circuit, tol=1e-10).passed


@pytest.mark.parametrize("n", [2, 3])
def test_two_level_to_gates_matches_embedding_everywhere(n):
    pairs = _gray_pairs(n)
    for seed, (s1, s2) in enumerate(pairs):
        last = seed == len(pairs) - 1
        block = haar_random_unitary(1, seed) if last else _su2(seed)
        u = _two_level(s1, s2, block, n)
        gates = matrix_to_circuit(u, optimize=False).gates
        r = (s1 ^ s2).bit_length() - 1
        assert len(gates) <= 4 + 2 * n
        assert all(g.target == r for g in gates if g.kind is not GateKind.X)
        assert np.linalg.norm(_gates_matrix(gates, n) - u) <= 1e-10


def test_x_conjugation_moves_the_pair():
    # wrapping in X on a non-target bit acts the block on the flipped pair
    n = 3
    pairs = _gray_pairs(n)
    rng = np.random.default_rng(12)
    for _ in range(20):
        s1, s2 = pairs[int(rng.integers(len(pairs)))]
        r = (s1 ^ s2).bit_length() - 1
        j = int(rng.choice([q for q in range(n) if q != r]))
        block = haar_random_unitary(1, int(rng.integers(100)))
        wrapped = (
            [Gate(GateKind.X, j)]
            + list(matrix_to_circuit(_two_level(s1, s2, block, n), optimize=False))
            + [Gate(GateKind.X, j)]
        )
        moved = _two_level(s1 ^ (1 << j), s2 ^ (1 << j), block, n)
        assert np.linalg.norm(_gates_matrix(wrapped, n) - moved) <= 1e-12


@pytest.mark.parametrize("n", range(1, 5))
def test_matrix_to_circuit_identity_is_empty(n):
    assert matrix_to_circuit(np.eye(1 << n)).gates == ()


def test_matrix_to_circuit_pauli_x():
    circuit = matrix_to_circuit(np.array([[0, 1], [1, 0]], dtype=complex))
    assert circuit.gates == (Gate(GateKind.X, 0),)


def test_matrix_to_circuit_two_qubit_census():
    circuit = matrix_to_circuit(haar_random_unitary(2, 42))
    kinds = [g.kind for g in circuit.gates]
    assert kinds.count(GateKind.X) == 2
    assert kinds.count(GateKind.FCRY) == 6
    assert kinds.count(GateKind.FCRZ) == 12
    assert kinds.count(GateKind.FCR1) == 1
    assert len(kinds) == 21


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_to_circuit_at_most_one_r1(n):
    for seed in range(3):
        circuit = matrix_to_circuit(haar_random_unitary(n, seed))
        r1s = [g for g in circuit.gates if g.kind is GateKind.FCR1]
        assert len(r1s) <= 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_to_circuit_no_r1_for_special_unitary(n):
    dim = 1 << n
    a = haar_random_unitary(n, 6)
    a = a / np.linalg.det(a) ** (1.0 / dim)
    circuit = matrix_to_circuit(a)
    assert all(g.kind is not GateKind.FCR1 for g in circuit.gates)


def test_matrix_to_circuit_unoptimized_agrees_with_optimized():
    a = haar_random_unitary(3, 4)
    fast = matrix_to_circuit(a)
    slow = matrix_to_circuit(a, optimize=False)
    assert len(fast.gates) <= len(slow.gates)
    delta = circuit_matrix(fast) - circuit_matrix(slow)
    assert np.linalg.norm(delta) <= 1e-12


@pytest.mark.parametrize("kind", [GateKind.FCRY, GateKind.FCRZ, GateKind.FCR1])
@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_gate_rejects_non_finite_angle(kind, angle):
    with pytest.raises(ValueError, match="finite"):
        Gate(kind, 0, (), angle)


@pytest.mark.parametrize(
    "angle",
    ["0.5", True, False, 0.5j, None],
    ids=["str", "True", "False", "complex", "None"],
)
def test_gate_rejects_an_angle_that_is_not_a_real_number(angle):
    # float() would read "0.5" and True as angles 0.5 and 1.0, which
    # parse_json rejects
    with pytest.raises(ValueError, match="angle"):
        Gate(GateKind.FCRY, 0, (), angle)


@pytest.mark.parametrize(
    "angle",
    [1, 0.5, np.float64(0.5), np.float32(0.5), np.int64(1)],
    ids=["int", "float", "float64", "float32", "int64"],
)
def test_gate_accepts_real_number_angles(angle):
    gate = Gate(GateKind.FCRY, 0, (), angle)
    assert type(gate.angle) is float and gate.angle == float(angle)


def test_matrix_to_circuit_rejects_nan_matrix():
    with pytest.raises(UnitarityError, match="NaN or infinite"):
        matrix_to_circuit(np.full((2, 2), np.nan))


def test_matrix_to_circuit_reports_unitarity_residual():
    with pytest.raises(UnitarityError, match=r"residual 1\.768e\+00"):
        matrix_to_circuit(np.eye(2) * 1.5)


def test_matrix_to_circuit_tolerance_override():
    m = np.eye(2) + 1e-5
    with pytest.raises(UnitarityError):
        matrix_to_circuit(m)
    assert matrix_to_circuit(m, tol=1e-2).n == 1


@pytest.mark.parametrize(
    "m,detail",
    [(haar_random_unitary(3, 5), None), *NOT_UNITARY_N3.values()],
    ids=["haar", *NOT_UNITARY_N3],
)
def test_matrix_to_circuit_judges_the_residual_of_its_copy(monkeypatch, m, detail):
    # the residual judged on the second thread is unitarity_residual of the
    # checked copy, bit for bit, and a failing one is the only error raised
    judged = []

    def spy(residual, tol, dim):
        judged.append(residual)
        return _judge(residual, tol, dim)

    monkeypatch.setattr("unisynth.matrix._judge", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if detail is None:
            matrix_to_circuit(m)
        else:
            with pytest.raises(UnitarityError) as info:
                matrix_to_circuit(m)
            assert str(info.value) == f"matrix is not unitary: Frobenius residual {detail}"
    with np.errstate(over="ignore", invalid="ignore"):
        expected = unitarity_residual(np.array(m, dtype=np.complex128))
    assert [np.float64(r).tobytes() for r in judged] == [np.float64(expected).tobytes()]


def test_matrix_to_circuit_raises_an_error_of_the_residual_thread(monkeypatch):
    # the residual fails only once the compile is done, so the error can
    # reach the caller only through the join
    compiled = threading.Event()

    def synthesize_then_signal(m, optimize):
        try:
            return _synthesize(m, optimize)
        finally:
            compiled.set()

    def fail(m):
        compiled.wait(timeout=10)
        raise RuntimeError("residual failed")

    monkeypatch.setattr("unisynth.circuit._synthesize", synthesize_then_signal)
    monkeypatch.setattr("unisynth.matrix.unitarity_residual", fail)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="residual failed"):
        matrix_to_circuit(haar_random_unitary(3, 1))
    assert threading.active_count() == before


def _sparse_unitary(n, seed):
    """Block-diagonal unitary (blocks of 2**k, k = 0 gives phases), rows permuted."""
    rng = np.random.default_rng(seed)
    dim = 1 << n
    size = 1 << int(rng.integers(0, n))
    u = np.zeros((dim, dim), dtype=np.complex128)
    for start in range(0, dim, size):
        if size == 1:
            block = np.exp(1j * rng.uniform(-math.pi, math.pi))
        else:
            block = haar_random_unitary(size.bit_length() - 1, int(rng.integers(2**31)))
        u[start : start + size, start : start + size] = block
    return u[rng.permutation(dim)]


_compiled_inputs = st.builds(
    lambda sparse, n, seed: (n, (_sparse_unitary if sparse else haar_random_unitary)(n, seed)),
    st.booleans(),
    st.integers(1, 5),
    st.integers(0, 2**31 - 1),
)


@settings(max_examples=25, deadline=None)
@given(_compiled_inputs, st.booleans())
def test_compiled_gates_equal_public_constructor_gates(case, optimize):
    _, matrix = case
    for g in matrix_to_circuit(matrix, optimize=optimize).gates:
        rebuilt = Gate(g.kind, g.target, g.controls, g.angle)
        assert rebuilt == g
        assert type(rebuilt.angle) is type(g.angle)
        assert type(rebuilt.target) is type(g.target) is int


@settings(max_examples=25, deadline=None)
@given(_compiled_inputs)
def test_circuit_accepts_compiled_gates(case):
    n, matrix = case
    gates = matrix_to_circuit(matrix, optimize=False).gates
    assert Circuit(n, gates).gates == gates


@pytest.mark.parametrize("name", [*sorted(GOLDEN), "near_diagonal_n5"])
@pytest.mark.parametrize("optimize", [False, True])
def test_synthesis_emits_no_identity_rotation(name, optimize):
    # what lets X-pair cancellation be the only peephole pass
    circuit = matrix_to_circuit(BLOCK_INPUTS[name], optimize=optimize)
    assert not [
        g for g in circuit.gates
        if g.kind in ROTATION_KINDS and abs(g.angle) <= IDENTITY_ANGLE_TOL
    ]


def test_circuit_rejects_out_of_range_gate_repeating_an_earlier_pair():
    gate = Gate(GateKind.FCRY, 3, (2, 0, 1), 1.0)
    assert len(Circuit(4, (gate, gate))) == 2
    with pytest.raises(ValueError, match="qubit 3 but circuit has n=3"):
        Circuit(3, (Gate(GateKind.X, 0), gate, gate))
    with pytest.raises(ValueError, match="qubit 4 but circuit has n=2"):
        Circuit(2, (Gate(GateKind.FCRZ, 0, (1,), 1.0), Gate(GateKind.FCRZ, 0, (4, 1), 1.0)))


def test_zyz_reconstruct_multiplies_out_the_rotation_chain():
    rng = np.random.default_rng(21)
    for _ in range(200):
        phi, theta, lam, mu = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 4)
        chain = r1_matrix(phi) @ rz_matrix(lam + mu)
        chain = chain @ ry_matrix(2 * theta) @ rz_matrix(lam - mu)
        got = zyz_reconstruct((phi, theta, lam, mu))
        assert np.abs(got - chain).max() <= 1e-15


def test_two_level_to_gates_reads_out_of_order_pairs_with_nonpositive_theta():
    # states 3 and 2 sit at Gray indices 2 and 3: elimination emits the
    # X-conjugate there, whose Ry angle is -2*theta
    block = ry_matrix(0.8)
    in_order = matrix_to_circuit(_two_level(0, 1, block, 2), optimize=False)
    out_of_order = matrix_to_circuit(_two_level(2, 3, block, 2), optimize=False)
    ry = pytest.approx(0.8, abs=1e-15)
    assert [g.angle for g in in_order if g.kind is GateKind.FCRY] == [ry]
    assert [-g.angle for g in out_of_order if g.kind is GateKind.FCRY] == [ry]
    for (s1, s2), circuit in (((0, 1), in_order), ((2, 3), out_of_order)):
        got = circuit_matrix(circuit)
        assert np.abs(got - _two_level(s1, s2, block, 2)).max() <= 1e-15
