"""Acceptance gate: eight end-to-end criteria, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
"""

import math
import re

import numpy as np

from unisynth import (
    Circuit,
    Gate,
    GateKind,
    cancel_x_pairs,
    circuit_matrix,
    drop_identity_gates,
    emit_json,
    emit_qasm3,
    emit_qsharp,
    gate_block,
    gray_code,
    haar_random_unitary,
    matrix_to_circuit,
    optimize,
    parse_json,
    verify,
    zyz_decompose,
    zyz_reconstruct,
)
from unisynth.cli import census
from unisynth.twolevel import two_level_angles

from conftest import random_circuit
from test_emitters import backend_p, backend_ry, backend_rz, parse_qasm3


def _report(num, description, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_round_trip_correctness():
    worst = 0.0
    ok = True
    for n, seeds in [(1, 100), (2, 100), (3, 100), (4, 100), (5, 100), (6, 20)]:
        for seed in range(seeds):
            a = haar_random_unitary(n, seed)
            report = verify(a, matrix_to_circuit(a), tol=1e-8)
            worst = max(worst, report.frobenius_error)
            ok = ok and report.passed
    _report(
        1,
        "520 Haar round trips verify within 1e-8",
        ok,
        f"max frobenius error {worst:.2e}",
    )


def test_criterion_2_table_reproduction():
    expected = {
        1: (0, 1, 2, 1, 4),
        2: (2, 6, 12, 1, 21),
        3: (28, 28, 56, 1, 113),
        4: (130, 120, 240, 1, 491),
        5: (532, 496, 992, 1, 2021),
        6: (2118, 2016, 4032, 1, 8167),
    }
    mismatches = []
    for n, (x, ry, rz, r1, total) in expected.items():
        stats = census(matrix_to_circuit(haar_random_unitary(n, 42)))
        got = (stats.x, stats.ry, stats.rz, stats.r1, stats.total)
        if got != (x, ry, rz, r1, total) or stats.fcx != 0:
            mismatches.append(f"n={n}: {got}")
    _report(
        2,
        "gate censuses at n=1..6 match the expected exact counts",
        not mismatches,
        "; ".join(mismatches) or "seed 42",
    )


def test_criterion_3_two_level_counts():
    ok = True
    for n in range(1, 6):
        dim = 1 << n
        for seed in range(3):
            entries = two_level_angles(haar_random_unitary(n, seed))
            ok = ok and len(entries) == dim * (dim - 1) // 2
            ok = ok and all(
                (s1 ^ s2).bit_count() == 1 and s1 < s2 for s1, s2, _ in entries
            )
            # phi, the block's determinant phase, is exactly 0 but on the last
            ok = ok and all(angles[0] == 0.0 for _, _, angles in entries[:-1])
    _report(
        3,
        "generic decompositions have d(d-1)/2 one-bit-pair blocks, "
        "special unitary except the last",
        ok,
    )


def test_criterion_4_zyz_identity():
    worst = 0.0
    for seed in range(1000):
        u = haar_random_unitary(1, seed)
        worst = max(worst, float(np.abs(zyz_reconstruct(zyz_decompose(u)) - u).max()))
    _report(
        4,
        "1000 ZYZ round trips reconstruct within 1e-12 elementwise",
        worst <= 1e-12,
        f"max error {worst:.2e}",
    )


def test_criterion_5_gray_properties():
    ok = [gray_code(i) for i in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]
    for n in range(1, 11):
        perm = [gray_code(i) for i in range(1 << n)]
        ok = ok and sorted(perm) == list(range(1 << n))
        ok = ok and all(
            (perm[i] ^ perm[i + 1]).bit_count() == 1 for i in range(len(perm) - 1)
        )
    _report(5, "Gray code bijective with one-bit steps, exhaustive to n=10", ok)


def test_criterion_6_optimizer_safety():
    rng = np.random.default_rng(2024)
    ok = True
    worst = 0.0
    for n in range(1, 5):
        for _ in range(50):
            c = random_circuit(rng, n, int(rng.integers(0, 40)))
            opt = optimize(c)
            err = float(np.linalg.norm(circuit_matrix(opt) - circuit_matrix(c)))
            worst = max(worst, err)
            ok = ok and err <= 1e-12
            ok = ok and optimize(opt).gates == opt.gates
            ok = ok and len(opt.gates) <= len(c.gates)
    _report(
        6,
        "200 optimizer runs: matrix preserved within 1e-12, idempotent, "
        "never longer",
        ok,
        f"max matrix change {worst:.2e}",
    )


def test_criterion_7_structural_guarantees():
    ok = True
    for n in range(1, 5):
        dim = 1 << n
        for seed in range(5):
            a = haar_random_unitary(n, seed)
            r1_count = sum(
                g.kind is GateKind.FCR1 for g in matrix_to_circuit(a).gates
            )
            ok = ok and r1_count <= 1
            special = a / np.linalg.det(a) ** (1.0 / dim)
            r1_special = sum(
                g.kind is GateKind.FCR1 for g in matrix_to_circuit(special).gates
            )
            ok = ok and r1_special == 0
    _report(
        7,
        "pipeline emits at most one R1, and none when det(A) = 1",
        ok,
    )


def test_criterion_8_emitter_fidelity():
    ok = True
    details = []

    # QASM 3 parse-back reproduces the matrix
    worst = 0.0
    for seed in (7, 8):
        a = haar_random_unitary(3, seed)
        circuit = matrix_to_circuit(a)
        recovered = parse_qasm3(emit_qasm3(circuit))
        worst = max(worst, float(np.linalg.norm(circuit_matrix(recovered) - a)))
    ok = ok and worst <= 1e-10
    details.append(f"qasm parse-back error {worst:.2e}")

    # JSON round trip is lossless
    for n in (1, 2, 3):
        c = matrix_to_circuit(haar_random_unitary(n, 11))
        ok = ok and parse_json(emit_json(c)) == c

    # Q# statement counts equal the census
    circuit = matrix_to_circuit(haar_random_unitary(2, 42))
    stats = census(circuit)
    lines = [
        ln.strip() for ln in emit_qsharp(circuit).splitlines()
        if ln.strip().endswith(";")
    ]
    ok = ok and len(lines) == stats.total
    ok = ok and sum("Ry(" in ln for ln in lines) == stats.ry
    ok = ok and sum("Rz(" in ln for ln in lines) == stats.rz
    ok = ok and sum("R1(" in ln for ln in lines) == stats.r1
    ok = ok and sum(ln.startswith("X(") for ln in lines) == stats.x

    # sign translation against hard-coded backend semantics
    rng = np.random.default_rng(88)
    for kind, backend in [
        (GateKind.FCRY, backend_ry),
        (GateKind.FCRZ, backend_rz),
        (GateKind.FCR1, backend_p),
    ]:
        for _ in range(5):
            gate = Gate(kind, 0, (), float(rng.uniform(-math.pi, math.pi)))
            line = emit_qasm3(Circuit(1, (gate,))).splitlines()[-1]
            emitted = float(re.search(r"\(([-0-9.e+]+)\)", line).group(1))
            ok = ok and float(np.abs(backend(emitted) - gate_block(gate)).max()) <= 1e-12

    _report(
        8,
        "emitters: qasm parse-back, lossless JSON, census-exact Q#, "
        "convention sign flips",
        ok,
        "; ".join(details),
    )


def test_all_passes_are_also_quiet():
    # the passes must never rewrite anything on an already-optimized circuit
    c = matrix_to_circuit(haar_random_unitary(3, 3))
    assert drop_identity_gates(c).gates == c.gates
    assert cancel_x_pairs(c).gates == c.gates
