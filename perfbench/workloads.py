"""Seeded inputs for the three workloads, made with the benchmark's own numpy code.

Each workload is a fixed pool of jobs; the timed loop runs job ``i % len(pool)``
for its ``i``-th op, so one pass over the pool is the unit that ``gates_out``
and ``bytes_out`` count.  The same seed writes byte-identical files.

- ``haar_n7``: three Haar-random 7-qubit matrices, one per backend.
- ``structured_n9``: six sparse 9-qubit matrices, two each of diagonal phase,
  controlled-U (one Haar block of size 2**k, k = 1 and 3, at an aligned
  position) and block-diagonal (blocks with k = 1, 2, 3); the backends rotate.
- ``verify_stored``: one compiler-shaped (about 2 * 4**7 gates) and one
  arbitrary-control (1.5 * 4**7 gates) 7-qubit circuit, each verified
  against its true matrix (known answer exit 0) and against the matrix of a
  copy with one angle moved by 1e-3 (exit 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import frobenius_bound, parse_json_circuit, simulate

WORKLOADS = ("haar_n7", "structured_n9", "verify_stored")
BACKENDS = ("qsharp", "qasm3", "json")
EXTENSIONS = {"qsharp": "qs", "qasm3": "qasm", "json": "json"}
CORRUPTION = 1e-3


@dataclass
class Job:
    """One op of a pool: the CLI arguments and the known answer."""

    command: str  # "decompose" or "verify"
    argv: list[str]
    n: int
    matrix: np.ndarray  # the input matrix the output must reproduce
    backend: str | None = None  # decompose: output format
    expect_rc: int = 0
    expect_frobenius: float = 0.0  # verify: distance the product should report
    circuit_gates: int = 0  # verify: gates in the stored circuit
    circuit_bytes: int = 0


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix, phases fixed."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def matrix_text(m: np.ndarray) -> str:
    """The program's matrix file format, with shortest round-trip reals."""
    n = m.shape[0].bit_length() - 1
    rows = [[[z.real, z.imag] for z in row] for row in m.tolist()]
    return json.dumps({"n": n, "matrix": rows})


def circuit_text(n: int, gates: list[tuple]) -> str:
    """The program's version-1 circuit JSON for gates in IR form.

    IR gates are ``(kind, target, controls, angle)`` with the program's own
    angle convention, i.e. the negated standard angle for fcry/fcrz.
    """
    out = []
    for kind, target, controls, angle in gates:
        entry = {"kind": kind, "target": target, "controls": list(controls)}
        if angle is not None:
            entry["angle"] = angle
        out.append(entry)
    return json.dumps({"version": 1, "n": n, "gates": out})


def _embed(dim: int, blocks: list[tuple[int, np.ndarray]]) -> np.ndarray:
    m = np.eye(dim, dtype=np.complex128)
    for start, block in blocks:
        size = block.shape[0]
        m[start : start + size, start : start + size] = block
    return m


def structured_matrices(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """Two each of diagonal, controlled-U and block-diagonal matrices.

    The layout (block sizes and positions) comes from a fixed generator and
    only the entries from the seed: positions set the X-wrap counts, so a
    seeded layout would make ``gates_out`` and op times vary from seed to
    seed.  Controlled-U uses k = 1 and k = 3; block-diagonal has one block
    each of k = 1, 2, 3 in distinct aligned chunks of 8 states (fewer when
    n is small).
    """
    layout = np.random.default_rng(2501)
    dim = 1 << n
    chunk = min(8, dim // 4)
    sizes = [min(k, chunk.bit_length() - 1) for k in (1, 2, 3)]

    def block(lo: int, hi: int, k: int) -> tuple[int, np.ndarray]:
        size = 1 << k
        start = lo + size * int(layout.integers((hi - lo) // size))
        return start, haar_unitary(rng, size)

    out = {}
    for copy, k in enumerate((1, 3)):
        out[f"diag{copy}"] = np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, dim)))
        out[f"cu{copy}"] = _embed(dim, [block(0, dim, min(k, n))])
        chunks = layout.choice(dim // chunk, size=3, replace=False)
        out[f"blockdiag{copy}"] = _embed(
            dim,
            [block(chunk * int(c), chunk * (int(c) + 1), k) for c, k in zip(chunks, sizes)],
        )
    return out


def compiler_shaped_circuit(rng: np.random.Generator, n: int) -> list[tuple]:
    """X-wrapped, fully-controlled Rz/Ry/Rz chains, about 2 * 4**n gates."""
    gates: list[tuple] = []
    while len(gates) < 2 * 4**n:
        r = int(rng.integers(n))
        s1 = int(rng.integers(1 << n)) & ~(1 << r)
        controls = [q for q in range(n) if q != r]
        flips = [q for q in controls if not (s1 >> q) & 1]
        gates += [("x", q, (), None) for q in flips]
        for kind in ("fcrz", "fcry", "fcrz"):
            angle = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
            gates.append((kind, r, tuple(controls), angle))
        gates += [("x", q, (), None) for q in reversed(flips)]
    return gates


def arbitrary_circuit(rng: np.random.Generator, n: int, length: int) -> list[tuple]:
    """Gates of every kind with random partial controls, some identity angles."""
    kinds = ("x", "fcx", "fcry", "fcrz", "fcr1")
    gates: list[tuple] = []
    for _ in range(length):
        kind = kinds[int(rng.integers(len(kinds)))]
        target = int(rng.integers(n))
        if kind == "x":
            gates.append((kind, target, (), None))
            continue
        others = [q for q in range(n) if q != target]
        k = int(rng.integers(len(others) + 1))
        controls = tuple(sorted(int(q) for q in rng.choice(others, size=k, replace=False)))
        if kind == "fcx":
            gates.append((kind, target, controls, None))
            continue
        roll = rng.random()
        if roll < 0.1:
            angle = 0.0
        elif roll < 0.2:
            # a full period: the identity once the program normalizes it
            angle = 2.0 * math.pi if kind == "fcr1" else 4.0 * math.pi
        else:
            angle = float(rng.uniform(-4.0 * math.pi, 4.0 * math.pi))
        gates.append((kind, target, controls, angle))
    return gates


def corrupted(rng: np.random.Generator, gates: list[tuple]) -> list[tuple]:
    """Copy of a circuit with one rotation angle moved by ``CORRUPTION``."""
    rotations = [i for i, g in enumerate(gates) if g[3] is not None]
    i = rotations[int(rng.integers(len(rotations)))]
    kind, target, controls, angle = gates[i]
    copy = list(gates)
    copy[i] = (kind, target, controls, angle + CORRUPTION)
    return copy


def _decompose_jobs(workdir: Path, matrices: list[tuple[str, np.ndarray, str]]) -> list[Job]:
    jobs = []
    for name, m, backend in matrices:
        path = workdir / f"{name}.json"
        path.write_text(matrix_text(m), encoding="utf-8")
        n = m.shape[0].bit_length() - 1
        argv = ["decompose", "--input", str(path), "--backend", backend]
        jobs.append(Job("decompose", argv, n, m, backend=backend))
    return jobs


def build_pool(workload: str, seed: int, workdir: Path, n: int | None = None) -> list[Job]:
    """Write the workload's input files for ``seed`` into ``workdir``.

    ``n`` overrides the workload's qubit count; the fast tests use it to
    build the same kinds of input at n <= 3.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "haar_n7":
        n = n or 7
        return _decompose_jobs(
            workdir,
            [(f"haar{i}", haar_unitary(rng, 1 << n), b) for i, b in enumerate(BACKENDS)],
        )
    if workload == "structured_n9":
        m = structured_matrices(rng, n or 9)
        order = ["diag0", "cu0", "blockdiag0", "cu1", "blockdiag1", "diag1"]
        return _decompose_jobs(
            workdir, [(name, m[name], BACKENDS[i % 3]) for i, name in enumerate(order)]
        )
    n = n or 7
    jobs = []
    circuits = {
        "shaped": compiler_shaped_circuit(rng, n),
        # 1.5 * 4**n partial-control gates cost the simulator about as much
        # as the 2 * 4**n fully-controlled ones, so op times stay unimodal
        "arbitrary": arbitrary_circuit(rng, n, 3 * 4**n // 2),
    }
    for name, gates in circuits.items():
        text = circuit_text(n, gates)
        circuit_path = workdir / f"{name}.circuit.json"
        circuit_path.write_text(text, encoding="utf-8")
        truth = simulate(n, parse_json_circuit(text)[1])
        wrong = simulate(n, parse_json_circuit(circuit_text(n, corrupted(rng, gates)))[1])
        distance = float(np.linalg.norm(truth - wrong))
        if distance <= frobenius_bound(n):
            raise RuntimeError(f"corruption of {name} moved the matrix by only {distance}")
        for suffix, m, rc, frob in (("true", truth, 0, 0.0), ("moved", wrong, 1, distance)):
            matrix_path = workdir / f"{name}.{suffix}.json"
            matrix_path.write_text(matrix_text(m), encoding="utf-8")
            argv = ["verify", "--input", str(matrix_path), "--circuit", str(circuit_path)]
            jobs.append(
                Job("verify", argv, n, m, expect_rc=rc, expect_frobenius=frob,
                    circuit_gates=len(gates), circuit_bytes=len(text.encode()))
            )
    return jobs
