"""Fast checks of the benchmark itself, all at n <= 3.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import workloads  # noqa: E402
from spans import ROOT as ROOT_SPAN  # noqa: E402
from spans import Tracer, nesting_errors, self_times  # noqa: E402


def _conftest():
    spec = importlib.util.spec_from_file_location("fixtures", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_files(tmp_path, workload):
    workloads.build_pool(workload, 7, tmp_path / "a", n=3)
    workloads.build_pool(workload, 7, tmp_path / "b", n=3)
    workloads.build_pool(workload, 8, tmp_path / "c", n=3)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_reference_matches_hand_written_matrices():
    fixtures = _conftest()
    cnot = [("x", 0, 0b10, None)]
    assert np.array_equal(reference.simulate(2, cnot), fixtures.CNOT)
    swap = [("x", 0, 0b10, None), ("x", 1, 0b01, None), ("x", 0, 0b10, None)]
    assert np.array_equal(reference.simulate(2, swap), fixtures.SWAP_2Q)
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
    h = [("ry", 0, 0, math.pi / 2), ("x", 0, 0, None)]  # X Ry(pi/2) = H
    assert np.allclose(reference.simulate(1, h), hadamard, atol=1e-15)


def test_corrupted_stored_circuit_is_a_known_fail(tmp_path):
    pool = workloads.build_pool("verify_stored", 3, tmp_path, n=3)
    bound = reference.frobenius_bound(3)
    for job in pool:
        _, gates = reference.parse_json_circuit(Path(job.argv[-1]).read_text())
        error = float(np.linalg.norm(reference.simulate(3, gates) - job.matrix))
        if job.expect_rc == 0:
            assert error <= bound
        else:
            assert error > bound
            assert math.isclose(error, job.expect_frobenius, rel_tol=1e-9)


@pytest.mark.parametrize("backend", workloads.BACKENDS)
def test_parsers_read_the_programs_output(backend):
    import unisynth

    rng = np.random.default_rng(5)
    m = workloads.haar_unitary(rng, 8)
    circuit = unisynth.matrix_to_circuit(m)
    text = {
        "qsharp": unisynth.emit_qsharp,
        "qasm3": unisynth.emit_qasm3,
        "json": unisynth.emit_json,
    }[backend](circuit)
    gates = reference.parse_output(backend, text, 3)
    assert len(gates) == len(circuit.gates)
    assert np.linalg.norm(reference.simulate(3, gates) - m) <= reference.frobenius_bound(3)


def test_parsers_reject_foreign_lines():
    with pytest.raises(ValueError):
        reference.parse_qasm3('OPENQASM 3.0;\nqubit[2] q;\nh q[0];\n')
    with pytest.raises(ValueError):
        reference.parse_qsharp("//\noperation A(qs : Qubit[]) : Unit {\n    H(qs[0]);\n}\n", 2)


def test_tracer_nests_spans_and_survives_missing_targets():
    import unisynth.cli

    targets = (
        ("unisynth.cli", "verify", "simulator.verify", None),
        ("unisynth.cli", "no_such_function", "gone", None),
        ("unisynth.no_such_module", "f", "gone", None),
    )
    tracer = Tracer(targets)
    assert tracer.absent == ["unisynth.cli.no_such_function", "unisynth.no_such_module.f"]
    m = workloads.haar_unitary(np.random.default_rng(1), 4)
    circuit = unisynth.matrix_to_circuit(m)

    def op():
        return unisynth.cli.verify(m, circuit).passed

    assert tracer.run_op(0, op) and tracer.run_op(1, op)
    assert unisynth.cli.verify is unisynth.simulator.verify  # restored
    names = [s[3] for s in tracer.spans]
    assert names == ["simulator.verify", ROOT_SPAN] * 2
    assert nesting_errors(tracer.spans) == 0
    own = self_times(tracer.spans)
    total = sum(s[5] - s[4] for s in tracer.spans if s[3] == ROOT_SPAN)
    assert math.isclose(sum(own.values()), total, rel_tol=1e-9)
    # a child moved under another op's root is caught
    child = tracer.spans[0]
    assert nesting_errors([child[:2] + (1,) + child[3:], *tracer.spans[1:]]) == 1


def test_metric_names_match_benchmark_json():
    import json

    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in run.LAYER_METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in run.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
