"""CLI subcommands, exit codes, and the bench table."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from unisynth import (
    VerificationReport,
    emit_json,
    haar_random_unitary,
    matrix_to_circuit,
    parse_json,
    save_matrix,
    validate_unitary,
    verify,
)
from unisynth.cli import GateCensus, census, main
from unisynth.emitters import _parse_emitted

from conftest import INT_DIGIT_LIMIT, LONG_INTEGER, needs_int_digit_limit


def _src_env():
    """Environment for a child interpreter that imports the package under test."""
    import unisynth

    env = dict(os.environ)
    src = str(Path(unisynth.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def matrix_file(tmp_path):
    def write(matrix, name="m.json"):
        path = tmp_path / name
        path.write_text(save_matrix(matrix), encoding="utf-8")
        return str(path)

    return write


def test_census_counts_by_kind():
    circuit = parse_json(
        '{"version": 1, "n": 2, "gates": ['
        '{"kind": "x", "target": 0, "controls": []},'
        '{"kind": "fcry", "target": 0, "controls": [1], "angle": 1.0},'
        '{"kind": "fcx", "target": 1, "controls": [0]}]}'
    )
    stats = census(circuit)
    assert stats == GateCensus(n=2, x=1, ry=1, rz=0, r1=0, fcx=1)
    assert stats.total == 3
    assert stats.ratio == pytest.approx(3 / 16)


@pytest.mark.parametrize(
    "matrix, counts",
    [
        (haar_random_unitary(2, 42), "x=2 ry=6 rz=12 r1=1 fcx=0 total=21"),
        # diag(1, e^{5e-11 i}): the phase lands in the trailing corner, which
        # must emit it as an R1 (exact phase), not drop it
        (np.diag([1.0, np.exp(5e-11j)]), "x=0 ry=0 rz=0 r1=1 fcx=0 total=1"),
    ],
    ids=["haar", "corner-phase"],
)
def test_decompose_writes_qsharp(matrix_file, tmp_path, capsys, matrix, counts):
    path = matrix_file(matrix)
    out = tmp_path / "c.qs"
    assert main(["decompose", "-i", path, "-o", str(out)]) == 0
    text = out.read_text()
    assert "operation ApplyUnitary" in text
    err = capsys.readouterr().err
    assert counts in err
    assert "verification passed" in err


def test_decompose_identity_emits_empty_body(matrix_file, capsys):
    path = matrix_file(np.eye(4))
    assert main(["decompose", "-i", path]) == 0
    body = capsys.readouterr().out
    statements = [ln for ln in body.splitlines() if ln.strip().endswith(";")]
    assert statements == []


def test_decompose_json_backend_verifies(matrix_file, tmp_path):
    a = haar_random_unitary(3, 7)
    path = matrix_file(a)
    out = tmp_path / "c.json"
    assert main(["decompose", "-i", path, "-o", str(out), "--backend", "json"]) == 0
    circuit = parse_json(out.read_text())
    assert verify(a, circuit).passed


def test_verify_parses_a_decompose_json_file_in_bulk(matrix_file, tmp_path, capsys):
    # decompose writes emit_json's text and one newline; verify's parser
    # takes that text in bulk, not through json.loads
    path = matrix_file(haar_random_unitary(3, 7))
    out = tmp_path / "c.json"
    assert main(["decompose", "-i", path, "-o", str(out), "--backend", "json"]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.endswith("]}\n")
    assert _parse_emitted(text) is not None
    capsys.readouterr()
    assert main(["verify", "-i", path, "-c", str(out)]) == 0
    assert "verification passed" in capsys.readouterr().out


def test_decompose_custom_operation_name(matrix_file, capsys):
    path = matrix_file(np.eye(2))
    assert main(["decompose", "-i", path, "--name", "MyOp"]) == 0
    assert "operation MyOp" in capsys.readouterr().out


def test_decompose_operation_name_with_trailing_newline_is_input_error(
    matrix_file, capsys
):
    path = matrix_file(np.eye(2))
    assert main(["decompose", "-i", path, "--name", "Op\n"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid Q# operation name" in captured.err


def test_decompose_tol_sets_only_the_input_tolerance(tmp_path, capsys):
    # 2*I has residual 3*sqrt(2), inside --tol 10, so it compiles (to an empty
    # circuit); verification keeps its own 1e-8 threshold and fails at sqrt(2)
    path = tmp_path / "m.json"
    path.write_text('{"n": 1, "matrix": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]}')
    assert main(["decompose", "-i", str(path), "--tol", "10"]) == 1
    err = capsys.readouterr().err
    assert "verification FAILED: frobenius=1.414e+00" in err
    assert "tol=1.0e-08" in err


def test_decompose_no_optimize_keeps_more_gates(matrix_file, tmp_path):
    path = matrix_file(haar_random_unitary(3, 1))
    raw_path = tmp_path / "raw.json"
    opt_path = tmp_path / "opt.json"
    assert main(["decompose", "-i", path, "-o", str(raw_path), "--backend", "json",
                 "--no-optimize"]) == 0
    assert main(["decompose", "-i", path, "-o", str(opt_path), "--backend", "json"]) == 0
    raw = parse_json(raw_path.read_text())
    opt = parse_json(opt_path.read_text())
    assert len(raw.gates) > len(opt.gates)


def test_decompose_missing_file_is_input_error(capsys):
    assert main(["decompose", "-i", "/nonexistent/m.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_decompose_non_unitary_is_input_error(tmp_path, capsys):
    doc = {"n": 1, "matrix": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["decompose", "-i", str(path)]) == 2
    assert "residual" in capsys.readouterr().err


@pytest.mark.xfail(
    raises=AssertionError,
    reason="ROADMAP item 5: validation does not imply verification",
)
def test_decompose_verifies_an_input_that_passes_validation(matrix_file, capsys):
    # residual 4.31e-8, within the 8e-8 input tolerance; the circuit misses
    # the 1e-8 verification threshold at Frobenius 2.92e-8 and exits 1
    m = haar_random_unitary(3, 42)
    m[0, 0] *= 1 + 1e-7
    validate_unitary(m)  # an input error here would be a real failure
    assert main(["decompose", "-i", matrix_file(m)]) == 0


def test_decompose_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    assert main(["decompose", "-i", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_tol_flag_sets_pass_threshold(matrix_file, tmp_path, capsys):
    a = haar_random_unitary(2, 8)
    path = matrix_file(a)
    out = tmp_path / "c.json"
    main(["decompose", "-i", path, "-o", str(out), "--backend", "json"])
    doc = json.loads(out.read_text())
    for gate in doc["gates"]:
        if "angle" in gate:
            gate["angle"] += 1e-4
            break
    out.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "-i", path, "-c", str(out)]) == 1
    capsys.readouterr()
    assert main(["verify", "-i", path, "-c", str(out), "--tol", "0.1"]) == 0


def _controlled_u(n, k):
    """Identity on the first 2**n - 2**k states, a Haar block on the rest."""
    m = np.eye(1 << n, dtype=complex)
    m[-(1 << k) :, -(1 << k) :] = haar_random_unitary(k, 5)
    return m


@pytest.mark.parametrize(
    "text",
    [
        save_matrix(haar_random_unitary(2, 5)),
        # zero entries, whose 0.0 tokens the bulk path skips
        save_matrix(_controlled_u(3, 2)),
        # integer entries, which only the json.loads path reads; the layout
        # save_matrix writes takes the bulk path
        '{"n": 1, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}',
    ],
    ids=["save_matrix-layout", "save_matrix-sparse", "integer-entries"],
)
def test_verify_round_trip(tmp_path, capsys, text):
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "c.json"
    assert main(["decompose", "-i", str(path), "-o", str(out), "--backend", "json"]) == 0
    capsys.readouterr()
    assert main(["verify", "-i", str(path), "-c", str(out)]) == 0
    assert "verification passed" in capsys.readouterr().out


def test_verify_detects_wrong_circuit(matrix_file, tmp_path, capsys):
    a = haar_random_unitary(2, 5)
    path = matrix_file(a)
    out = tmp_path / "c.json"
    main(["decompose", "-i", path, "-o", str(out), "--backend", "json"])
    doc = json.loads(out.read_text())
    for gate in doc["gates"]:
        if "angle" in gate:
            gate["angle"] += 1e-3
            break
    out.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "-i", path, "-c", str(out)]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_verify_dimension_mismatch_is_input_error(matrix_file, tmp_path, capsys):
    path = matrix_file(haar_random_unitary(2, 5))
    circuit_path = tmp_path / "c3.json"
    circuit_path.write_text('{"version": 1, "n": 3, "gates": []}', encoding="utf-8")
    assert main(["verify", "-i", path, "-c", str(circuit_path)]) == 2
    assert "does not match" in capsys.readouterr().err


def test_verify_huge_qubit_count_is_input_error(matrix_file, tmp_path, capsys):
    # 2**n is never formed: the qubit counts are compared first
    path = matrix_file(haar_random_unitary(2, 5))
    circuit_path = tmp_path / "huge.json"
    circuit_path.write_text(
        '{"version": 1, "n": 1000000000000, "gates": []}', encoding="utf-8"
    )
    assert main(["verify", "-i", path, "-c", str(circuit_path)]) == 2
    assert "does not match a 1000000000000-qubit circuit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "circuit, message",
    [
        ('{"version": 9, "n": 1, "gates": []}', "version"),
        # gate 1 repeats gate 0's wiring with JSON true (== 1) as a control:
        # it must be checked as itself, not taken for the valid wiring
        ('{"version": 1, "n": 2, "gates": [{"kind": "fcx", "target": 0, "controls": [1]}, '
         '{"kind": "fcx", "target": 0, "controls": [true]}]}',
         "gate 1: qubit index must be an integer, got True"),
    ],
    ids=["version", "repeated-wiring-true-control"],
)
def test_verify_malformed_circuit_is_input_error(
    matrix_file, tmp_path, capsys, circuit, message
):
    path = matrix_file(np.eye(1 << json.loads(circuit)["n"]))
    circuit_path = tmp_path / "c.json"
    circuit_path.write_text(circuit, encoding="utf-8")
    assert main(["verify", "-i", path, "-c", str(circuit_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_verify_non_int_version_is_input_error(matrix_file, tmp_path, capsys, version):
    # both compare equal to 1 in Python
    path = matrix_file(np.eye(2))
    circuit_path = tmp_path / "c.json"
    circuit_path.write_text(
        f'{{"version": {version}, "n": 1, "gates": []}}', encoding="utf-8"
    )
    assert main(["verify", "-i", path, "-c", str(circuit_path)]) == 2
    assert "unsupported version" in capsys.readouterr().err


def test_bench_table_matches_known_counts(capsys):
    assert main(["bench", "--n-min", "1", "--n-max", "3"]) == 0
    out = capsys.readouterr().out
    lines = [ln.split() for ln in out.strip().splitlines()]
    assert lines[0] == ["n", "x", "ry", "rz", "r1", "fcx", "total", "ratio"]
    assert lines[1] == ["1", "0", "1", "2", "1", "0", "4", "1.00"]
    assert lines[2] == ["2", "2", "6", "12", "1", "0", "21", "1.31"]
    assert lines[3] == ["3", "28", "28", "56", "1", "0", "113", "1.77"]


def test_bench_table_matches_readme(capsys):
    # the README's census table is what ``bench --n-min 1 --n-max 6`` prints
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    table = readme.split("`bench` prints a fixed-seed table", 1)[1].split("```", 2)[1]
    assert main(["bench", "--n-min", "1", "--n-max", "6"]) == 0
    assert capsys.readouterr().out.strip("\n") == table.strip("\n")


def test_bench_csv_output(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--n-min", "2", "--n-max", "2", "-o", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "n,x,ry,rz,r1,fcx,total,ratio"
    assert lines[1] == "2,2,6,12,1,0,21,1.31"


def test_bench_census_is_seed_independent(capsys):
    assert main(["bench", "--n-min", "2", "--n-max", "2", "--seeds-per-n", "4",
                 "--seed", "123"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.strip().splitlines()[1].split() == [
        "2", "2", "6", "12", "1", "0", "21", "1.31"
    ]


def test_bench_rejects_bad_range(capsys):
    assert main(["bench", "--n-min", "3", "--n-max", "12"]) == 2
    assert "n-max" in capsys.readouterr().err
    assert main(["bench", "--n-min", "0", "--n-max", "2"]) == 2
    assert main(["bench", "--seeds-per-n", "0"]) == 2


def test_bench_verification_failure_names_n_and_seed(monkeypatch, capsys):
    failing = VerificationReport(False, 0.5, 0.25, 0)
    monkeypatch.setattr("unisynth.cli.verify", lambda matrix, circuit: failing)
    assert main(["bench", "--n-min", "2", "--n-max", "2", "--seed", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: verification failed at n=2 seed=7: frobenius=5.000e-01\n"
    )


# finite entries whose M†M overflows to inf or NaN
OVERFLOWING = {
    "1e154-inf": np.diag([1e154, 1e154]),
    "1e155": np.diag([1e155, 1e155]),
    "1e200": np.diag([1e200, 1e200]),
    "1e200-complex": np.array([[1e200 + 1e200j, 0], [0, 1]]),
}


@pytest.mark.parametrize("matrix", OVERFLOWING.values(), ids=OVERFLOWING.keys())
@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_overflowing_matrix_is_input_error(tmp_path, capsys, command, matrix):
    rows = [[[z.real, z.imag] for z in row] for row in matrix.tolist()]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "matrix": rows}), encoding="utf-8")
    circuit_path = tmp_path / "c.json"
    circuit_path.write_text('{"version": 1, "n": 1, "gates": []}', encoding="utf-8")
    argv = {
        "decompose": ["decompose", "-i", str(path)],
        "verify": ["verify", "-i", str(path), "-c", str(circuit_path)],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: matrix is not unitary: Frobenius residual ")


def _nan_matrix_file(tmp_path):
    path = tmp_path / "nan.json"
    row = "[[NaN, NaN], [NaN, NaN]]"
    path.write_text(f'{{"n": 1, "matrix": [{row}, {row}]}}', encoding="utf-8")
    return str(path)


def test_decompose_nan_matrix_is_input_error(tmp_path, capsys):
    assert main(["decompose", "-i", _nan_matrix_file(tmp_path)]) == 2
    assert "NaN or infinite" in capsys.readouterr().err


def test_verify_nan_matrix_is_input_error(tmp_path, capsys):
    circuit_path = tmp_path / "c.json"
    circuit_path.write_text('{"version": 1, "n": 1, "gates": []}', encoding="utf-8")
    assert main(["verify", "-i", _nan_matrix_file(tmp_path), "-c", str(circuit_path)]) == 2
    assert "NaN or infinite" in capsys.readouterr().err


def test_verify_nan_angle_is_input_error(matrix_file, tmp_path, capsys):
    path = matrix_file(np.eye(2))
    circuit_path = tmp_path / "c.json"
    circuit_path.write_text(
        '{"version": 1, "n": 1, "gates": '
        '[{"kind": "fcry", "target": 0, "controls": [], "angle": NaN}]}',
        encoding="utf-8",
    )
    assert main(["verify", "-i", path, "-c", str(circuit_path)]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "frobenius" not in captured.out


def test_package_import_leaves_cli_and_argparse_unloaded():
    code = "import sys, unisynth; print('argparse' in sys.modules, 'unisynth.cli' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=_src_env(), timeout=60)
    assert done.stdout.split() == ["False", "False"]


def test_python_dash_m_runs_without_warnings():
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "unisynth", "bench", "--n-max", "1"],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.splitlines()[1].split() == ["1", "0", "1", "2", "1", "0", "4", "1.00"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_bad_tol_is_input_error(matrix_file, tmp_path, capsys, command, tol):
    path = matrix_file(np.eye(2))
    circuit_path = tmp_path / "c.json"
    circuit_path.write_text('{"version": 1, "n": 1, "gates": []}', encoding="utf-8")
    argv = [command, "-i", path, "--tol", tol]
    if command == "verify":
        argv += ["-c", str(circuit_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "tolerance must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [
        ("[true, 0]", "entry (0, 1)"),
        (f"[1{'0' * 400}, 0]", "too large for a float"),
        ("[0, NaN]", "NaN or infinite"),
        ("[0, Infinity]", "NaN or infinite"),
        ("[0, -Infinity]", "NaN or infinite"),
    ],
    ids=["boolean", "huge-integer", "NaN", "Infinity", "-Infinity"],
)
@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_bad_matrix_number_is_input_error(tmp_path, capsys, command, entry, message):
    path = tmp_path / "m.json"
    path.write_text(
        f'{{"n": 1, "matrix": [[[1, 0], {entry}], [[0, 0], [1, 0]]]}}', encoding="utf-8"
    )
    circuit_path = tmp_path / "c.json"
    circuit_path.write_text('{"version": 1, "n": 1, "gates": []}', encoding="utf-8")
    argv = [command, "-i", str(path)]
    if command == "verify":
        argv += ["-c", str(circuit_path)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@needs_int_digit_limit
@pytest.mark.parametrize("bad", ["matrix", "circuit"])
def test_verify_integer_past_the_digit_limit_is_input_error_naming_the_file(
    matrix_file, tmp_path, capsys, bad
):
    # int()'s own ValueError told the user to call sys.set_int_max_str_digits()
    path = matrix_file(np.eye(2))
    circuit_path = tmp_path / "c.json"
    circuit_path.write_text('{"version": 1, "n": 1, "gates": []}', encoding="utf-8")
    if bad == "matrix":
        bad_path = path
        text = f'{{"n": {LONG_INTEGER}, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}'
    else:
        bad_path = str(circuit_path)
        text = f'{{"version": 1, "n": {LONG_INTEGER}, "gates": []}}'
    Path(bad_path).write_text(text, encoding="utf-8")
    assert main(["verify", "-i", path, "-c", str(circuit_path)]) == 2
    message = f"an integer has more than {INT_DIGIT_LIMIT} digits"
    assert capsys.readouterr().err == f"error: {bad_path}: {message}\n"


@pytest.mark.parametrize(
    "command, nested",
    [("decompose", "matrix"), ("verify", "matrix"), ("verify", "circuit")],
)
def test_deeply_nested_json_is_input_error(matrix_file, tmp_path, capsys, command, nested):
    # json.loads raises RecursionError, not a ValueError, on deep nesting
    deep = "[" * 100_000
    path = matrix_file(np.eye(2))
    circuit_path = tmp_path / "c.json"
    circuit_path.write_text('{"version": 1, "n": 1, "gates": []}', encoding="utf-8")
    if nested == "matrix":
        Path(path).write_text(deep, encoding="utf-8")
    else:
        circuit_path.write_text(f'{{"version": 1, "n": 1, "gates": {deep}', encoding="utf-8")
    argv = [command, "-i", path]
    if command == "verify":
        argv += ["-c", str(circuit_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, bad",
    [("decompose", "matrix"), ("verify", "matrix"), ("verify", "circuit")],
)
def test_non_utf8_file_is_input_error_naming_the_file(
    matrix_file, tmp_path, capsys, command, bad
):
    # the decode error used to escape the readers without the file's path
    path = matrix_file(np.eye(2))
    circuit_path = tmp_path / "c.json"
    circuit_path.write_text('{"version": 1, "n": 1, "gates": []}', encoding="utf-8")
    bad_path = path if bad == "matrix" else str(circuit_path)
    Path(bad_path).write_bytes(b"\xff\xfe\x00")
    argv = [command, "-i", path]
    if command == "verify":
        argv += ["-c", str(circuit_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad_path}: cannot decode text: 'utf-8' codec")


@pytest.mark.parametrize(
    "argv",
    [["decompose", "--backend", backend] for backend in ("qsharp", "qasm3", "json")]
    + [["verify"]],
    ids=["decompose-qsharp", "decompose-qasm3", "decompose-json", "verify"],
)
def test_each_command_validates_the_matrix_once(matrix_file, tmp_path, monkeypatch, argv):
    import unisynth.cli
    import unisynth.matrix
    import unisynth.twolevel

    a = haar_random_unitary(2, 3)
    argv = [*argv, "-i", matrix_file(a)]
    if argv[0] == "decompose":
        argv += ["-o", str(tmp_path / "out")]
    else:
        circuit_path = tmp_path / "c.json"
        circuit_path.write_text(emit_json(matrix_to_circuit(a)), encoding="utf-8")
        argv += ["-c", str(circuit_path)]
    original = unisynth.matrix.validate_unitary
    calls = []

    def counted(matrix, tol=None):
        calls.append(tol)
        return original(matrix, tol)

    # raising=False: the count holds whichever of these modules import the name
    for module in (unisynth.matrix, unisynth.twolevel, unisynth.cli):
        monkeypatch.setattr(module, "validate_unitary", counted, raising=False)
    assert main(argv) == 0
    # once, at the default tolerance: verify's --tol is the pass threshold
    assert calls == [None]


def test_decompose_checks_operation_name_before_compiling(matrix_file, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("compiled before the name was checked")

    monkeypatch.setattr("unisynth.cli.matrix_to_circuit", never)
    path = matrix_file(np.eye(2))
    assert main(["decompose", "-i", path, "--name", "1Op"]) == 2
    assert "invalid Q# operation name" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["X", "operation", "let", "use", "body", "Adjoint", "true"]
)
def test_decompose_operation_name_the_emitted_code_uses_is_input_error(
    name, matrix_file, monkeypatch, capsys
):
    # --name X wrote an operation X whose body calls X(qs[0]): itself, and
    # --name let an operation that does not parse
    def never(*args, **kwargs):
        raise AssertionError("compiled before the name was checked")

    monkeypatch.setattr("unisynth.cli.matrix_to_circuit", never)
    path = matrix_file(np.array([[0, 1], [1, 0]]))
    assert main(["decompose", "-i", path, "--name", name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid Q# operation name: {name!r}" in captured.err


def test_verify_boolean_angle_is_input_error(matrix_file, tmp_path, capsys):
    path = matrix_file(np.eye(2))
    circuit_path = tmp_path / "c.json"
    circuit_path.write_text(
        '{"version": 1, "n": 1, "gates": '
        '[{"kind": "fcry", "target": 0, "controls": [], "angle": true}]}',
        encoding="utf-8",
    )
    assert main(["verify", "-i", path, "-c", str(circuit_path)]) == 2
    assert "angle must be a real number" in capsys.readouterr().err


def _hadamard_8_decimals(n):
    """Hadamard on qubit 0 of n qubits, entries written as 0.70710678."""
    h = 0.70710678
    rows = []
    for i in range(1 << n):
        row = [[0, 0] for _ in range(1 << n)]
        low = i & ~1
        row[low] = [h, 0]
        row[low + 1] = [-h if i & 1 else h, 0]
        rows.append(row)
    return json.dumps({"n": n, "matrix": rows})


@pytest.mark.parametrize("n", [1, 2])
def test_hadamard_within_input_tolerance_compiles_and_verifies(tmp_path, capsys, n):
    # residual 4.7e-9 (n = 1) and 6.7e-9 (n = 2): inside the 1e-8 * d input
    # tolerance, far above a fixed 1e-10 check on the internal blocks
    path = tmp_path / "h.json"
    path.write_text(_hadamard_8_decimals(n), encoding="utf-8")
    out = tmp_path / "c.json"
    assert main(["decompose", "-i", str(path), "-o", str(out), "--backend", "json"]) == 0
    assert "verification passed" in capsys.readouterr().err
    assert main(["verify", "-i", str(path), "-c", str(out)]) == 0
    assert "verification passed" in capsys.readouterr().out
