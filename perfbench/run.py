"""Benchmark of unisynth's decompose and verify paths through its CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload haar_n7 --seed 1 --seconds 25 --trace 0

The run writes the workload's inputs from ``--seed`` (``workloads.py``),
times the set-up in fresh interpreters, runs the timed closed loop in one
worker process (``worker.py``), then checks every op's output outside the
timed region with the benchmark's own simulator and parsers
(``reference.py``).  Times are reported in seconds at a reference speed
(see ``worker.REFERENCE_S``), with the raw wall times printed beside them.
It prints one line per metric and, as its last line, a JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  A result file with the environment, and with
``--trace 1`` the spans, is kept under ``.perfbench-out/results/``.

See ``README.md`` beside this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from reference import frobenius_bound, parse_output, simulate
from spans import nesting_errors, self_times
from worker import REFERENCE_S
from workloads import EXTENSIONS, WORKLOADS, build_pool

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench-out")
SETUP_SAMPLES = 3  # fresh interpreters whose set-up times give the median
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
DEADLINE_S = 170  # the whole run, set-up and checks included

_FROBENIUS = re.compile(r"frobenius=(\S+)")

# (metric, unit) for --trace 1, in print order; values are per traced op.
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("matrix.load_s", "s"),
    ("matrix.validate_s", "s"),
    ("matrix.validate_calls", "count"),
    ("matrix.is_unitary_s", "s"),
    ("matrix.is_unitary_calls", "count"),
    ("twolevel.decompose_s", "s"),
    ("twolevel.blocks", "count"),
    ("twolevel.blocks_generic", "count"),
    ("twolevel.blocks_swap", "count"),
    ("twolevel.blocks_phase", "count"),
    ("circuit.synth_s", "s"),
    ("circuit.gates_raw", "count"),
    ("optimizer.optimize_s", "s"),
    ("optimizer.gates_removed", "count"),
    ("optimizer.removed_ratio", "ratio"),
    ("simulator.verify_s", "s"),
    ("simulator.gates_applied", "count"),
    ("emitters.emit_s", "s"),
    ("emitters.parse_s", "s"),
    ("emitters.gates_parsed", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_coverage", "ratio"),
    ("trace.absent_targets", "count"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(plan: dict, work: Path, tag: str, deadline: float) -> dict:
    plan_path, result_path = work / f"{tag}.plan.json", work / f"{tag}.result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    # One BLAS thread: the loop has one client, and OpenBLAS's idle threads
    # spin on the second core, which made op times slower and noisier.
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} ran past the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker {tag} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def reported_frobenius(op: dict, job) -> float:
    text = op["stderr"] if job.command == "decompose" else op["stdout"]
    match = _FROBENIUS.search(text)
    if match is None:
        raise ValueError("no frobenius= in the program's report")
    return float(match.group(1))


def check_output(job, path: str, census: bool) -> tuple[int, int]:
    """Gate and byte counts of a decompose output, after checking it."""
    data = Path(path).read_bytes()
    gates = parse_output(job.backend, data.decode("utf-8"), job.n)
    error = float(np.linalg.norm(simulate(job.n, gates) - job.matrix))
    if not error <= frobenius_bound(job.n):
        raise ValueError(f"output reproduces the input only to {error:.3e}")
    if census:
        d = 1 << job.n
        found = tuple(sum(g[0] == name for g in gates) for name in ("ry", "rz", "p"))
        if found != (d * (d - 1) // 2, d * (d - 1), 1):
            raise ValueError(f"Ry/Rz/R1 census {found} is not the generic one")
    return len(gates), len(data)


def check_ops(workload: str, pool: list, ops: list[dict]) -> dict:
    """Check every op against its known answer; outputs are checked once per content."""
    verdicts: dict[tuple[int, str], tuple[int, int] | Exception] = {}
    failures: list[str] = []
    per_job: dict[int, tuple[int, int]] = {}
    frobenius: list[float] = []
    for i, op in enumerate(ops):
        job = pool[op["job"]]
        try:
            if op["error"] is not None:
                raise ValueError(op["error"].strip().splitlines()[-1])
            if op["rc"] != job.expect_rc:
                raise ValueError(f"exit code {op['rc']}, expected {job.expect_rc}")
            reported = reported_frobenius(op, job)
            if job.command == "decompose":
                digest = hashlib.sha256(Path(op["output"]).read_bytes()).hexdigest()
                key = (op["job"], digest)
                if key not in verdicts:
                    try:
                        verdicts[key] = check_output(job, op["output"], workload == "haar_n7")
                    except (ValueError, KeyError, TypeError) as exc:
                        verdicts[key] = exc
                if isinstance(verdicts[key], Exception):
                    raise ValueError(str(verdicts[key]))
                per_job.setdefault(op["job"], verdicts[key])
            else:
                # the program prints 4 significant digits
                agrees = (reported <= frobenius_bound(job.n) if job.expect_rc == 0
                          else math.isclose(reported, job.expect_frobenius, rel_tol=1e-3))
                if not agrees:
                    raise ValueError(f"reported frobenius {reported}, expected {job.expect_frobenius}")
                per_job.setdefault(op["job"], (job.circuit_gates, job.circuit_bytes))
            if job.expect_rc == 0:
                frobenius.append(reported)
        except (ValueError, OSError) as exc:
            failures.append(f"op {i} (job {op['job']}): {exc}")
    return {"failures": failures, "per_job": per_job, "frobenius": frobenius}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it.

    A run of fewer than 4 * TAIL_BEYOND ops keeps only a quarter of its
    samples beyond, so the tail never drops below p75 and does not jump
    between the minimum and the maximum as the op count changes by one.
    Returns the value, the percentile and the number of samples beyond.
    """
    xs = sorted(samples)
    beyond = min(TAIL_BEYOND, len(xs) // 4)
    rank = len(xs) - beyond
    return xs[rank - 1], 100.0 * rank / len(xs), beyond


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(Path("src").rglob("*.py")))


def scaled(seconds: float, reference: float) -> float:
    """A time in seconds at the reference speed (see ``worker.REFERENCE_S``)."""
    return seconds * REFERENCE_S / reference


def end_to_end(pool, setups, loop, checked) -> tuple[dict, list[str]]:
    """End-to-end metrics; ``setups`` holds (set-up time, reference time) pairs."""
    ops = loop["ops"]
    raw = [op["time"] for op in ops]
    times = [scaled(op["time"], op["reference_s"]) for op in ops]
    failed = len(checked["failures"])
    correct = len(ops) - failed
    p50 = statistics.median(times)
    tail_value, tail_pct, beyond = tail(times)
    busy = sum(times)  # closed loop: the next op starts as this one returns
    gates = sum(g for g, _ in checked["per_job"].values())
    size = sum(b for _, b in checked["per_job"].values())
    # digits of accuracy, so the bound reads in decades; an exact 0 is capped
    frob = max(checked["frobenius"], default=1.0)
    digits = -math.log10(frob) if frob > 0 else 300.0
    setup = statistics.median(scaled(t, r) for t, r in setups)
    setup_raw = statistics.median(t for t, _ in setups)
    what = "emitted" if pool[0].command == "decompose" else "stored, read"
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (correct / busy, "1/s"),
        "op_s.p50": (p50, "s"),
        "op_s.tail": (tail_value, "s"),
        "gates_out": (gates, "count"),
        "bytes_out": (size, "bytes"),
        "frobenius_max": (digits, "-log10"),
        "ok_ratio": (correct / len(ops), "ratio"),
        "peak_rss_mb": (loop["peak_rss_kb"] / 1024.0, "MB"),
    }
    lines = [
        f"setup_s        {setup:.4f} s  (raw {setup_raw:.4f} s; median of {len(setups)} "
        "fresh interpreters: import unisynth + one warm-up op)",
        f"ops_per_s      {correct / busy:.4f} 1/s  (raw {correct / sum(raw):.4f} 1/s; "
        f"{correct} correct ops in {sum(raw):.2f} s)",
        f"op_s.p50       {p50:.4f} s  (raw {statistics.median(raw):.4f} s; n={len(times)})",
        f"op_s.tail      {tail_value:.4f} s  (raw {tail(raw)[0]:.4f} s; p{tail_pct:.1f}, "
        f"n={len(times)}, {beyond} beyond)",
        f"gates_out      {gates} count  ({what}, one pass over {len(pool)} jobs)",
        f"bytes_out      {size} bytes  ({what}, one pass over {len(pool)} jobs)",
        f"frobenius_max  {frob:.3e}  (as -log10: {digits:.3f}; known-pass ops)",
        f"fail_ratio     {failed / len(ops):.4f}  ({failed}/{len(ops)} failed; gated as ok_ratio)",
        f"peak_rss_mb    {loop['peak_rss_kb'] / 1024.0:.1f} MB",
    ]
    return metrics, lines


def per_layer(loop: dict, spans: list[tuple]) -> tuple[dict, list[str]]:
    traced = [op for op in loop["ops"] if op["traced"]]
    n_ops = len(traced)
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span[3]] += 1
    counts: dict[str, int] = defaultdict(int)
    for per_op in loop["counts"].values():
        for key, value in per_op.items():
            counts[key] += value
    self_spans = {
        "cli.self_s": "cli.main",
        "matrix.load_s": "matrix.load",
        "matrix.validate_s": "matrix.validate",
        "matrix.is_unitary_s": "matrix.is_unitary",
        "twolevel.decompose_s": "twolevel.decompose",
        "circuit.synth_s": "circuit.synth",
        "optimizer.optimize_s": "optimizer.optimize",
        "simulator.verify_s": "simulator.verify",
        "emitters.emit_s": "emitters.emit",
        "emitters.parse_s": "emitters.parse",
    }
    reference = statistics.median(op["reference_s"] for op in traced)
    values = {metric: scaled(own.get(span, 0.0), reference) for metric, span in self_spans.items()}
    values["matrix.validate_calls"] = calls["matrix.validate"]
    values["matrix.is_unitary_calls"] = calls["matrix.is_unitary"]
    for key in ("twolevel.blocks", "twolevel.blocks_generic", "twolevel.blocks_swap",
                "twolevel.blocks_phase", "circuit.gates_raw", "optimizer.gates_removed",
                "simulator.gates_applied", "emitters.gates_parsed"):
        values[key] = counts[key]
    values = {key: value / n_ops for key, value in values.items()}
    raw = counts["circuit.gates_raw"]
    values["optimizer.removed_ratio"] = counts["optimizer.gates_removed"] / raw if raw else 0.0
    # traced over untraced ops per second, job by job so both sides share a mix
    by_job: dict[int, dict[bool, list[float]]] = defaultdict(lambda: {True: [], False: []})
    for op in loop["ops"]:
        by_job[op["job"]][op["traced"]].append(scaled(op["time"], op["reference_s"]))
    both = [v for v in by_job.values() if v[True] and v[False]]
    values["trace.overhead_ratio"] = sum(statistics.mean(v[False]) for v in both) / sum(
        statistics.mean(v[True]) for v in both
    )
    values["trace.self_coverage"] = sum(own.values()) / sum(op["time"] for op in traced)
    values["trace.absent_targets"] = len(loop["absent"])
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
    lines = [f"{name:<26} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"(per traced op; {n_ops} traced ops, {len(spans)} spans)")
    if loop["absent"]:
        lines.append("absent wrap targets: " + ", ".join(loop["absent"]))
    if loop["counter_errors"]:
        lines.append("counters that failed: " + "; ".join(sorted(set(loop["counter_errors"]))))
    return metrics, lines


def run(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (Path("src") / "unisynth" / "__init__.py").is_file():
        raise BenchError("run from the repository root: src/unisynth is missing")
    results = OUT / "results"
    work = OUT / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "outputs").mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    phases = {}
    try:
        t0 = time.monotonic()
        pool = build_pool(args.workload, args.seed, work / "inputs")
        phases["inputs_s"] = time.monotonic() - t0
        plan = {
            "jobs": [{"argv": job.argv, "ext": EXTENSIONS.get(job.backend)} for job in pool],
            "out_dir": str(work / "outputs"),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "min_passes": 2 if args.trace else 1,
            "spans_path": str(results / f"{stem}.spans.jsonl"),
        }
        setups = []
        for k in range(SETUP_SAMPLES - 1):
            result = run_worker(dict(plan, mode="setup"), work, f"setup{k}", deadline)
            setups.append((result["setup_s"], result["setup_reference_s"]))
        t1 = time.monotonic()
        phases["setup_workers_s"] = t1 - t0 - phases["inputs_s"]
        loop = run_worker(dict(plan, mode="loop"), work, "loop", deadline)
        setups.append((loop["setup_s"], loop["setup_reference_s"]))
        t2 = time.monotonic()
        phases["loop_worker_s"] = t2 - t1
        checked = check_ops(args.workload, pool, loop["ops"])
        phases["check_s"] = time.monotonic() - t2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = list(checked["failures"])
    if args.trace:
        with open(plan["spans_path"], encoding="utf-8") as f:
            spans = [tuple(json.loads(line)) for line in f]
        bad = nesting_errors(spans)
        if bad:
            problems.append(f"{bad} spans do not nest inside their parent op")
        metrics, lines = per_layer(loop, spans)
    else:
        metrics, lines = end_to_end(pool, setups, loop, checked)
    env = dict(loop["env"], workload=args.workload, seed=args.seed, src_lines=src_lines(),
               loop="closed", clients=1)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          "(closed loop, 1 client)")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "unisynth"))
    references = [op["reference_s"] for op in loop["ops"]]
    print(f"speed: reference loop {statistics.median(references) * 1e3:.1f} ms (median of "
          f"{len(references)}; {REFERENCE_S * 1e3:.0f} ms at reference speed); times are in "
          "seconds at reference speed, raw wall times in parentheses")
    for line in lines:
        print(line)
    for problem in problems[:20]:
        print("FAILED " + problem)
    summary = {
        "correct": not problems,
        "attempted": len(loop["ops"]),
        "failed": len(checked["failures"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(summary, env=env, phases=phases, setup_samples=setups, problems=problems,
                  op_times=[op["time"] for op in loop["ops"]], reference_times=references)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
