"""One fresh interpreter running the program in-process through its CLI entry point.

Usage: ``python3 worker.py PLAN.json RESULT.json``

The worker times ``import unisynth`` plus one untimed warm-up op (the
set-up), and in ``loop`` mode then runs the plan's jobs as a closed loop with
one client: each op calls ``unisynth.cli.main(argv)`` only after the previous
one returned.  Each set-up and each op is preceded by one run of the
reference loop (``reference_s``).  The loop stops after ``seconds`` once
``min_passes`` whole passes over the pool are done.  With ``trace`` set, every other pass runs
under a ``spans.Tracer``; the passes in between give the untraced times that
``trace.overhead_ratio`` compares against.

Only the standard library is imported before ``unisynth``, so the import
time is the program's own.  Checking the outputs is left to ``run.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


# On a shared 2-CPU x86_64 host the same op ran up to 1.6 times slower for
# minutes at a time.  A fixed pure-Python loop, timed right
# before each op and before each set-up, measures that speed; ``run.py``
# reports each time scaled by REFERENCE_S / reference time, i.e. in seconds
# at the reference speed, next to the raw time.  The loop allocates no
# tracked objects and touches no data of the program, so the program cannot
# change its time.  REFERENCE_S is about its time on a quiet 2-CPU x86_64
# Xeon with Python 3.11.
REFERENCE_S = 0.1
REFERENCE_ITERATIONS = 1_000_000


def reference_s() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += (i * i) % 7
    return time.perf_counter() - start


def run_op(main, argv, tracer=None, op_id=None):
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = tracer.run_op(op_id, main, argv) if tracer else main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the loop must go on; the failure is recorded
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
    return {"rc": rc, "time": elapsed, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error}


def job_argv(job: dict, out_dir: str, tag: str) -> list[str]:
    argv = list(job["argv"])
    if job["ext"]:
        argv += ["--output", os.path.join(out_dir, f"{tag}.{job['ext']}")]
    return argv


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS uses, or None where it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(unisynth) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "unisynth": unisynth.__file__,
    }


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    jobs, out_dir = plan["jobs"], plan["out_dir"]

    reference = reference_s()
    start = time.perf_counter()
    import unisynth
    import unisynth.cli

    import_s = time.perf_counter() - start
    warmup = run_op(unisynth.cli.main, job_argv(jobs[0], out_dir, "warmup"))
    result = {
        "import_s": import_s,
        "setup_s": import_s + warmup["time"],
        "setup_reference_s": reference,
        "warmup": warmup,
    }
    if plan["mode"] == "loop":
        result.update(loop(plan, unisynth.cli.main))
        result["env"] = environment(unisynth)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


def loop(plan: dict, cli_main) -> dict:
    jobs, out_dir = plan["jobs"], plan["out_dir"]
    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
    ops = []
    i = 0
    start = time.perf_counter()
    while time.perf_counter() - start < plan["seconds"] or i < plan["min_passes"] * len(jobs):
        job = jobs[i % len(jobs)]
        traced = tracer is not None and (i // len(jobs)) % 2 == 1
        argv = job_argv(job, out_dir, f"op{i}")
        reference = reference_s()
        op = run_op(cli_main, argv, tracer if traced else None, i)
        op.update(job=i % len(jobs), traced=traced, reference_s=reference,
                  output=argv[-1] if job["ext"] else None)
        ops.append(op)
        i += 1
    out = {"ops": ops}
    if tracer is not None:
        with open(plan["spans_path"], "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
        out["counts"] = tracer.counts
        out["absent"] = tracer.absent
        out["counter_errors"] = tracer.counter_errors
    return out


if __name__ == "__main__":
    main(*sys.argv[1:])
