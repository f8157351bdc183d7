"""Spans around the program's public functions, recorded from outside it.

A ``Tracer`` replaces each target function at the module global its callers
look it up in (``unisynth.cli.verify``, ``unisynth.twolevel.is_unitary``, ...)
with a wrapper that records ``(span_id, parent_id, op_id, name, start, end)``.
A target that no longer exists is listed in ``absent`` and skipped, so a
renamed function costs its span, not the run.

Counters are taken from a wrapped call's arguments and result after the op
ends, outside every span, so counting adds nothing to any layer's time.

Only the standard library is imported here: the module runs inside the
worker process, whose import time is part of the measured set-up.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import defaultdict


def _count_blocks(counts, args, result):
    counts["twolevel.blocks"] += len(result)
    for element in result:
        b = element.block
        if b[0, 0] == 0 and b[1, 1] == 0 and b[0, 1] == 1 and b[1, 0] == 1:
            counts["twolevel.blocks_swap"] += 1
        elif b[0, 1] == 0 and b[1, 0] == 0:
            counts["twolevel.blocks_phase"] += 1
        else:
            counts["twolevel.blocks_generic"] += 1


def _count_optimized(counts, args, result):
    counts["circuit.gates_raw"] += len(args[0].gates)
    counts["optimizer.gates_removed"] += len(args[0].gates) - len(result.gates)


def _count_applied(counts, args, result):
    counts["simulator.gates_applied"] += result.gate_count


def _count_parsed(counts, args, result):
    counts["emitters.gates_parsed"] += len(result.gates)


ROOT = "cli.main"

# (module, attribute, span name, counter): one entry per call site's lookup.
TARGETS = (
    ("unisynth.cli", "load_matrix", "matrix.load", None),
    ("unisynth.matrix", "validate_unitary", "matrix.validate", None),
    ("unisynth.circuit", "validate_unitary", "matrix.validate", None),
    ("unisynth.twolevel", "validate_unitary", "matrix.validate", None),
    ("unisynth.twolevel", "is_unitary", "matrix.is_unitary", None),
    ("unisynth.circuit", "is_unitary", "matrix.is_unitary", None),
    ("unisynth.circuit", "two_level_decompose", "twolevel.decompose", _count_blocks),
    ("unisynth.cli", "matrix_to_circuit", "circuit.synth", None),
    ("unisynth.optimizer", "optimize", "optimizer.optimize", _count_optimized),
    ("unisynth.cli", "verify", "simulator.verify", _count_applied),
    ("unisynth.cli", "emit_qsharp", "emitters.emit", None),
    ("unisynth.cli", "emit_qasm3", "emitters.emit", None),
    ("unisynth.cli", "emit_json", "emitters.emit", None),
    ("unisynth.cli", "parse_json", "emitters.parse", _count_parsed),
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, targets=TARGETS):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, int]] = {}
        self.absent: list[str] = []
        self.counter_errors: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._op: int | None = None
        self._pending: list[tuple] = []
        self._patches: list[tuple] = []  # (module, attribute, original, wrapper)
        for module_name, attr, span, counter in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, original, self._wrap(span, original, counter)))

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, counter, args, kwargs)

        return traced

    def _call(self, name, fn, counter, args, kwargs):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self._op, name, start, end))
        if counter is not None:
            self._pending.append((name, counter, args, result))
        return result

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as op ``op_id`` with every wrapper installed."""
        self._op = op_id
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            return self._call(ROOT, fn, None, args, {})
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            self._settle(op_id)
            self._op = None

    def _settle(self, op_id: int) -> None:
        counts = self.counts.setdefault(op_id, defaultdict(int))
        for name, counter, args, result in self._pending:
            try:
                counter(counts, args, result)
            except (AttributeError, TypeError, IndexError) as exc:
                # the result changed shape in the program; keep the span
                self.counter_errors.append(f"{name}: {exc!r}")
        self._pending.clear()


def nesting_errors(spans: list[tuple]) -> int:
    """Spans that do not sit inside their parent, or belong to another op."""
    by_id = {s[0]: s for s in spans}
    errors = 0
    for span_id, parent, op, name, start, end in spans:
        if parent is None:
            errors += name != ROOT or op is None
            continue
        p = by_id.get(parent)
        errors += p is None or p[2] != op or not p[4] <= start <= end <= p[5]
    return errors


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Total self time per span name: duration minus the children's durations.

    Children of one span run one after another on a single thread, so their
    durations do not overlap and their sum is the time they cover.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for span_id, _, _, name, start, end in spans:
        totals[name] += end - start - child_time[span_id]
    return dict(totals)
