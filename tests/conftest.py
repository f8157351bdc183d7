"""Shared fixtures: reference matrices, random circuit generation, and a
guard that fails any test which leaves a thread running."""

from __future__ import annotations

import math
import re
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from unisynth import Circuit, Gate, GateKind
from unisynth import matrix

# CI selects this with --hypothesis-profile=ci: the same examples on every
# run, so a failing property fails alike each time, and no deadline on
# shared runners.  Local runs keep the default (random) profile.
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail a test that ends with more live threads than it started with.

    ``matrix_to_circuit`` computes its input's residual on a thread, which
    every compile must join.  A hook around the test call, not a fixture,
    so a hypothesis property is checked once over all its examples.
    """
    before = set(threading.enumerate())
    result = yield
    after = threading.enumerate()
    if len(after) > len(before):
        names = sorted(t.name for t in after if t not in before)
        pytest.fail(f"test left threads running: {names}", pytrace=False)
    return result


# CPython's int() refuses a decimal text with more digits than this limit,
# which json.loads meets on a long JSON integer; some 3.10 releases have none
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG_INTEGER = "1" * 5000
needs_int_digit_limit = pytest.mark.skipif(
    not 0 < INT_DIGIT_LIMIT < len(LONG_INTEGER),
    reason="int() has no digit limit below 5000 digits",
)


def float_batches(batch: int):
    """Patch ``matrix._NUMBERS`` to check ``batch`` float tokens per match.

    Both bulk parsers check their tokens through ``matrix.parse_floats``,
    so a small batch splits even a short text's tokens into several
    matches.
    """
    pattern = matrix._NUMBERS.pattern
    assert pattern.endswith(b"{1,256}")
    numbers = re.compile(pattern[: -len(b"{1,256}")] + b"{1,%d}" % batch)
    return mock.patch.object(matrix, "_NUMBERS", numbers)


def _n3(entries: dict[tuple[int, int], complex]) -> np.ndarray:
    m = np.eye(8, dtype=np.complex128)
    for index, value in entries.items():
        m[index] = value
    return m


# n = 3 inputs that fail the unitarity check, each with the one line
# ``decompose`` prints for it.  The last two also make the elimination that
# runs beside the check fail: abs() raises OverflowError on the entry, and
# the column update overflows in matmul.
NOT_UNITARY_N3 = {
    "1e200-off-diagonal": (_n3({(0, 7): 1e200, (7, 0): -1e200}), "overflows (nan)"),
    "1e308+1e308j": (_n3({(2, 5): 1e308 + 1e308j}), "overflows (nan)"),
    "two-identity": (2 * np.eye(8, dtype=np.complex128), "8.485e+00 exceeds 8.000e-08"),
    "abs-overflow": (_n3({(0, 1): 1.7e308 + 1.7e308j}), "overflows (nan)"),
    "matmul-overflow": (_n3({(0, 0): 1.7e308, (0, 1): 1.7e308}), "overflows (nan)"),
}

# Controlled-NOT with control qubit 1 and target qubit 0 (little-endian), so
# the swap block sits on basis states 2 and 3.
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=np.complex128,
)

SWAP_2Q = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=np.complex128,
)


def random_gate(rng: np.random.Generator, n: int) -> Gate:
    kind = GateKind(rng.choice([k.value for k in GateKind]))
    target = int(rng.integers(n))
    if kind is GateKind.X:
        return Gate(kind, target)
    others = [q for q in range(n) if q != target]
    k = int(rng.integers(len(others) + 1))
    controls = tuple(sorted(rng.choice(others, size=k, replace=False))) if k else ()
    if kind is GateKind.FCX:
        return Gate(kind, target, controls)
    # sprinkle exact zero and full-period angles: gates synthesis never
    # emits, which the emitters and the simulator must still take
    roll = rng.random()
    if roll < 0.1:
        angle = 0.0
    elif roll < 0.2:
        angle = 4.0 * math.pi if kind is not GateKind.FCR1 else 2.0 * math.pi
    else:
        angle = float(rng.uniform(-4.0 * math.pi, 4.0 * math.pi))
    return Gate(kind, target, controls, angle)


def random_circuit(rng: np.random.Generator, n: int, length: int) -> Circuit:
    """Random gate soup over all kinds, with X runs likely at every size."""
    return Circuit(n, tuple(random_gate(rng, n) for _ in range(length)))
