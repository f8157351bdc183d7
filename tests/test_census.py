"""The generic census in closed form, from the Gray schedule alone.

For a generic input every eliminated entry yields a block, so the block
order, and with it every X count, does not depend on the matrix.  Row r
(r = 0..d-3) eliminates Gray pairs d-2 down to r, then the trailing corner
takes pair d-2.  Pair j joins Gray columns j and j+1, states pi_j and
pi_{j+1} one bit apart, and its block's X wrap is the 0 bits of the larger
state.  ``schedule_census`` walks that order with synthesis's X frame and
builds no matrix.
"""

from pathlib import Path

import pytest

from unisynth import census, haar_random_unitary, matrix_to_circuit


def _popcount(bits):
    return bin(bits).count("1")


def schedule_census(n):
    """``(blocks, optimized X, raw X)`` of a generic ``n``-qubit compile."""
    d = 1 << n
    full = d - 1
    gray = [j ^ (j >> 1) for j in range(d)]
    pairs = [j for r in range(d - 2) for j in range(d - 2, r - 1, -1)] + [d - 2]
    frame = x = raw = 0
    for j in pairs:
        wrap = full & ~max(gray[j], gray[j + 1])
        x += _popcount(frame ^ wrap)
        raw += 2 * _popcount(wrap)
        frame = wrap
    return len(pairs), x + _popcount(frame), raw


def census_row(n):
    """The bench row ``(n, x, ry, rz, r1, fcx, total)`` the schedule gives:
    each block is an Rz, Ry, Rz chain, and one R1 carries det's phase."""
    blocks, x, _ = schedule_census(n)
    return (n, x, blocks, 2 * blocks, 1, 0, x + 3 * blocks + 1)


@pytest.mark.parametrize("n", range(1, 10))
def test_schedule_census_matches_the_closed_forms(n):
    d = 1 << n
    blocks, x, raw = schedule_census(n)
    total = census_row(n)[-1]
    assert 2 * blocks == d * (d - 1)
    assert 4 * raw == d * (d - 2) * (2 * n - 3)
    if n == 1:
        assert (x, total) == (0, 4)
    else:
        assert 2 * x == d * d + d * (n - 4) + 4 * n - 12
        assert 2 * total == 4 * d * d + d * (n - 7) + 4 * n - 10


@pytest.mark.parametrize(
    "n, x, raw, total", [(8, 33290, 211328, 131211), (9, 132364, 979200, 524813)]
)
def test_schedule_census_gives_the_compiled_counts_above_tier_1(n, x, raw, total):
    # what compiling Haar inputs at n = 8 and 9 gives, too slow to redo here
    _, walked_x, walked_raw = schedule_census(n)
    assert (walked_x, walked_raw, census_row(n)[-1]) == (x, raw, total)


def test_schedule_census_matches_the_readme_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    table = readme.split("`bench` prints a fixed-seed table", 1)[1].split("```", 2)[1]
    rows = [line.split() for line in table.strip("\n").splitlines()[1:]]
    assert [tuple(map(int, row[:-1])) for row in rows] == [
        census_row(n) for n in range(1, 7)
    ]


@pytest.mark.parametrize("n", range(1, 7))
def test_schedule_census_matches_compiled_x_counts(n):
    u = haar_random_unitary(n, 2024)
    c = census(matrix_to_circuit(u))
    assert (n, c.x, c.ry, c.rz, c.r1, c.fcx, c.total) == census_row(n)
    assert census(matrix_to_circuit(u, optimize=False)).x == schedule_census(n)[2]
