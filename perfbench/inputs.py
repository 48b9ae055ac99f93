"""Seeded benchmark inputs and the matrix file format, standard library only.

Every input is a pure function of the benchmark seed and a key naming the
job, so inputs stay fixed when blocklin changes.  Invertibility is decided
by :mod:`exact`, never by blocklin.
"""

from __future__ import annotations

import random
from fractions import Fraction

from exact import Rationals, is_invertible

_MAX_DRAWS = 1000


def rng_for(seed, *key) -> random.Random:
    """A generator seeded from the benchmark seed and a job key."""
    return random.Random("/".join(str(part) for part in (seed, *key)))


def random_matrix(field, n, rng):
    return [[field.random(rng) for _ in range(n)] for _ in range(n)]


def random_invertible(field, n, rng, strongly=False):
    """A random invertible matrix; with ``strongly`` every leading minor is nonzero."""
    for _ in range(_MAX_DRAWS):
        rows = random_matrix(field, n, rng)
        if is_invertible(field, rows, strongly):
            return rows
    raise RuntimeError(f"no invertible {n}x{n} draw over {field.spec}")


def weak_leading_block(field, n, rng):
    """Random invertible matrix whose leading half block has a zero leading minor.

    The Schur recursion cannot invert that block, so a pivot probe on it has
    to take a fallback route.
    """
    half = n // 2
    for _ in range(_MAX_DRAWS):
        rows = random_matrix(field, n, rng)
        lead = [row[:half] for row in rows[:half]]
        if not is_invertible(field, lead, strongly=True) and is_invertible(field, rows):
            return rows
    raise RuntimeError(f"no weak-lead {n}x{n} draw over {field.spec}")


def _singular_block(field, n, rng):
    """One row is a left combination of the others, so no inverse exists."""
    rows = random_matrix(field, n, rng)
    victim = rng.randrange(n)
    combo = [field.zero] * n
    for i, row in enumerate(rows):
        if i != victim:
            weight = field.random(rng)
            combo = [field.add(acc, field.mul(weight, x)) for acc, x in zip(combo, row)]
    rows[victim] = combo
    return rows


def all_blocks_singular(field, n, rng):
    """Invertible n x n matrix whose four half-size blocks are all singular.

    The direct Schur recursion fails on it at the first leading block, so
    blocklin has to take a Gram route.
    """
    half = n // 2
    for _ in range(_MAX_DRAWS):
        a, b, c, d = (_singular_block(field, half, rng) for _ in range(4))
        rows = [ra + rb for ra, rb in zip(a, b)] + [rc + rd for rc, rd in zip(c, d)]
        if is_invertible(field, rows):
            return rows
    raise RuntimeError(f"no invertible all-blocks-singular {n}x{n} draw over {field.spec}")


def embed(field, rows, size):
    """The input in the top-left corner plus an identity summand, as blocklin pads."""
    n = len(rows)
    out = [list(row) + [field.zero] * (size - n) for row in rows]
    for i in range(n, size):
        out.append([field.one if j == i else field.zero for j in range(size)])
    return out


def padded_size(n):
    size = 1
    while size < n:
        size *= 2
    return size


# ---------------------------------------------------------------------------
# blocklin's text format, for the rings the CLI workload uses (q and gf:P)


def format_matrix(field, rows) -> str:
    lines = [f"ring {field.spec}", f"size {len(rows)}"]
    lines.extend(" ".join(str(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def parse_matrix(text):
    """(ring spec, rows) of a matrix file; entries as Fraction (q) or int (gf:P)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    spec = lines[0].removeprefix("ring ").strip()
    n = int(lines[1].removeprefix("size ").strip())
    convert = Fraction if spec == Rationals.spec else int
    rows = [[convert(tok) for tok in line.split()] for line in lines[2:]]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError("matrix file does not match its size line")
    return spec, rows


def parse_permutations(text):
    vectors = {}
    for line in text.splitlines():
        parts = line.split()
        if parts:
            vectors[parts[0]] = [int(p) - 1 for p in parts[1:]]
    return vectors["perm-rows"], vectors["perm-cols"]
