"""Seeded random matrix generation used by the CLI and the test suite."""

from __future__ import annotations

import random

from . import blockmat as bm
from .blockmat import BlockMatrix
from .dense import DenseMatrix
from .errors import BlocklinError
from .inversion import is_invertible
from .lu import LOWER, TriangularMatrix

__all__ = [
    "random_dense",
    "random_matrix",
    "random_invertible",
    "random_triangular",
    "random_all_blocks_singular",
    "GenerationFailed",
]


# Draws a constrained generation makes before it gives up.
_MAX_DRAWS = 500


class GenerationFailed(BlocklinError):
    """A constrained random generation did not succeed within its budget."""


def random_dense(ring, n: int, rng: random.Random) -> DenseMatrix:
    return DenseMatrix(
        n, [[ring.random_element(rng) for _ in range(n)] for _ in range(n)], ring
    )


def random_matrix(ring, depth: int, rng: random.Random) -> BlockMatrix:
    if depth == 0:
        return BlockMatrix.leaf(ring.random_element(rng))
    return BlockMatrix.quad(*(random_matrix(ring, depth - 1, rng) for _ in range(4)))


def random_invertible(ring, depth: int, rng: random.Random) -> BlockMatrix:
    for _ in range(_MAX_DRAWS):
        candidate = random_matrix(ring, depth, rng)
        if is_invertible(candidate):
            return candidate
    raise GenerationFailed(f"no invertible matrix over {ring.spec} in {_MAX_DRAWS} draws")


def random_triangular(
    ring,
    depth: int,
    rng: random.Random,
    orientation: str = LOWER,
    *,
    unit_diagonal: bool = False,
) -> TriangularMatrix:
    """Random triangular matrix with invertible (or unit) diagonal leaves."""

    def diag_entry():
        if unit_diagonal:
            return ring.one()
        while True:
            x = ring.random_element(rng)
            if not x.is_zero():
                return x

    def build(d):
        if d == 0:
            return BlockMatrix.leaf(diag_entry())
        zero = bm.zero_matrix(d - 1, ring)
        filled = random_matrix(ring, d - 1, rng)
        if orientation == LOWER:
            return BlockMatrix.quad(build(d - 1), zero, filled, build(d - 1))
        return BlockMatrix.quad(build(d - 1), filled, zero, build(d - 1))

    return TriangularMatrix(build(depth), orientation, unit_diagonal)


def _random_singular_dense(ring, n: int, rng: random.Random) -> DenseMatrix:
    """n x n singular matrix: one row is a random combination of the others."""
    rows = [[ring.random_element(rng) for _ in range(n)] for _ in range(n)]
    victim = rng.randrange(n)
    combo = [ring.zero() for _ in range(n)]
    for i, row in enumerate(rows):
        if i == victim:
            continue
        weight = ring.random_element(rng)
        combo = [acc + weight * x for acc, x in zip(combo, row)]
    rows[victim] = combo
    return DenseMatrix(n, rows, ring)


def random_all_blocks_singular(ring, depth: int, rng: random.Random) -> BlockMatrix:
    """Invertible matrix whose four half-size blocks are each singular.

    Every quadrant is drawn singular by construction, and the assembled
    matrix is kept only when it is invertible.  Needs a commutative ring and
    dimension at least 4: at dimension 2 the quadrants are scalars, so
    all-singular quadrants force the zero matrix.
    """
    if depth < 2:
        raise GenerationFailed("all-blocks-singular needs dimension >= 4")
    if not ring.commutative:
        raise GenerationFailed("all-blocks-singular generation needs a commutative ring")
    half = 1 << (depth - 1)
    for _ in range(_MAX_DRAWS):
        quads = [bm.from_dense(_random_singular_dense(ring, half, rng)) for _ in range(4)]
        candidate = BlockMatrix.quad(*quads)
        if is_invertible(candidate):
            return candidate
    raise GenerationFailed(
        f"no invertible all-blocks-singular matrix over {ring.spec} in {_MAX_DRAWS} draws"
    )
