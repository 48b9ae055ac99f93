import operator
import random
import zlib
from functools import reduce

import pytest

from blocklin import DenseMatrix, QQ, from_dense


def stable_seed(*parts) -> int:
    """Deterministic across processes, unlike built-in string hashing."""
    return zlib.crc32("|".join(str(p) for p in parts).encode())


def schoolbook_mul(a, b):
    """Textbook product, entry (i, j) folded left to right over k on scalar
    objects: the tests' reference, independent of the package's row kernels."""
    n = a.n
    rows = [
        [reduce(operator.add, (a.rows[i][k] * b.rows[k][j] for k in range(n))) for j in range(n)]
        for i in range(n)
    ]
    return DenseMatrix(n, rows, a.ring)


def ring_dense(ring, rows):
    """Dense matrix from integer rows, entries built via ring.from_int."""
    n = len(rows)
    return DenseMatrix(n, [[ring.from_int(x) for x in row] for row in rows], ring)


def ring_mat(ring, rows):
    return from_dense(ring_dense(ring, rows))


def grid(m, ring=None):
    """Render a block matrix as formatted token rows, for literal asserts."""
    from blocklin import to_dense

    dense = to_dense(m)
    r = ring if ring is not None else dense.ring
    return [[r.format(x) for x in row] for row in dense.rows]


WITNESS_ROWS = [
    [1, 1, 0, 0],
    [1, 1, 1, 0],
    [0, 1, 1, 1],
    [0, 0, 1, 1],
]


def witness_all_blocks_singular(ring=QQ):
    """4x4 banded matrix: every quadrant singular, determinant -1."""
    return ring_mat(ring, WITNESS_ROWS)


@pytest.fixture
def rng():
    return random.Random(20240811)
