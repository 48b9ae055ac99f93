import operator
import random
import zlib
from fractions import Fraction
from functools import reduce

import pytest

from blocklin import QQ, QQ_I, QUAT, DenseMatrix, GaussianRational, Quaternion, Rational, from_dense
from blocklin.rings import is_prime


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


PRIMES = [p for p in range(3, 1000) if is_prime(p)]
COMPONENTS = {QQ: (Rational, 1), QQ_I: (GaussianRational, 2), QUAT: (Quaternion, 4)}


def mixed_denominator_operands(ring, n):
    """Two n x n operands over QQ, QQ_I or QUAT, whose k components per entry
    carry pairwise coprime prime denominators: component c of x[i][j] has
    the prime PRIMES[c*n + j], of y[i][j] the prime PRIMES[(k + c)*n + i].
    So a row of x and a column of y each come over a product of up to k*n
    distinct primes.  About one numerator in five is zero, and for n > 1
    x has an all-zero row and y an all-zero column."""
    make, k = COMPONENTS[ring]
    x = [
        [make(*(Fraction((3 * i + 5 * j + 7 * c) % 5 - 2, PRIMES[c * n + j]) for c in range(k))) for j in range(n)]
        for i in range(n)
    ]
    y = [
        [make(*(Fraction((2 * i + 3 * j + c) % 5 - 2, PRIMES[(k + c) * n + i]) for c in range(k))) for j in range(n)]
        for i in range(n)
    ]
    if n > 1:
        x[n // 2] = [ring.zero()] * n
        for row in y:
            row[n // 3] = ring.zero()
    return DenseMatrix(n, x, ring), DenseMatrix(n, y, ring)


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
