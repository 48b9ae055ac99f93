import operator
import random
import zlib
from fractions import Fraction
from functools import reduce

import pytest

from blocklin import QQ, QQ_I, QUAT, DenseMatrix, GaussianRational, Quaternion, Rational, dense_identity, from_dense
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


PRIMES = [p for p in range(3, 1300) if is_prime(p)]
COMPONENTS = {QQ: (Rational, 1), QQ_I: (GaussianRational, 2), QUAT: (Quaternion, 4)}


def mixed_denominator_operands(ring, n, first=0):
    """Two n x n operands over QQ, QQ_I or QUAT, whose k components per entry
    carry pairwise coprime prime denominators: component c of x[i][j] has
    the prime PRIMES[first + c*n + j], of y[i][j] the prime
    PRIMES[first + (k + c)*n + i].  So a row of x and a column of y each
    come over a product of up to k*n distinct primes; x draws on the k*n
    primes from PRIMES[first] on and y on the k*n after them.  About one
    numerator in five is zero, and for n > 1 x has an all-zero row and y an
    all-zero column."""
    make, k = COMPONENTS[ring]
    x = [
        [make(*(Fraction((3 * i + 5 * j + 7 * c) % 5 - 2, PRIMES[first + c * n + j]) for c in range(k))) for j in range(n)]
        for i in range(n)
    ]
    y = [
        [make(*(Fraction((2 * i + 3 * j + c) % 5 - 2, PRIMES[first + (k + c) * n + i]) for c in range(k))) for j in range(n)]
        for i in range(n)
    ]
    if n > 1:
        x[n // 2] = [ring.zero()] * n
        for row in y:
            row[n // 3] = ring.zero()
    return DenseMatrix(n, x, ring), DenseMatrix(n, y, ring)


def gauss_jordan_inverse(m):
    """Invert a DenseMatrix by row reduction of [M | I]; None when M is
    singular.  The tests' inversion oracle, on scalar objects only.

    Row operations multiply from the left, which stays correct over the
    noncommutative quaternions as well.
    """
    n = m.n
    a = [list(row) for row in m.rows]
    inv = [list(row) for row in dense_identity(n, m.ring).rows]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if pivot_row is None:
            return None
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot_inv = a[col][col].try_invert()
        if pivot_inv is None:
            return None
        a[col] = [pivot_inv * x for x in a[col]]
        inv[col] = [pivot_inv * x for x in inv[col]]
        for r in range(n):
            if r == col or a[r][col].is_zero():
                continue
            factor = a[r][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return DenseMatrix(n, inv, m.ring)


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
