"""Row-major dense matrices: the I/O, embedding, and oracle boundary.

Dense matrices exist for file round trips and for row-based work outside
the block algorithms, which never use them internally: the products of the
CLI's ``check`` (:func:`dense_mul`), the invertibility decision and
determinants.  Products and eliminations run on the ring's own row
kernels, ``ring.dot_rows`` and ``ring.pivot_product``.  A product packs
each row of its left operand and each column of its right one
(``ring.pack``: over QQ, integers over one denominator; elsewhere the
elements over 1), takes the packed products, and unpacks each row over
the product of the denominators: the same kernel as ``blockmat.mul``, so
the tests hold both to a schoolbook product of their own and to sympy.
"""

from __future__ import annotations

import operator
from math import lcm


class DenseMatrix:
    """An n x n matrix stored as row-major lists of ring elements."""

    __slots__ = ("n", "rows", "ring")

    def __init__(self, n, rows, ring):
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected {n} rows of {n} entries")
        self.n = n
        self.rows = [list(r) for r in rows]
        self.ring = ring

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"DenseMatrix({self.n}x{self.n} over {self.ring.spec})"


def dense_identity(n, ring) -> DenseMatrix:
    zero, one = ring.zero(), ring.one()
    return DenseMatrix(
        n, [[one if i == j else zero for j in range(n)] for i in range(n)], ring
    )


def dense_mul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    if a.ring is not b.ring:
        raise TypeError(f"cannot multiply matrices over {a.ring!r} and {b.ring!r}")
    ring = a.ring
    # each row of a and each column of b packed over its own denominator,
    # which keeps the integers small when the denominators differ from row
    # to row, as in the factors of an LU
    left = list(map(ring.pack, zip(a.rows)))
    right = list(map(ring.pack, zip(zip(*b.rows))))
    sums = ring.dot_rows([row for (row,), _ in left], [col for (col,), _ in right])
    col_den = lcm(*[den for _, den in right])
    if col_den > 1:
        # entry (i, j) lies over d_i * e_j; column j scaled by col_den / e_j
        # puts row i over d_i * col_den
        scale = [col_den // den for _, den in right]
        sums = [list(map(operator.mul, row, scale)) for row in sums]
    return DenseMatrix(a.n, [ring.unpack((row,), den * col_den)[0] for row, (_, den) in zip(sums, left)], ring)


def dense_determinant(m: DenseMatrix):
    """Determinant by the ring's forward elimination (``ring.pivot_product``).

    Only meaningful over commutative rings; quaternion input is rejected.
    """
    if not m.ring.commutative:
        raise ValueError("determinant needs a commutative ring")
    return m.ring.pivot_product(m.rows)
