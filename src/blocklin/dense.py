"""Row-major dense matrices: the I/O, embedding, and oracle boundary.

Dense matrices exist for file round trips and for row-based work outside
the block algorithms, which never use them internally: the products of the
CLI's ``check`` (:func:`dense_mul`), the invertibility decision and
determinants.  Products and eliminations run
on the ring's own row kernels, ``ring.dot_rows`` and
``ring.pivot_product``: integers over a common denominator over QQ (and,
for products, over QQ_I and QUAT), raw residues over GF(p), scalar
objects elsewhere.  ``blockmat.mul`` runs on
the same ``dot_rows``, so the tests hold both to a schoolbook product of
their own and to sympy.
"""

from __future__ import annotations


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
    return DenseMatrix(a.n, a.ring.dot_rows(a.rows, zip(*b.rows)), a.ring)


def dense_determinant(m: DenseMatrix):
    """Determinant by the ring's forward elimination (``ring.pivot_product``).

    Only meaningful over commutative rings; quaternion input is rejected.
    """
    if not m.ring.commutative:
        raise ValueError("determinant needs a commutative ring")
    return m.ring.pivot_product(m.rows)
