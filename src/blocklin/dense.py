"""Row-major dense matrices: the I/O, embedding, and oracle boundary.

Dense matrices exist for file round trips and for independent row-based
verification (Gauss-Jordan inversion, determinants, and :func:`dense_mul`,
the textbook product that tests hold :func:`blocklin.blockmat.mul` to).  The
block algorithms in this package never use them internally; the dense
kernel of ``blockmat.mul`` reads quadtree leaves into plain row lists of
its own and shares no code with this module.
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
    n = a.n
    out = []
    for i in range(n):
        row_a = a.rows[i]
        out_row = []
        for j in range(n):
            acc = row_a[0] * b.rows[0][j]
            for k in range(1, n):
                acc = acc + row_a[k] * b.rows[k][j]
            out_row.append(acc)
        out.append(out_row)
    return DenseMatrix(n, out, a.ring)


def gauss_jordan_inverse(m: DenseMatrix) -> DenseMatrix | None:
    """Invert by row reduction of [M | I]; None when M is singular.

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


def forward_pivots(m: DenseMatrix) -> list:
    """Forward elimination of m's rows: ``(pivot, swapped)`` per column, up
    to the first column without a pivot, so m is invertible exactly when all
    n are found.  Row r loses ``a[r][col] * pivot^-1`` times the pivot row, a
    left row operation, which is sound over the quaternions as well.
    """
    n = m.n
    a = [list(row) for row in m.rows]
    pivots = []
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if pivot_row is None:
            break
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        pivots.append((pivot, pivot_row != col))
        pivot_inv = pivot.try_invert()
        for r in range(col + 1, n):
            if a[r][col].is_zero():
                continue
            factor = a[r][col] * pivot_inv
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return pivots


def dense_determinant(m: DenseMatrix):
    """Determinant by fraction-producing Gaussian elimination.

    Only meaningful over commutative rings; quaternion input is rejected.
    """
    if not m.ring.commutative:
        raise ValueError("determinant needs a commutative ring")
    pivots = forward_pivots(m)
    if len(pivots) < m.n:
        return m.ring.zero()
    det = m.ring.one()
    for pivot, swapped in pivots:
        det = -det * pivot if swapped else det * pivot
    return det
