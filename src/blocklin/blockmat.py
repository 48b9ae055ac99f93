"""Recursive 2x2 block matrices with instrumented ring operations.

A :class:`BlockMatrix` of depth k represents a 2**k x 2**k matrix as either
a scalar leaf or four equal-depth quadrants A (top-left), B (top-right),
C (bottom-left), D (bottom-right).  It stores its entries as one tuple of
row tuples: :meth:`BlockMatrix.quad` joins the quadrants' rows, and each
quadrant property slices out its own.  The public surface deliberately
offers no row or column access: algorithms built on it operate on whole
blocks only, and convert through :class:`~blocklin.dense.DenseMatrix`
solely at the I/O and oracle boundary.  Inside this module every
operation is one pass over the rows; :func:`mul` hands both operands'
rows to the ring's own row kernel (``ring.dot_rows``), which takes every
output entry as one dot product.  Given a sign and an addend, :func:`mul`
computes the fused multiply-accumulate sign*(x*y) + z in that same pass:
the Schur complement D - C*A^-1*B and the inverse blocks of the inverters
and the LU take one call each, not a product and a second pass, and are
priced as the product plus the block addition they replace.

Every arithmetic operation threads an optional :class:`OpCounter` tallying
base-scalar multiplications, divisions, additions, and t-power scalings.
Counts are exact and determined by the input shape alone, so they can be
checked against closed-form cost predictions.

Matrices are immutable; recursive operations are pure.  Concurrent
evaluation of sibling blocks is sound provided each branch tallies into
its own counter and the counters are merged afterwards.
"""

from __future__ import annotations

import operator

from .dense import DenseMatrix
from .errors import DepthMismatch, NonPowerOfTwo

__all__ = [
    "OpCounter",
    "BlockMatrix",
    "identity",
    "zero_matrix",
    "map_leaves",
    "embed",
    "from_dense",
    "to_dense",
    "add",
    "sub",
    "negate",
    "mul",
    "transpose",
    "adjoint",
    "circ_conjugate",
]


class OpCounter:
    """Mergeable tally of base-scalar operations.

    ``mul_count`` and ``div_count`` feed the multiplication-count laws;
    additions and t-power scalings are tallied separately and never count
    toward them.  Merging is componentwise addition, so per-branch counters
    merged after concurrent evaluation equal a sequential tally exactly.
    """

    __slots__ = ("label", "mul_count", "div_count", "add_count", "scaling_count")

    def __init__(self, label: str = ""):
        self.label = label
        self.mul_count = 0
        self.div_count = 0
        self.add_count = 0
        self.scaling_count = 0

    @property
    def muldiv(self) -> int:
        return self.mul_count + self.div_count

    def merge(self, other: "OpCounter") -> "OpCounter":
        self.mul_count += other.mul_count
        self.div_count += other.div_count
        self.add_count += other.add_count
        self.scaling_count += other.scaling_count
        return self

    def snapshot(self) -> dict:
        return {
            "mul": self.mul_count,
            "div": self.div_count,
            "add": self.add_count,
            "scaling": self.scaling_count,
        }

    def __repr__(self):
        label = f"{self.label}: " if self.label else ""
        return (
            f"OpCounter({label}mul={self.mul_count} div={self.div_count} "
            f"add={self.add_count} scaling={self.scaling_count})"
        )


class BlockMatrix:
    """A 2**k x 2**k matrix stored as one tuple of row tuples; immutable."""

    __slots__ = ("depth", "_rows")

    def __init__(self, rows, depth):
        self._rows = rows
        self.depth = depth

    @classmethod
    def leaf(cls, scalar) -> "BlockMatrix":
        return cls(((scalar,),), 0)

    @classmethod
    def quad(cls, a, b, c, d) -> "BlockMatrix":
        depth = a.depth
        if not (b.depth == depth and c.depth == depth and d.depth == depth):
            raise DepthMismatch("quadrants must share one depth")
        top = tuple(map(operator.add, a._rows, b._rows))
        return cls(top + tuple(map(operator.add, c._rows, d._rows)), depth + 1)

    def _quadrant(self, down, right):
        half = 1 << (self.depth - 1)
        cols = slice(right * half, right * half + half)
        rows = self._rows[down * half : down * half + half]
        return BlockMatrix(tuple(row[cols] for row in rows), self.depth - 1)

    @property
    def is_leaf(self) -> bool:
        return self.depth == 0

    @property
    def scalar(self):
        return None if self.depth else self._rows[0][0]

    @property
    def blocks(self):
        return (self.a, self.b, self.c, self.d) if self.depth else None

    @property
    def a(self):
        return self._quadrant(0, 0)

    @property
    def b(self):
        return self._quadrant(0, 1)

    @property
    def c(self):
        return self._quadrant(1, 0)

    @property
    def d(self):
        return self._quadrant(1, 1)

    @property
    def dimension(self) -> int:
        return 1 << self.depth

    @property
    def ring(self):
        return self._rows[0][0].ring

    def __eq__(self, other):
        return (
            isinstance(other, BlockMatrix)
            and self.depth == other.depth
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"BlockMatrix(depth={self.depth}, dim={self.dimension})"


def _check_depth(x: BlockMatrix, y: BlockMatrix):
    if x.depth != y.depth:
        raise DepthMismatch(f"depth {x.depth} vs {y.depth}")


def identity(depth: int, ring) -> BlockMatrix:
    n = 1 << depth
    zero, one = ring.zero(), ring.one()
    rows = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    return BlockMatrix(rows, depth)


def zero_matrix(depth: int, ring) -> BlockMatrix:
    n = 1 << depth
    return BlockMatrix(((ring.zero(),) * n,) * n, depth)


def map_leaves(m: BlockMatrix, fn) -> BlockMatrix:
    """Rebuild m with fn applied to every scalar entry."""
    return BlockMatrix(tuple(tuple(map(fn, row)) for row in m._rows), m.depth)


# ---------------------------------------------------------------------------
# dense conversions and embedding


def from_dense(dense: DenseMatrix) -> BlockMatrix:
    """Exact conversion; the dimension must be a power of two."""
    n = dense.n
    if n < 1 or n & (n - 1):
        raise NonPowerOfTwo(f"{n} is not a power of two; use embed() instead")
    return BlockMatrix(tuple(map(tuple, dense.rows)), n.bit_length() - 1)


def to_dense(m: BlockMatrix) -> DenseMatrix:
    return DenseMatrix(m.dimension, m._rows, m.ring)


def embed(dense: DenseMatrix) -> BlockMatrix:
    """Embed an n x n matrix into the next power-of-two dimension.

    The top-left n x n block is the input; the remaining diagonal is 1 and
    the remaining off-diagonal entries are 0.  The padding is a direct
    identity summand, so the embedding of an invertible matrix stays
    invertible and its inverse carries the input's inverse in the top-left
    corner.
    """
    n = dense.n
    if n < 1:
        raise ValueError("need n >= 1")
    size = 1
    while size < n:
        size *= 2
    ring = dense.ring
    zero, one = ring.zero(), ring.one()
    rows = []
    for i in range(size):
        if i < n:
            rows.append(list(dense.rows[i]) + [zero] * (size - n))
        else:
            rows.append([zero] * i + [one] + [zero] * (size - i - 1))
    return from_dense(DenseMatrix(size, rows, ring))


# ---------------------------------------------------------------------------
# ring operations


def _entrywise(op, x, y, counter):
    counter = counter if counter is not None else OpCounter()
    _check_depth(x, y)
    counter.add_count += x.dimension**2
    return BlockMatrix(tuple(tuple(map(op, p, q)) for p, q in zip(x._rows, y._rows)), x.depth)


def add(x: BlockMatrix, y: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    return _entrywise(operator.add, x, y, counter)


def sub(x: BlockMatrix, y: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    return _entrywise(operator.sub, x, y, counter)


def negate(x: BlockMatrix) -> BlockMatrix:
    return map_leaves(x, operator.neg)


def mul(
    x: BlockMatrix,
    y: BlockMatrix,
    counter: OpCounter | None = None,
    strategy: str = "naive",
    *,
    sign: int = 1,
    addend: BlockMatrix | None = None,
) -> BlockMatrix:
    """Exact product; with ``sign`` (1 or -1) and ``addend`` Z, the fused
    multiply-accumulate sign*(x*y) + Z.

    ``naive`` is priced as the recursion through 8 half-size products and 4
    block additions: n**3 scalar multiplications and n**2 * (n - 1)
    additions, tallied once per call.  It runs as one dense kernel that
    hands both operands' rows to the ring and takes every output entry as
    one dot product.  The fused form runs on the same kernel, which folds
    the sign and the addend into each entry's dot product, and is priced as
    the product and the block addition or subtraction it replaces: n**2
    more additions with an addend, none for the sign, which like
    :func:`negate` is free.  ``strassen`` recurses through 7 products and 18
    block additions and takes no fused form.  Neither shortcuts zero or
    identity operands, so counts stay shape-determined, and neither
    commutes factors, so both remain valid over the quaternions.  Operands
    over different rings raise TypeError.
    """
    counter = counter if counter is not None else OpCounter()
    _check_depth(x, y)
    if addend is not None:
        _check_depth(x, addend)
    if strategy == "naive":
        return _mul_dense(x, y, counter, sign, addend)
    if strategy != "strassen":
        raise ValueError(f"unknown multiplication strategy {strategy!r}")
    if sign != 1 or addend is not None:
        raise ValueError("the fused form needs the naive strategy")
    return _mul_strassen(x, y, counter)


def _mul_dense(x, y, counter, sign, addend):
    if x.is_leaf:
        # one scalar product; the scalar types reject mixed rings themselves
        counter.mul_count += 1
        v = x.scalar * y.scalar
        if addend is None:
            return BlockMatrix.leaf(-v if sign < 0 else v)
        counter.add_count += 1
        z = addend.scalar
        return BlockMatrix.leaf(z + v if sign > 0 else z - v)
    ring = x.ring
    for other in (y,) if addend is None else (y, addend):
        if other.ring is not ring:
            raise TypeError(f"cannot multiply matrices over {ring!r} and {other.ring!r}")
    z = None if addend is None else addend._rows
    out = ring.dot_rows(x._rows, zip(*y._rows), z, sign)
    n = x.dimension
    counter.mul_count += n**3
    counter.add_count += n * n * (n - 1) + (0 if z is None else n * n)
    return BlockMatrix(tuple(map(tuple, out)), x.depth)


def _mul_strassen(x, y, counter):
    if x.is_leaf:
        counter.mul_count += 1
        return BlockMatrix.leaf(x.scalar * y.scalar)
    a, b, c, d = x.blocks
    e, f, g, h = y.blocks
    rec = _mul_strassen
    m1 = rec(add(a, d, counter), add(e, h, counter), counter)
    m2 = rec(add(c, d, counter), e, counter)
    m3 = rec(a, sub(f, h, counter), counter)
    m4 = rec(d, sub(g, e, counter), counter)
    m5 = rec(add(a, b, counter), h, counter)
    m6 = rec(sub(c, a, counter), add(e, f, counter), counter)
    m7 = rec(sub(b, d, counter), add(g, h, counter), counter)
    top_left = add(sub(add(m1, m4, counter), m5, counter), m7, counter)
    top_right = add(m3, m5, counter)
    bottom_left = add(m2, m4, counter)
    bottom_right = add(add(sub(m1, m2, counter), m3, counter), m6, counter)
    return BlockMatrix.quad(top_left, top_right, bottom_left, bottom_right)


def transpose(m: BlockMatrix) -> BlockMatrix:
    return BlockMatrix(tuple(zip(*m._rows)), m.depth)


def adjoint(m: BlockMatrix) -> BlockMatrix:
    """Transpose with the scalar involution applied to every entry."""
    rows = tuple(tuple(x.star() for x in col) for col in zip(*m._rows))
    return BlockMatrix(rows, m.depth)


def circ_conjugate(m: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    """Conjugated transpose: entry (i, j) becomes t**(j-i) * m[j][i].

    The entries come from a ring with a variable t and its powers
    (``ring.t_power``): K(t), or the lift field GF(p)[t]/Phi_l.  Priced as
    recursive block transposition with whole-block t-power scalings:
    n**2 * k / 2 scalings at depth k.  Applying it twice restores the
    input.
    """
    counter = counter if counter is not None else OpCounter()
    if not hasattr(m.ring, "t_power"):
        raise TypeError("circ conjugation needs rational function entries")
    return _circ_conjugate(m, 0, counter)


def _circ_conjugate(m, shift, counter):
    """Entry (i, j) becomes t**(j-i+shift) * m[j][i], in one pass.

    Tallies the scalings of :func:`circ_conjugate` and, for a nonzero
    ``shift``, the n**2 of one more whole-matrix scaling by t**shift.
    """
    n, ring = m.dimension, m.ring
    counter.scaling_count += n * n * m.depth // 2 + (n * n if shift else 0)
    # entry (i, j) takes powers[j - i + n - 1] = t**(j - i + shift)
    powers = [ring.t_power(e) for e in range(shift - n + 1, shift + n)]
    rows = tuple(
        tuple(x * powers[j - i + n - 1] for j, x in enumerate(col))
        for i, col in enumerate(zip(*m._rows))
    )
    return BlockMatrix(rows, m.depth)
