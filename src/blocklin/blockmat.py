"""Recursive 2x2 block matrices with instrumented ring operations.

A :class:`BlockMatrix` of depth k represents a 2**k x 2**k matrix as either
a scalar leaf or four equal-depth quadrants A (top-left), B (top-right),
C (bottom-left), D (bottom-right).  It stores its entries as N / den: one
tuple of row tuples N in its ring's packed form and one positive integer
den.  The ring chooses the form (``ring.pack`` and ``ring.unpack``): over
QQ, N holds integers and den is one denominator for the whole block; over
every other ring, N holds the ring's elements and den is 1, and every
denominator step below is a no-op.  Scalar objects are made only at the
boundary: ``scalar``, :func:`to_dense` and :func:`map_leaves` unpack,
:meth:`BlockMatrix.leaf`, :func:`from_dense`, :func:`identity` and
:func:`zero_matrix` pack.  :meth:`BlockMatrix.quad` joins the quadrants'
rows over the lcm of their denominators, each quadrant property slices out
its own rows over its parent's den, and ``==`` compares values, not the
stored integers.

The public surface deliberately offers no row or column access: algorithms
built on it operate on whole blocks only, and convert through
:class:`~blocklin.dense.DenseMatrix` solely at the I/O and oracle boundary.
Inside this module every operation is one pass over the rows; :func:`mul`
hands both operands' packed rows to the ring's own row kernel
(``ring.dot_rows``), which takes every output entry as one dot product,
over the product of the operands' denominators.  Given a sign and an
addend, :func:`mul` computes the fused multiply-accumulate sign*(x*y) + z
in that same pass: the addend joins over the lcm of the denominators, and
the product's share of that lcm joins the sign.  The Schur complement
D - C*A^-1*B and the inverse blocks of the inverters and the LU take one
call each, not a product and a second pass, and are priced as the product
plus the block addition they replace.  Each result drops the content
gcd(den, N) by a running gcd that stops at 1.

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
from functools import lru_cache
from math import gcd, lcm

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
    "invert_leaf",
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
    """A 2**k x 2**k matrix N / den: a tuple of row tuples N in the ring's
    packed form over a positive integer den; immutable."""

    __slots__ = ("depth", "_rows", "ring", "_den")

    def __init__(self, rows, depth, ring, den=1):
        self._rows = rows
        self.depth = depth
        self.ring = ring
        self._den = den

    @classmethod
    def leaf(cls, scalar) -> "BlockMatrix":
        return _packed(((scalar,),), 0, scalar.ring)

    @classmethod
    def quad(cls, a, b, c, d) -> "BlockMatrix":
        depth = a.depth
        if not (b.depth == depth and c.depth == depth and d.depth == depth):
            raise DepthMismatch("quadrants must share one depth")
        ring, den = a.ring, a._den
        if not (b.ring is ring and c.ring is ring and d.ring is ring):
            raise TypeError("quadrants must share one ring")
        if b._den == den and c._den == den and d._den == den:
            a, b, c, d = a._rows, b._rows, c._rows, d._rows
        else:
            den = lcm(den, b._den, c._den, d._den)
            a, b, c, d = (_rows_over(x, den) for x in (a, b, c, d))
        top = tuple(map(operator.add, a, b))
        return cls(top + tuple(map(operator.add, c, d)), depth + 1, ring, den)

    def _quadrant(self, down, right):
        half = 1 << (self.depth - 1)
        cols = slice(right * half, right * half + half)
        rows = self._rows[down * half : down * half + half]
        return BlockMatrix(tuple(row[cols] for row in rows), self.depth - 1, self.ring, self._den)

    @property
    def is_leaf(self) -> bool:
        return self.depth == 0

    @property
    def scalar(self):
        return None if self.depth else self.ring.unpack(self._rows, self._den)[0][0]

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

    def __eq__(self, other):
        if not (isinstance(other, BlockMatrix) and self.depth == other.depth and self.ring is other.ring):
            return False
        # equal values over different denominators: compare over their lcm
        den = lcm(self._den, other._den)
        return _rows_over(self, den) == _rows_over(other, den)

    def __repr__(self):
        return f"BlockMatrix(depth={self.depth}, dim={self.dimension})"


def _check_depth(x: BlockMatrix, y: BlockMatrix):
    if x.depth != y.depth:
        raise DepthMismatch(f"depth {x.depth} vs {y.depth}")


def _packed(rows, depth, ring) -> BlockMatrix:
    """The block of rows of ``ring``'s elements, packed by the ring."""
    packed, den = ring.pack(rows)
    return BlockMatrix(packed, depth, ring, den)


def _rows_over(m: BlockMatrix, den: int):
    """m's packed rows as numerators over ``den``, a multiple of ``m._den``."""
    k = den // m._den
    if k == 1:
        return m._rows
    return tuple(tuple(map(k.__mul__, row)) for row in m._rows)


def _reduced(rows, depth, ring, den) -> BlockMatrix:
    """The block rows / den with the content gcd(den, rows) divided out.

    The gcd runs row by row and stops once it reaches 1, so den = 1, the
    denominator of every ring but QQ, never touches the rows.
    """
    g = den
    for row in rows:
        if g == 1:
            break
        g = gcd(g, *row)
    if g == 1:
        return BlockMatrix(tuple(map(tuple, rows)), depth, ring, den)
    return BlockMatrix(tuple(tuple(v // g for v in row) for row in rows), depth, ring, den // g)


@lru_cache(maxsize=None)
def _constants(ring):
    """The packed zero and one of ``ring``, both over den 1."""
    return ring.pack(((ring.zero(), ring.one()),))[0][0]


def identity(depth: int, ring) -> BlockMatrix:
    n = 1 << depth
    zero, one = _constants(ring)
    rows = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    return BlockMatrix(rows, depth, ring)


def zero_matrix(depth: int, ring) -> BlockMatrix:
    n = 1 << depth
    zero, _ = _constants(ring)
    return BlockMatrix(((zero,) * n,) * n, depth, ring)


def map_leaves(m: BlockMatrix, fn) -> BlockMatrix:
    """Rebuild m with fn applied to every scalar entry, over fn's ring."""
    rows = [list(map(fn, row)) for row in m.ring.unpack(m._rows, m._den)]
    return _packed(rows, m.depth, rows[0][0].ring)


def invert_leaf(m: BlockMatrix) -> BlockMatrix | None:
    """The inverse of the 1x1 block m, or None when its entry is zero."""
    inverse = m.ring.invert_packed(m._rows[0][0], m._den)
    return None if inverse is None else BlockMatrix(((inverse[0],),), 0, m.ring, inverse[1])


# ---------------------------------------------------------------------------
# dense conversions and embedding


def from_dense(dense: DenseMatrix) -> BlockMatrix:
    """Exact conversion; the dimension must be a power of two."""
    n = dense.n
    if n < 1 or n & (n - 1):
        raise NonPowerOfTwo(f"{n} is not a power of two; use embed() instead")
    return _packed(dense.rows, n.bit_length() - 1, dense.ring)


def to_dense(m: BlockMatrix) -> DenseMatrix:
    return DenseMatrix(m.dimension, m.ring.unpack(m._rows, m._den), m.ring)


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
    if x.ring is not y.ring:
        raise TypeError(f"cannot add matrices over {x.ring!r} and {y.ring!r}")
    counter.add_count += x.dimension**2
    den = lcm(x._den, y._den)
    rows = [tuple(map(op, p, q)) for p, q in zip(_rows_over(x, den), _rows_over(y, den))]
    return _reduced(rows, x.depth, x.ring, den)


def add(x: BlockMatrix, y: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    return _entrywise(operator.add, x, y, counter)


def sub(x: BlockMatrix, y: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    return _entrywise(operator.sub, x, y, counter)


def negate(x: BlockMatrix) -> BlockMatrix:
    rows = tuple(tuple(map(operator.neg, row)) for row in x._rows)
    return BlockMatrix(rows, x.depth, x.ring, x._den)


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
    hands both operands' packed rows to the ring and takes every output
    entry as one dot product.  The fused form runs on the same kernel, which
    folds the sign and the addend into each entry's dot product, and is
    priced as the product and the block addition or subtraction it
    replaces: n**2 more additions with an addend, none for the sign, which
    like :func:`negate` is free.  ``strassen`` recurses through 7 products
    and 18 block additions and takes no fused form.  Neither shortcuts zero
    or identity operands, so counts stay shape-determined, and neither
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
    ring = x.ring
    den = x._den * y._den
    other = y if y.ring is not ring or addend is None else addend
    if other.ring is not ring:
        raise TypeError(f"cannot multiply matrices over {ring!r} and {other.ring!r}")
    if addend is None:
        z = None
    else:
        z = addend._rows
        if addend._den != den:
            # the addend joins over the lcm: its share scales the addend
            # once, and the product's share joins the integer sign
            full = lcm(den, addend._den)
            sign *= full // den
            z = _rows_over(addend, full)
            den = full
    if x.depth:
        out = ring.dot_rows(x._rows, zip(*y._rows), z, sign)
    else:
        # one product of packed values; only a QQ sign is ever not 1 or -1
        v = x._rows[0][0] * y._rows[0][0]
        if sign != 1:
            v = -v if sign == -1 else sign * v
        out = ((v,),) if z is None else ((z[0][0] + v,),)
    n = x.dimension
    counter.mul_count += n**3
    counter.add_count += n * n * (n - 1) + (0 if z is None else n * n)
    if den == 1:
        return BlockMatrix(tuple(map(tuple, out)), x.depth, ring)
    return _reduced(out, x.depth, ring, den)


def _mul_strassen(x, y, counter):
    if x.is_leaf:
        return _mul_dense(x, y, counter, 1, None)
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
    return BlockMatrix(tuple(zip(*m._rows)), m.depth, m.ring, m._den)


def adjoint(m: BlockMatrix) -> BlockMatrix:
    """Transpose with the scalar involution applied to every entry: a plain
    transpose over a ring whose involution is the identity."""
    if m.ring.trivial_star:
        return transpose(m)
    rows = tuple(tuple(x.star() for x in col) for col in zip(*m._rows))
    return BlockMatrix(rows, m.depth, m.ring, m._den)


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
    return BlockMatrix(rows, m.depth, ring, m._den)
