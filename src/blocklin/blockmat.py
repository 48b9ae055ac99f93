"""Recursive 2x2 block (quadtree) matrices with instrumented ring operations.

A :class:`BlockMatrix` of depth k represents a 2**k x 2**k matrix as either
a scalar leaf or four equal-depth quadrants A (top-left), B (top-right),
C (bottom-left), D (bottom-right).  The public surface deliberately offers
no row or column access: algorithms built on it operate on whole blocks
only, and convert through :class:`~blocklin.dense.DenseMatrix` solely at
the I/O and oracle boundary.  Inside this module, :func:`mul` is the one
exception: its kernel reads both operands' leaves row-major with the same
pair of quadtree walks that :func:`to_dense` and :func:`from_dense` use,
takes every output entry as one dot product of the ring's own row kernel
(``ring.dot_rows``), and hands back a quadtree.

Every arithmetic operation threads an optional :class:`OpCounter` tallying
base-scalar multiplications, divisions, additions, and t-power scalings.
Counts are exact and determined by the input shape alone, so they can be
checked against closed-form cost predictions.

Matrices are immutable; recursive operations are pure.  Concurrent
evaluation of sibling blocks is sound provided each branch tallies into
its own counter and the counters are merged afterwards.
"""

from __future__ import annotations

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
    "scale_all",
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
    """A 2**k x 2**k matrix stored as a quadtree; immutable."""

    __slots__ = ("depth", "scalar", "blocks")

    def __init__(self, depth, scalar=None, blocks=None):
        self.depth = depth
        self.scalar = scalar
        self.blocks = blocks

    @classmethod
    def leaf(cls, scalar) -> "BlockMatrix":
        return cls(0, scalar=scalar)

    @classmethod
    def quad(cls, a, b, c, d) -> "BlockMatrix":
        depth = a.depth
        if not (b.depth == depth and c.depth == depth and d.depth == depth):
            raise DepthMismatch("quadrants must share one depth")
        return cls(depth + 1, blocks=(a, b, c, d))

    @property
    def is_leaf(self) -> bool:
        return self.blocks is None

    @property
    def a(self):
        return self.blocks[0]

    @property
    def b(self):
        return self.blocks[1]

    @property
    def c(self):
        return self.blocks[2]

    @property
    def d(self):
        return self.blocks[3]

    @property
    def dimension(self) -> int:
        return 1 << self.depth

    @property
    def ring(self):
        node = self
        while not node.is_leaf:
            node = node.blocks[0]
        return node.scalar.ring

    def __eq__(self, other):
        if not isinstance(other, BlockMatrix) or self.depth != other.depth:
            return False
        if self.is_leaf:
            return self.scalar == other.scalar
        return all(x == y for x, y in zip(self.blocks, other.blocks))

    def __repr__(self):
        return f"BlockMatrix(depth={self.depth}, dim={self.dimension})"


def _check_depth(x: BlockMatrix, y: BlockMatrix):
    if x.depth != y.depth:
        raise DepthMismatch(f"depth {x.depth} vs {y.depth}")


def identity(depth: int, ring) -> BlockMatrix:
    if depth == 0:
        return BlockMatrix.leaf(ring.one())
    eye = identity(depth - 1, ring)
    off = zero_matrix(depth - 1, ring)
    return BlockMatrix.quad(eye, off, off, eye)


def zero_matrix(depth: int, ring) -> BlockMatrix:
    if depth == 0:
        return BlockMatrix.leaf(ring.zero())
    block = zero_matrix(depth - 1, ring)
    return BlockMatrix.quad(block, block, block, block)


def map_leaves(m: BlockMatrix, fn) -> BlockMatrix:
    """Rebuild m with fn applied to every scalar leaf."""
    if m.is_leaf:
        return BlockMatrix.leaf(fn(m.scalar))
    return BlockMatrix.quad(*(map_leaves(child, fn) for child in m.blocks))


# ---------------------------------------------------------------------------
# dense conversions and embedding


def _leaf_rows(m: BlockMatrix) -> list:
    """m's scalars as row lists, read by one level-order walk of the quadtree."""
    grid = [[m]]
    for _ in range(m.depth):
        grid = [
            [quad for node in row for quad in node.blocks[half : half + 2]]
            for row in grid
            for half in (0, 2)
        ]
    return [[node.scalar for node in row] for row in grid]


def _from_rows(rows, depth: int) -> BlockMatrix:
    """The quadtree whose row lists are ``rows``; the inverse of :func:`_leaf_rows`."""
    grid = [[BlockMatrix(0, scalar) for scalar in row] for row in rows]
    for level in range(1, depth + 1):
        grid = [
            [
                BlockMatrix(level, None, (top[j], top[j + 1], bottom[j], bottom[j + 1]))
                for j in range(0, len(top), 2)
            ]
            for top, bottom in zip(grid[::2], grid[1::2])
        ]
    return grid[0][0]


def from_dense(dense: DenseMatrix) -> BlockMatrix:
    """Exact conversion; the dimension must be a power of two."""
    n = dense.n
    if n < 1 or n & (n - 1):
        raise NonPowerOfTwo(f"{n} is not a power of two; use embed() instead")
    return _from_rows(dense.rows, n.bit_length() - 1)


def to_dense(m: BlockMatrix) -> DenseMatrix:
    return DenseMatrix(m.dimension, _leaf_rows(m), m.ring)


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


def add(x: BlockMatrix, y: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    counter = counter if counter is not None else OpCounter()
    _check_depth(x, y)
    return _add(x, y, counter)


def _add(x, y, counter):
    if x.is_leaf:
        counter.add_count += 1
        return BlockMatrix.leaf(x.scalar + y.scalar)
    return BlockMatrix.quad(*(_add(p, q, counter) for p, q in zip(x.blocks, y.blocks)))


def sub(x: BlockMatrix, y: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    counter = counter if counter is not None else OpCounter()
    _check_depth(x, y)
    return _sub(x, y, counter)


def _sub(x, y, counter):
    if x.is_leaf:
        counter.add_count += 1
        return BlockMatrix.leaf(x.scalar - y.scalar)
    return BlockMatrix.quad(*(_sub(p, q, counter) for p, q in zip(x.blocks, y.blocks)))


def negate(x: BlockMatrix) -> BlockMatrix:
    if x.is_leaf:
        return BlockMatrix.leaf(-x.scalar)
    return BlockMatrix.quad(*(negate(child) for child in x.blocks))


def mul(
    x: BlockMatrix,
    y: BlockMatrix,
    counter: OpCounter | None = None,
    strategy: str = "naive",
) -> BlockMatrix:
    """Exact product.

    ``naive`` is priced as the recursion through 8 half-size products and 4
    block additions: n**3 scalar multiplications and n**2 * (n - 1)
    additions, tallied once per call.  It runs as one dense kernel that
    reads both operands' leaves into rows and takes every output entry as
    one dot product.  ``strassen`` recurses through 7 products and 18 block
    additions.  Neither shortcuts zero or identity operands, so counts stay
    shape-determined, and neither commutes factors, so both remain valid
    over the quaternions.  Operands over different rings raise TypeError.
    """
    counter = counter if counter is not None else OpCounter()
    _check_depth(x, y)
    if strategy == "naive":
        return _mul_dense(x, y, counter)
    if strategy == "strassen":
        return _mul_strassen(x, y, counter)
    raise ValueError(f"unknown multiplication strategy {strategy!r}")


def _mul_dense(x, y, counter):
    if x.is_leaf:
        # one scalar product; the scalar types reject mixed rings themselves
        counter.mul_count += 1
        return BlockMatrix(0, x.scalar * y.scalar)
    ring = x.ring
    if y.ring is not ring:
        raise TypeError(f"cannot multiply matrices over {ring!r} and {y.ring!r}")
    out = ring.dot_rows(_leaf_rows(x), zip(*_leaf_rows(y)))
    n = x.dimension
    counter.mul_count += n**3
    counter.add_count += n * n * (n - 1)
    return _from_rows(out, x.depth)


def _mul_strassen(x, y, counter):
    if x.is_leaf:
        counter.mul_count += 1
        return BlockMatrix.leaf(x.scalar * y.scalar)
    a, b, c, d = x.blocks
    e, f, g, h = y.blocks
    rec = _mul_strassen
    m1 = rec(_add(a, d, counter), _add(e, h, counter), counter)
    m2 = rec(_add(c, d, counter), e, counter)
    m3 = rec(a, _sub(f, h, counter), counter)
    m4 = rec(d, _sub(g, e, counter), counter)
    m5 = rec(_add(a, b, counter), h, counter)
    m6 = rec(_sub(c, a, counter), _add(e, f, counter), counter)
    m7 = rec(_sub(b, d, counter), _add(g, h, counter), counter)
    top_left = _add(_sub(_add(m1, m4, counter), m5, counter), m7, counter)
    top_right = _add(m3, m5, counter)
    bottom_left = _add(m2, m4, counter)
    bottom_right = _add(_add(_sub(m1, m2, counter), m3, counter), m6, counter)
    return BlockMatrix.quad(top_left, top_right, bottom_left, bottom_right)


def transpose(m: BlockMatrix) -> BlockMatrix:
    if m.is_leaf:
        return m
    a, b, c, d = m.blocks
    return BlockMatrix.quad(transpose(a), transpose(c), transpose(b), transpose(d))


def adjoint(m: BlockMatrix) -> BlockMatrix:
    """Transpose with the scalar involution applied at every leaf."""
    if m.is_leaf:
        return BlockMatrix.leaf(m.scalar.star())
    a, b, c, d = m.blocks
    return BlockMatrix.quad(adjoint(a), adjoint(c), adjoint(b), adjoint(d))


def scale_all(m: BlockMatrix, factor, counter: OpCounter | None = None) -> BlockMatrix:
    """Multiply every entry by one scalar, tallied as scalings, not products."""
    counter = counter if counter is not None else OpCounter()

    def walk(node):
        if node.is_leaf:
            counter.scaling_count += 1
            return BlockMatrix.leaf(node.scalar * factor)
        return BlockMatrix.quad(*(walk(child) for child in node.blocks))

    return walk(m)


def circ_conjugate(m: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    """Conjugated transpose: entry (i, j) becomes t**(j-i) * m[j][i].

    The entries come from a ring with a variable t and its powers
    (``ring.t_power``): K(t), or the lift field GF(p)[t]/Phi_l.  Implemented
    as recursive block transposition with whole-block t-power scalings;
    rows are never touched individually.  Applying it twice restores the
    input.
    """
    counter = counter if counter is not None else OpCounter()
    ring = m.ring
    if not hasattr(ring, "t_power"):
        raise TypeError("circ conjugation needs rational function entries")

    def walk(node):
        if node.is_leaf:
            return node
        a, b, c, d = node.blocks
        half = node.dimension // 2
        return BlockMatrix.quad(
            walk(a),
            scale_all(walk(c), ring.t_power(half), counter),
            scale_all(walk(b), ring.t_power(-half), counter),
            walk(d),
        )

    return walk(m)
