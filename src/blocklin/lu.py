"""Recursive block triangular decomposition.

The factorization produced here is M = P * L * U * Q with unit-lower-
triangular L, upper-triangular U, and permutations P and Q stored as
vectors of nested block swaps: each half of a vector draws from one half of
the indices, recursively.  Pivoting swaps whole blocks, and a block is
accepted as the leading block by factoring it.  Rows are read by
:func:`is_invertible`, on the failure paths, and by :func:`apply_permutation`
and :meth:`TriangularMatrix.is_structurally_valid`, each in one pass over
the dense rows.

Triangular matrices carry structural zero blocks (the whole upper-right or
lower-left quadrant, recursively), so the specialized kernels
:func:`tri_mul` and :func:`tri_invert` cost fewer counted operations than
their general counterparts; their exact operation counts are part of the
tested contract.  :func:`tri_mul` runs on the dense kernel of
:func:`blockmat.mul` and tallies the count of the triangular recursion;
its ``sign`` gives :func:`tri_invert` its negated corners in the same
kernel call.  The Schur complement of each LU node is one fused
multiply-accumulate call, D - X*Y.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import blockmat as bm
from .blockmat import BlockMatrix, OpCounter
from .dense import DenseMatrix
from .errors import (
    AllBlocksSingular,
    DepthMismatch,
    PivotBlockSingular,
    RandomnessExhausted,
    SingularDiagonal,
    SingularMatrix,
    node_name,
)
from .inversion import _invert_leaf, auto_invert, is_invertible, schur_step

__all__ = [
    "LOWER",
    "UPPER",
    "TriangularMatrix",
    "LUResult",
    "block_pivot",
    "tri_mul",
    "tri_invert",
    "ldu",
    "lu_decompose",
    "randomized_lu",
    "apply_permutation",
]

LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True)
class TriangularMatrix:
    """A block matrix tagged lower or upper, with structural zero blocks.

    For LOWER the top-right block is zero at every node, for UPPER the
    bottom-left.  ``unit_diagonal`` asserts every diagonal leaf equals 1.
    """

    body: BlockMatrix
    orientation: str
    unit_diagonal: bool = False

    @property
    def depth(self) -> int:
        return self.body.depth

    @property
    def dimension(self) -> int:
        return self.body.dimension

    def _split(self):
        body = self.body
        if self.orientation == LOWER:
            diag1 = TriangularMatrix(body.a, LOWER, self.unit_diagonal)
            diag2 = TriangularMatrix(body.d, LOWER, self.unit_diagonal)
            return diag1, diag2, body.c
        diag1 = TriangularMatrix(body.a, UPPER, self.unit_diagonal)
        diag2 = TriangularMatrix(body.d, UPPER, self.unit_diagonal)
        return diag1, diag2, body.b

    def is_structurally_valid(self) -> bool:
        """Structural zeros hold recursively; unit diagonal when claimed.

        The zero blocks of every node together are the entries strictly
        above the diagonal for LOWER and strictly below it for UPPER.
        """
        one = self.body.ring.one()
        for i, row in enumerate(bm.to_dense(self.body).rows):
            diagonal = row[i]
            if diagonal.is_zero() or (self.unit_diagonal and diagonal != one):
                return False
            off = row[i + 1 :] if self.orientation == LOWER else row[:i]
            if not all(x.is_zero() for x in off):
                return False
        return True


def apply_permutation(
    vec: tuple[int, ...] | list[int], m: BlockMatrix, side: str, *, inverse: bool = False
) -> BlockMatrix:
    """Put row (or column) ``vec[i]`` of m at position ``i``; with ``inverse``,
    put row ``i`` at position ``vec[i]``.  Only whole blocks move, so ``vec``
    must be nested block swaps: each half draws from one half, recursively."""
    if side not in ("rows", "cols"):
        raise ValueError("side must be 'rows' or 'cols'")
    if len(vec) != m.dimension:
        raise DepthMismatch(f"permutation length {len(vec)} vs matrix dimension {m.dimension}")
    if sorted(vec) != list(range(len(vec))):
        raise ValueError(f"not a permutation: {list(vec)}")
    if inverse:
        vec = sorted(range(len(vec)), key=vec.__getitem__)
    vec = tuple(vec)
    if vec == tuple(range(len(vec))):
        return m
    if not _nested_block_swaps(vec):
        raise ValueError("permutation is not nested block swaps")
    rows = bm.to_dense(m).rows
    if side == "rows":
        gathered = [rows[v] for v in vec]
    else:
        gathered = [[row[v] for v in vec] for row in rows]
    return bm.from_dense(DenseMatrix(len(vec), gathered, m.ring))


def _nested_block_swaps(vec):
    """Whether each half of ``vec`` draws from one half of the indices, recursively."""
    if len(vec) == 1:
        return True
    half = len(vec) // 2
    top, bottom = vec[:half], vec[half:]
    return (
        len({v // half for v in top}) == 1
        and _nested_block_swaps([v % half for v in top])
        and _nested_block_swaps([v % half for v in bottom])
    )


@dataclass(frozen=True)
class LUResult:
    """M = P * L * U * Q with L unit lower triangular and U upper.

    ``p`` and ``q`` are permutation vectors: M[i][j] = (L*U)[p[i]][q[j]].
    """

    p: tuple[int, ...]
    l: TriangularMatrix
    u: TriangularMatrix
    q: tuple[int, ...]

    def permutation_vectors(self) -> tuple[list[int], list[int]]:
        return list(self.p), list(self.q)

    def reconstruct(self, counter: OpCounter | None = None) -> BlockMatrix:
        product = bm.mul(self.l.body, self.u.body, counter)
        return apply_permutation(
            self.q, apply_permutation(self.p, product, "rows"), "cols"
        )


# ---------------------------------------------------------------------------
# pivoting


def block_pivot(
    m: BlockMatrix, counter: OpCounter | None = None, path: tuple = ()
) -> tuple[bool, bool, BlockMatrix, LUResult]:
    """Swap block rows/columns so the leading block factors.

    Fixed precedence: A (no swap), C (row swap), B (column swap), D (both).
    Each candidate is factored on a scratch counter, never by row
    elimination; a factorization certifies that the block is invertible.
    The first candidate that factors is kept: its count is merged into
    ``counter`` and its factorization is returned as the fourth element.
    Singular candidates are skipped.  ``path`` locates ``m`` for errors.
    """
    if m.is_leaf:
        raise ValueError("block pivoting needs depth >= 1")
    counter = counter if counter is not None else OpCounter()
    a, b, c, d = m.blocks
    for swap_rows, swap_cols, blocks in (
        (False, False, (a, b, c, d)),
        (True, False, (c, d, a, b)),
        (False, True, (b, a, d, c)),
        (True, True, (d, c, b, a)),
    ):
        scratch = OpCounter()
        try:
            lead = _lu_node(blocks[0], scratch, True, path + ("A",))
        except SingularMatrix:
            continue
        except RandomnessExhausted:
            # A singular candidate can raise this too, from an invertible
            # block kept at one of its inner nodes; it is skipped like the
            # other singular candidates.  An invertible candidate is the
            # leading block, so its failure is final.
            if is_invertible(blocks[0]):
                raise
            continue
        counter.merge(scratch)
        return swap_rows, swap_cols, BlockMatrix.quad(*blocks), lead
    raise AllBlocksSingular("all four half-size blocks are singular")


# ---------------------------------------------------------------------------
# triangular kernels


def tri_mul(
    tm: TriangularMatrix,
    g: BlockMatrix,
    side: str,
    counter: OpCounter | None = None,
    *,
    sign: int = 1,
) -> BlockMatrix:
    """Triangular times general product: tm*g for side 'left', g*tm for
    'right', negated for ``sign`` -1.

    Priced as the block recursion through 4 triangular-general and 2 general
    half-size products per node: (n**3 + n**2) / 2 multiplications and
    n**2 * (n - 1) / 2 additions, tallied once per call; the sign, folded
    into the same kernel, is free.  It runs as one general product on
    ``tm.body`` (:func:`blockmat.mul`), which is exact because the
    structural zero blocks of the body hold zeros, as in every
    TriangularMatrix the package builds and as
    :meth:`TriangularMatrix.is_structurally_valid` checks.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    counter = counter if counter is not None else OpCounter()
    if tm.depth != g.depth:
        raise DepthMismatch(f"depth {tm.depth} vs {g.depth}")
    x, y = (tm.body, g) if side == "left" else (g, tm.body)
    product = bm.mul(x, y, sign=sign)
    n = tm.dimension
    counter.mul_count += (n**3 + n**2) // 2
    counter.add_count += n * n * (n - 1) // 2
    return product


def tri_invert(tm: TriangularMatrix, counter: OpCounter | None = None) -> TriangularMatrix:
    """Invert a triangular matrix with invertible diagonal leaves.

    Per node: two recursive triangular inversions and two triangular-general
    products; orientation and the unit-diagonal flag are preserved.
    """
    counter = counter if counter is not None else OpCounter()
    body = _tri_invert(tm, counter, ())
    return TriangularMatrix(body, tm.orientation, tm.unit_diagonal)


def _tri_invert(tm, counter, path):
    body = tm.body
    if body.is_leaf:
        return _invert_leaf(body, counter, path, SingularDiagonal)
    diag1, diag2, off = tm._split()
    inv1 = TriangularMatrix(_tri_invert(diag1, counter, path + ("A",)), tm.orientation, tm.unit_diagonal)
    inv2 = TriangularMatrix(_tri_invert(diag2, counter, path + ("D",)), tm.orientation, tm.unit_diagonal)
    zero = bm.zero_matrix(body.depth - 1, body.ring)
    if tm.orientation == LOWER:
        # [[A,0],[C,D]]^-1 = [[A^-1, 0], [-D^-1 (C A^-1), D^-1]]
        c_ainv = tri_mul(inv1, off, "right", counter)
        corner = tri_mul(inv2, c_ainv, "left", counter, sign=-1)
        return BlockMatrix.quad(inv1.body, zero, corner, inv2.body)
    # [[A,B],[0,D]]^-1 = [[A^-1, -A^-1 (B D^-1)], [0, D^-1]]
    b_dinv = tri_mul(inv2, off, "right", counter)
    corner = tri_mul(inv1, b_dinv, "left", counter, sign=-1)
    return BlockMatrix.quad(inv1.body, corner, zero, inv2.body)


# ---------------------------------------------------------------------------
# single-level block LDU


def ldu(m: BlockMatrix, counter: OpCounter | None = None):
    """One-level factorization M = Lb * Db * Ub.

    Lb = [[I,0],[C A^-1, I]], Db = [[A,0],[0, D - C A^-1 B]],
    Ub = [[I, A^-1 B],[0, I]].  Only the leading block is inverted; the
    factors multiply back to M exactly.
    """
    if m.is_leaf:
        raise ValueError("block factorization needs depth >= 1")
    counter = counter if counter is not None else OpCounter()
    a, b, c, d = m.blocks
    scratch = OpCounter()
    try:
        a_inv = auto_invert(a, scratch)
    except (SingularMatrix, PivotBlockSingular):
        raise PivotBlockSingular(("A",)) from None
    counter.merge(scratch)
    c_ainv, ainv_b, complement = schur_step(a_inv, b, c, d, counter)
    ring = m.ring
    eye = bm.identity(m.depth - 1, ring)
    zero = bm.zero_matrix(m.depth - 1, ring)
    lb = BlockMatrix.quad(eye, zero, c_ainv, eye)
    db = BlockMatrix.quad(a, zero, zero, complement)
    ub = BlockMatrix.quad(eye, ainv_b, zero, eye)
    return lb, db, ub


# ---------------------------------------------------------------------------
# recursive decomposition


def _leaf_result(scalar) -> LUResult:
    one = scalar.ring.one()
    return LUResult(
        (0,),
        TriangularMatrix(BlockMatrix.leaf(one), LOWER, True),
        TriangularMatrix(BlockMatrix.leaf(scalar), UPPER, False),
        (0,),
    )


def _join(first, second, swap):
    """P = T_swap * diag(P_first, P_second) as a vector."""
    bottom = tuple(v + len(first) for v in second)
    return bottom + first if swap else first + bottom


def _unfactorable(m, path):
    """The error for a node that could not be factored, from one invertibility test."""
    if is_invertible(m):
        return RandomnessExhausted(path)
    return SingularMatrix(f"singular at node {node_name(path)}")


def _lu_node(m, counter, pivot, path):
    if m.is_leaf:
        if m.scalar.is_zero():
            if pivot:
                raise SingularMatrix(f"zero pivot at node {node_name(path)}")
            raise PivotBlockSingular(path)
        return _leaf_result(m.scalar)
    if pivot:
        try:
            swap_rows, swap_cols, arranged, res_a = block_pivot(m, counter, path)
        except AllBlocksSingular:
            raise _unfactorable(m, path) from None
    else:
        swap_rows = swap_cols = False
        arranged = m
        res_a = _lu_node(m.a, counter, False, path + ("A",))
    _, b, c, d = arranged.blocks
    u1_inv = tri_invert(res_a.u, counter)
    l1_inv = tri_invert(res_a.l, counter)
    c_cols = apply_permutation(res_a.q, c, "cols", inverse=True)
    x_raw = tri_mul(u1_inv, c_cols, "right", counter)
    b_rows = apply_permutation(res_a.p, b, "rows", inverse=True)
    y_raw = tri_mul(l1_inv, b_rows, "left", counter)
    complement = bm.mul(x_raw, y_raw, counter, sign=-1, addend=d)
    res_s = _lu_node(complement, counter, pivot, path + ("S",))
    x = apply_permutation(res_s.p, x_raw, "rows", inverse=True)
    y = apply_permutation(res_s.q, y_raw, "cols", inverse=True)
    zero = bm.zero_matrix(m.depth - 1, m.ring)
    low = TriangularMatrix(
        BlockMatrix.quad(res_a.l.body, zero, x, res_s.l.body), LOWER, True
    )
    up = TriangularMatrix(
        BlockMatrix.quad(res_a.u.body, y, zero, res_s.u.body), UPPER, False
    )
    p = _join(res_a.p, res_s.p, swap_rows)
    q = _join(res_a.q, res_s.q, swap_cols)
    return LUResult(p, low, up, q)


def lu_decompose(m: BlockMatrix, counter: OpCounter | None = None) -> LUResult:
    """Factor an invertible matrix as P * L * U * Q.

    Per node: block-pivot (which factors the leading block), obtain the
    off-diagonal factors through explicit triangular inversion, then factor
    the Schur complement.  The unit-lower-diagonal convention is applied
    identically at every level.  Each kept leading block is invertible, so
    each complement is invertible exactly when its node is.  A node on which
    no block swap works is checked once: SingularMatrix if it is singular,
    otherwise RandomnessExhausted carrying the node path.
    """
    counter = counter if counter is not None else OpCounter()
    return _lu_node(m, counter, True, ())


def randomized_lu(m: BlockMatrix, counter: OpCounter | None = None):
    """Permutation-free factorization M = L * U, returned as (L, U).

    The unpivoted recursion: every leading block is factored in place, so
    this succeeds exactly when every leading principal minor of M is
    nonzero, and the unit-lower factors are then unique.  (Preconditioning
    with random unit-triangular matrices keeps every leading minor and so
    could never change the outcome; the name is kept for callers.)  On
    failure the input is checked once: SingularMatrix if it is singular,
    otherwise RandomnessExhausted at the root path.
    """
    counter = counter if counter is not None else OpCounter()
    try:
        res = _lu_node(m, counter, False, ())
    except PivotBlockSingular:
        raise _unfactorable(m, ()) from None
    return res.l, res.u
