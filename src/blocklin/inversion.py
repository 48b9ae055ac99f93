"""Block-respecting matrix inversion.

Four inverters, none of which ever touches an individual row:

* :func:`schur_invert` -- the direct two-inverse recursion on the leading
  block and its Schur complement.  Fails with :class:`PivotBlockSingular`
  whenever some recursion node lacks an invertible leading block, which can
  happen even for invertible input.
* :func:`invert_gram_transpose` -- inverts M as (M^T M)^-1 M^T.  Over a
  formally real field such as the rationals the transpose Gram matrix has
  recursively invertible leading blocks, so the recursion never needs a
  pivot.  Sub-inversions recurse through the same driver.
* :func:`invert_gram_star` -- the same with the conjugation involution in
  place of transposition, for Gaussian rationals and quaternions.
* :func:`invert_gram_gv` -- for matrices over any base field: adjoin a
  variable t, conjugate with the diagonal t-power weight matrix, invert the
  resulting self-adjoint Gram matrix, and project the constant result back
  to K.  Over the rationals t stays a variable (the field K(t)); over GF(p)
  it is a root of unity in the finite field GF(p)[t]/Phi_l, whose degree
  is large enough that no pivot of the inversion changes.

The self-adjoint inversion core (:func:`hermitian_invert`) exploits the
Gram symmetry of its input: per node it spends exactly four half-size
multiplications plus two recursive half-size inversions, reconstructing
the mirrored blocks by transposition, involution, or t-power scaling at
zero multiplication cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import blockmat as bm
from .blockmat import BlockMatrix, OpCounter
from .errors import (
    GramSingular,
    NonConstantResidue,
    PivotBlockSingular,
    SingularMatrix,
)
from .cyclotomic import lift_field
from .dense import dense_determinant
from .rings import QQ, RatFun

__all__ = [
    "ConjugationKind",
    "GramMatrix",
    "schur_invert",
    "hermitian_invert",
    "invert_gram_transpose",
    "invert_gram_star",
    "invert_gram_gv",
    "auto_invert",
    "is_invertible",
    "lift_to_ratfun",
    "project_to_base",
]


class ConjugationKind(enum.Enum):
    TRANSPOSE = "transpose"
    STAR = "star"
    CIRC = "circ"


@dataclass(frozen=True)
class GramMatrix:
    """A matrix that is self-adjoint for its conjugation kind.

    TRANSPOSE: N[j][i] == N[i][j]
    STAR:      N[j][i] == star(N[i][j])
    CIRC:      N[j][i] == t**(i-j) * N[i][j]
    """

    matrix: BlockMatrix
    kind: ConjugationKind


# ---------------------------------------------------------------------------
# direct Schur-complement inversion


def schur_invert(m: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    """Invert via the leading block and its Schur complement, pivot-free.

    Requires the leading block and the complement to be invertible at every
    recursion node; raises PivotBlockSingular naming the failing node
    otherwise.  Use a Gram driver when that precondition cannot be met.
    """
    counter = counter if counter is not None else OpCounter()
    return _schur(m, counter, ())


def _invert_leaf(leaf, counter, path, error):
    """Invert a 1x1 block, tallied as one division; raises ``error(path)`` on zero."""
    inv = leaf.scalar.try_invert()
    if inv is None:
        raise error(path)
    counter.div_count += 1
    return BlockMatrix.leaf(inv)


def _zero_pivot(path):
    return GramSingular(f"zero pivot at node {'/'.join(path) or '<root>'}")


def _schur(m, counter, path):
    if m.is_leaf:
        return _invert_leaf(m, counter, path, PivotBlockSingular)
    a, b, c, d = m.blocks
    a_inv = _schur(a, counter, path + ("A",))
    c_ainv = bm.mul(c, a_inv, counter)
    ainv_b = bm.mul(a_inv, b, counter)
    complement = bm.sub(d, bm.mul(c_ainv, b, counter), counter)
    s_inv = _schur(complement, counter, path + ("S",))
    ainvb_sinv = bm.mul(ainv_b, s_inv, counter)
    top_left = bm.add(a_inv, bm.mul(ainvb_sinv, c_ainv, counter), counter)
    bottom_left = bm.negate(bm.mul(s_inv, c_ainv, counter))
    return BlockMatrix.quad(top_left, bm.negate(ainvb_sinv), bottom_left, s_inv)


# ---------------------------------------------------------------------------
# self-adjoint inversion core


def _mirror(block: BlockMatrix, kind: ConjugationKind, half: int, counter: OpCounter):
    """Reconstruct the mirrored off-diagonal block from its partner.

    Costs no multiplications: transposition, involution, and (for the
    t-power kind) whole-block scalings tallied separately.
    """
    if kind is ConjugationKind.TRANSPOSE:
        return bm.transpose(block)
    if kind is ConjugationKind.STAR:
        return bm.adjoint(block)
    ring = block.ring
    return bm.scale_all(bm.circ_conjugate(block, counter), ring.t_power(-half), counter)


def _self_adjoint_node(n, kind, counter, sub_invert, path):
    """One node of the symmetric inversion.

    Ops per node: 2 recursive half-size inversions (through ``sub_invert``)
    and exactly 4 half-size multiplications; the lower-left data is implied
    by the symmetry and rebuilt multiplication-free.
    """
    if n.is_leaf:
        return _invert_leaf(n, counter, path, _zero_pivot)
    a, b, _, d = n.blocks
    half = n.dimension // 2
    a_inv = sub_invert(a, path + ("A",))
    ainv_b = bm.mul(a_inv, b, counter)                    # 1
    c_ainv = _mirror(ainv_b, kind, half, counter)
    complement = bm.sub(d, bm.mul(c_ainv, b, counter), counter)  # 2
    s_inv = sub_invert(complement, path + ("S",))
    ainvb_sinv = bm.mul(ainv_b, s_inv, counter)           # 3
    corner = bm.mul(ainvb_sinv, c_ainv, counter)          # 4
    top_left = bm.add(a_inv, corner, counter)
    top_right = bm.negate(ainvb_sinv)
    bottom_left = _mirror(top_right, kind, half, counter)
    return BlockMatrix.quad(top_left, top_right, bottom_left, s_inv)


def hermitian_invert(gram: GramMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    """Invert a self-adjoint matrix whose leading blocks are invertible.

    No pivot search exists here: the leading block inversion at each node
    is attempted exactly once, which is sound for Gram matrices of
    invertible input.  Both recursive sub-inversions come back through this
    routine; the symmetry kind is inherited by the leading block and the
    Schur complement.
    """
    counter = counter if counter is not None else OpCounter()
    kind = gram.kind

    def recurse(n, path):
        return _self_adjoint_node(n, kind, counter, recurse, path)

    return recurse(gram.matrix, ())


# ---------------------------------------------------------------------------
# Gram drivers


def invert_gram_transpose(m: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    """Invert over a formally real field as (M^T M)^-1 M^T.

    Both sub-inversions of each symmetric node recurse through this full
    driver again, so the measured multiplication-plus-division count obeys
    T(n) = 2*T_x(n) + 2*T(n/2) + 4*T_x(n/2) with T(1) = 1 exactly.
    """
    counter = counter if counter is not None else OpCounter()

    def driver(x, path):
        if x.is_leaf:
            return _invert_leaf(x, counter, path, _zero_pivot)
        xt = bm.transpose(x)
        gram = bm.mul(xt, x, counter)
        gram_inv = _self_adjoint_node(
            gram, ConjugationKind.TRANSPOSE, counter, driver, path
        )
        return bm.mul(gram_inv, xt, counter)

    try:
        return driver(m, ())
    except GramSingular as exc:
        raise SingularMatrix(str(exc)) from None


def invert_gram_star(m: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    """Invert as (M* M)^-1 M* using the conjugation involution.

    Multiplication order is preserved throughout, so this is safe over the
    noncommutative quaternions.
    """
    counter = counter if counter is not None else OpCounter()
    madj = bm.adjoint(m)
    gram = GramMatrix(bm.mul(madj, m, counter), ConjugationKind.STAR)
    try:
        gram_inv = hermitian_invert(gram, counter)
    except GramSingular as exc:
        raise SingularMatrix(str(exc)) from None
    return bm.mul(gram_inv, madj, counter)


def lift_to_ratfun(m: BlockMatrix) -> BlockMatrix:
    """Entrywise embedding of a base-field matrix into K(t) as constants."""
    target = RatFun(m.ring)
    return bm.map_leaves(m, target.lift)


def project_to_base(m: BlockMatrix, base) -> BlockMatrix:
    """Entrywise projection of a constant lifted matrix back to K.

    The entries come from K(t) or from the lift field GF(p)[t]/Phi_l.
    Raises NonConstantResidue naming the first entry that is not a
    constant; nothing is ever truncated.
    """

    def walk(node, row, col):
        if node.is_leaf:
            value = node.scalar
            if not value.is_constant():
                raise NonConstantResidue(row, col)
            return BlockMatrix.leaf(base.wrap(value.constant_value()))
        half = node.dimension // 2
        return BlockMatrix.quad(
            walk(node.a, row, col),
            walk(node.b, row, col + half),
            walk(node.c, row + half, col),
            walk(node.d, row + half, col + half),
        )

    return walk(m, 0, 0)


def invert_gram_gv(m: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    """Invert over any base field by adjoining a variable t.

    The conjugate M° = entrywise t**(j-i) * M[j][i] yields a Gram matrix
    M°M over K(t) whose leading blocks are invertible whenever M is, even
    when every block of M itself is singular.  The inverse (M°M)^-1 M° is
    constant entrywise and is projected back to the base field; a
    non-constant entry is an internal fault and raises instead of being
    truncated.

    Over the rationals the lift runs in K(t).  Over GF(p) it runs in
    GF(p)[t]/Phi_l (:func:`~blocklin.cyclotomic.lift_field`), where t is a
    primitive l-th root of unity of degree l - 1 > n(n-1) over GF(p): every
    leading minor of M°M is a t-power times a polynomial of degree at most
    n(n-1), so each is zero there exactly when it is zero in K(t).  The inversion therefore meets
    the same pivots, fails at the same node on singular input, and costs
    the same counted operations, with no gcd per operation.
    """
    counter = counter if counter is not None else OpCounter()
    base = m.ring
    if base is QQ:
        target = RatFun(base)
    elif base.spec.startswith("gf:"):
        target = lift_field(base.p, m.dimension)
    else:
        raise TypeError("base-field lift needs rational or prime-field entries")
    lifted = bm.map_leaves(m, target.lift)
    conj = bm.circ_conjugate(lifted, counter)
    gram = GramMatrix(bm.mul(conj, lifted, counter), ConjugationKind.CIRC)
    try:
        gram_inv = hermitian_invert(gram, counter)
    except GramSingular as exc:
        raise SingularMatrix(str(exc)) from None
    pre_projection = bm.mul(gram_inv, conj, counter)
    return project_to_base(pre_projection, base)


# ---------------------------------------------------------------------------
# dispatch


def _gram_driver_for(ring):
    spec = ring.spec
    if spec == "q" or spec == "ratfun:q":
        return invert_gram_transpose
    if spec in ("qi", "quat"):
        return invert_gram_star
    if spec.startswith("gf:"):
        return invert_gram_gv
    return None


def auto_invert(m: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    """Invert by the Schur recursion, falling back to the ring's Gram driver.

    The fallback fires only on PivotBlockSingular, i.e. when some recursion
    node had no invertible leading block.  Rationals fall back to the
    transpose driver, Gaussian rationals and quaternions to the involution
    driver, prime fields to the base-field lift.  Rational functions over a
    prime field have no driver here (that would need a second variable), so
    the pivot failure propagates for them.
    """
    counter = counter if counter is not None else OpCounter()
    scratch = OpCounter()
    try:
        result = schur_invert(m, scratch)
    except PivotBlockSingular:
        driver = _gram_driver_for(m.ring)
        if driver is None:
            raise
        scratch = OpCounter()
        result = driver(m, scratch)
    counter.merge(scratch)
    return result


def is_invertible(m: BlockMatrix) -> bool:
    """Whether m has an inverse; all counts are discarded.

    Decided by auto_invert.  Where the ring has no Gram driver (rational
    functions over a prime field) and the Schur recursion fails, a dense
    determinant decides instead.
    """
    try:
        auto_invert(m, OpCounter())
    except SingularMatrix:
        return False
    except PivotBlockSingular:
        return not dense_determinant(bm.to_dense(m)).is_zero()
    return True
