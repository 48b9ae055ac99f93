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
  it is a root of unity in a finite field GF(p)[t]/Phi_l: first a small
  one, then, only if that run meets a zero pivot, one whose degree is
  large enough that no pivot of the inversion changes.

The self-adjoint inversion core (:func:`hermitian_invert`) exploits the
Gram symmetry of its input: per node it spends exactly four half-size
multiplications plus two recursive half-size inversions, reconstructing
the mirrored blocks by transposition, involution, or t-power scaling at
zero multiplication cost.  Its node is the Schur node, with those two
products replaced by mirrors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import blockmat as bm
from .blockmat import BlockMatrix, OpCounter
from .errors import GramSingular, NonConstantResidue, PivotBlockSingular, node_name
from .cyclotomic import lift_field, small_field
from .dense import DenseMatrix
from .rings import QQ, RatFun

__all__ = [
    "ConjugationKind",
    "GramMatrix",
    "schur_invert",
    "schur_step",
    "hermitian_invert",
    "invert_gram_transpose",
    "invert_gram_star",
    "invert_gram_gv",
    "auto_invert",
    "gram_driver",
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
# block elimination: the Schur node and its self-adjoint form


def schur_invert(m: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    """Invert via the leading block and its Schur complement, pivot-free.

    Requires the leading block and the complement to be invertible at every
    recursion node; raises PivotBlockSingular naming the failing node
    otherwise.  Use a Gram driver when that precondition cannot be met.
    """
    counter = counter if counter is not None else OpCounter()

    def recurse(n, path):
        return _node(n, counter, recurse, path)

    return recurse(m, ())


def _invert_leaf(leaf, counter, path, error):
    """Invert a 1x1 block, tallied as one division; raises ``error(path)`` on zero."""
    inv = leaf.scalar.try_invert()
    if inv is None:
        raise error(path)
    counter.div_count += 1
    return BlockMatrix.leaf(inv)


def _zero_pivot(path):
    return GramSingular(f"zero pivot at node {node_name(path)}")


def _mirror(block: BlockMatrix, kind: ConjugationKind, counter: OpCounter):
    """Reconstruct the mirrored off-diagonal block from its partner.

    Costs no multiplications: transposition, involution, and (for the
    t-power kind) whole-block scalings tallied separately.
    """
    if kind is ConjugationKind.TRANSPOSE:
        return bm.transpose(block)
    if kind is ConjugationKind.STAR:
        return bm.adjoint(block)
    # entry (i, j) is t**(j-i-half) * block[j][i], half being the dimension
    # of the block: circ conjugation and the whole-block scaling by
    # t**-half in one pass, tallied as both
    return bm._circ_conjugate(block, -block.dimension, counter)


def schur_step(a_inv, b, c, d, counter, mirror=None):
    """One block elimination: (C A^-1, A^-1 B, D - C A^-1 B), three products.

    With a conjugation kind as ``mirror``, C A^-1 is A^-1 B mirrored by
    :func:`_mirror` instead of multiplied, and the step takes two products.
    """
    ainv_b = bm.mul(a_inv, b, counter)
    c_ainv = bm.mul(c, a_inv, counter) if mirror is None else _mirror(ainv_b, mirror, counter)
    return c_ainv, ainv_b, bm.mul(c_ainv, b, counter, sign=-1, addend=d)


def _node(n, counter, sub_invert, path, mirror=None):
    """One node of block inversion, the leading block and the complement
    inverted through ``sub_invert``.

    With ``mirror`` None this is the Schur node: 6 half-size products, and
    a zero leaf raises PivotBlockSingular.  With the conjugation kind of a
    self-adjoint ``n`` it is the symmetric node: exactly 4 products, the
    lower-left data implied by the symmetry and rebuilt multiplication-free,
    and a zero leaf raises GramSingular.
    """
    if n.is_leaf:
        return _invert_leaf(n, counter, path, PivotBlockSingular if mirror is None else _zero_pivot)
    a, b, c, d = n.blocks
    a_inv = sub_invert(a, path + ("A",))
    c_ainv, ainv_b, complement = schur_step(a_inv, b, c, d, counter, mirror)
    s_inv = sub_invert(complement, path + ("S",))
    # top_right is -(A^-1 B S^-1), so A^-1 + (A^-1 B S^-1)(C A^-1) is
    # A^-1 - top_right (C A^-1)
    top_right = bm.mul(ainv_b, s_inv, counter, sign=-1)
    top_left = bm.mul(top_right, c_ainv, counter, sign=-1, addend=a_inv)
    if mirror is None:
        bottom_left = bm.mul(s_inv, c_ainv, counter, sign=-1)
    else:
        bottom_left = _mirror(top_right, mirror, counter)
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
        return _node(n, counter, recurse, path, kind)

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
        gram_inv = _node(gram, counter, driver, path, ConjugationKind.TRANSPOSE)
        return bm.mul(gram_inv, xt, counter)

    return driver(m, ())


def invert_gram_star(m: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    """Invert as (M* M)^-1 M* using the conjugation involution.

    Multiplication order is preserved throughout, so this is safe over the
    noncommutative quaternions.
    """
    counter = counter if counter is not None else OpCounter()
    madj = bm.adjoint(m)
    gram = GramMatrix(bm.mul(madj, m, counter), ConjugationKind.STAR)
    gram_inv = hermitian_invert(gram, counter)
    return bm.mul(gram_inv, madj, counter)


def lift_to_ratfun(m: BlockMatrix) -> BlockMatrix:
    """Entrywise embedding of a base-field matrix into K(t) as constants."""
    target = RatFun(m.ring)
    return bm.map_leaves(m, target.lift)


def project_to_base(m: BlockMatrix, base) -> BlockMatrix:
    """Entrywise projection of a constant lifted matrix back to K.

    The entries come from K(t) or from the lift field GF(p)[t]/Phi_l.
    Raises NonConstantResidue naming the first entry, in row-major order,
    that is not a constant; nothing is ever truncated.
    """
    for row_index, row in enumerate(bm.to_dense(m).rows):
        for col_index, value in enumerate(row):
            if not value.is_constant():
                raise NonConstantResidue(row_index, col_index)
    return bm.map_leaves(m, lambda value: base.wrap(value.constant_value()))


def invert_gram_gv(m: BlockMatrix, counter: OpCounter | None = None) -> BlockMatrix:
    """Invert over any base field by adjoining a variable t.

    The conjugate M° = entrywise t**(j-i) * M[j][i] yields a Gram matrix
    M°M over K(t) whose leading blocks are invertible whenever M is, even
    when every block of M itself is singular.  The inverse (M°M)^-1 M° is
    constant entrywise and is projected back to the base field; a
    non-constant entry is an internal fault and raises instead of being
    truncated.

    Over the rationals the lift runs in K(t).  Over GF(p) it runs first in
    the small field GF(p)[t]/Phi_l of :func:`~blocklin.cyclotomic.small_field`,
    and, if that run meets a zero pivot, again in the certified field
    (:func:`~blocklin.cyclotomic.lift_field`), whose t is a primitive l-th
    root of unity of degree l - 1 > n(n-1) over GF(p): every leading minor
    of M°M is a t-power times a polynomial of degree at most n(n-1), so
    each is zero there exactly when it is zero in K(t).  The first run is
    exact whenever it succeeds: for any t != 0, a recursion that meets no
    zero pivot returns (M°M)^-1 M° = M^-1, which is unique, and its counts
    depend on the shape alone.  Singular input always meets a zero pivot,
    so its failure, node and message come from the certified run, as do
    the inverse and counts of the rare invertible input whose first run
    fails.  The counter holds only the run whose outcome is returned
    (:func:`_cheap_then_certified`).  No operation needs a gcd.
    """
    counter = counter if counter is not None else OpCounter()
    base = m.ring
    if base is QQ:
        targets = (RatFun(base),)
    elif base.spec.startswith("gf:"):
        cheap, certified = small_field(base.p), lift_field(base.p, m.dimension)
        targets = (cheap, certified) if cheap.order < certified.order else (certified,)
    else:
        raise TypeError("base-field lift needs rational or prime-field entries")

    def run(target, tally):
        lifted = bm.map_leaves(m, target.lift)
        conj = bm.circ_conjugate(lifted, tally)
        gram = GramMatrix(bm.mul(conj, lifted, tally), ConjugationKind.CIRC)
        gram_inv = hermitian_invert(gram, tally)
        return project_to_base(bm.mul(gram_inv, conj, tally), base)

    return _cheap_then_certified(run, targets, counter)


def _cheap_then_certified(run, targets, counter):
    """``run(target, tally)`` in each target ring until one meets no zero pivot.

    Runs in the cheap targets tally on a scratch counter, merged only when
    their result is returned; a GramSingular from one is discarded.  The
    last target is certified: its outcome is final, tallied on ``counter``.
    """
    *cheap, certified = targets
    for target in cheap:
        scratch = OpCounter()
        try:
            result = run(target, scratch)
        except GramSingular:
            continue
        counter.merge(scratch)
        return result
    return run(certified, counter)


# ---------------------------------------------------------------------------
# dispatch


def gram_driver(ring):
    """The Gram driver that inverts over ``ring`` without pivoting, or None.

    Rationals (and rational functions over them) take the transpose driver,
    Gaussian rationals and quaternions the involution driver, prime fields
    the base-field lift.  Rational functions over a prime field have none:
    that would need a second variable.
    """
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
    node had no invertible leading block; it runs :func:`gram_driver` for
    the ring, and where there is none the pivot failure propagates.
    """
    counter = counter if counter is not None else OpCounter()
    scratch = OpCounter()
    try:
        result = schur_invert(m, scratch)
    except PivotBlockSingular:
        driver = gram_driver(m.ring)
        if driver is None:
            raise
        scratch = OpCounter()
        result = driver(m, scratch)
    counter.merge(scratch)
    return result


def is_invertible(m: BlockMatrix | DenseMatrix) -> bool:
    """Whether m, a block or a dense matrix, has an inverse.

    Decided by one forward elimination of its rows on the ring's own
    kernel (``ring.pivot_product``), not by a block inverter: fraction-free
    on integers over QQ, on residues over GF(p), and by left row operations
    elsewhere, which decide it over any division ring, the quaternions
    included.  No counter sees this work.
    """
    dense = m if isinstance(m, DenseMatrix) else bm.to_dense(m)
    return not dense.ring.pivot_product(dense.rows).is_zero()
