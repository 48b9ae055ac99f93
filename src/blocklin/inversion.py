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
zero multiplication cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import blockmat as bm
from .blockmat import BlockMatrix, OpCounter
from .errors import GramSingular, NonConstantResidue, PivotBlockSingular
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


def schur_step(a_inv, b, c, d, counter):
    """One block elimination: (C A^-1, A^-1 B, D - C A^-1 B), three products."""
    c_ainv = bm.mul(c, a_inv, counter)
    ainv_b = bm.mul(a_inv, b, counter)
    return c_ainv, ainv_b, bm.mul(c_ainv, b, counter, sign=-1, addend=d)


def _schur(m, counter, path):
    if m.is_leaf:
        return _invert_leaf(m, counter, path, PivotBlockSingular)
    a, b, c, d = m.blocks
    a_inv = _schur(a, counter, path + ("A",))
    c_ainv, ainv_b, complement = schur_step(a_inv, b, c, d, counter)
    s_inv = _schur(complement, counter, path + ("S",))
    # top_right is -(A^-1 B S^-1), so A^-1 + (A^-1 B S^-1)(C A^-1) is
    # A^-1 - top_right (C A^-1)
    top_right = bm.mul(ainv_b, s_inv, counter, sign=-1)
    top_left = bm.mul(top_right, c_ainv, counter, sign=-1, addend=a_inv)
    bottom_left = bm.mul(s_inv, c_ainv, counter, sign=-1)
    return BlockMatrix.quad(top_left, top_right, bottom_left, s_inv)


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
    # entry (i, j) is t**(j-i-half) * block[j][i]: circ conjugation and the
    # whole-block scaling by t**-half in one pass, tallied as both
    return bm._circ_conjugate(block, -half, counter)


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
    ainv_b = bm.mul(a_inv, b, counter)                                     # 1
    c_ainv = _mirror(ainv_b, kind, half, counter)
    complement = bm.mul(c_ainv, b, counter, sign=-1, addend=d)             # 2
    s_inv = sub_invert(complement, path + ("S",))
    top_right = bm.mul(ainv_b, s_inv, counter, sign=-1)                    # 3
    top_left = bm.mul(top_right, c_ainv, counter, sign=-1, addend=a_inv)   # 4
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
