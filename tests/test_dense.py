"""The rings' row kernels at sizes that are not powers of two.

``dense_mul`` runs on ``ring.dot_rows``, the kernel ``blockmat.mul`` uses,
and ``dense_determinant`` and ``is_invertible`` run on
``ring.pivot_product``.  Both are held here to references of their own: the
schoolbook product on scalar objects, and the base ring handle's
left-row-operation elimination, which the QQ and GF(p) fast paths replace.
"""

import random

import pytest

from blocklin import (
    GF,
    QQ,
    QQ_I,
    QUAT,
    DenseMatrix,
    RatFun,
    Rational,
    dense_determinant,
    dense_mul,
    is_invertible,
)
from blocklin.cyclotomic import lift_field
from blocklin.rings import _Ring
from blocklin.sampling import random_dense

from conftest import COMPONENTS, gauss_jordan_inverse, mixed_denominator_operands, schoolbook_mul, stable_seed

LIFT = lift_field(7, 8)
KERNEL_RINGS = [QQ, QQ_I, QUAT, GF(2), GF(7), RatFun(QQ), RatFun(GF(7)), LIFT]
ODD_SIZES = [1, 3, 5, 6, 7]


def draw(ring, n, rng):
    if ring is LIFT:
        f = GF(7)
        entry = lambda: LIFT.lift(f.random_element(rng)) + LIFT.lift(
            f.random_element(rng)
        ) * LIFT.t_power(rng.randrange(LIFT.order))
        return DenseMatrix(n, [[entry() for _ in range(n)] for _ in range(n)], LIFT)
    return random_dense(ring, n, rng)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.spec)
def test_dense_mul_matches_schoolbook_at_sizes_not_powers_of_two(ring):
    rng = random.Random(stable_seed("dense-kernel", ring.spec))
    for n in ODD_SIZES:
        pairs = [(draw(ring, n, rng), draw(ring, n, rng))]
        if ring in COMPONENTS:
            pairs.append(mixed_denominator_operands(ring, n))
        for x, y in pairs:
            assert dense_mul(x, y) == schoolbook_mul(x, y), (ring.spec, n)


@pytest.mark.parametrize("n", ODD_SIZES)
def test_dense_mul_keeps_quaternion_factor_order(n):
    i, j, k = QUAT.parse("i"), QUAT.parse("j"), QUAT.parse("k")
    scalar = lambda q: DenseMatrix(
        n, [[q if r == c else QUAT.zero() for c in range(n)] for r in range(n)], QUAT
    )
    assert dense_mul(scalar(i), scalar(j)) == scalar(k)
    assert dense_mul(scalar(j), scalar(i)) == scalar(-k)
    rng = random.Random(stable_seed("quat-order", n))
    x, y = random_dense(QUAT, n, rng), random_dense(QUAT, n, rng)
    assert dense_mul(x, y) == schoolbook_mul(x, y)


@pytest.mark.parametrize(
    "left, right", [(QQ, GF(7)), (GF(7), QQ), (GF(7), GF(11)), (QQ, QQ_I)], ids=lambda r: r.spec
)
def test_dense_mul_rejects_operands_over_different_rings(left, right):
    rng = random.Random(stable_seed("dense-mixed", left.spec, right.spec))
    for n in (1, 3):
        with pytest.raises(TypeError):
            dense_mul(random_dense(left, n, rng), random_dense(right, n, rng))


def with_dependent_row(ring, dense, rng):
    """dense with one row replaced by a combination of two others."""
    n = dense.n
    rows = [list(r) for r in dense.rows]
    i = rng.randrange(n)
    j, k = rng.choice([r for r in range(n) if r != i]), rng.choice([r for r in range(n) if r != i])
    a, b = ring.random_element(rng), ring.random_element(rng)
    rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return DenseMatrix(n, rows, ring)


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(7), GF(65521)], ids=lambda r: r.spec)
def test_pivot_product_fast_paths_match_left_row_operation_loop(ring):
    rng = random.Random(stable_seed("pivot-product", ring.spec))
    singular = 0
    for n in range(1, 11):
        for _ in range(6):
            m = random_dense(ring, n, rng)
            if n > 1 and rng.random() < 0.3:
                m = with_dependent_row(ring, m, rng)
            if ring is QQ and rng.random() < 0.5:
                m = DenseMatrix(n, [[x * Rational(1, rng.randint(1, 7)) for x in row] for row in m.rows], QQ)
            want = _Ring.pivot_product(ring, m.rows)
            assert ring.pivot_product(m.rows) == want, (ring.spec, n)
            assert dense_determinant(m) == want
            assert is_invertible(m) is not want.is_zero()
            singular += want.is_zero()
    assert singular > 0


@pytest.mark.parametrize("ring", [QQ_I, QUAT, RatFun(GF(7)), LIFT], ids=lambda r: r.spec)
def test_is_invertible_at_odd_sizes_on_the_generic_loop(ring):
    rng = random.Random(stable_seed("generic-pivots", ring.spec))
    for n in (1, 3, 5):
        m = draw(ring, n, rng)
        assert is_invertible(m) is (gauss_jordan_inverse(m) is not None)
        if n > 1:
            rows = [list(r) for r in m.rows]
            rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
            assert not is_invertible(DenseMatrix(n, rows, ring))
