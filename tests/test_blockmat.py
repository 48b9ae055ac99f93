import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklin import (
    GF,
    QQ,
    QQ_I,
    QUAT,
    BlockMatrix,
    DenseMatrix,
    DepthMismatch,
    NonPowerOfTwo,
    OpCounter,
    RatFun,
    Rational,
    add,
    adjoint,
    circ_conjugate,
    embed,
    from_dense,
    identity,
    lift_to_ratfun,
    map_leaves,
    mul,
    negate,
    schur_invert,
    sub,
    to_dense,
    transpose,
    zero_matrix,
)
from blocklin.blockmat import invert_leaf
from blocklin.cyclotomic import lift_field
from blocklin.sampling import random_dense, random_matrix

from conftest import COMPONENTS, grid, mixed_denominator_operands, ring_dense, ring_mat, schoolbook_mul, stable_seed

RINGS = [QQ, GF(7), QQ_I, QUAT, RatFun(GF(2))]


# -- counter -----------------------------------------------------------------


def test_counter_merge_is_componentwise_addition():
    a, b, c = OpCounter(), OpCounter(), OpCounter()
    a.mul_count, a.div_count, a.add_count, a.scaling_count = 1, 2, 3, 4
    b.mul_count, b.div_count = 10, 20
    c.add_count = 100
    left = OpCounter().merge(a).merge(b).merge(c).snapshot()
    right = OpCounter().merge(c).merge(b).merge(a).snapshot()
    assert left == right == {"mul": 11, "div": 22, "add": 103, "scaling": 4}


def test_per_branch_counters_merge_to_sequential_counts(rng):
    x = random_matrix(QQ, 2, rng)
    y = random_matrix(QQ, 2, rng)
    sequential = OpCounter()
    mul(x, y, sequential)
    merged = OpCounter()
    # emulate branch-local counting: one counter per quadrant product
    parts = []
    for row in (0, 1):
        for col in (0, 1):
            branch = OpCounter()
            first = x.blocks[2 * row]
            second = x.blocks[2 * row + 1]
            left = y.blocks[col]
            right = y.blocks[2 + col]
            add(mul(first, left, branch), mul(second, right, branch), branch)
            parts.append(branch)
    for part in parts:
        merged.merge(part)
    assert merged.snapshot() == sequential.snapshot()


# -- structure ---------------------------------------------------------------


def test_quad_requires_equal_depths():
    leaf = BlockMatrix.leaf(Rational(1))
    deep = BlockMatrix.quad(leaf, leaf, leaf, leaf)
    with pytest.raises(DepthMismatch):
        BlockMatrix.quad(deep, leaf, leaf, leaf)


def test_block_interface_has_no_row_or_column_access():
    public = [n for n in dir(BlockMatrix) if not n.startswith("_")]
    assert sorted(public) == [
        "a",
        "b",
        "blocks",
        "c",
        "d",
        "depth",
        "dimension",
        "is_leaf",
        "leaf",
        "quad",
        "ring",
        "scalar",
    ]
    for name in public:
        lowered = name.lower()
        assert "row" not in lowered and "col" not in lowered


# -- dense conversions and embedding ------------------------------------------


def test_dense_round_trip(rng):
    m = random_matrix(QQ, 3, rng)
    assert from_dense(to_dense(m)) == m


def test_from_dense_rejects_non_power_of_two():
    with pytest.raises(NonPowerOfTwo):
        from_dense(ring_dense(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]))


def test_leaf_round_trip():
    dense = to_dense(BlockMatrix.leaf(Rational(5)))
    assert dense.n == 1 and dense.rows[0][0] == Rational(5)


def test_embed_exact_size_is_identity_conversion():
    m = ring_dense(QQ, [[1, 2], [3, 4]])
    assert embed(m) == from_dense(m)


def test_embed_pads_identity():
    eye3 = ring_dense(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert embed(eye3) == identity(2, QQ)
    m = ring_dense(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    padded = to_dense(embed(m))
    assert padded.n == 4
    for i in range(3):
        for j in range(3):
            assert padded.rows[i][j] == m.rows[i][j]
    assert padded.rows[3][3] == QQ.one()
    for k in range(3):
        assert padded.rows[3][k].is_zero() and padded.rows[k][3].is_zero()


# -- add / sub / negate --------------------------------------------------------


def test_add_sub_examples(rng):
    x = random_matrix(QQ, 2, rng)
    assert add(x, zero_matrix(2, QQ)) == x
    assert sub(x, x) == zero_matrix(2, QQ)
    assert add(x, negate(x)) == zero_matrix(2, QQ)
    a = ring_mat(QQ, [[1, 2], [3, 4]])
    b = ring_mat(QQ, [[4, 3], [2, 1]])
    assert grid(add(a, b)) == [["5", "5"], ["5", "5"]]
    with pytest.raises(DepthMismatch):
        add(a, identity(2, QQ))


# -- multiplication ------------------------------------------------------------


def test_mul_example_and_count():
    a = ring_mat(QQ, [[1, 2], [3, 4]])
    b = ring_mat(QQ, [[4, 3], [2, 1]])
    counter = OpCounter()
    assert grid(mul(a, b, counter)) == [["8", "5"], ["20", "13"]]
    assert counter.mul_count == 8


def test_identity_product_costs_full_count():
    counter = OpCounter()
    m = ring_mat(QQ, [[1, 2], [3, 4]])
    assert mul(identity(1, QQ), m, counter) == m
    assert counter.mul_count == 8


@pytest.mark.parametrize("n", [2, 4, 8])
def test_naive_mul_count_is_cubic(n, rng):
    depth = n.bit_length() - 1
    counter = OpCounter()
    mul(random_matrix(QQ, depth, rng), random_matrix(QQ, depth, rng), counter)
    assert counter.mul_count == n ** 3
    assert counter.div_count == 0


def test_strassen_count_49_at_4(rng):
    counter = OpCounter()
    mul(
        random_matrix(QQ, 2, rng),
        random_matrix(QQ, 2, rng),
        counter,
        strategy="strassen",
    )
    assert counter.mul_count == 49


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.spec)
def test_naive_and_strassen_agree_200_pairs(ring):
    rng = random.Random(stable_seed("strassen", ring.spec))
    for depth, trials in ((1, 100), (2, 70), (3, 30)):
        for _ in range(trials):
            x = random_matrix(ring, depth, rng)
            y = random_matrix(ring, depth, rng)
            assert mul(x, y) == mul(x, y, strategy="strassen")


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.spec)
def test_block_ring_axioms(ring):
    rng = random.Random(stable_seed("axioms", ring.spec))
    for depth in (1, 2, 3):
        x = random_matrix(ring, depth, rng)
        y = random_matrix(ring, depth, rng)
        z = random_matrix(ring, depth, rng)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))


@pytest.mark.parametrize(
    "left, right", [(QQ, GF(7)), (GF(7), QQ), (GF(7), GF(11))], ids=lambda r: r.spec
)
def test_mul_rejects_operands_over_different_rings(left, right, rng):
    for depth in (0, 2):
        x = random_matrix(left, depth, rng)
        y = random_matrix(right, depth, rng)
        with pytest.raises(TypeError):
            mul(x, y)


LIFT = lift_field(7, 8)


def lift_entry(rng):
    """A random element c0 + c1*t**k of GF(7)[t]/Phi_l."""
    f = GF(7)
    head = LIFT.lift(f.random_element(rng))
    return head + LIFT.lift(f.random_element(rng)) * LIFT.t_power(rng.randrange(LIFT.order))


def draw_dense(ring, n, rng):
    if ring is LIFT:
        return DenseMatrix(n, [[lift_entry(rng) for _ in range(n)] for _ in range(n)], LIFT)
    return random_dense(ring, n, rng)


def kernel_operands(ring, n, rng):
    """Two random operands; up to n = 8 also zero and identity operands."""
    if ring is LIFT:
        zero, one = LIFT.lift(GF(7).zero()), LIFT.lift(GF(7).one())
    else:
        zero, one = ring.zero(), ring.one()
    x, y = draw_dense(ring, n, rng), draw_dense(ring, n, rng)
    eye = DenseMatrix(n, [[one if i == j else zero for j in range(n)] for i in range(n)], ring)
    nil = DenseMatrix(n, [[zero] * n for _ in range(n)], ring)
    return [(x, y), (nil, y), (x, eye), (eye, y)] if n <= 8 else [(x, y)]


KERNEL_RINGS = [QQ, QQ_I, QUAT, GF(2), GF(7), GF(65521), GF(2**61 - 1), RatFun(QQ), RatFun(GF(7)), LIFT]


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.spec)
def test_mul_kernel_matches_dense_product_and_recursion_counts(ring):
    rng = random.Random(stable_seed("mul-kernel", ring.spec))
    for depth in range(6):
        n = 1 << depth
        pairs = kernel_operands(ring, n, rng)
        if ring is QQ or ring in COMPONENTS and n <= 16:
            pairs.append(mixed_denominator_operands(ring, n))
        for dx, dy in pairs:
            counter = OpCounter()
            product = mul(from_dense(dx), from_dense(dy), counter)
            assert to_dense(product) == schoolbook_mul(dx, dy)
            assert counter.snapshot() == {"mul": n**3, "div": 0, "add": n * n * (n - 1), "scaling": 0}


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.spec)
def test_fused_mul_equals_product_then_add_sub_or_negate(ring):
    # the fused form sign*(x*y) + z against the product followed by the
    # block operation it replaces, on values and on tallies; over QQ, QQ_I
    # and QUAT the addend's denominators are coprime to the product's
    rng = random.Random(stable_seed("fused-mul", ring.spec))
    for depth in range(5):
        n = 1 << depth
        triples = [tuple(draw_dense(ring, n, rng) for _ in range(3))]
        if ring in COMPONENTS:
            # this y draws on the primes after those of the product's x and y
            _, z = mixed_denominator_operands(ring, n, first=COMPONENTS[ring][1] * n)
            triples.append((*mixed_denominator_operands(ring, n), z))
        for dx, dy, dz in triples:
            x, y, z = from_dense(dx), from_dense(dy), from_dense(dz)
            for sign in (1, -1):
                for addend in (None, z):
                    fused_counter, split_counter = OpCounter(), OpCounter()
                    fused = mul(x, y, fused_counter, sign=sign, addend=addend)
                    product = mul(x, y, split_counter)
                    if addend is None:
                        expected = product if sign > 0 else negate(product)
                    else:
                        expected = (add if sign > 0 else sub)(addend, product, split_counter)
                    assert fused == expected, (ring.spec, depth, sign, addend is None)
                    assert fused_counter.snapshot() == split_counter.snapshot()


def test_fused_mul_needs_the_naive_strategy_and_one_ring(rng):
    x, y = random_matrix(QQ, 1, rng), random_matrix(QQ, 1, rng)
    with pytest.raises(ValueError):
        mul(x, y, strategy="strassen", sign=-1)
    with pytest.raises(ValueError):
        mul(x, y, strategy="strassen", addend=x)
    with pytest.raises(TypeError):
        mul(x, y, addend=random_matrix(GF(7), 1, rng))
    with pytest.raises(DepthMismatch):
        mul(x, y, addend=random_matrix(QQ, 2, rng))


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.spec)
def test_row_storage_splits_joins_and_owns_its_rows(ring):
    rng = random.Random(stable_seed("row-storage", ring.spec))
    for depth in range(6):
        n, half = 1 << depth, (1 << depth) // 2
        dense = draw_dense(ring, n, rng)
        expected = DenseMatrix(n, dense.rows, ring)
        m = from_dense(dense)
        if depth:
            assert BlockMatrix.quad(*m.blocks) == m
            assert (m.a, m.b, m.c, m.d) == m.blocks
            assert to_dense(m.b).rows == [row[half:] for row in expected.rows[:half]]
        else:
            assert m.blocks is None and m.scalar == expected.rows[0][0]
        # neither the rows m was built from nor the rows it hands out reach m
        dense.rows[0][0] = dense.rows[0][0] + ring.one()
        dense.rows[-1] = dense.rows[0]
        assert to_dense(m) == expected
        out = to_dense(m)
        out.rows[-1][-1] = out.rows[-1][-1] + ring.one()
        out.rows[0] = out.rows[-1]
        assert to_dense(m) == expected


def test_quaternion_products_keep_factor_order():
    i, j, k = QUAT.parse("i"), QUAT.parse("j"), QUAT.parse("k")
    for depth in range(4):
        n = 1 << depth
        scalar = lambda q: from_dense(
            DenseMatrix(n, [[q if r == c else QUAT.zero() for c in range(n)] for r in range(n)], QUAT)
        )
        assert mul(scalar(i), scalar(j)) == scalar(k)
        assert mul(scalar(j), scalar(i)) == scalar(-k)


# -- conjugations ---------------------------------------------------------------


def test_transpose_examples(rng):
    m = ring_mat(QQ, [[1, 2], [3, 4]])
    assert grid(transpose(m)) == [["1", "3"], ["2", "4"]]
    r = random_matrix(QQ, 3, rng)
    s = random_matrix(QQ, 3, rng)
    assert transpose(transpose(r)) == r
    assert transpose(mul(r, s)) == mul(transpose(s), transpose(r))


def test_adjoint_examples(rng):
    i = QQ_I.parse("i")
    assert grid(adjoint(BlockMatrix.leaf(i))) == [["-1*i"]]
    m = from_dense(DenseMatrix(2, [[QQ_I.zero(), i], [i, QQ_I.zero()]], QQ_I))
    assert grid(adjoint(m)) == [["0", "-1*i"], ["-1*i", "0"]]
    real = random_matrix(QQ, 2, rng)
    assert adjoint(real) == transpose(real)
    q = random_matrix(QUAT, 2, rng)
    r = random_matrix(QUAT, 2, rng)
    assert adjoint(adjoint(q)) == q
    assert adjoint(mul(q, r)) == mul(adjoint(r), adjoint(q))


def entrywise_circ_oracle(m):
    """Independent route: build the conjugate from the scalar formula."""
    dense = to_dense(m)
    ring = dense.ring
    n = dense.n
    rows = [
        [dense.rows[j][i] * ring.t_power(j - i) for j in range(n)] for i in range(n)
    ]
    return from_dense(DenseMatrix(n, rows, ring))


@pytest.mark.parametrize("base", [GF(2), GF(7), QQ], ids=lambda r: r.spec)
def test_circ_matches_entrywise_formula(base, rng):
    ring = RatFun(base)
    for depth in (1, 2, 3):
        m = random_matrix(ring, depth, rng)
        assert circ_conjugate(m) == entrywise_circ_oracle(m)
        assert circ_conjugate(circ_conjugate(m)) == m


def test_circ_example_gf2():
    g2 = GF(2)
    m = lift_to_ratfun(ring_mat(g2, [[1, 1], [1, 0]]))
    assert grid(circ_conjugate(m)) == [["(1)", "(1*t)"], ["(1)/(1*t)", "(0)"]]
    assert circ_conjugate(identity(2, RatFun(g2))) == identity(2, RatFun(g2))


def test_circ_counts_scalings_not_multiplications():
    counter = OpCounter()
    m = lift_to_ratfun(ring_mat(GF(2), [[1, 1], [1, 0]]))
    circ_conjugate(m, counter)
    assert counter.mul_count == 0 and counter.div_count == 0
    assert counter.scaling_count == 2
    # the closed form of the recursive block transposition: n*n*k/2 at depth k
    rng = random.Random(stable_seed("circ-counts"))
    for depth in range(1, 6):
        n = 1 << depth
        for field, base in ((RatFun(GF(2)), GF(2)), (lift_field(7, n), GF(7))):
            counter = OpCounter()
            circ_conjugate(map_leaves(random_matrix(base, depth, rng), field.lift), counter)
            assert counter.snapshot() == {"mul": 0, "div": 0, "add": 0, "scaling": n * n * depth // 2}


def test_circ_requires_ratfun_entries():
    with pytest.raises(TypeError):
        circ_conjugate(ring_mat(QQ, [[1, 2], [3, 4]]))


# -- hypothesis properties -------------------------------------------------------


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def dense_strategy(n):
    return st.lists(
        st.lists(small_rationals.map(Rational), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda rows: DenseMatrix(n, rows, QQ))


@given(dense_strategy(4))
@settings(max_examples=40)
def test_dense_round_trip_property(dense):
    assert to_dense(from_dense(dense)) == dense


@given(dense_strategy(2), dense_strategy(2), dense_strategy(2))
@settings(max_examples=40)
def test_mul_distributes_over_add_property(da, db, dc):
    x, y, z = from_dense(da), from_dense(db), from_dense(dc)
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert mul(x, y, strategy="strassen") == mul(x, y)


@given(dense_strategy(4))
@settings(max_examples=30)
def test_transpose_is_entrywise_swap_property(dense):
    flipped = to_dense(transpose(from_dense(dense)))
    for i in range(4):
        for j in range(4):
            assert flipped.rows[i][j] == dense.rows[j][i]


# -- QQ blocks: one integer matrix over one denominator --------------------------


def fraction_rows(m):
    return [[x.value for x in row] for row in to_dense(m).rows]


def fraction_product(x, y, sign=1, z=None):
    """sign * (x . y) + z on lists of Fraction rows, entry by entry."""
    n = len(x)
    return [
        [sign * sum(x[i][k] * y[k][j] for k in range(n)) + (z[i][j] if z else 0) for j in range(n)]
        for i in range(n)
    ]


def assert_packed(m, values):
    """m holds integers over a positive denominator and has the entries ``values``."""
    assert m._den > 0 and all(type(v) is int for row in m._rows for v in row)
    assert fraction_rows(m) == values


def test_qq_blocks_stay_integers_over_a_positive_denominator():
    rng = random.Random(stable_seed("qq-packed"))
    for depth in range(1, 4):
        n = 1 << depth
        x, y = mixed_denominator_operands(QQ, n)
        _, z = mixed_denominator_operands(QQ, n, first=2 * n)
        bx, by, bz = from_dense(x), from_dense(y), from_dense(z)
        fx, fy, fz = fraction_rows(bx), fraction_rows(by), fraction_rows(bz)
        parts = []
        for sign in (1, -1):
            for addend in (None, bz):
                got = mul(bx, by, sign=sign, addend=addend)
                assert_packed(got, fraction_product(fx, fy, sign, None if addend is None else fz))
                parts.append(got)
        # four results over four different denominators, joined over their lcm
        assert len({p._den for p in parts}) > 1
        joined = BlockMatrix.quad(*parts)
        rows = [a + b for a, b in zip(*map(fraction_rows, parts[:2]))]
        rows += [c + d for c, d in zip(*map(fraction_rows, parts[2:]))]
        assert_packed(joined, rows)
        for part, quadrant in zip(parts, joined.blocks):
            assert quadrant._den == joined._den
            assert_packed(quadrant, fraction_rows(part))
            assert quadrant == part
        # a random operand of small fractions, against the same reference
        w = random_dense(QQ, n, rng)
        w = DenseMatrix(n, [[v * Rational(1, rng.randint(1, 9)) for v in row] for row in w.rows], QQ)
        assert_packed(mul(from_dense(w), bx), fraction_product(fraction_rows(from_dense(w)), fx))


def test_equality_compares_values_over_different_denominators():
    x, _ = mixed_denominator_operands(QQ, 8)
    m = from_dense(x)
    for quadrant in m.blocks:
        rebuilt = from_dense(to_dense(quadrant))
        assert quadrant == rebuilt and rebuilt == quadrant
    # the top-left quadrant keeps the denominator of all 64 entries, its own
    # entries need only 4 of its primes
    assert m.a._den != from_dense(to_dense(m.a))._den
    changed = to_dense(m.a)
    changed.rows[0][0] = changed.rows[0][0] + Rational(1, 3)
    assert m.a != from_dense(changed)
    assert m.a != map_leaves(m.a, lambda v: GF(7).from_int(0))


def test_negative_leaf_inverts_over_a_positive_denominator():
    for value in (Rational(-3, 7), Rational(-5), Rational(2, 9), Rational(4)):
        inverse = invert_leaf(BlockMatrix.leaf(value))
        assert inverse._den > 0 and inverse.scalar == value.try_invert()
    assert invert_leaf(BlockMatrix.leaf(Rational(0))) is None
    m = ring_mat(QQ, [[-2, 1], [3, -4]])
    inverse = schur_invert(m)
    assert inverse._den > 0
    assert grid(inverse) == [["-4/5", "-1/5"], ["-3/5", "-2/5"]]


@given(st.lists(st.lists(small_rationals, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=40)
def test_qq_pack_unpack_round_trip_property(values):
    rows, den = QQ.pack([[Rational(v) for v in row] for row in values])
    assert den > 0 and all(type(v) is int for row in rows for v in row)
    # the whole-matrix denominator is the least one: no prime of it divides every entry
    assert gcd(den, *[v for row in rows for v in row]) == 1
    assert [[x.value for x in row] for row in QQ.unpack(rows, den)] == values


@given(dense_strategy(4), dense_strategy(4), dense_strategy(4), st.sampled_from([1, -1]), st.booleans())
@settings(max_examples=40)
def test_fused_mul_matches_schoolbook_on_fractions_property(dx, dy, dz, sign, with_addend):
    fused = mul(from_dense(dx), from_dense(dy), sign=sign, addend=from_dense(dz) if with_addend else None)
    product = schoolbook_mul(dx, dy)
    expected = [[sign * v.value for v in row] for row in product.rows]
    if with_addend:
        expected = [[e + z.value for e, z in zip(row, z_row)] for row, z_row in zip(expected, dz.rows)]
    assert_packed(fused, expected)
