import random

import pytest

from blocklin import (
    GF,
    LOWER,
    QQ,
    QQ_I,
    QUAT,
    UPPER,
    AllBlocksSingular,
    BlockMatrix,
    DepthMismatch,
    OpCounter,
    PivotBlockSingular,
    RandomnessExhausted,
    RatFun,
    SingularDiagonal,
    SingularMatrix,
    TriangularMatrix,
    apply_permutation,
    block_pivot,
    from_dense,
    identity,
    ldu,
    lu_decompose,
    mul,
    negate,
    randomized_lu,
    to_dense,
    tri_invert,
    tri_mul,
    zero_matrix,
)
from blocklin import lu as lu_mod
from blocklin.complexity import (
    recurrence_T_lu,
    recurrence_T_triinv,
    recurrence_T_trimul,
)
from blocklin.dense import DenseMatrix, dense_determinant
from blocklin.sampling import (
    random_all_blocks_singular,
    random_dense,
    random_matrix,
    random_triangular,
)

from conftest import grid, ring_mat, schoolbook_mul, stable_seed, witness_all_blocks_singular


def random_invertible_block(ring, depth, rng):
    while True:
        dense = random_dense(ring, 1 << depth, rng)
        if not dense_determinant(dense).is_zero():
            return from_dense(dense)


# -- block_pivot -----------------------------------------------------------------


# GF(7): the leading block A is singular, C is invertible
SINGULAR_A_ROWS = [[1, 2, 1, 0], [3, 6, 0, 1], [2, 1, 5, 5], [1, 1, 0, 3]]


def assert_lead_factors(pivoted):
    """The returned factorization is one of the arranged leading block."""
    arranged, lead = pivoted[2], pivoted[3]
    assert lead.reconstruct() == arranged.a
    assert lead.l.is_structurally_valid() and lead.u.is_structurally_valid()


def test_block_pivot_keeps_invertible_leading_block():
    m = ring_mat(QQ, [[1, 2], [3, 4]])
    pivoted = block_pivot(m)
    assert pivoted[:3] == (False, False, m)
    assert_lead_factors(pivoted)


def test_block_pivot_row_swap():
    m = ring_mat(QQ, [[0, 1], [1, 0]])
    pivoted = block_pivot(m)
    assert pivoted[:3] == (True, False, identity(1, QQ))
    assert_lead_factors(pivoted)


def test_block_pivot_precedence_prefers_row_swap():
    # A singular; B, C, D all invertible: the row swap (C) wins
    m = ring_mat(QQ, [[0, 1], [1, 1]])
    pivoted = block_pivot(m)
    assert pivoted[:2] == (True, False)
    assert_lead_factors(pivoted)


def test_block_pivot_column_then_both():
    for rows, swaps in (([[0, 1], [0, 1]], (False, True)), ([[0, 0], [0, 1]], (True, True))):
        pivoted = block_pivot(ring_mat(QQ, rows))
        assert pivoted[:2] == swaps
        assert_lead_factors(pivoted)


def test_block_pivot_counts_only_the_kept_lead():
    # A is probed first and rejected; only C's factorization is counted
    m = ring_mat(GF(7), SINGULAR_A_ROWS)
    counter = OpCounter()
    pivoted = block_pivot(m, counter)
    assert pivoted[:2] == (True, False)
    assert_lead_factors(pivoted)
    alone = OpCounter()
    lu_decompose(m.c, alone)
    assert counter.snapshot() == alone.snapshot()


def test_block_pivot_all_blocks_singular():
    with pytest.raises(AllBlocksSingular):
        block_pivot(witness_all_blocks_singular())


# -- tri_mul ----------------------------------------------------------------------


def test_tri_mul_example():
    lower = TriangularMatrix(ring_mat(QQ, [[1, 0], [2, 1]]), LOWER, True)
    g = ring_mat(QQ, [[1, 1], [1, 1]])
    assert grid(tri_mul(lower, g, "left")) == [["1", "1"], ["3", "3"]]


def test_tri_mul_identity_counts_six():
    eye = TriangularMatrix(identity(1, QQ), LOWER, True)
    g = ring_mat(QQ, [[5, 6], [7, 8]])
    counter = OpCounter()
    assert tri_mul(eye, g, "left", counter) == g
    assert counter.muldiv == 6


@pytest.mark.parametrize("n, expect", [(2, 6), (4, 40), (8, 288), (16, 2176)])
def test_tri_mul_count_law(n, expect, rng):
    assert recurrence_T_trimul(n) == expect == (n ** 3 + n ** 2) // 2
    tm = random_triangular(QQ, n.bit_length() - 1, rng, LOWER)
    g = random_matrix(QQ, n.bit_length() - 1, rng)
    counter = OpCounter()
    tri_mul(tm, g, "left", counter)
    assert counter.muldiv == expect


# the rings the triangular kernels are checked on; they are looped inside the
# tests rather than parametrized, so the test IDs stay one per orientation/side
TRI_RINGS = [QQ, QQ_I, QUAT, GF(2), GF(7), GF(65521), RatFun(QQ)]


def tri_cases(name, *parts):
    """(ring, depth, rng) for depths 0-3 on each ring, 0-2 over K(t)."""
    for ring in TRI_RINGS:
        rng = random.Random(stable_seed(name, ring.spec, *parts))
        for depth in range(3 if ring.spec.startswith("ratfun") else 4):
            yield ring, depth, rng


@pytest.mark.parametrize("orientation", [LOWER, UPPER])
@pytest.mark.parametrize("side", ["left", "right"])
def test_tri_mul_all_variants_match_general_product(orientation, side):
    # tri_mul runs on mul's kernel, so the reference is the schoolbook dense
    # product; over QUAT the right side checks that the factor order g*T is kept
    for ring, depth, rng in tri_cases("tri_mul", orientation, side):
        n = 1 << depth
        tm = random_triangular(ring, depth, rng, orientation)
        g = random_matrix(ring, depth, rng)
        pair = (tm.body, g) if side == "left" else (g, tm.body)
        expected = from_dense(schoolbook_mul(*map(to_dense, pair)))
        counter, negated = OpCounter(), OpCounter()
        assert tri_mul(tm, g, side, counter) == expected, (ring.spec, depth)
        assert counter.snapshot() == {
            "mul": (n**3 + n**2) // 2,
            "div": 0,
            "add": n * n * (n - 1) // 2,
            "scaling": 0,
        }, (ring.spec, depth)
        # the sign is folded into the same kernel and, like negate, is free
        assert tri_mul(tm, g, side, negated, sign=-1) == negate(expected), (ring.spec, depth)
        assert negated.snapshot() == counter.snapshot()


def test_tri_mul_depth_mismatch():
    tm = TriangularMatrix(identity(1, QQ), LOWER, True)
    with pytest.raises(DepthMismatch):
        tri_mul(tm, identity(2, QQ), "left")


# -- tri_invert --------------------------------------------------------------------


def test_tri_invert_identity_and_unit_example():
    eye = TriangularMatrix(identity(2, QQ), LOWER, True)
    assert tri_invert(eye).body == identity(2, QQ)
    unit = TriangularMatrix(ring_mat(QQ, [[1, 0], [2, 1]]), LOWER, True)
    assert grid(tri_invert(unit).body) == [["1", "0"], ["-2", "1"]]


@pytest.mark.parametrize("n, expect", [(2, 4), (4, 20), (8, 120)])
def test_tri_invert_count_law(n, expect, rng):
    assert recurrence_T_triinv(n) == expect
    tm = random_triangular(QQ, n.bit_length() - 1, rng, LOWER)
    counter = OpCounter()
    inv = tri_invert(tm, counter)
    assert counter.muldiv == expect
    assert mul(tm.body, inv.body) == identity(tm.depth, QQ)


@pytest.mark.parametrize("orientation", [LOWER, UPPER])
def test_structural_validity_rejects_broken_triangles(orientation):
    n, lower = 8, orientation == LOWER

    def valid(edit, unit_diagonal):
        # unit diagonal, nonzero entries on the triangular side, then one edit
        rows = [[1 if i == j else (i + 2 * j) % 5 + 1 if (i > j) == lower else 0 for j in range(n)] for i in range(n)]
        for (i, j), value in edit.items():
            rows[i][j] = value
        return TriangularMatrix(ring_mat(QQ, rows), orientation, unit_diagonal).is_structurally_valid()

    assert valid({}, True)
    # (4, 5) lies in the structural-zero block of the 2x2 node two levels down at rows/cols 4-5
    nonzero_in_zero_block = {(4, 5) if lower else (5, 4): 3}
    zero_diagonal = {(6, 6): 0}
    for edit in (nonzero_in_zero_block, zero_diagonal):
        assert not valid(edit, False) and not valid(edit, True)
    non_unit_diagonal = {(3, 3): 2}
    assert not valid(non_unit_diagonal, True) and valid(non_unit_diagonal, False)


@pytest.mark.parametrize("orientation", [LOWER, UPPER])
def test_tri_invert_structure_and_round_trip(orientation):
    for ring, depth, rng in tri_cases("tri_invert", orientation):
        tm = random_triangular(ring, depth, rng, orientation)
        counter = OpCounter()
        inv = tri_invert(tm, counter)
        assert counter.muldiv == recurrence_T_triinv(1 << depth), (ring.spec, depth)
        assert inv.orientation == orientation
        assert inv.is_structurally_valid(), (ring.spec, depth)
        assert mul(inv.body, tm.body) == identity(depth, ring), (ring.spec, depth)


def test_tri_invert_singular_diagonal():
    tm = TriangularMatrix(ring_mat(QQ, [[1, 0], [2, 0]]), LOWER, False)
    with pytest.raises(SingularDiagonal) as info:
        tri_invert(tm)
    assert info.value.path == ("D",)


# -- ldu ----------------------------------------------------------------------------


def test_ldu_example():
    lb, db, ub = ldu(ring_mat(QQ, [[1, 2], [3, 4]]))
    assert grid(lb) == [["1", "0"], ["3", "1"]]
    assert grid(db) == [["1", "0"], ["0", "-2"]]
    assert grid(ub) == [["1", "2"], ["0", "1"]]


def test_ldu_diagonal_input():
    m = ring_mat(QQ, [[2, 0], [0, 3]])
    lb, db, ub = ldu(m)
    assert lb == identity(1, QQ) and ub == identity(1, QQ)
    assert db == m


def test_ldu_pivot_failure():
    with pytest.raises(PivotBlockSingular):
        ldu(ring_mat(QQ, [[0, 1], [1, 0]]))


def test_ldu_reconstruction(rng):
    for depth in (1, 2, 3):
        m = random_invertible_block(QQ, depth, rng)
        try:
            lb, db, ub = ldu(m)
        except PivotBlockSingular:
            continue
        assert mul(mul(lb, db), ub) == m


# -- permutation vectors ---------------------------------------------------------


def test_apply_identity_vector(rng):
    m = random_matrix(QQ, 2, rng)
    for side in ("rows", "cols"):
        for inverse in (False, True):
            assert apply_permutation((0, 1, 2, 3), m, side, inverse=inverse) is m


def test_single_swap_semantics(rng):
    m = random_matrix(QQ, 2, rng)
    swap = (2, 3, 0, 1)
    swapped = apply_permutation(swap, m, "rows")
    assert swapped.a == m.c and swapped.b == m.d
    assert swapped.c == m.a and swapped.d == m.b
    # a single block swap is an involution
    assert apply_permutation(swap, swapped, "rows") == m
    cols = apply_permutation(swap, m, "cols")
    assert cols.a == m.b and cols.c == m.d


def test_vector_matches_application(rng):
    vec = [2, 3, 1, 0]
    m = random_matrix(QQ, 2, rng)
    dense = to_dense(m)
    permuted = to_dense(apply_permutation(vec, m, "rows"))
    for i in range(4):
        assert permuted.rows[i] == dense.rows[vec[i]]
    cols = to_dense(apply_permutation(vec, m, "cols"))
    for j in range(4):
        for i in range(4):
            assert cols.rows[i][j] == dense.rows[i][vec[j]]


def test_inverse_application_round_trip(rng):
    m = random_matrix(QQ, 3, rng)
    dense = to_dense(m)
    for vec in ((3, 2, 1, 0, 5, 4, 6, 7), (6, 7, 5, 4, 1, 0, 2, 3)):
        for side in ("rows", "cols"):
            forward = apply_permutation(vec, m, side)
            assert apply_permutation(vec, forward, side, inverse=True) == m
        back = to_dense(apply_permutation(vec, m, "rows", inverse=True))
        for i in range(8):
            assert back.rows[vec[i]] == dense.rows[i]


def test_apply_depth_mismatch():
    with pytest.raises(DepthMismatch):
        apply_permutation((1, 0), identity(2, QQ), "rows")


@pytest.mark.parametrize("vec", [(0, 0, 1, 2), (0, 1, 2, 4), (1, 2, 3, -1)])
def test_apply_rejects_non_permutation(vec):
    with pytest.raises(ValueError, match="not a permutation"):
        apply_permutation(vec, identity(2, QQ), "rows")


@pytest.mark.parametrize("vec", [(0, 2, 1, 3), (1, 3, 0, 2), (0, 1, 3, 2, 4, 6, 5, 7)])
def test_apply_rejects_vector_that_is_not_nested_block_swaps(vec):
    m = identity(len(vec).bit_length() - 1, QQ)
    for inverse in (False, True):
        with pytest.raises(ValueError, match="not nested block swaps"):
            apply_permutation(vec, m, "cols", inverse=inverse)


# -- lu_decompose -----------------------------------------------------------------


def test_lu_example():
    res = lu_decompose(ring_mat(QQ, [[1, 2], [3, 4]]))
    assert res.p == res.q == (0, 1)
    assert grid(res.l.body) == [["1", "0"], ["3", "1"]]
    assert grid(res.u.body) == [["1", "2"], ["0", "-2"]]


def test_lu_row_swap_example():
    res = lu_decompose(ring_mat(QQ, [[0, 1], [1, 0]]))
    assert res.l.body == identity(1, QQ)
    assert res.u.body == identity(1, QQ)
    assert res.p == (1, 0)
    assert res.q == (0, 1)


def test_lu_identity_any_depth():
    for depth in (1, 2, 3):
        res = lu_decompose(identity(depth, QQ))
        assert res.p == res.q == tuple(range(1 << depth))
        assert res.l.body == identity(depth, QQ)
        assert res.u.body == identity(depth, QQ)


def test_lu_singular_input():
    with pytest.raises((SingularMatrix, RandomnessExhausted)):
        lu_decompose(ring_mat(QQ, [[1, 2], [2, 4]]))
    with pytest.raises(SingularMatrix):
        lu_decompose(zero_matrix(1, QQ))


@pytest.mark.parametrize(
    "ring, per_depth",
    [
        (QQ, {1: 40, 2: 30, 3: 20, 4: 10}),
        (GF(7), {1: 40, 2: 30, 3: 20, 4: 10}),
    ],
    ids=lambda v: getattr(v, "spec", "sizes"),
)
def test_lu_reconstruction_100_per_ring(ring, per_depth):
    rng = random.Random(stable_seed("lu-100", ring.spec))
    for depth, count in per_depth.items():
        for _ in range(count):
            m = random_invertible_block(ring, depth, rng)
            res = lu_decompose(m)
            assert res.reconstruct() == m
            assert res.l.unit_diagonal and res.l.orientation == LOWER
            assert res.u.orientation == UPPER
            assert res.l.is_structurally_valid()
            assert res.u.is_structurally_valid()


@pytest.mark.parametrize("ring", [QQ_I, QUAT, RatFun(GF(7))], ids=lambda r: r.spec)
def test_lu_reconstruction_other_rings(ring, rng):
    for depth in (1, 2):
        for _ in range(5):
            m = random_matrix(ring, depth, rng)
            try:
                res = lu_decompose(m)
            except (SingularMatrix, PivotBlockSingular, RandomnessExhausted):
                continue
            assert res.reconstruct() == m


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_lu_count_law(n, rng):
    m = random_invertible_block(QQ, n.bit_length() - 1, rng)
    counter = OpCounter()
    lu_decompose(m, counter)
    assert counter.muldiv == recurrence_T_lu(n, leaf_cost=0)


def test_lu_counts_unchanged_by_pivoting():
    plain = OpCounter()
    lu_decompose(ring_mat(QQ, [[1, 2], [3, 4]]), plain)
    swapped = OpCounter()
    lu_decompose(ring_mat(QQ, [[0, 1], [1, 2]]), swapped)
    assert plain.muldiv == swapped.muldiv


def test_permutation_vectors_reconstruct_dense(rng):
    m = random_invertible_block(QQ, 2, rng)
    res = lu_decompose(m)
    pvec, qvec = res.permutation_vectors()
    product = to_dense(mul(res.l.body, res.u.body))
    dense = to_dense(m)
    for i in range(4):
        for j in range(4):
            assert dense.rows[i][j] == product.rows[pvec[i]][qvec[j]]


# -- randomized_lu -----------------------------------------------------------------


def lu_able_matrix(ring, depth, rng):
    low = random_triangular(ring, depth, rng, LOWER, unit_diagonal=True)
    up = random_triangular(ring, depth, rng, UPPER)
    return mul(low.body, up.body)


def test_randomized_deterministic_and_exact(rng):
    m = lu_able_matrix(QQ, 2, rng)
    first = randomized_lu(m)
    second = randomized_lu(m)
    assert first[0].body == second[0].body and first[1].body == second[1].body
    low, up = first
    assert mul(low.body, up.body) == m
    assert low.unit_diagonal and low.is_structurally_valid()
    assert up.is_structurally_valid()


def test_randomized_identity():
    eye = identity(2, QQ)
    low, up = randomized_lu(eye)
    assert low.body == eye and up.body == eye


def test_randomized_gf2_stays_in_base_field(rng):
    m = lu_able_matrix(GF(2), 2, rng)
    low, up = randomized_lu(m)
    assert low.body.ring.spec == "gf:2"
    assert mul(low.body, up.body) == m


def test_randomized_small_odd_prime(rng):
    m = lu_able_matrix(GF(3), 2, rng)
    low, up = randomized_lu(m)
    assert low.body.ring.spec == "gf:3"
    assert mul(low.body, up.body) == m
    assert low.is_structurally_valid() and up.is_structurally_valid()


def test_randomized_zero_is_singular():
    with pytest.raises(SingularMatrix):
        randomized_lu(zero_matrix(1, QQ))


def test_randomized_exhausts_on_singular_leading_minor():
    # M = L*U with triangular factors needs every leading minor nonzero, and
    # the witness's leading half-block is singular
    with pytest.raises(RandomnessExhausted):
        randomized_lu(witness_all_blocks_singular())


# -- pivoting by factoring ---------------------------------------------------------


def test_witness_error_carries_root_path():
    m = witness_all_blocks_singular()
    for factor in (lu_decompose, randomized_lu):
        with pytest.raises(RandomnessExhausted) as info:
            factor(m)
        assert info.value.path == ()


def test_lu_needs_no_invertibility_test_when_pivots_factor(monkeypatch):
    def refuse(m):
        raise AssertionError("is_invertible called on a factorable input")

    monkeypatch.setattr(lu_mod, "is_invertible", refuse)
    rng = random.Random(stable_seed("no-is-invertible"))
    strong = lu_able_matrix(QQ, 3, rng)
    res = lu_decompose(strong)
    assert res.p == res.q == tuple(range(8))
    assert res.reconstruct() == strong
    # GF(7), A singular: the candidate A is rejected by factoring it
    m = ring_mat(GF(7), SINGULAR_A_ROWS)
    res = lu_decompose(m)
    assert res.p[:2] == (2, 3)
    assert res.reconstruct() == m


# GF(2), n=16: quadrants A and C are singular, B is invertible
NESTED_ROWS = [
    "1110111100001000", "0100100010011110", "0011010100001010", "1010111101111011",
    "0000100110000110", "0000100010100010", "1011000011011100", "1010011100100101",
    "1100110101010111", "1110100000010111", "0100011001001100", "0111110100001011",
    "0100011000010010", "0011101000011100", "0100000010010110", "0010000110011001",
]


def test_singular_candidate_failing_below_an_invertible_block_is_skipped():
    m = ring_mat(GF(2), [[int(x) for x in row] for row in NESTED_ROWS])
    # probing C keeps an invertible block of C whose quadrants are all
    # singular, so the probe ends in RandomnessExhausted, not SingularMatrix
    assert dense_determinant(to_dense(m.c)).is_zero()
    with pytest.raises(RandomnessExhausted):
        lu_decompose(m.c)
    assert block_pivot(m)[:2] == (False, True)
    res = lu_decompose(m)
    assert res.reconstruct() == m
    assert res.l.is_structurally_valid() and res.u.is_structurally_valid()


def test_lu_factors_ratfun_over_prime_field():
    # Schur inversion of the leading block [[0, t], [1, 0]] fails and
    # K(t) over GF(p) has no Gram driver, so an invertibility test by
    # inversion could not decide it; factoring it with a swap does
    ring = RatFun(GF(7))
    t = ring.t_power(1)
    one, zero = ring.one(), ring.zero()
    rows = [
        [zero, t, one, zero],
        [one, zero, zero, one],
        [zero, zero, one, t],
        [one, one, zero, one],
    ]
    dense = DenseMatrix(4, rows, ring)
    assert not dense_determinant(dense).is_zero()
    m = from_dense(dense)
    res = lu_decompose(m)
    assert res.reconstruct() == m
    assert res.l.is_structurally_valid() and res.u.is_structurally_valid()


def test_structural_zeros_hold_after_factor_products(rng):
    m = random_invertible_block(QQ, 3, rng)
    res = lu_decompose(m)
    dense_l = to_dense(res.l.body)
    dense_u = to_dense(res.u.body)
    n = dense_l.n
    for i in range(n):
        assert dense_l.rows[i][i] == QQ.one()
        for j in range(i + 1, n):
            assert dense_l.rows[i][j].is_zero()
            assert dense_u.rows[j][i].is_zero()
        assert not dense_u.rows[i][i].is_zero()
