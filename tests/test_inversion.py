import random

import pytest

from blocklin import (
    GF,
    QQ,
    QQ_I,
    QUAT,
    ConjugationKind,
    DenseMatrix,
    GramMatrix,
    GramSingular,
    OpCounter,
    PivotBlockSingular,
    RatFun,
    SingularMatrix,
    auto_invert,
    from_dense,
    gauss_jordan_inverse,
    hermitian_invert,
    identity,
    invert_gram_gv,
    invert_gram_star,
    invert_gram_transpose,
    is_invertible,
    lift_to_ratfun,
    mul,
    schur_invert,
    to_dense,
    transpose,
    zero_matrix,
)
from blocklin.complexity import (
    closed_form_T_inv,
    recurrence_T_hermitian,
    recurrence_T_inv,
)
from blocklin.dense import dense_determinant
from blocklin.sampling import random_dense, random_matrix

from conftest import grid, ring_dense, ring_mat, witness_all_blocks_singular


def random_invertible_dense(ring, n, rng):
    while True:
        dense = random_dense(ring, n, rng)
        if not dense_determinant(dense).is_zero():
            return dense


def assert_two_sided_inverse(m, inv):
    eye = identity(m.depth, m.ring)
    assert mul(m, inv) == eye
    assert mul(inv, m) == eye


# -- schur_invert ---------------------------------------------------------------


def test_schur_diagonal():
    m = ring_mat(QQ, [[2, 0], [0, 3]])
    assert grid(schur_invert(m)) == [["1/2", "0"], ["0", "1/3"]]


def test_schur_generic():
    m = ring_mat(QQ, [[1, 2], [3, 4]])
    assert grid(schur_invert(m)) == [["-2", "1"], ["3/2", "-1/2"]]


def test_schur_zero_pivot_block():
    with pytest.raises(PivotBlockSingular) as info:
        schur_invert(ring_mat(QQ, [[0, 1], [1, 0]]))
    assert info.value.path == ("A",)


def test_schur_random_round_trip(rng):
    for n in (2, 4, 8):
        dense = random_invertible_dense(QQ, n, rng)
        try:
            inv = schur_invert(from_dense(dense))
        except PivotBlockSingular:
            continue
        assert to_dense(inv) == gauss_jordan_inverse(dense)


# -- hermitian_invert -------------------------------------------------------------


def test_hermitian_identity_count():
    counter = OpCounter()
    out = hermitian_invert(GramMatrix(identity(1, QQ), ConjugationKind.TRANSPOSE), counter)
    assert out == identity(1, QQ)
    assert counter.muldiv == 6


def test_hermitian_small_example():
    gram = ring_mat(QQ, [[2, 1], [1, 1]])
    assert grid(
        hermitian_invert(GramMatrix(gram, ConjugationKind.TRANSPOSE))
    ) == [["1", "-1"], ["-1", "2"]]


def test_hermitian_singular():
    with pytest.raises(GramSingular):
        hermitian_invert(GramMatrix(zero_matrix(1, QQ), ConjugationKind.TRANSPOSE))


@pytest.mark.parametrize("n, expect", [(2, 6), (4, 44), (8, 344)])
def test_hermitian_count_law(n, expect, rng):
    assert recurrence_T_hermitian(n) == expect
    dense = random_invertible_dense(QQ, n, rng)
    m = from_dense(dense)
    gram = mul(transpose(m), m)
    counter = OpCounter()
    inv = hermitian_invert(GramMatrix(gram, ConjugationKind.TRANSPOSE), counter)
    assert counter.muldiv == expect
    # exactly one division per diagonal leaf: every leading-block inversion
    # is attempted exactly once, with no pivot search anywhere
    assert counter.div_count == n
    assert_two_sided_inverse(gram, inv)


def test_hermitian_never_pivots_on_valid_grams(rng):
    # there is no pivot-search code path: every random Gram of an invertible
    # matrix must invert in one pass
    for _ in range(25):
        dense = random_invertible_dense(QQ, 8, rng)
        m = from_dense(dense)
        gram = mul(transpose(m), m)
        hermitian_invert(GramMatrix(gram, ConjugationKind.TRANSPOSE))


# -- invert_gram_transpose ---------------------------------------------------------


def test_gram_transpose_permutation_matrix():
    m = ring_mat(QQ, [[0, 1], [1, 0]])
    assert grid(invert_gram_transpose(m)) == [["0", "1"], ["1", "0"]]


def test_gram_transpose_example():
    m = ring_mat(QQ, [[1, 1], [1, 0]])
    assert grid(invert_gram_transpose(m)) == [["0", "1"], ["1", "-1"]]


def test_gram_transpose_on_all_singular_blocks_witness():
    m4 = witness_all_blocks_singular()
    inv = invert_gram_transpose(m4)
    assert to_dense(inv) == gauss_jordan_inverse(to_dense(m4))
    assert_two_sided_inverse(m4, inv)


def test_gram_transpose_singular_input():
    with pytest.raises(SingularMatrix):
        invert_gram_transpose(ring_mat(QQ, [[1, 1], [1, 1]]))


@pytest.mark.parametrize("n, expect", [(2, 22), (4, 204), (8, 1688)])
def test_gram_transpose_count_law(n, expect, rng):
    assert recurrence_T_inv(n) == expect
    assert closed_form_T_inv(n) == expect
    counter = OpCounter()
    dense = random_invertible_dense(QQ, n, rng)
    invert_gram_transpose(from_dense(dense), counter)
    assert counter.muldiv == expect


# -- invert_gram_star ---------------------------------------------------------------


def test_gram_star_gaussian_examples():
    i = QQ_I.parse("i")
    m = from_dense(DenseMatrix(2, [[QQ_I.zero(), i], [i, QQ_I.zero()]], QQ_I))
    assert grid(invert_gram_star(m)) == [["0", "-1*i"], ["-1*i", "0"]]
    upper = from_dense(DenseMatrix(2, [[QQ_I.one(), i], [QQ_I.zero(), QQ_I.one()]], QQ_I))
    assert grid(invert_gram_star(upper)) == [["1", "-1*i"], ["0", "1"]]


def test_gram_star_quaternion_leaf():
    j = QUAT.parse("j")
    m = from_dense(DenseMatrix(1, [[j]], QUAT))
    assert grid(invert_gram_star(m)) == [["-1*j"]]


def test_gram_star_singular_input():
    with pytest.raises(SingularMatrix):
        invert_gram_star(zero_matrix(1, QQ_I))
    rows = [[QUAT.parse("j"), QUAT.parse("j")], [QUAT.parse("j"), QUAT.parse("j")]]
    with pytest.raises(SingularMatrix):
        invert_gram_star(from_dense(DenseMatrix(2, rows, QUAT)))


def test_gram_star_quaternion_round_trips(rng):
    for _ in range(10):
        m = random_matrix(QUAT, 1, rng)
        try:
            inv = invert_gram_star(m)
        except SingularMatrix:
            continue
        assert_two_sided_inverse(m, inv)


# -- invert_gram_gv -------------------------------------------------------------------


def test_gv_example_gf2_with_intermediates():
    g2 = GF(2)
    m = ring_mat(g2, [[1, 1], [1, 0]])
    lifted = lift_to_ratfun(m)
    from blocklin import circ_conjugate

    conj = circ_conjugate(lifted)
    assert grid(conj) == [["(1)", "(1*t)"], ["(1)/(1*t)", "(0)"]]
    gram = mul(conj, lifted)
    assert grid(gram) == [["(1+1*t)", "(1)"], ["(1)/(1*t)", "(1)/(1*t)"]]
    assert grid(invert_gram_gv(m)) == [["0", "1"], ["1", "1"]]


def test_gv_identity_gf5():
    g5 = GF(5)
    assert invert_gram_gv(identity(2, g5)) == identity(2, g5)


def test_gv_singular_gf3():
    with pytest.raises(SingularMatrix):
        invert_gram_gv(ring_mat(GF(3), [[1, 1], [1, 1]]))


@pytest.mark.parametrize("base", [GF(2), GF(7), QQ], ids=lambda r: r.spec)
def test_gv_matches_oracle(base, rng):
    for n in (2, 4):
        dense = random_invertible_dense(base, n, rng)
        inv = invert_gram_gv(from_dense(dense))
        assert to_dense(inv) == gauss_jordan_inverse(dense)


def test_gv_pre_projection_entries_are_constant(rng):
    from blocklin import circ_conjugate

    g2 = GF(2)
    dense = random_invertible_dense(g2, 4, rng)
    lifted = lift_to_ratfun(from_dense(dense))
    conj = circ_conjugate(lifted)
    gram = GramMatrix(mul(conj, lifted), ConjugationKind.CIRC)
    pre = mul(hermitian_invert(gram), conj)
    for row in to_dense(pre).rows:
        for entry in row:
            assert entry.den.degree() == 0
            assert entry.num.degree() <= 0


# -- gram symmetries --------------------------------------------------------------


def test_transpose_gram_symmetry(rng):
    m = random_matrix(QQ, 2, rng)
    gram = to_dense(mul(transpose(m), m))
    for i in range(4):
        for j in range(4):
            assert gram.rows[j][i] == gram.rows[i][j]


def test_star_gram_symmetry(rng):
    from blocklin import adjoint

    for ring in (QQ_I, QUAT):
        m = random_matrix(ring, 2, rng)
        gram = to_dense(mul(adjoint(m), m))
        for i in range(4):
            for j in range(4):
                assert gram.rows[j][i] == gram.rows[i][j].star()


def test_circ_gram_symmetry(rng):
    from blocklin import circ_conjugate

    ring = RatFun(GF(7))
    m = lift_to_ratfun(random_matrix(GF(7), 2, rng))
    gram = to_dense(mul(circ_conjugate(m), m))
    for i in range(4):
        for j in range(i, 4):
            assert gram.rows[j][i] == ring.t_power(i - j) * gram.rows[i][j]


# -- auto_invert / is_invertible ----------------------------------------------------


def test_auto_takes_schur_path():
    m = ring_mat(QQ, [[1, 2], [3, 4]])
    assert grid(auto_invert(m)) == [["-2", "1"], ["3/2", "-1/2"]]


def test_auto_falls_back_on_pivot_failure():
    m = ring_mat(QQ, [[0, 1], [1, 0]])
    assert grid(auto_invert(m)) == [["0", "1"], ["1", "0"]]


def test_auto_singular():
    with pytest.raises(SingularMatrix):
        auto_invert(zero_matrix(1, QQ))


def test_auto_dispatches_prime_fields_through_lift():
    g2 = GF(2)
    m = ring_mat(g2, [[0, 1], [1, 0]])
    with pytest.raises(PivotBlockSingular):
        schur_invert(m)
    assert auto_invert(m) == m
    assert is_invertible(m)


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(7), QQ_I], ids=lambda r: r.spec)
def test_auto_matches_oracle(ring, rng):
    for n in (2, 4, 8):
        dense = random_invertible_dense(ring, n, rng)
        inv = auto_invert(from_dense(dense))
        assert to_dense(inv) == gauss_jordan_inverse(dense)


def test_auto_counts_only_the_successful_path():
    # pivot failure on the direct path must not leak counts from it
    m = ring_mat(QQ, [[0, 1], [1, 0]])
    direct = OpCounter()
    invert_gram_transpose(m, direct)
    routed = OpCounter()
    auto_invert(m, routed)
    assert routed.snapshot() == direct.snapshot()


def test_is_invertible_examples():
    assert is_invertible(identity(2, QQ))
    assert not is_invertible(zero_matrix(2, QQ))
    assert is_invertible(witness_all_blocks_singular())
    assert dense_determinant(to_dense(witness_all_blocks_singular())) == QQ.from_int(-1)


def test_is_invertible_over_ratfun_prime_field():
    # no Gram driver exists for this ring, so a failed Schur attempt is
    # settled by a determinant instead of escaping as PivotBlockSingular
    ring = RatFun(GF(7))
    zero, one, t = ring.zero(), ring.one(), ring.t_power(1)

    def block(rows):
        return from_dense(DenseMatrix(2, rows, ring))

    assert is_invertible(block([[zero, one], [one, zero]]))
    assert not is_invertible(block([[one, t], [one, t]]))
    assert not is_invertible(block([[zero, t], [zero, one]]))
