import itertools
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
    NonConstantResidue,
    OpCounter,
    PivotBlockSingular,
    RatFun,
    SingularMatrix,
    auto_invert,
    from_dense,
    hermitian_invert,
    identity,
    invert_gram_gv,
    invert_gram_star,
    invert_gram_transpose,
    is_invertible,
    lift_to_ratfun,
    map_leaves,
    mul,
    project_to_base,
    schur_invert,
    to_dense,
    transpose,
    zero_matrix,
)
from blocklin import cli, inversion
from blocklin.cyclotomic import lift_field
from blocklin.complexity import (
    closed_form_T_inv,
    recurrence_T_hermitian,
    recurrence_T_inv,
)
from blocklin.dense import dense_determinant
from blocklin.rings import ring_from_spec
from blocklin.sampling import random_all_blocks_singular, random_dense, random_matrix

from conftest import gauss_jordan_inverse, grid, ring_dense, ring_mat, stable_seed, witness_all_blocks_singular


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
            assert len(entry.den) == 1 and len(entry.num) <= 1


@pytest.mark.parametrize(
    "field, base", [(RatFun(QQ), QQ), (lift_field(7, 8), GF(7))], ids=["ratfun:q", "lift:7"]
)
def test_project_to_base_names_the_first_non_constant_entry(field, base):
    def lifted(n, non_constant):
        rows = [[field.lift(base.from_int(i + 2 * j)) for j in range(n)] for i in range(n)]
        for i, j in non_constant:
            rows[i][j] = rows[i][j] + field.t_power(1)
        return from_dense(DenseMatrix(n, rows, field))

    expected = ring_mat(base, [[i + 2 * j for j in range(4)] for i in range(4)])
    assert project_to_base(lifted(4, []), base) == expected
    with pytest.raises(NonConstantResidue) as err:
        project_to_base(lifted(4, [(1, 2)]), base)
    assert err.value.row == 1 and err.value.col == 2
    # row-major order: (0, 4) is reported, though (1, 0) lies in the leading block
    with pytest.raises(NonConstantResidue) as err:
        project_to_base(lifted(8, [(1, 0), (0, 4)]), base)
    assert (err.value.row, err.value.col) == (0, 4)


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


def test_auto_reraises_pivot_failure_without_gram_driver(tmp_path, capsys):
    # K(t) over GF(7) has no Gram driver, so the Schur failure is the answer
    ring = ring_from_spec("ratfun:gf:7")
    assert inversion.gram_driver(ring) is None
    with pytest.raises(PivotBlockSingular) as info:
        auto_invert(ring_mat(ring, [[0, 1], [1, 0]]))
    assert info.value.path == ("A",)
    m = tmp_path / "m.mat"
    m.write_text("ring ratfun:gf:7\nsize 2\n(0) (1)\n(1) (0)\n")
    out = tmp_path / "inv.mat"
    assert cli.main(["invert", str(m), "--method", "auto", "-o", str(out)]) == 4
    assert capsys.readouterr().err == "error: pivot block singular at node A\n"
    assert not out.exists()


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
    # no Gram driver exists for this ring, so auto_invert cannot decide
    # these; the elimination in is_invertible needs none
    ring = RatFun(GF(7))
    zero, one, t = ring.zero(), ring.one(), ring.t_power(1)

    def block(rows):
        return from_dense(DenseMatrix(2, rows, ring))

    assert is_invertible(block([[zero, one], [one, zero]]))
    assert not is_invertible(block([[one, t], [one, t]]))
    assert not is_invertible(block([[zero, t], [zero, one]]))


# -- is_invertible against the block route it replaced ---------------------------


def block_route_decides(m):
    """Invertibility as auto_invert decides it: an inverse or SingularMatrix."""
    try:
        auto_invert(m)
    except SingularMatrix:
        return False
    return True


def left_dependent(ring, n, rng):
    """Seeded n x n matrix with one row a left multiple of another (zero at n=1).

    Row i = c * row j entrywise is undone by the left row operation
    row i - c * row j, so the matrix is singular over the quaternions too.
    """
    rows = random_dense(ring, n, rng).rows
    if n == 1:
        rows = [[ring.zero()]]
    else:
        i, j = rng.sample(range(n), 2)
        c = ring.random_element(rng)
        rows[i] = [c * x for x in rows[j]]
    return from_dense(DenseMatrix(n, rows, ring))


def decision_inputs(ring, n, rng):
    depth = n.bit_length() - 1
    inputs = [random_matrix(ring, depth, rng) for _ in range(3)]
    inputs.append(left_dependent(ring, n, rng))
    if ring.commutative and n >= 4:
        inputs.append(random_all_blocks_singular(ring, depth, rng))
    return inputs


@pytest.mark.parametrize("spec", ["q", "qi", "quat", "gf:2", "gf:7", "ratfun:q"])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_is_invertible_matches_block_route(spec, n):
    ring = ring_from_spec(spec)
    rng = random.Random(stable_seed("is_invertible", spec, n))
    if spec == "ratfun:q" and n == 8:
        # K(t) with non-constant entries takes 10 s and more per block
        # inversion at n=8, so the draws there are constant (lifted) ones
        inputs = [lift_to_ratfun(m) for m in decision_inputs(QQ, n, rng)]
    else:
        inputs = decision_inputs(ring, n, rng)
    decisions = [is_invertible(m) for m in inputs]
    assert decisions == [block_route_decides(m) for m in inputs]
    assert decisions[-1] is (n >= 4 and ring.commutative)
    assert not decisions[3]


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_is_invertible_matches_gauss_jordan_over_ratfun_prime_field(n):
    # auto_invert has no Gram driver here; Gauss-Jordan is a separate
    # elimination loop from the one is_invertible shares with the determinant
    ring = RatFun(GF(7))
    rng = random.Random(stable_seed("is_invertible", ring.spec, n))
    inputs = decision_inputs(ring, n, rng)
    decisions = [is_invertible(m) for m in inputs]
    assert decisions == [gauss_jordan_inverse(to_dense(m)) is not None for m in inputs]
    assert not decisions[3]


@pytest.mark.parametrize("p", [2, 3])
def test_is_invertible_every_2x2_over_small_fields(p):
    ring = GF(p)
    for entries in itertools.product(range(p), repeat=4):
        m = ring_mat(ring, [list(entries[:2]), list(entries[2:])])
        assert is_invertible(m) is block_route_decides(m), entries


def test_is_invertible_runs_no_block_inversion(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("block inversion inside is_invertible")

    for name in ("auto_invert", "schur_invert", "invert_gram_transpose",
                 "invert_gram_star", "invert_gram_gv"):
        monkeypatch.setattr(inversion, name, refuse)
    assert is_invertible(witness_all_blocks_singular())
    assert is_invertible(identity(3, GF(7)))
    assert not is_invertible(zero_matrix(2, QQ))
    out = tmp_path / "m.mat"
    assert cli.main(["gen", "--ring", "q", "--size", "6", "--seed", "1",
                     "--invertible", "-o", str(out)]) == 0


# -- metamorphic checks over QQ ------------------------------------------------


def qq_fraction_input(depth, rng):
    """An invertible QQ matrix with small fractional entries, Schur-invertible or not."""
    n = 1 << depth
    while True:
        rows = [[QQ.parse(f"{rng.randint(-6, 6)}/{rng.randint(1, 5)}") for _ in range(n)] for _ in range(n)]
        m = from_dense(DenseMatrix(n, rows, QQ))
        if is_invertible(m):
            return m


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_qq_routes_agree_under_transposition_and_scaling(depth):
    rng = random.Random(stable_seed("qq-metamorphic", depth))
    c = QQ.parse("-7/3")
    scale = lambda m, s: map_leaves(m, lambda x: s * x)
    inputs = [qq_fraction_input(depth, rng) for _ in range(3)]
    inputs.append(random_all_blocks_singular(QQ, depth, rng))
    routes = 0
    for m in inputs:
        inverse = auto_invert(m)
        assert invert_gram_transpose(m) == inverse
        try:
            assert schur_invert(m) == inverse
            routes += 1
        except PivotBlockSingular:
            pass
        assert auto_invert(transpose(m)) == transpose(inverse)
        assert auto_invert(scale(m, c)) == scale(inverse, c.try_invert())
    # both the Schur route and the Gram fallback were compared
    assert 0 < routes < len(inputs)
