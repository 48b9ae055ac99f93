"""The base-field lift in GF(p)[t]/Phi_l, checked against the K(t) route.

``invert_gram_gv`` runs first in the small field ``small_field(p)`` and
falls back to the certified ``lift_field(p, n)``; both routes, the K(t)
route and the packed row kernel of the fields are held to each other here.
"""

import itertools
import random

import pytest

from blocklin import (
    GF,
    ConjugationKind,
    DenseMatrix,
    GramMatrix,
    GramSingular,
    OpCounter,
    SingularMatrix,
    circ_conjugate,
    dense_identity,
    from_dense,
    hermitian_invert,
    invert_gram_gv,
    is_invertible,
    lift_to_ratfun,
    map_leaves,
    mul,
    project_to_base,
    to_dense,
)
from blocklin import inversion
from blocklin.complexity import recurrence_T_hermitian
from blocklin.cyclotomic import _CyclotomicField, lift_field, small_field
from blocklin.rings import _Ring, is_prime
from blocklin.sampling import random_dense

from conftest import stable_seed

PRIMES = [2, 3, 7, 65521, 2**61 - 1]


def is_primitive_root(p, order):
    return p % order != 0 and len({pow(p, e, order) for e in range(order - 1)}) == order - 1


def element(field, coeffs):
    """sum c_i t^i, built with the field's own lift, t_power, mul and add."""
    base = GF(field.p)
    total = field.lift(base.zero())
    for i, c in enumerate(coeffs):
        total = total + field.lift(base.from_int(c)) * field.t_power(i)
    return total


def schoolbook_product(a, b, p, order):
    """Coefficients of a*b mod Phi_l, by plain polynomial arithmetic."""
    folded = [0] * order
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            folded[(i + j) % order] += x * y
    top = folded[-1]
    return [(c - top) % p for c in folded[:-1]]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_lift_field_order_is_the_least_admissible_prime(p, n):
    field = lift_field(p, n)
    order = field.order
    assert is_prime(order)
    assert order - 1 > n * (n - 1)
    assert is_primitive_root(p, order)
    for smaller in range(n * (n - 1) + 2, order):
        assert not (is_prime(smaller) and is_primitive_root(p, smaller))
    one = field.lift(GF(p).one())
    assert field.t_power(order) == one
    assert field.t_power(0) == one
    assert field.t_power(3) * field.t_power(-3) == one
    assert lift_field(p, n) is field


@pytest.mark.parametrize("p", PRIMES)
def test_lift_field_products_and_inverses(p):
    rng = random.Random(stable_seed("lift-field", p))
    for n in (1, 2, 8):
        field = lift_field(p, n)
        k = field.order - 1
        one = field.lift(GF(p).one())
        # all coefficients p - 1 fill each product slot the most
        samples = [[p - 1] * k] + [[rng.randrange(p) for _ in range(k)] for _ in range(6)]
        for coeffs in samples:
            a = element(field, coeffs)
            assert field.coefficients(a.value) == coeffs
            assert a.is_constant() == (not any(coeffs[1:]))
            inv = a.try_invert()
            if not any(coeffs):
                assert inv is None
                continue
            assert a * inv == one
            assert inv * a == one
            b = element(field, [rng.randrange(p) for _ in range(k)])
            want = schoolbook_product(coeffs, field.coefficients(b.value), p, field.order)
            assert field.coefficients((a * b).value) == want
            assert (a + b) - b == a
            assert a + (-a) == field.lift(GF(p).zero())


def lift_route(m, lifted):
    """The lift of m in one ring, given as ``lifted``: the inverse or the
    zero-pivot message, and the counts."""
    counter = OpCounter()
    conj = circ_conjugate(lifted, counter)
    gram = GramMatrix(mul(conj, lifted, counter), ConjugationKind.CIRC)
    try:
        gram_inv = hermitian_invert(gram, counter)
    except GramSingular as exc:
        return str(exc), counter.snapshot()
    return project_to_base(mul(gram_inv, conj, counter), m.ring), counter.snapshot()


def reference_gv(m):
    """The K(t) route."""
    return lift_route(m, lift_to_ratfun(m))


def full_lift_gv(m):
    """One run in the certified field ``lift_field(p, n)`` alone."""
    return lift_route(m, map_leaves(m, lift_field(m.ring.p, m.dimension).lift))


def lifted_gv(m):
    counter = OpCounter()
    try:
        return invert_gram_gv(m, counter), counter.snapshot()
    except SingularMatrix as exc:
        return str(exc), counter.snapshot()


@pytest.mark.parametrize("p", PRIMES)
def test_lift_agrees_with_ratfun_reference_on_seeded_inputs(p):
    field = GF(p)
    rng = random.Random(stable_seed("lift-differential", p))
    for n in (1, 2, 4, 8):
        draws = [random_dense(field, n, rng) for _ in range(2)]
        # a repeated row: singular, failing at a node that depends on the row
        rows = [list(r) for r in random_dense(field, n, rng).rows]
        i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        rows[j] = list(rows[i]) if n > 1 else [field.zero()]
        draws.append(DenseMatrix(n, rows, field))
        for dense in draws:
            m = from_dense(dense)
            assert lifted_gv(m) == reference_gv(m)


@pytest.mark.parametrize("p", [2, 3])
def test_lift_agrees_with_ratfun_reference_on_every_2x2(p):
    field = GF(p)
    singular = 0
    for entries in itertools.product(range(p), repeat=4):
        dense = DenseMatrix(2, [[field.from_int(x) for x in entries[:2]],
                                [field.from_int(x) for x in entries[2:]]], field)
        m = from_dense(dense)
        got = lifted_gv(m)
        assert got == reference_gv(m)
        singular += isinstance(got[0], str)
    # GF(q) has q^4 - (q^2 - 1)(q^2 - q) singular 2x2 matrices
    assert singular == p**4 - (p * p - 1) * (p * p - p)


@pytest.mark.parametrize("p", [2, 7])
def test_lift_count_law(p):
    assert 2 * 8**3 + recurrence_T_hermitian(8) == 1368
    rng = random.Random(stable_seed("lift-count", p))
    for n in (1, 2, 4, 8):
        counter = OpCounter()
        while True:
            try:
                invert_gram_gv(from_dense(random_dense(GF(p), n, rng)), counter)
                break
            except SingularMatrix:
                counter = OpCounter()
        assert counter.muldiv == 2 * n**3 + recurrence_T_hermitian(n)


@pytest.mark.parametrize("p", [2, 7, 65521])
def test_small_field_orders(p):
    field = small_field(p)
    order = field.order
    assert order == {2: 37, 7: 13, 65521: 17}[p]
    assert is_primitive_root(p, order) and p ** (order - 1) >= 2**32
    for smaller in range(2, order):
        assert not (is_prime(smaller) and is_primitive_root(p, smaller) and p ** (smaller - 1) >= 2**32)
    assert small_field(p) is field


def weak_lead(field, n, rng):
    """An invertible matrix with a zero top-left entry, so that the Schur
    recursion cannot invert it and the lift does the work."""
    while True:
        rows = [list(r) for r in random_dense(field, n, rng).rows]
        rows[0][0] = field.zero()
        dense = DenseMatrix(n, rows, field)
        if is_invertible(dense):
            return dense


def repeated_row(field, n, rng):
    rows = [list(r) for r in random_dense(field, n, rng).rows]
    i, j = rng.sample(range(n), 2)
    rows[j] = list(rows[i])
    return DenseMatrix(n, rows, field)


@pytest.mark.parametrize("p", [2, 7, 65521])
def test_small_field_first_matches_full_lift_and_ratfun(p):
    """Inverse, counts and GramSingular message equal those of one run in the
    certified field at every n <= 16, and those of K(t) at n <= 8 (K(t)
    takes seconds per input at n = 16; the tests above hold the certified
    field to it)."""
    field = GF(p)
    rng = random.Random(stable_seed("small-field-first", p))
    outcomes = {True: 0, False: 0}
    for n in (2, 4, 8, 16):
        for dense in (random_dense(field, n, rng), weak_lead(field, n, rng), repeated_row(field, n, rng)):
            m = from_dense(dense)
            got = lifted_gv(m)
            assert got == full_lift_gv(m), (p, n)
            if n <= 8:
                assert got == reference_gv(m), (p, n)
            outcomes[isinstance(got[0], str)] += 1
    assert all(outcomes.values())


def test_fallback_on_invertible_input_equals_one_full_lift_run(monkeypatch):
    """With the small field forced to GF(4) = GF(2)[t]/Phi_3, some invertible
    input meets a zero pivot there; the second run in the certified field
    then gives the inverse and the counts of that run alone."""
    tiny = _CyclotomicField(2, 3)
    monkeypatch.setattr(inversion, "small_field", lambda p: tiny)
    rng = random.Random(stable_seed("forced-fallback"))
    for _ in range(200):
        dense = weak_lead(GF(2), 4, rng)
        m = from_dense(dense)
        if isinstance(lift_route(m, map_leaves(m, tiny.lift))[0], str):
            break
    else:
        pytest.fail("no invertible input meets a zero pivot in GF(4)")
    got = lifted_gv(m)
    assert not isinstance(got[0], str)
    assert got == full_lift_gv(m) == reference_gv(m)
    assert to_dense(mul(m, got[0])).rows == dense_identity(4, GF(2)).rows


@pytest.mark.parametrize("p", [2, 7, 65521])
def test_packed_dot_rows_matches_pairwise_scalar_kernel(p):
    """``_CyclotomicField.dot_rows`` against ``_Ring.dot_rows`` on the same
    elements, in the small and a certified field: both signs, with and
    without an addend, on random operands and on operands whose every
    coefficient is p - 1, the most a slot can be loaded, at short lengths
    and one past the chunk, where a second chunk starts.  Past the chunk
    the pairwise kernel runs once on the worst load, and the sign and
    addend meet its sum as they do inside it (-s, z + s, z - s)."""
    rng = random.Random(stable_seed("packed-dot-rows", p))
    for field in (small_field(p), lift_field(p, 8)):
        k = field.order - 1
        full = element(field, [p - 1] * k)

        def draw():
            return element(field, [rng.randrange(p) for _ in range(k)])

        z = [[draw(), full]]
        for length in (1, 2, 5):
            rows = [[full] * length, [draw() for _ in range(length)]]
            cols = [[full] * length, [draw() for _ in range(length)]]
            for sign in (1, -1):
                for addend in (None, z * 2):
                    want = _Ring.dot_rows(field, rows, cols, addend, sign)
                    assert field.dot_rows(rows, cols, addend, sign) == want, (field.spec, length)
        rows = cols = [[full] * (field.chunk + 1)]
        [[s]] = _Ring.dot_rows(field, rows, cols)
        y = z[0][0]
        assert field.dot_rows(rows, cols) == [[s]], field.spec
        assert field.dot_rows(rows, cols, sign=-1) == [[-s]], field.spec
        assert field.dot_rows(rows, cols, [[y]]) == [[y + s]], field.spec
        assert field.dot_rows(rows, cols, [[y]], -1) == [[y - s]], field.spec
