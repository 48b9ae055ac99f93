"""The base-field lift in GF(p)[t]/Phi_l, checked against the K(t) route."""

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
    from_dense,
    hermitian_invert,
    invert_gram_gv,
    lift_to_ratfun,
    mul,
    project_to_base,
)
from blocklin.complexity import recurrence_T_hermitian
from blocklin.cyclotomic import lift_field
from blocklin.rings import is_prime
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


def reference_gv(m):
    """The K(t) route: the inverse or the zero-pivot message, and the counts."""
    counter = OpCounter()
    lifted = lift_to_ratfun(m)
    conj = circ_conjugate(lifted, counter)
    gram = GramMatrix(mul(conj, lifted, counter), ConjugationKind.CIRC)
    try:
        gram_inv = hermitian_invert(gram, counter)
    except GramSingular as exc:
        return str(exc), counter.snapshot()
    return project_to_base(mul(gram_inv, conj, counter), m.ring), counter.snapshot()


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
