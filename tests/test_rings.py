import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklin import (
    GF,
    QQ,
    QQ_I,
    QUAT,
    GaussianRational,
    PrimeFieldElement,
    Quaternion,
    RatFun,
    Rational,
    ZeroDenominator,
    ratfun_reduce,
    ring_from_spec,
)
from blocklin.cyclotomic import _CyclotomicElement, lift_field, small_field
from blocklin.rings import is_prime

from conftest import stable_seed

ALL_RINGS = [QQ, GF(7), QQ_I, QUAT, RatFun(QQ), RatFun(GF(2))]


def xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


# -- primality ---------------------------------------------------------------


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 97, 65521, 2147483647}
    for p in primes:
        assert is_prime(p)
    for n in (0, 1, 4, 9, 91, 561, 65520, 2147483649):
        assert not is_prime(n)


def test_gf_rejects_bad_moduli():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1 << 62)


# -- try_invert --------------------------------------------------------------


def test_try_invert_examples():
    assert Rational(2, 3).try_invert() == Rational(3, 2)
    assert Rational(0).try_invert() is None
    # oracle: extended Euclid for the modular inverse
    g, x, _ = xgcd(3, 7)
    assert g == 1
    assert PrimeFieldElement(3, 7).try_invert() == PrimeFieldElement(x % 7, 7)
    assert (PrimeFieldElement(3, 7) * PrimeFieldElement(5, 7)).residue == 1
    i = Quaternion(0, 1, 0, 0)
    assert i.try_invert() == Quaternion(0, -1, 0, 0)


def test_zero_denominator():
    with pytest.raises(ZeroDenominator):
        Rational(1, 0)
    with pytest.raises(ZeroDenominator):
        ratfun_reduce([QQ.raw_one], [QQ.raw_zero], QQ)


# -- star --------------------------------------------------------------------


def test_star_examples():
    assert GaussianRational(1, 2).star() == GaussianRational(1, -2)
    assert Quaternion(1, 1, 1, 1).star() == Quaternion(1, -1, -1, -1)
    assert Rational(5, 3).star() == Rational(5, 3)
    x = RatFun(QQ).parse("(1+2*t)")
    assert x.star() == x


def test_unit_products_match_the_written_out_tables():
    """Every product of two basis units, written out as literals, through
    the element product and the ring's row kernel.  The sign table defines
    both and ``commutative`` too, so only literals catch a wrong sign."""
    q = Quaternion
    one, i, j, k = q(1), q(0, 1), q(0, 0, 1), q(0, 0, 0, 1)
    quaternion_table = [
        [one, i, j, k],
        [i, q(-1), k, q(0, 0, -1)],
        [j, q(0, 0, 0, -1), q(-1), i],
        [k, j, q(0, -1), q(-1)],
    ]
    g = GaussianRational
    gaussian_table = [[g(1), g(0, 1)], [g(0, 1), g(-1)]]
    for ring, units, table in ((QUAT, [one, i, j, k], quaternion_table), (QQ_I, [g(1), g(0, 1)], gaussian_table)):
        for x, row in zip(units, table):
            for y, want in zip(units, row):
                assert x * y == want, (x, y)
                assert ring.dot_rows([[x]], [[y]]) == [[want]], (x, y)
    assert QQ_I.commutative
    assert not QUAT.commutative


# -- randomized algebraic identities ----------------------------------------


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.spec)
def test_ring_axioms_500_pairs(ring):
    rng = random.Random(stable_seed("axioms", ring.spec))
    for _ in range(500):
        x = ring.random_element(rng)
        y = ring.random_element(rng)
        z = ring.random_element(rng)
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x + (-x) == ring.zero()
        assert (x * y).star() == y.star() * x.star()
        assert x.star().star() == x


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.spec)
def test_units_invert_both_sides(ring):
    rng = random.Random(stable_seed("units", ring.spec))
    seen = 0
    while seen < 60:
        x = ring.random_element(rng)
        inv = x.try_invert()
        if inv is None:
            assert x.is_zero()
            continue
        assert inv * x == ring.one()
        assert x * inv == ring.one()
        seen += 1


@given(a=st.fractions(), b=st.fractions(), c=st.fractions())
@settings(max_examples=60)
def test_rational_distributes(a, b, c):
    x, y, z = Rational(a), Rational(b), Rational(c)
    assert (x + y) * z == x * z + y * z


@given(
    parts=st.tuples(*(st.fractions(max_denominator=50) for _ in range(8)))
)
@settings(max_examples=60)
def test_quaternion_norm_is_central(parts):
    q = Quaternion(*parts[:4])
    r = Quaternion(*parts[4:])
    n = q.star() * q
    assert n == Quaternion(q.norm())
    assert n * r == r * n
    assert q.norm() >= 0


# -- polynomial kernels of the coefficient fields -----------------------------


def _schoolbook(field):
    """Reference canonical form, add, sub and mul on raw coefficient lists:
    each entry reduced, then zero leading coefficients dropped."""
    mod = (lambda c: c) if field is QQ else (lambda c: c % field.p)

    def canon(coeffs):
        out = [mod(c) for c in coeffs]
        while out and out[-1] == 0:
            del out[-1]
        return out

    def pad(x, n):
        return list(x) + [0] * (n - len(x))

    def add(a, b, sign=1):
        n = max(len(a), len(b))
        return canon(x + sign * y for x, y in zip(pad(a, n), pad(b, n)))

    def mul(a, b):
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return canon(out)

    return canon, add, (lambda a, b: add(a, b, -1)), mul


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7), GF(2**61 - 1)], ids=lambda r: r.spec)
def test_polynomial_kernels_against_reference(field):
    rng = random.Random(stable_seed("kernels", field.spec))
    canon, ref_add, ref_sub, ref_mul = _schoolbook(field)

    def coeff():
        if rng.random() < 0.25:
            return field.raw_zero
        if field is QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return rng.randrange(field.p)

    def poly(max_degree=6):
        # canonical, as RationalFunction stores them: no zero leading coefficient
        return canon(coeff() for _ in range(rng.randint(0, max_degree + 1)))

    def canonical(coeffs):
        # a list of raw coefficients whose leading one is nonzero
        if not isinstance(coeffs, list) or (coeffs and not coeffs[-1]):
            return False
        if field is QQ:
            return all(isinstance(c, Fraction) for c in coeffs)
        return all(isinstance(c, int) and 0 <= c < field.p for c in coeffs)

    for _ in range(300):
        a, b = poly(), poly()
        for got, want in (
            (field.poly_add(a, b), ref_add(a, b)),
            (field.poly_sub(a, b), ref_sub(a, b)),
            (field.poly_mul(a, b), ref_mul(a, b)),
        ):
            assert got == want and canonical(got)
        if b:
            q, r = field.poly_divmod(a, b)
            assert canonical(q) and canonical(r)
            assert ref_add(ref_mul(q, b), r) == a
            assert len(r) < len(b)
        # a shared factor c makes deg gcd >= deg c, and c divides the gcd
        c = poly(3)
        x, y = ref_mul(a, c), ref_mul(b, c)
        g = field.poly_gcd(x, y)
        assert canonical(g)
        if not x and not y:
            assert g == []
            continue
        assert g[-1] == 1
        assert field.poly_divmod(x, g)[1] == []
        assert field.poly_divmod(y, g)[1] == []
        if c:
            assert field.poly_divmod(g, c)[1] == []


# -- rational function canonicalization --------------------------------------


def test_ratfun_reduce_examples():
    rq = RatFun(QQ)
    assert rq.format(rq.parse("(1*t^2-1)/(1*t-1)")) == "(1+1*t)"
    assert rq.format(rq.parse("(2*t)/(4)")) == "(1/2*t)"
    r2 = RatFun(GF(2))
    assert r2.format(r2.parse("(1*t)/(1*t)")) == "(1)"


@pytest.mark.parametrize("base", [QQ, GF(2), GF(7), GF(2**61 - 1)], ids=lambda r: r.spec)
def test_ratfun_canonical_idempotent_and_equality_deciding(base, rng):
    field = RatFun(base)

    def raw_pair():
        # raw coefficient lists, zero leading coefficients allowed
        while True:
            num = [base.raw_from_int(rng.randint(-5, 5)) for _ in range(rng.randint(0, 5))]
            den = [base.raw_from_int(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))]
            if any(den):
                return num, den

    for _ in range(200):
        num, den = raw_pair()
        x = ratfun_reduce(num, den, base)
        assert ratfun_reduce(x.num, x.den, base) == x
        assert x.den and x.den[-1] == base.raw_one
        assert not x.num or x.num[-1]
        assert len(base.poly_gcd(x.num, x.den)) <= 1
        # scaling numerator and denominator together never changes the value
        assert ratfun_reduce([3 * c for c in num], [3 * c for c in den], base) == x
        # equality is decided by canonical-form identity
        other = ratfun_reduce(*raw_pair(), base)
        cross_equal = base.poly_mul(x.num, other.den) == base.poly_mul(other.num, x.den)
        assert (x == other) == cross_equal


def test_laurent_powers():
    rq = RatFun(QQ)
    assert rq.format(rq.t_power(3)) == "(1*t^3)"
    assert rq.format(rq.t_power(-2)) == "(1)/(1*t^2)"
    assert rq.t_power(3) * rq.t_power(-3) == rq.one()


# -- token syntax ------------------------------------------------------------


CANONICAL_TOKENS = {
    "q": ["0", "5", "-3/2", "7/3"],
    "gf:7": ["0", "3", "6"],
    "qi": ["0", "2", "-1/2*i", "1+2*i", "1-2*i", "-3/4-1/2*i"],
    "quat": ["0", "1", "1-1*i-1*j-1*k", "1/2*j", "-2*i+3*k"],
    "ratfun:q": ["(0)", "(5)", "(1/2*t)", "(1+1*t)", "(-1+1*t^2)/(3+1*t)"],
    "ratfun:gf:2": ["(0)", "(1)", "(1*t)", "(1+1*t)/(1+1*t+1*t^2)"],
}


@pytest.mark.parametrize("spec", sorted(CANONICAL_TOKENS))
def test_canonical_tokens_round_trip_bytes(spec):
    ring = ring_from_spec(spec)
    for token in CANONICAL_TOKENS[spec]:
        assert ring.format(ring.parse(token)) == token


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.spec)
def test_random_elements_round_trip(ring, rng):
    for _ in range(200):
        x = ring.random_element(rng)
        token = ring.format(x)
        assert " " not in token
        assert ring.parse(token) == x


def test_lenient_parse_forms():
    assert QQ_I.parse("i") == GaussianRational(0, 1)
    assert QQ_I.parse("-i") == GaussianRational(0, -1)
    assert QUAT.parse("j+k") == Quaternion(0, 0, 1, 1)
    assert RatFun(QQ).parse("(t^2)") == RatFun(QQ).t_power(2)
    assert QQ_I.parse("i+2*i") == GaussianRational(0, 3)
    assert QQ_I.parse("2i") == GaussianRational(0, 2)
    assert QUAT.parse("k-k") == QUAT.zero()
    assert QUAT.parse("*i") == Quaternion(0, 1, 0, 0)


@pytest.mark.parametrize(
    "spec, bad",
    [
        ("q", "1/2/3"),
        ("q", "a"),
        ("gf:7", "x"),
        ("qi", "1+2*q"),
        ("qi", "3j"),
        ("qi", "1/2*k"),
        ("quat", "2*"),
        ("ratfun:q", "(1+t"),
        ("ratfun:q", "(1)/(0)...oops"),
    ],
)
def test_malformed_tokens_rejected(spec, bad):
    ring = ring_from_spec(spec)
    with pytest.raises(ValueError):
        ring.parse(bad)


@pytest.mark.parametrize("spec", ["ratfun:q", "ratfun:gf:7"])
def test_t_exponent_is_capped(spec):
    ring = ring_from_spec(spec)
    assert ring.parse("(t^65536)") == ring.t_power(65536)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exponent"):
        ring.parse("(1+t^65537)")
    with pytest.raises(ValueError, match="exponent"):
        ring.parse("(1)/(t^100000000000000000000)")
    assert time.perf_counter() - start < 0.5


FUZZ_SPECS = ["q", "qi", "quat", "gf:2", "gf:7", "ratfun:q", "ratfun:gf:7"]
_FUZZ_POLY = st.text(alphabet="0123456789+-*/^t", min_size=1, max_size=8)
# short strings over the token alphabet, and parenthesised ones so that the
# rational function parsers get past their first check
FUZZ_TOKENS = st.text(alphabet="0123456789+-*/^()ijkt", max_size=10) | st.tuples(
    _FUZZ_POLY, st.none() | _FUZZ_POLY
).map(lambda p: f"({p[0]})" + ("" if p[1] is None else f"/({p[1]})"))


@pytest.mark.parametrize("spec", FUZZ_SPECS)
def test_token_parser_fuzz(spec):
    """Only ValueError and ZeroDenominator escape ``parse``, and the format
    of a parsed token is a fixed point of parse then format."""
    ring = ring_from_spec(spec)

    @given(token=FUZZ_TOKENS)
    @settings(max_examples=100, deadline=None, database=None)
    def check(token):
        try:
            x = ring.parse(token)
        except (ValueError, ZeroDenominator):
            return
        canonical = ring.format(x)
        y = ring.parse(canonical)
        assert y == x
        assert ring.format(y) == canonical

    check()


def test_ring_from_spec_round_trip():
    for spec in ("q", "gf:13", "qi", "quat", "ratfun:q", "ratfun:gf:5"):
        assert ring_from_spec(spec).spec == spec
    with pytest.raises(ValueError):
        ring_from_spec("zz")
    with pytest.raises(TypeError):
        RatFun(QQ_I)


def test_mixed_ring_arithmetic_rejected():
    with pytest.raises(TypeError, match="mixed rings gf:7 and gf:5"):
        PrimeFieldElement(1, 7) + PrimeFieldElement(1, 5)
    with pytest.raises(TypeError):
        Rational(1) + 1


def test_constructors_take_only_int_or_fraction_values():
    for residue in (Fraction(1, 2), Fraction(4), 2.5, "3", None):
        with pytest.raises(TypeError, match="int residue"):
            PrimeFieldElement(residue, 7)
    assert PrimeFieldElement(True, 7).residue == 1
    assert PrimeFieldElement(-1, 7).residue == 6
    assert GF(7).format(PrimeFieldElement(9, 7)) == "2"
    with pytest.raises(TypeError):
        PrimeFieldElement(1, 7.0)
    with pytest.raises(ValueError):
        PrimeFieldElement(1, 9)
    for args in ((1.5,), ("1/2",), (1, 2.0), (Fraction(1, 2), "3"), (None,)):
        with pytest.raises(TypeError, match="int or Fraction"):
            Rational(*args)
    assert Rational(Fraction(1, 2), 3) == Rational(1, 6)
    assert Rational(True).value == 1
    with pytest.raises(TypeError, match="int or Fraction"):
        Quaternion(1.5)
    with pytest.raises(TypeError, match="at most 2"):
        GaussianRational(1, 2, 3)


def test_named_attributes_and_reprs():
    x = PrimeFieldElement(10, 7)
    assert (x.value, x.residue, x.modulus, x.ring) == (3, 3, 7, GF(7))
    assert repr(x) == "PrimeFieldElement(3, 7)"
    assert repr(Rational(-3, 6)) == "Rational(-1/2)"
    g = GaussianRational(1, Fraction(-1, 2))
    assert (g.re, g.im, g.parts, g.ring) == (1, Fraction(-1, 2), g.value, QQ_I)
    assert repr(g) == "GaussianRational(1, -1/2)"
    q = Quaternion(1, 2, 3)
    assert (q.a, q.b, q.c, q.d, q.ring) == (1, 2, 3, 0, QUAT)
    assert repr(q) == "Quaternion(1, 2, 3, 0)"
    field = small_field(7)
    t = field.t_power(1)
    assert t.field is field and not t.is_constant()
    assert repr(t) == f"_CyclotomicElement({[0, 1] + [0] * 10}, {field.spec})"


# -- the element layer against models outside the package --------------------
#
# Each model computes on plain values with no element class of the package:
# Fraction arithmetic, ints mod p, a written-out Hamilton product on
# 4-tuples (a Gaussian rational a + b*i is the quaternion (a, b, 0, 0)), and
# coefficient lists multiplied as polynomials and reduced mod Phi_l.


def _hamilton(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def _fraction(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 9)) if rng.random() < 0.8 else Fraction(0)


class _Model:
    """make(rng) -> (element, model value); read(element) -> model value;
    add, sub, neg and mul on model values; one, the model's unit."""

    def __init__(self, ring, make, read, add, sub, neg, mul, one):
        self.ring, self.make, self.read = ring, make, read
        self.add, self.sub, self.neg, self.mul, self.one = add, sub, neg, mul, one


def _rational_model():
    def make(rng):
        v = _fraction(rng)
        return Rational(v), v

    return _Model(QQ, make, lambda x: x.value, lambda a, b: a + b, lambda a, b: a - b, lambda a: -a, lambda a, b: a * b, 1)


def _prime_model(p):
    def make(rng):
        r = rng.randrange(p) if rng.random() < 0.9 else 0
        return PrimeFieldElement(r, p), r

    return _Model(
        GF(p),
        make,
        lambda x: x.value,
        lambda a, b: (a + b) % p,
        lambda a, b: (a - b) % p,
        lambda a: (-a) % p,
        lambda a, b: a * b % p,
        1,
    )


def _algebra_model(ring, k):
    def pad(x):
        return tuple(x) + (0,) * (4 - k)

    def make(rng):
        parts = tuple(_fraction(rng) for _ in range(k)) if rng.random() < 0.9 else (0,) * k
        return ring.element(*parts), pad(parts)

    def mul(a, b):
        out = _hamilton(a, b)
        assert not any(out[k:]), "a product left the subalgebra"
        return out

    return _Model(
        ring,
        make,
        lambda x: pad(x.value),
        lambda a, b: tuple(u + v for u, v in zip(a, b)),
        lambda a, b: tuple(u - v for u, v in zip(a, b)),
        lambda a: tuple(-u for u in a),
        mul,
        (1, 0, 0, 0),
    )


def _cyclotomic_model(field):
    p, degree = field.p, field.order - 1

    def reduce_mod_phi(coeffs):
        # Phi_l = 1 + t + ... + t^(l-1) is monic of degree l - 1 with every
        # coefficient 1: subtract top * t^(k - l + 1) * Phi_l from the top down
        c = list(coeffs) + [0] * max(0, degree - len(coeffs))
        for k in range(len(c) - 1, degree - 1, -1):
            top = c[k]
            for j in range(k - degree, k + 1):
                c[j] -= top
        return tuple(v % p for v in c[:degree])

    def make(rng):
        if rng.random() < 0.1:
            coeffs = (0,) * degree
        elif rng.random() < 0.2:
            coeffs = (rng.randrange(p),) + (0,) * (degree - 1)
        else:
            coeffs = tuple(rng.randrange(p) for _ in range(degree))
        return _CyclotomicElement(field._pack(coeffs), field), coeffs

    def mul(a, b):
        out = [0] * (2 * degree - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return reduce_mod_phi(out)

    return _Model(
        field,
        make,
        lambda x: tuple(field.coefficients(x.value)),
        lambda a, b: tuple((u + v) % p for u, v in zip(a, b)),
        lambda a, b: tuple((u - v) % p for u, v in zip(a, b)),
        lambda a: tuple(-u % p for u in a),
        mul,
        (1,) + (0,) * (degree - 1),
    )


ELEMENT_MODELS = [
    _rational_model(),
    _prime_model(2),
    _prime_model(7),
    _prime_model(65521),
    _algebra_model(QQ_I, 2),
    _algebra_model(QUAT, 4),
    _cyclotomic_model(small_field(7)),
    _cyclotomic_model(lift_field(7, 4)),
]


@pytest.mark.parametrize("model", ELEMENT_MODELS, ids=lambda m: m.ring.spec)
def test_element_arithmetic_agrees_with_a_model(model):
    rng = random.Random(stable_seed("element-model", model.ring.spec))
    ring, read = model.ring, model.read
    assert read(ring.one()) == model.one
    assert ring.zero().is_zero() and not ring.one().is_zero()
    for _ in range(150):
        (x, a), (y, b) = model.make(rng), model.make(rng)
        assert read(x) == a and read(y) == b
        assert read(x + y) == model.add(a, b)
        assert read(x - y) == model.sub(a, b)
        assert read(-x) == model.neg(a)
        assert read(x * y) == model.mul(a, b)
        inverse = x.try_invert()
        if inverse is None:
            assert x.is_zero() and a == read(ring.zero())
            continue
        assert not x.is_zero()
        assert model.mul(a, read(inverse)) == model.one
        assert model.mul(read(inverse), a) == model.one
        assert x * inverse == ring.one() == inverse * x
        # equal elements built apart have equal hashes
        twin = ring.one() * x
        assert twin == x and twin is not x and hash(twin) == hash(x)
        assert (x == y) == (a == b)


def test_elements_of_distinct_rings_never_mix():
    rings = [model.ring for model in ELEMENT_MODELS]
    for r, s in itertools.permutations(rings, 2):
        for x, y in ((r.one(), s.one()), (r.zero(), s.zero())):
            assert x != y and not x == y
            with pytest.raises(TypeError):
                x + y
            with pytest.raises(TypeError):
                x * y
            with pytest.raises(TypeError):
                x - y
    # the hash takes the ring in: the zeros and ones of distinct rings,
    # whose raw values are often equal, do not collide
    assert len({hash(r.one()) for r in rings}) == len(rings)
    assert len({hash(r.zero()) for r in rings}) == len(rings)
