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
    with pytest.raises(TypeError):
        PrimeFieldElement(1, 7) + PrimeFieldElement(1, 5)
    with pytest.raises(TypeError):
        Rational(1) + 1
