"""A second oracle that shares no scalar class with the package.

sympy's ``DomainMatrix`` over QQ and GF(p) checks the invertibility
decision of :func:`is_invertible`, the value of :func:`dense_determinant`
and the products of :func:`dense_mul`, on seeded inputs of every size from
1 to 12, singular ones included.  These three run on the rings' own row
kernels, which ``blockmat.mul`` shares, so a kernel fault could fool the
package's own checks; it cannot fool sympy.

Over the Gaussian rationals, sympy's ``QQ_I`` checks ``dense_mul`` and the
inverses of :func:`auto_invert` on both of its routes: Schur on generic
input and the star-Gram route on all-blocks-singular input.  sympy has no
quaternion domain, so quaternion inverses from both routes are held to
M X = X M = I under the tests' schoolbook product, which shares no kernel
with the package.

Over GF(2), GF(7) and GF(65521), sympy's ``DomainMatrix`` inverse checks
the base-field lift :func:`invert_gram_gv`, which runs in a cyclotomic
extension of GF(p), at n = 8, 16 and 32.

sympy's ``K.frac_field(t)`` checks the rational functions over QQ, GF(2)
and GF(7) in the same way: sums, differences, products, inverses,
negations and the token syntax (parse, then format) of ``RatFun(K)``;
sympy's ``QQ[t]`` checks the polynomial gcd over QQ on long inputs.
"""

import random
import time
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from blocklin import (  # noqa: E402
    GF,
    QQ,
    QQ_I,
    QUAT,
    DenseMatrix,
    PivotBlockSingular,
    PrimeFieldElement,
    Quaternion,
    RatFun,
    Rational,
    auto_invert,
    dense_determinant,
    dense_identity,
    dense_mul,
    from_dense,
    invert_gram_gv,
    invert_gram_star,
    is_invertible,
    schur_invert,
    to_dense,
    ZeroDenominator,
    ratfun_reduce,
)
from blocklin.sampling import random_all_blocks_singular, random_invertible  # noqa: E402

from conftest import COMPONENTS, schoolbook_mul, stable_seed, witness_all_blocks_singular  # noqa: E402

MODULI = [None, 2, 7, 65521]  # None is QQ


def draw(p, n, rng):
    """Entries as Fractions over QQ (small numerators and denominators, some
    zero) or residues; about a third of the draws get a dependent row."""
    if p is None:
        entry = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    else:
        entry = lambda: rng.randrange(p)
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.35:
        i = rng.randrange(n)
        j, k = (rng.choice([r for r in range(n) if r != i]) for _ in range(2))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
        if p is not None:
            rows[i] = [x % p for x in rows[i]]
    return rows


def ours(p, rows):
    n = len(rows)
    if p is None:
        return DenseMatrix(n, [[Rational(x) for x in row] for row in rows], QQ)
    return DenseMatrix(n, [[PrimeFieldElement(x, p) for x in row] for row in rows], GF(p))


def theirs(p, rows):
    n = len(rows)
    domain = sympy.QQ if p is None else sympy.GF(p)
    if p is None:
        entries = [[domain(x.numerator, x.denominator) for x in row] for row in rows]
    else:
        entries = [[domain(x) for x in row] for row in rows]
    return DomainMatrix(entries, (n, n), domain)


def as_plain(p, x):
    """A sympy scalar as a Fraction over QQ or a residue in [0, p)."""
    if p is None:
        return Fraction(int(x.numerator), int(x.denominator))
    return int(x) % p


def as_ours(p, x):
    return x.value if p is None else x.residue


@pytest.mark.parametrize("p", MODULI, ids=lambda p: "q" if p is None else f"gf:{p}")
def test_kernels_agree_with_sympy(p):
    rng = random.Random(stable_seed("sympy-oracle", p))
    decisions = {True: 0, False: 0}
    for n in range(1, 13):
        for _ in range(5):
            rows, other = draw(p, n, rng), draw(p, n, rng)
            m, ref = ours(p, rows), theirs(p, rows)
            invertible = ref.rank() == n
            assert is_invertible(m) is invertible, (p, n, rows)
            decisions[invertible] += 1
            assert as_ours(p, dense_determinant(m)) == as_plain(p, ref.det()), (p, n, rows)
            product = dense_mul(m, ours(p, other))
            want = (ref * theirs(p, other)).to_list()
            assert [[as_ours(p, x) for x in row] for row in product.rows] == [
                [as_plain(p, x) for x in row] for row in want
            ], (p, n)
    # both decisions are exercised on every field
    assert decisions[True] and decisions[False]


@pytest.mark.parametrize("p", [2, 7, 65521])
def test_gf_lift_inverses_agree_with_sympy(p):
    rng = random.Random(stable_seed("sympy-gv", p))
    for depth in (3, 4, 5):
        m = random_invertible(GF(p), depth, rng)
        rows = [[x.residue for x in row] for row in to_dense(m).rows]
        want = theirs(p, rows).inv().to_list()
        got = to_dense(invert_gram_gv(m)).rows
        assert [[as_ours(p, x) for x in row] for row in got] == [
            [as_plain(p, x) for x in row] for row in want
        ], (p, m.dimension)


# -- Gaussian rationals against sympy's QQ_I, quaternions by schoolbook -----

DEPTHS = [0, 1, 2, 3]  # n = 1, 2, 4, 8


def component(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.8 else Fraction(0)


def draw_components(ring, n, rng):
    make, k = COMPONENTS[ring]
    rows = [[make(*(component(rng) for _ in range(k))) for _ in range(n)] for _ in range(n)]
    return DenseMatrix(n, rows, ring)


def generic_invertible(ring, depth, rng):
    """A draw with rational components on which Schur succeeds."""
    while True:
        m = from_dense(draw_components(ring, 1 << depth, rng))
        if is_invertible(m):
            schur_invert(m)
            return m


def sympy_qq_i(m):
    to_qq = lambda x: sympy.QQ(x.numerator, x.denominator)
    entries = [[sympy.QQ_I(to_qq(x.re), to_qq(x.im)) for x in row] for row in m.rows]
    return DomainMatrix(entries, (m.n, m.n), sympy.QQ_I)


def plain_qq_i(rows):
    as_fraction = lambda x: Fraction(int(x.numerator), int(x.denominator))
    return [[(as_fraction(x.x), as_fraction(x.y)) for x in row] for row in rows]


def ours_qq_i(m):
    return [[(x.re, x.im) for x in row] for row in m.rows]


def all_blocks_singular_inputs(ring):
    """The 4x4 witness, then a seeded 8x8 whose quadrants are all singular;
    over QUAT the 8x8 QQ draw is multiplied by block-diagonal quaternion
    factors on both sides, which keeps every quadrant singular."""
    yield witness_all_blocks_singular(ring)
    rng = random.Random(stable_seed("all-singular-oracle", ring.spec))
    if ring is QQ_I:
        yield random_all_blocks_singular(QQ_I, 3, rng)
        return
    rows = to_dense(random_all_blocks_singular(QQ, 3, rng)).rows
    m = DenseMatrix(8, [[Quaternion(x.value) for x in row] for row in rows], QUAT)
    zero = [[QUAT.zero()] * 4 for _ in range(4)]
    for side in range(2):
        top, bottom = (to_dense(generic_invertible(QUAT, 2, rng)).rows for _ in range(2))
        factor = DenseMatrix(8, [a + b for a, b in zip(top, zero)] + [a + b for a, b in zip(zero, bottom)], QUAT)
        m = schoolbook_mul(factor, m) if side == 0 else schoolbook_mul(m, factor)
    yield from_dense(m)


def routes(ring):
    """(input, route) pairs: Schur on generic input at n = 1, 2, 4, 8, and
    the star-Gram route on all-blocks-singular input at n = 4 and 8."""
    rng = random.Random(stable_seed("route-oracle", ring.spec))
    for depth in DEPTHS:
        yield generic_invertible(ring, depth, rng), schur_invert
    for m in all_blocks_singular_inputs(ring):
        with pytest.raises(PivotBlockSingular):
            schur_invert(m)
        yield m, invert_gram_star


def test_qq_i_products_and_inverses_agree_with_sympy():
    rng = random.Random(stable_seed("sympy-qq-i"))
    for n in range(1, 9):
        x, y = draw_components(QQ_I, n, rng), draw_components(QQ_I, n, rng)
        want = (sympy_qq_i(x) * sympy_qq_i(y)).to_list()
        assert ours_qq_i(dense_mul(x, y)) == plain_qq_i(want), n
    for m, route in routes(QQ_I):
        inverse = auto_invert(m)
        assert inverse == route(m)
        want = sympy_qq_i(to_dense(m)).inv().to_list()
        assert ours_qq_i(to_dense(inverse)) == plain_qq_i(want), m.dimension


def test_quaternion_inverses_are_two_sided_under_schoolbook():
    for m, route in routes(QUAT):
        inverse = auto_invert(m)
        assert inverse == route(m)
        dm, dx = to_dense(m), to_dense(inverse)
        eye = dense_identity(dm.n, QUAT)
        assert schoolbook_mul(dm, dx) == eye and schoolbook_mul(dx, dm) == eye, dm.n


# -- rational functions: K(t) against sympy's K.frac_field(t) -----------------

RATFUN_MODULI = [None, 2, 7]
# small factors to multiply numerators and denominators from, so that sums
# and products of draws often share factors and reach every cancellation
FACTORS = [[0, 1], [1, 1], [-1, 1], [3, 2], [1, 0, 1], [2, -1, 1], [5]]


def frac_field(p):
    domain = sympy.QQ if p is None else sympy.GF(p)
    return domain.frac_field(sympy.Symbol("t"))


def base_field(p):
    return QQ if p is None else GF(p)


def draw_poly(p, rng):
    """Raw coefficients, lowest degree first: a product of a few FACTORS,
    or a random short list, leading zeros allowed."""
    if rng.random() < 0.3:
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(0, 4))]
    else:
        coeffs = [1]
        for _ in range(rng.randint(0, 3)):
            f = rng.choice(FACTORS)
            out = [0] * (len(coeffs) + len(f) - 1)
            for i, x in enumerate(coeffs):
                for j, y in enumerate(f):
                    out[i + j] += x * y
            coeffs = out
        coeffs = [rng.randint(-3, 3) * c for c in coeffs] if rng.random() < 0.2 else coeffs
    if p is None:
        return [Fraction(c, rng.choice([1, 1, 2, 3])) for c in coeffs]
    return [c % p for c in coeffs]


def draw_ratfun(p, rng):
    base = base_field(p)
    while True:
        den = draw_poly(p, rng)
        if any(den):
            return ratfun_reduce(draw_poly(p, rng), den, base)


def theirs_ratfun(p, x):
    """Our rational function as an element of sympy's K(t)."""
    field = frac_field(p).field
    t = field.gens[0]
    scalar = (lambda c: sympy.QQ(c.numerator, c.denominator)) if p is None else sympy.GF(p)

    def poly(coeffs):
        out = field.zero
        for i, c in enumerate(coeffs):
            out += scalar(c) * t**i
        return out

    return poly(x.num) / poly(x.den)


def plain_ratfun(p, value):
    """A sympy K(t) element as (num, den) raw coefficient lists, lowest
    degree first, with the denominator made monic."""
    num = [as_plain(p, c) for c in reversed(value.numer.to_dense())]
    den = [as_plain(p, c) for c in reversed(value.denom.to_dense())]
    if p is None:
        inv = 1 / den[-1]
        return [c * inv for c in num], [c * inv for c in den]
    inv = pow(den[-1], -1, p)
    return [c * inv % p for c in num], [c * inv % p for c in den]


def ours_plain(x):
    return list(x.num), list(x.den)


def ratfun_token(p, rng):
    """A token in the file syntax, not canonical: terms in any order, some
    repeated, coefficients unreduced, an optional denominator."""

    def poly_text():
        terms = []
        for _ in range(rng.randint(1, 4)):
            exp = rng.randint(0, 3)
            if p is None:
                coeff = str(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            else:
                coeff = str(rng.randint(-9, 20))
            power = "" if exp == 0 else "*t" if exp == 1 else f"*t^{exp}"
            terms.append(coeff + power)
        return "".join(t if t.startswith("-") or i == 0 else "+" + t for i, t in enumerate(terms))

    token = f"({poly_text()})"
    return token + f"/({poly_text()})" if rng.random() < 0.6 else token


def sympy_parse(p, token):
    """sympy's value of a token, its numerator and denominator read apart
    (sympify alone would combine them over QQ first); None when the
    denominator is zero."""
    field = frac_field(p)
    num, _, den = token[1:-1].partition(")/(")
    value = [field.from_sympy(sympy.sympify(text.replace("^", "**"))) for text in (num, den or "1")]
    return None if value[1] == 0 else value[0] / value[1]


@pytest.mark.parametrize("p", RATFUN_MODULI, ids=lambda p: "ratfun:q" if p is None else f"ratfun:gf:{p}")
def test_ratfun_arithmetic_agrees_with_sympy(p):
    rng = random.Random(stable_seed("sympy-ratfun", p))
    for _ in range(100):
        x, y = draw_ratfun(p, rng), draw_ratfun(p, rng)
        if rng.random() < 0.2:
            # equal denominators take their own branch of + and -
            y = ratfun_reduce(draw_poly(p, rng), x.den, x.field)
        tx, ty = theirs_ratfun(p, x), theirs_ratfun(p, y)
        assert ours_plain(x + y) == plain_ratfun(p, tx + ty), (x, y)
        assert ours_plain(x - y) == plain_ratfun(p, tx - ty), (x, y)
        assert ours_plain(-x) == plain_ratfun(p, -tx), x
        assert ours_plain(x * y) == plain_ratfun(p, tx * ty), (x, y)
        inv = x.try_invert()
        assert (inv is None) == (tx == 0)
        if inv is not None:
            assert ours_plain(inv) == plain_ratfun(p, tx**-1), x


@pytest.mark.parametrize("p", RATFUN_MODULI, ids=lambda p: "ratfun:q" if p is None else f"ratfun:gf:{p}")
def test_ratfun_tokens_agree_with_sympy(p):
    rng = random.Random(stable_seed("sympy-ratfun-tokens", p))
    ring = RatFun(base_field(p))
    for _ in range(60):
        token = ratfun_token(p, rng)
        want = sympy_parse(p, token)
        if want is None:
            with pytest.raises(ZeroDenominator):
                ring.parse(token)
            continue
        x = ring.parse(token)
        assert ours_plain(x) == plain_ratfun(p, want), token
        canonical = ring.format(x)
        assert plain_ratfun(p, sympy_parse(p, canonical)) == plain_ratfun(p, want), token


def long_poly_token(rng, degree):
    return "+".join(f"{rng.randint(1, 9)}*t^{e}" for e in range(degree + 1))


def test_qq_poly_gcd_of_long_inputs_agrees_with_sympy():
    """Euclid on Fractions blows up along the remainder sequence: a token of
    two degree-100 polynomials took seconds to parse before the gcd over QQ
    ran on primitive integer remainders."""
    rng = random.Random(stable_seed("long-gcd"))
    token = f"({long_poly_token(rng, 100)})/({long_poly_token(rng, 100)})"
    start = time.perf_counter()
    x = RatFun(QQ).parse(token)
    assert time.perf_counter() - start < 1.0
    assert ours_plain(x) == plain_ratfun(None, sympy_parse(None, token))
    t = sympy.Symbol("t")
    as_poly = lambda coeffs: sympy.Poly(list(reversed(coeffs)), t, domain=sympy.QQ)
    entry = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    for degree in (30, 60, 100):
        common = draw_poly(None, rng) + [Fraction(rng.randint(1, 9))]
        a, b = (QQ.poly_mul(common, [entry() for _ in range(degree)] + [Fraction(1)]) for _ in range(2))
        want = [Fraction(int(c.p), int(c.q)) for c in reversed(as_poly(a).gcd(as_poly(b)).all_coeffs())]
        assert QQ.poly_gcd(a, b) == want, degree
        assert len(want) >= len(common)
