"""A second oracle that shares no scalar class with the package.

sympy's ``DomainMatrix`` over QQ and GF(p) checks the invertibility
decision of :func:`is_invertible`, the value of :func:`dense_determinant`
and the products of :func:`dense_mul`, on seeded inputs of every size from
1 to 12, singular ones included.  These three run on the rings' own row
kernels, which ``blockmat.mul`` shares, so a kernel fault could fool the
package's own checks; it cannot fool sympy.

sympy's ``K.frac_field(t)`` checks the rational functions over QQ, GF(2)
and GF(7) in the same way: sums, differences, products, inverses,
negations and the token syntax (parse, then format) of ``RatFun(K)``.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from blocklin import (  # noqa: E402
    GF,
    QQ,
    DenseMatrix,
    PrimeFieldElement,
    RatFun,
    Rational,
    dense_determinant,
    dense_mul,
    is_invertible,
    ZeroDenominator,
    ratfun_reduce,
)

from conftest import stable_seed  # noqa: E402

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
