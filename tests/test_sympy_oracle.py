"""A second oracle that shares no scalar class with the package.

sympy's ``DomainMatrix`` over QQ and GF(p) checks the invertibility
decision of :func:`is_invertible`, the value of :func:`dense_determinant`
and the products of :func:`dense_mul`, on seeded inputs of every size from
1 to 12, singular ones included.  These three run on the rings' own row
kernels, which ``blockmat.mul`` shares, so a kernel fault could fool the
package's own checks; it cannot fool sympy.
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
    Rational,
    dense_determinant,
    dense_mul,
    is_invertible,
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
