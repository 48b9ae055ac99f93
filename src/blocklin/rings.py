"""Exact scalar arithmetic for the five matrix entry rings.

Every matrix in this package holds scalars from one of five exact,
immutable ring instances:

* ``QQ``          -- arbitrary-precision rationals,
* ``GF(p)``       -- the prime field of p elements,
* ``QQ_I``        -- Gaussian rationals a + b*i,
* ``QUAT``        -- quaternions with rational components,
* ``RatFun(K)``   -- rational functions over K in the variable t,
                     for K one of QQ or GF(p).

Ring handles expose construction, random sampling, and the canonical
whitespace-free token syntax used by the matrix file format.  Elements
overload the usual operators and additionally provide ``star()`` (a ring
involution, the identity where no natural conjugation exists) and
``try_invert()`` (returns the multiplicative inverse or ``None``).

QQ_I and QUAT are two instances of one algebra over QQ: their elements
hold a tuple of rational parts, and a sign table on the element type is
the only definition of their product.  The element product, the row
kernel and the ring's ``commutative`` flag all read that table.

QQ and GF(p), the coefficient fields of K(t), share one set of polynomial
kernels on raw coefficient lists (Fractions over QQ, residues in [0, p)
over GF(p)); the only per-field step, ``_reduce``, brings each result list
to canonical form once.  A rational function stores its numerator and
denominator as tuples of these raw coefficients and computes only through
the kernels.

Each ring handle also owns the packed form of matrix rows and the row
kernels of matrix code.  ``pack`` turns rows of elements into (rows, den),
``unpack`` turns them back: over QQ, integer rows over one positive
denominator for the whole matrix; over every other ring, the elements as
they are over 1.  ``dot_rows`` (dot products, with an optional sign and
addend folded into each entry) runs on packed rows: over QQ it takes
integer rows and returns integer rows, with an integer sign, and leaves
every denominator to its caller (:mod:`blocklin.blockmat`,
:func:`~blocklin.dense.dense_mul`).  It runs on integers over common
denominators for QQ_I and QUAT (one kernel signed by the sign table), on
raw residues for GF(p), on packed ints for the lift fields of
:mod:`blocklin.cyclotomic`, and on scalar objects only for K(t).
``pivot_product`` (forward elimination) runs on integers for QQ, on
residues for GF(p), and on scalar objects elsewhere.

Integers in tokens, specs and matrix files are ASCII digits 0-9 only
(:func:`parse_natural`, and the rational token's pattern).

One more ring, with no file syntax and no spec, lives in
:mod:`blocklin.cyclotomic`: the finite field GF(p)[t]/Phi_l in which the
base-field lift of :func:`~blocklin.inversion.invert_gram_gv` runs over a
prime field.

All values are immutable after construction and safe to share freely.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import ZeroDenominator

__all__ = [
    "RingElement",
    "Rational",
    "PrimeFieldElement",
    "GaussianRational",
    "Quaternion",
    "RationalFunction",
    "ratfun_reduce",
    "QQ",
    "QQ_I",
    "QUAT",
    "GF",
    "RatFun",
    "ring_from_spec",
    "is_prime",
    "parse_natural",
]


# Deterministic Miller-Rabin witness set; sound for all n < 3.3e24,
# far beyond the 2**62 modulus cap enforced by GF().
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _over_common_denominator(values):
    """Integers a and d > 0 with a[k] / d the Fraction ``values[k]``."""
    d = lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def _primitive(coeffs):
    """Coprime integers proportional to a list of Fractions or ints."""
    ints, _ = _over_common_denominator(coeffs)
    content = gcd(*ints)
    return [c // content for c in ints] if content > 1 else ints


def _plus_fraction(num, den, z):
    """num / den + z as one Fraction: the addend joins the integer sum."""
    q = z.denominator
    return Fraction(num * q + z.numerator * den, den * q)


class RingElement:
    """Protocol shared by all scalar types.

    Subclasses overload +, -, * and == and provide ``is_zero``, ``star``,
    ``try_invert`` and a ``ring`` handle.  Mixed-ring arithmetic is a
    TypeError, never a coercion.
    """

    __slots__ = ()

    @property
    def ring(self):
        raise NotImplementedError

    def is_zero(self) -> bool:
        raise NotImplementedError

    def star(self):
        """Ring involution; identity unless the ring has a conjugation."""
        return self

    def try_invert(self):
        """Multiplicative inverse, or None when the element is not a unit."""
        raise NotImplementedError


class Rational(RingElement):
    """An exact rational number, canonically reduced with positive denominator."""

    __slots__ = ("value",)

    def __init__(self, numerator=0, denominator=1):
        if isinstance(numerator, Fraction) and denominator == 1:
            self.value = numerator
            return
        try:
            self.value = Fraction(numerator, denominator)
        except ZeroDivisionError:
            raise ZeroDenominator("rational with denominator 0") from None

    @classmethod
    def _of(cls, value):
        """The element of a Fraction, taken as it is."""
        x = object.__new__(cls)
        x.value = value
        return x

    @property
    def ring(self):
        return QQ

    def is_zero(self):
        return self.value == 0

    def try_invert(self):
        if self.value == 0:
            return None
        return Rational(1 / self.value)

    def __add__(self, other):
        if not isinstance(other, Rational):
            return NotImplemented
        return Rational(self.value + other.value)

    def __sub__(self, other):
        if not isinstance(other, Rational):
            return NotImplemented
        return Rational(self.value - other.value)

    def __neg__(self):
        return Rational(-self.value)

    def __mul__(self, other):
        if not isinstance(other, Rational):
            return NotImplemented
        return Rational(self.value * other.value)

    def __eq__(self, other):
        return isinstance(other, Rational) and self.value == other.value

    def __hash__(self):
        return hash(("Rational", self.value))

    def __repr__(self):
        return f"Rational({self.value})"


class PrimeFieldElement(RingElement):
    """A residue modulo a fixed prime p, stored in [0, p)."""

    __slots__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: int):
        GF(modulus)  # validates primality once per modulus
        self.residue = residue % modulus
        self.modulus = modulus

    @classmethod
    def _of(cls, residue, modulus):
        """The element of a residue already in [0, modulus), taken as it is."""
        x = object.__new__(cls)
        x.residue = residue
        x.modulus = modulus
        return x

    @property
    def ring(self):
        return GF(self.modulus)

    def is_zero(self):
        return self.residue == 0

    def try_invert(self):
        if self.residue == 0:
            return None
        return PrimeFieldElement(pow(self.residue, -1, self.modulus), self.modulus)

    def _check(self, other):
        if not isinstance(other, PrimeFieldElement):
            return False
        if other.modulus != self.modulus:
            raise TypeError("mixed prime field moduli")
        return True

    def __add__(self, other):
        if not self._check(other):
            return NotImplemented
        return PrimeFieldElement(self.residue + other.residue, self.modulus)

    def __sub__(self, other):
        if not self._check(other):
            return NotImplemented
        return PrimeFieldElement(self.residue - other.residue, self.modulus)

    def __neg__(self):
        return PrimeFieldElement(-self.residue, self.modulus)

    def __mul__(self, other):
        if not self._check(other):
            return NotImplemented
        return PrimeFieldElement(self.residue * other.residue, self.modulus)

    def __eq__(self, other):
        return (
            isinstance(other, PrimeFieldElement)
            and self.modulus == other.modulus
            and self.residue == other.residue
        )

    def __hash__(self):
        return hash(("PrimeFieldElement", self.modulus, self.residue))

    def __repr__(self):
        return f"PrimeFieldElement({self.residue}, {self.modulus})"


class _AlgebraElement(RingElement):
    """x_0 + x_1*e_1 + x_2*e_2 + ... with rational parts x_p, in an algebra
    over QQ whose basis e_0 = 1, e_1, ... multiplies by the class's sign
    table: e_p * e_q = signs[p][q] * e_(p xor q), left factor first.

    The table is the only definition of the product: the element product,
    the ring handle's row kernel and its ``commutative`` flag all read it.
    Every e_p with p > 0 squares to -1 and anticommutes with the others, so
    ``star``, which negates every part but x_0, is an anti-involution and
    star(x) * x is the central rational ``norm()``, the sum of the squared
    parts.  Construction pads missing trailing parts with zeros.
    """

    __slots__ = ("parts",)

    def __init_subclass__(cls):
        # the table read once per class: for each part c of a product, the
        # terms (p, q, added or subtracted) with p xor q = c and p > 0
        signs = cls.signs
        k = len(signs)
        cls._terms = tuple(tuple((p, c ^ p, signs[p][c ^ p] > 0) for p in range(1, k)) for c in range(k))

    def __init__(self, *parts):
        k = len(self.signs)
        if len(parts) > k or not all(isinstance(v, (int, Fraction)) for v in parts):
            raise TypeError(f"{type(self).__name__} takes at most {k} int or Fraction parts")
        self.parts = tuple(map(Fraction, parts)) + (Fraction(0),) * (k - len(parts))

    @classmethod
    def _of(cls, parts):
        """The element of a full tuple of Fractions, taken as it is."""
        x = object.__new__(cls)
        x.parts = parts
        return x

    def is_zero(self):
        return not any(self.parts)

    def star(self):
        x = self.parts
        return self._of((x[0], *map(operator.neg, x[1:])))

    def norm(self) -> Fraction:
        """star(x) * x as a rational: the sum of the squared parts."""
        # started at a Fraction, not at the int 0, so every addition is
        # Fraction + Fraction
        x = self.parts
        return sum(map(operator.mul, x[1:], x[1:]), x[0] * x[0])

    def try_invert(self):
        if self.is_zero():
            return None
        # star(x) / norm(x), without building star(x)
        n = self.norm()
        x = self.parts
        return self._of((x[0] / n, *[-v / n for v in x[1:]]))

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._of(tuple(map(operator.add, self.parts, other.parts)))

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._of(tuple(map(operator.sub, self.parts, other.parts)))

    def __neg__(self):
        return self._of(tuple(map(operator.neg, self.parts)))

    def __mul__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # part c of the product gathers x_p * y_q over p xor q = c; e_0 = 1
        # gives x_0 * y_c its sign +1, and each other term is added or
        # subtracted by the table, never multiplied by its sign
        x, y = self.parts, other.parts
        out = []
        for c, terms in enumerate(self._terms):
            acc = x[0] * y[c]
            for p, q, plus in terms:
                if plus:
                    acc += x[p] * y[q]
                else:
                    acc -= x[p] * y[q]
            out.append(acc)
        return self._of(tuple(out))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.parts == other.parts

    def __hash__(self):
        return hash((type(self).__name__, *self.parts))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(str, self.parts))})"


class GaussianRational(_AlgebraElement):
    """a + b*i with rational a, b; ``star`` is complex conjugation."""

    __slots__ = ()
    signs = ((1, 1), (1, -1))
    re = property(lambda self: self.parts[0])
    im = property(lambda self: self.parts[1])


class Quaternion(_AlgebraElement):
    """a + b*i + c*j + d*k over the rationals.

    Multiplication is associative but not commutative (i*j = k, j*i = -k);
    every operation here preserves operand order.  ``star`` negates the
    vector part, and star(q)*q is the central rational a^2+b^2+c^2+d^2.
    """

    __slots__ = ()
    # bases 1, i, j, k as e_0 .. e_3: i*i = j*j = k*k = -1, i*j = k = -j*i, cyclically
    signs = ((1, 1, 1, 1), (1, -1, 1, -1), (1, -1, -1, 1), (1, 1, -1, -1))
    a = property(lambda self: self.parts[0])
    b = property(lambda self: self.parts[1])
    c = property(lambda self: self.parts[2])
    d = property(lambda self: self.parts[3])


class RationalFunction(RingElement):
    """num/den over a base field in the variable t, in canonical form.

    ``num`` and ``den`` are tuples of raw coefficients of the base field
    ``field``, lowest degree first, with no zero leading coefficient.
    Canonical means: denominator monic and nonzero, gcd(num, den) = 1, and
    the zero value is ()/(1,).  Equality of values is therefore structural
    equality.  Construct through :func:`ratfun_reduce` or ring handles; the
    raw constructor trusts its inputs.  All arithmetic runs on the field's
    polynomial kernels (``field.poly_*``).
    """

    __slots__ = ("num", "den", "field")

    def __init__(self, num, den, field):
        self.num = tuple(num)
        self.den = tuple(den)
        self.field = field

    @property
    def ring(self):
        return RatFun(self.field)

    def is_zero(self):
        return not self.num

    def is_constant(self) -> bool:
        return len(self.den) == 1 and len(self.num) <= 1

    def constant_value(self):
        """Raw base-field value of a constant; requires ``is_constant()``."""
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return self.num[0] if self.num else self.field.raw_zero

    def try_invert(self):
        if not self.num:
            return None
        return _monic_form(self.den, self.num, self.field)

    def _combine(self, other, subtract: bool):
        # inputs are canonical (gcd(num, den) = 1), which keeps the final
        # reduction down to a gcd against the common factor g of the dens
        f = self.field
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        op = f.poly_sub if subtract else f.poly_add
        if d1 == d2:
            return ratfun_reduce(op(n1, n2), d1, f)
        e1, e2, g = _cancel(d1, d2, f)
        num = op(f.poly_mul(n1, e2), f.poly_mul(n2, e1))
        den = f.poly_mul(e1, e2)
        if g is not None:
            num, g, _ = _cancel(num, g, f)
            den = f.poly_mul(den, g)
        return _monic_form(num, den, f)

    def __add__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        return self._combine(other, subtract=False)

    def __sub__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        return self._combine(other, subtract=True)

    def __neg__(self):
        return RationalFunction(self.field.poly_sub((), self.num), self.den, self.field)

    def __mul__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        f = self.field
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if len(d1) == 1 and len(d2) == 1:
            # monic degree-0 denominators are exactly 1: no reduction needed
            return RationalFunction(f.poly_mul(n1, n2), d1, f)
        # cross-cancel; canonical inputs make the product coprime afterwards
        n1, d2, _ = _cancel(n1, d2, f)
        n2, d1, _ = _cancel(n2, d1, f)
        return _monic_form(f.poly_mul(n1, n2), f.poly_mul(d1, d2), f)

    def _same_ring(self, other):
        if not isinstance(other, RationalFunction):
            return False
        if other.field is not self.field:
            raise TypeError("mixed rational function base fields")
        return True

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.field is other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash(("RationalFunction", self.field.spec, self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({list(self.num)!r}, {list(self.den)!r}, {self.field.spec})"


def _cancel(a, b, field):
    """a // g, b // g and g = gcd(a, b) when g has positive degree, else
    a, b and None; a constant a or b skips the gcd."""
    if len(a) > 1 and len(b) > 1:
        g = field.poly_gcd(a, b)
        if len(g) > 1:
            return field.poly_divmod(a, g)[0], field.poly_divmod(b, g)[0], g
    return a, b, None


def _monic_form(num, den, field) -> RationalFunction:
    """Canonical form for an already-coprime pair: monic den, canonical zero."""
    if not num:
        return RationalFunction((), (field.raw_one,), field)
    lead = den[-1]
    if lead != 1:
        inv = field.raw_inv(lead)
        num = field._reduce([c * inv for c in num])
        den = field._reduce([c * inv for c in den])
    return RationalFunction(num, den, field)


def ratfun_reduce(num, den, field) -> RationalFunction:
    """Canonicalize num/den, two raw coefficient sequences over ``field``
    (lowest degree first): cancel the gcd, make the denominator monic.

    Raises ZeroDenominator when den = 0.
    """
    num, den = field._reduce(list(num)), field._reduce(list(den))
    if not den:
        raise ZeroDenominator("rational function with zero denominator")
    num, den, _ = _cancel(num, den, field)
    return _monic_form(num, den, field)


# ---------------------------------------------------------------------------
# token parsing / formatting helpers


_TERM_SPLIT = re.compile(r"[+-]?[^+-]+")
# digits are [0-9], as in parse_natural: \d would take other Unicode digits
_RATIONAL_TOKEN = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")

# Largest t exponent a polynomial token may carry, as the parser allocates
# one coefficient per power: far above the degree 2 * 256 that the inverse
# of a generated n <= 256 matrix (entries of degree <= 2) can reach.
_MAX_T_EXPONENT = 1 << 16


def _split_terms(token: str):
    terms = _TERM_SPLIT.findall(token)
    if "".join(terms) != token or not terms:
        raise ValueError(f"malformed scalar token {token!r}")
    return terms


def parse_natural(text: str) -> int | None:
    """The int of ``text`` if it is one or more ASCII digits 0-9, else None.

    The reader of every unsigned integer of the format but those inside a
    rational token: ``int()`` alone also takes other Unicode digits, signs,
    spaces and underscores, and ``str.isdigit`` other Unicode digits.
    """
    return int(text) if text.isascii() and text.isdigit() else None


def _parse_signed(text: str) -> int | None:
    """The int of an optional sign followed by ASCII digits, else None."""
    value = parse_natural(text[1:] if text[:1] in ("+", "-") else text)
    return -value if value is not None and text[0] == "-" else value


def _parse_rational(text: str, what: str = "token") -> Fraction:
    """The rational ``a`` or ``a/b`` of ``text``, matched once."""
    match = _RATIONAL_TOKEN.match(text)
    if not match:
        raise ValueError(f"malformed rational {what} {text!r}")
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    try:
        return Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ZeroDenominator(f"zero denominator in {text!r}") from None


def _parse_coefficient(text: str) -> Fraction:
    if text in ("", "+"):
        return Fraction(1)
    if text == "-":
        return Fraction(-1)
    return _parse_rational(text, "coefficient")


def _join_terms(terms):
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


def _parse_units(token: str, units: str) -> list:
    """Rational coefficients of an ``a+b*u+...`` token, one per unit in
    ``units`` after the real part.  A term may repeat a unit, omit the ``*``,
    or omit a coefficient of 1."""
    parts = dict.fromkeys(["", *units], Fraction(0))
    for term in _split_terms(token):
        unit = term[-1] if term[-1] in units else ""
        coeff = term[:-1] if unit else term
        if unit and coeff.endswith("*"):
            coeff = coeff[:-1]
        parts[unit] += _parse_coefficient(coeff)
    return [parts[""], *(parts[u] for u in units)]


def _format_units(parts, units: str) -> str:
    """Inverse of :func:`_parse_units`: nonzero parts joined, ``0`` if none."""
    terms = [str(parts[0])] if parts[0] != 0 else []
    terms += [f"{c}*{u}" for c, u in zip(parts[1:], units) if c != 0]
    return _join_terms(terms) if terms else "0"


# ---------------------------------------------------------------------------
# ring handles


class _Ring:
    """Handle for one scalar ring: construction, sampling, token syntax."""

    spec = ""
    commutative = True

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def parse(self, token: str):
        raise NotImplementedError

    def format(self, x) -> str:
        raise NotImplementedError

    def random_element(self, rng):
        raise NotImplementedError

    # whether ``star`` is the identity on every element
    trivial_star = True

    def pack(self, rows):
        """Rows of elements in the packed form of the row kernels, as
        (rows, den): a tuple of row tuples over a positive integer den.
        Here the elements as they are over 1; QQ overrides it."""
        return tuple(map(tuple, rows)), 1

    def unpack(self, rows, den):
        """Rows of elements of packed ``rows`` over ``den``; here the rows
        themselves."""
        return rows

    def invert_packed(self, value, den):
        """The packed (value, den) of the inverse of the packed ``value`` over
        ``den``, or None when it is zero."""
        inverse = value.try_invert()
        return None if inverse is None else (inverse, 1)

    def dot_rows(self, rows, cols, addend=None, sign=1):
        """Packed row lists: entry (i, j) is sign * (rows[i] . cols[j]) + addend[i][j].

        ``sign`` is 1 or -1 (over QQ, any integer), and ``addend``, when
        given, holds the packed rows of a matrix of the output's shape;
        every kernel folds both into the one value it builds per entry, so
        no second pass follows the product.  This scalar-object kernel
        serves K(t) only; QQ, GF(p), QQ_I, QUAT and the lift fields
        override it with kernels on integers, residues or packed ints.
        Products are taken left times right and summed in adjacent pairs,
        level by level, an odd last term carried up unchanged: at
        power-of-two lengths the order of the block recursion, whose
        intermediate sums this keeps, and with them the growth of K(t)
        numerators and denominators.  Only the finished pairwise sum s
        meets the sign and the addend z, as -s, z + s or z - s.
        """
        cols = list(cols)
        out = []
        for i, a in enumerate(rows):
            z_row = None if addend is None else addend[i]
            out_row = []
            for j, b in enumerate(cols):
                terms = list(map(operator.mul, a, b))
                while len(terms) > 1:
                    odd = terms[-1:] if len(terms) % 2 else []
                    terms = [s + t for s, t in zip(terms[::2], terms[1::2])] + odd
                total = terms[0]
                if z_row is not None:
                    total = z_row[j] + total if sign > 0 else z_row[j] - total
                elif sign < 0:
                    total = -total
                out_row.append(total)
            out.append(out_row)
        return out

    def pivot_product(self, rows):
        """Signed product of the pivots of a forward elimination of ``rows``,
        zero when some column has no pivot: the determinant over a
        commutative ring, and over any division ring nonzero exactly when
        the rows are independent.  Row r loses ``a[r][col] * pivot^-1``
        times the pivot row, a left row operation, which is sound over the
        quaternions as well.
        """
        a = [list(row) for row in rows]
        n = len(a)
        det = self.one()
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
            if pivot_row is None:
                return self.zero()
            if pivot_row != col:
                a[col], a[pivot_row] = a[pivot_row], a[col]
                det = -det
            pivot = a[col][col]
            det = det * pivot
            pivot_inv = pivot.try_invert()
            for r in range(col + 1, n):
                if a[r][col].is_zero():
                    continue
                factor = a[r][col] * pivot_inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
        return det

    def __repr__(self):
        return f"<ring {self.spec}>"


class _CoefficientField(_Ring):
    """A coefficient field of K(t): QQ or GF(p).

    Raw coefficients are Fractions over QQ and residues in [0, p) over
    GF(p).  The polynomial kernels below work on raw coefficient sequences,
    lowest degree first, with plain + - * and leave every result list to
    ``_reduce``, the one home of the canonical form: ``% p`` over GF(p),
    then no zero leading coefficient.  Inputs are canonical; results are
    lists.
    """

    def _reduce(self, coeffs):
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return coeffs

    def poly_add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._reduce(out)

    def poly_sub(self, a, b):
        out = list(a) + [self.raw_zero] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return self._reduce(out)

    def poly_mul(self, a, b):
        if not a or not b:
            return []
        out = [self.raw_zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return self._reduce(out)

    def poly_divmod(self, a, b):
        """Quotient and remainder of a by b, whose leading coefficient is nonzero."""
        rem = list(a)
        db = len(b) - 1
        dn = len(rem) - 1
        if dn < db:
            return [], rem
        raw_mul = self.raw_mul
        inv_lead = self.raw_inv(b[-1])
        quot = [self.raw_zero] * (dn - db + 1)
        for k in range(dn - db, -1, -1):
            coef = raw_mul(rem[db + k], inv_lead)
            if coef:
                quot[k] = coef
                for j, c in enumerate(b, k):
                    rem[j] -= coef * c
        return quot, self._reduce(rem[:db])

    def poly_gcd(self, a, b):
        """Monic greatest common divisor via the Euclidean algorithm."""
        while b:
            a, b = b, self.poly_divmod(a, b)[1]
        if a and a[-1] != 1:
            inv = self.raw_inv(a[-1])
            return self._reduce([c * inv for c in a])
        return list(a)


class _RationalField(_CoefficientField):
    spec = "q"

    raw_zero = Fraction(0)
    raw_one = Fraction(1)

    def zero(self):
        return Rational(0)

    def one(self):
        return Rational(1)

    def from_int(self, n):
        return Rational(n)

    def parse(self, token):
        return Rational(_parse_rational(token))

    def format(self, x):
        return str(x.value)

    def random_element(self, rng):
        return Rational(rng.randint(-9, 9))

    def pack(self, rows):
        # integers over the lcm of all denominators; the entries are
        # reduced Fractions, so no prime of that lcm divides them all
        values = [[x.value for x in row] for row in rows]
        den = lcm(*[v.denominator for row in values for v in row])
        if den == 1:
            return tuple([tuple([v.numerator for v in row]) for row in values]), 1
        return tuple([tuple([v.numerator * (den // v.denominator) for v in row]) for row in values]), den

    def unpack(self, rows, den):
        make = Rational._of
        if den == 1:
            return [[make(Fraction(v)) for v in row] for row in rows]
        return [[make(Fraction(v, den)) for v in row] for row in rows]

    def invert_packed(self, value, den):
        if not value:
            return None
        return (den, value) if value > 0 else (-den, -value)

    def dot_rows(self, rows, cols, addend=None, sign=1):
        # integer rows in, integer rows out: the sign is any integer, and
        # the caller keeps every denominator
        cols = list(cols)
        mul = operator.mul
        if addend is None:
            return [[sign * sum(map(mul, a, b)) for b in cols] for a in rows]
        return [[sign * sum(map(mul, a, b)) + z for b, z in zip(cols, z_row)] for a, z_row in zip(rows, addend)]

    def pivot_product(self, rows):
        # fraction-free (Bareiss) elimination on integer rows, row i scaled by
        # its common denominator d_i: each step divides exactly by the
        # previous pivot, and the last pivot is +-det * prod(d_i)
        a, scale = [], 1
        for row in rows:
            ints, d = _over_common_denominator([s.value for s in row])
            a.append(ints)
            scale *= d
        sign, prev = 1, 1
        while a:
            k = next((r for r, row in enumerate(a) if row[0]), None)
            if k is None:
                return Rational(0)
            if k:
                a[0], a[k] = a[k], a[0]
                sign = -sign
            top = a[0]
            pivot, rest = top[0], top[1:]
            a = [
                [(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], rest)]
                for row in a[1:]
            ]
            prev = pivot
        return Rational(Fraction(sign * prev, scale))

    def poly_gcd(self, a, b):
        # primitive remainder sequence on integer coefficients, content
        # removed at each step: Euclid on Fractions lets the coefficients
        # blow up along the remainder sequence
        a, b = _primitive(a), _primitive(b)
        while b:
            rem, lead = a, b[-1]
            while len(rem) >= len(b):
                g = gcd(lead, rem[-1])
                scale, top, pad = lead // g, rem[-1] // g, [0] * (len(rem) - len(b))
                rem = self._reduce([scale * x - top * y for x, y in zip(rem, pad + b)])
            a, b = b, _primitive(rem)
        return [Fraction(c, a[-1]) for c in a] if a else []

    @staticmethod
    def raw_mul(a, b):
        return a * b

    @staticmethod
    def raw_inv(a):
        return 1 / a

    @staticmethod
    def raw_from_int(n):
        return Fraction(n)

    @staticmethod
    def raw_parse(text):
        return _parse_coefficient(text)

    def wrap(self, raw):
        return Rational(raw)

    def unwrap(self, x):
        return x.value


QQ = _RationalField()


class _PrimeField(_CoefficientField):
    raw_zero = 0
    raw_one = 1

    def __init__(self, p: int):
        self.p = p
        self.spec = f"gf:{p}"

    def zero(self):
        return PrimeFieldElement(0, self.p)

    def one(self):
        return PrimeFieldElement(1, self.p)

    def from_int(self, n):
        return PrimeFieldElement(n, self.p)

    def parse(self, token):
        value = parse_natural(token)
        if value is None:
            raise ValueError(f"malformed prime field token {token!r}")
        return PrimeFieldElement(value, self.p)

    def format(self, x):
        return str(x.residue)

    def random_element(self, rng):
        return PrimeFieldElement(rng.randrange(self.p), self.p)

    def dot_rows(self, rows, cols, addend=None, sign=1):
        # residue dot products, one reduction per entry, into which the sign
        # and the addend are folded; the reduced residues need no check
        p, make = self.p, PrimeFieldElement._of
        left = [[s.residue for s in row] for row in rows]
        right = [[s.residue for s in col] for col in cols]
        if addend is None:
            return [[make(sign * sum(map(operator.mul, a, b)) % p, p) for b in right] for a in left]
        return [
            [make((sign * sum(map(operator.mul, a, b)) + z.residue) % p, p) for b, z in zip(right, z_row)]
            for a, z_row in zip(left, addend)
        ]

    def pivot_product(self, rows):
        # elimination on raw residues; the rows shrink by the pivot column
        p = self.p
        a = [[s.residue for s in row] for row in rows]
        det = 1
        while a:
            k = next((r for r, row in enumerate(a) if row[0]), None)
            if k is None:
                return PrimeFieldElement(0, p)
            if k:
                a[0], a[k] = a[k], a[0]
                det = -det
            top = a[0]
            det = det * top[0] % p
            pivot_inv, rest = pow(top[0], -1, p), top[1:]
            out = []
            for row in a[1:]:
                factor = row[0] * pivot_inv % p
                out.append([(x - factor * y) % p for x, y in zip(row[1:], rest)] if factor else row[1:])
            a = out
        return PrimeFieldElement._of(det, p)

    def raw_mul(self, a, b):
        return a * b % self.p

    def raw_inv(self, a):
        return pow(a, -1, self.p)

    def raw_from_int(self, n):
        return n % self.p

    def raw_parse(self, text):
        value = _parse_signed(text)
        if value is None:
            raise ValueError(f"malformed prime field coefficient {text!r}")
        return value % self.p

    def wrap(self, raw):
        return PrimeFieldElement(raw, self.p)

    def unwrap(self, x):
        return x.residue

    def _reduce(self, coeffs):
        p = self.p
        return _CoefficientField._reduce(self, [c % p for c in coeffs])


@lru_cache(maxsize=None)
def GF(p: int) -> _PrimeField:
    """The prime field of p elements; p is primality-checked once."""
    if not isinstance(p, int):
        raise TypeError("modulus must be an int")
    if p >= 1 << 62:
        raise ValueError("modulus too large; must be below 2**62")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _PrimeField(p)


class _QQAlgebra(_Ring):
    """Handle of QQ_I or QUAT: an algebra over QQ whose ``element`` type
    carries the sign table, and whose ``ring`` the handle becomes.
    ``units`` are the letters of e_1, e_2, ... in the token syntax, and
    sampled parts lie in [-bound, bound]."""

    trivial_star = False

    def __init__(self, spec, element, units, bound):
        self.spec, self.element, self.units, self.bound = spec, element, units, bound
        signs = element.signs
        self.commutative = all(signs[p][q] == signs[q][p] for p in range(len(signs)) for q in range(p))
        element.ring = self

    def zero(self):
        return self.element()

    def one(self):
        return self.element(1)

    def from_int(self, n):
        return self.element(n)

    def parse(self, token):
        return self.element(*_parse_units(token, self.units))

    def format(self, x):
        return _format_units(x.parts, self.units)

    def random_element(self, rng):
        return self.element(*(rng.randint(-self.bound, self.bound) for _ in range(len(self.element.signs))))

    def dot_rows(self, rows, cols, addend=None, sign=1):
        # All parts of a row (a column) come over one common denominator d
        # (e), laid end to end, part by part.  Part c of an entry is then one
        # integer dot product of the column with the row's blocks e_(c xor
        # q), signed by the table times ``sign``, for q = 0, 1, ..., and one
        # Fraction over d * e, into which the addend's part c is folded.
        signs, make = self.element.signs, self.element._of
        k = len(signs)

        def flat(vector):
            return _over_common_denominator([x.parts[p] for p in range(k) for x in vector])

        right = [flat(col) for col in cols]
        out = []
        for i, row in enumerate(rows):
            ints, d = flat(row)
            n = len(row)
            blocks = [ints[p * n : (p + 1) * n] for p in range(k)]
            negated = [[-x for x in block] for block in blocks]
            left = [
                [x for q in range(k) for x in (blocks if signs[c ^ q][q] * sign > 0 else negated)[c ^ q]]
                for c in range(k)
            ]
            if addend is None:
                out_row = [make(tuple([Fraction(sum(map(operator.mul, a, b)), d * e) for a in left])) for b, e in right]
            else:
                out_row = [
                    make(tuple([_plus_fraction(sum(map(operator.mul, a, b)), d * e, z) for a, z in zip(left, zs.parts)]))
                    for (b, e), zs in zip(right, addend[i])
                ]
            out.append(out_row)
        return out


QQ_I = _QQAlgebra("qi", GaussianRational, "i", 9)
QUAT = _QQAlgebra("quat", Quaternion, "ijk", 5)


class _RationalFunctionField(_Ring):
    def __init__(self, base):
        self.base = base
        self.spec = f"ratfun:{base.spec}"

    def zero(self):
        return self.constant(self.base.raw_zero)

    def one(self):
        return self.constant(self.base.raw_one)

    def from_int(self, n):
        return self.constant(self.base.raw_from_int(n))

    def constant(self, raw):
        base = self.base
        return RationalFunction(base._reduce([raw]), (base.raw_one,), base)

    def lift(self, x):
        """Embed a base-field element as a constant rational function."""
        return self.constant(self.base.unwrap(x))

    def t_power(self, exponent: int):
        """t**exponent for any integer exponent, negatives included."""
        base = self.base
        power = [base.raw_zero] * abs(exponent) + [base.raw_one]
        if exponent >= 0:
            return RationalFunction(power, (base.raw_one,), base)
        return RationalFunction((base.raw_one,), power, base)

    def parse(self, token):
        if not token.startswith("("):
            raise ValueError(f"malformed rational function token {token!r}")
        close = token.find(")")
        if close < 0:
            raise ValueError(f"malformed rational function token {token!r}")
        num = self._parse_poly(token[1:close])
        rest = token[close + 1 :]
        if not rest:
            den = (self.base.raw_one,)
        elif rest.startswith("/(") and rest.endswith(")"):
            den = self._parse_poly(rest[2:-1])
        else:
            raise ValueError(f"malformed rational function token {token!r}")
        return ratfun_reduce(num, den, self.base)

    def _parse_poly(self, text: str) -> list:
        base = self.base
        coeffs = {}
        for term in _split_terms(text):
            head, t, tail = term.partition("t")
            exp = 0
            if t:
                head = head.removesuffix("*")
                coeff = base.raw_parse(head + "1" if head in ("", "+", "-") else head)
                exp = 1 if tail == "" else parse_natural(tail[1:]) if tail.startswith("^") else None
                if exp is None:
                    raise ValueError(f"malformed polynomial term {term!r}")
                if exp > _MAX_T_EXPONENT:
                    raise ValueError(f"t exponent in {term!r} above {_MAX_T_EXPONENT}")
            else:
                coeff = base.raw_parse(term)
            coeffs[exp] = coeffs.get(exp, 0) + coeff
        out = [base.raw_zero] * (max(coeffs) + 1)
        for exp, coeff in coeffs.items():
            out[exp] = coeff
        return out

    @staticmethod
    def _format_poly(coeffs) -> str:
        terms = []
        for exp, coeff in enumerate(coeffs):
            if not coeff:
                continue
            if exp == 0:
                terms.append(str(coeff))
            elif exp == 1:
                terms.append(f"{coeff}*t")
            else:
                terms.append(f"{coeff}*t^{exp}")
        return _join_terms(terms) if terms else "0"

    def format(self, x):
        num = f"({self._format_poly(x.num)})"
        if len(x.den) == 1:
            return num
        return f"{num}/({self._format_poly(x.den)})"

    def random_element(self, rng):
        degree = rng.randint(0, 2)
        coeffs = [self.base.raw_from_int(rng.randint(-4, 4)) for _ in range(degree + 1)]
        return ratfun_reduce(coeffs, (self.base.raw_one,), self.base)


@lru_cache(maxsize=None)
def _ratfun_field(base_spec: str) -> _RationalFunctionField:
    return _RationalFunctionField(ring_from_spec(base_spec))


def RatFun(base) -> _RationalFunctionField:
    """The field of rational functions in t over ``base`` (QQ or GF(p))."""
    if not isinstance(base, _CoefficientField):
        raise TypeError("rational functions need a QQ or GF(p) base field")
    return _ratfun_field(base.spec)


def ring_from_spec(spec: str) -> _Ring:
    """Resolve a ring spec string as used by matrix file headers."""
    if spec == "q":
        return QQ
    if spec == "qi":
        return QQ_I
    if spec == "quat":
        return QUAT
    if spec.startswith("gf:"):
        p = parse_natural(spec[3:])
        if p is None:
            raise ValueError(f"malformed prime field modulus in {spec!r}")
        return GF(p)
    if spec.startswith("ratfun:"):
        base = spec[len("ratfun:") :]
        if base != "q" and not base.startswith("gf:"):
            raise ValueError(f"rational functions need a q or gf:P base, not {base!r}")
        return RatFun(ring_from_spec(base))
    raise ValueError(f"unknown ring spec {spec!r}")
