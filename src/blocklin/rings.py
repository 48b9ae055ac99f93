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

One more ring, with no file syntax and no spec, lives in
:mod:`blocklin.cyclotomic`: the finite field GF(p)[t]/Phi_l in which the
base-field lift of :func:`~blocklin.inversion.invert_gram_gv` runs over a
prime field.

All values are immutable after construction and safe to share freely.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import ZeroDenominator

__all__ = [
    "RingElement",
    "Rational",
    "PrimeFieldElement",
    "GaussianRational",
    "Quaternion",
    "Polynomial",
    "RationalFunction",
    "ratfun_reduce",
    "QQ",
    "QQ_I",
    "QUAT",
    "GF",
    "RatFun",
    "ring_from_spec",
    "is_prime",
]


# Deterministic Miller-Rabin witness set; sound for all n < 3.3e24,
# far beyond the 2**62 modulus cap enforced by GF().
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


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


class GaussianRational(RingElement):
    """a + b*i with rational a, b; ``star`` is complex conjugation."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @property
    def ring(self):
        return QQ_I

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def star(self):
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """star(x) * x as a rational: a^2 + b^2, a sum of squares."""
        return self.re * self.re + self.im * self.im

    def try_invert(self):
        if self.is_zero():
            return None
        n = self.norm()
        return GaussianRational(self.re / n, -self.im / n)

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __eq__(self, other):
        return (
            isinstance(other, GaussianRational)
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        return hash(("GaussianRational", self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


class Quaternion(RingElement):
    """a + b*i + c*j + d*k over the rationals.

    Multiplication is associative but not commutative (i*j = k, j*i = -k);
    every operation here preserves operand order.  ``star`` negates the
    vector part, and star(q)*q is the central rational a^2+b^2+c^2+d^2.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = _as_fraction(a)
        self.b = _as_fraction(b)
        self.c = _as_fraction(c)
        self.d = _as_fraction(d)

    @property
    def ring(self):
        return QUAT

    def is_zero(self):
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def star(self):
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm(self) -> Fraction:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def try_invert(self):
        if self.is_zero():
            return None
        n = self.norm()
        return Quaternion(self.a / n, -self.b / n, -self.c / n, -self.d / n)

    def __add__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self):
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def __eq__(self, other):
        return (
            isinstance(other, Quaternion)
            and (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        )

    def __hash__(self):
        return hash(("Quaternion", self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"Quaternion({self.a}, {self.b}, {self.c}, {self.d})"


class Polynomial:
    """Dense univariate polynomial over a base field, lowest degree first.

    Coefficients are stored in the field's raw representation (Fraction for
    QQ, int residues for GF(p)) to keep the inner loops cheap.  The zero
    polynomial has an empty coefficient tuple; otherwise the leading
    coefficient is nonzero.
    """

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field, *, trusted=False):
        self.field = field
        if trusted:
            self.coeffs = coeffs
            return
        cs = list(coeffs)
        while cs and field.raw_is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls((), field, trusted=True)

    @classmethod
    def one(cls, field):
        return cls((field.raw_one,), field, trusted=True)

    @classmethod
    def constant(cls, raw, field):
        return cls((raw,), field)

    @classmethod
    def t_power(cls, exponent: int, field):
        if exponent < 0:
            raise ValueError("t_power wants a nonnegative exponent")
        return cls((field.raw_zero,) * exponent + (field.raw_one,), field, trusted=True)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def valuation(self) -> int:
        """Lowest exponent with a nonzero coefficient; 0 for the zero polynomial."""
        f = self.field
        for i, c in enumerate(self.coeffs):
            if not f.raw_is_zero(c):
                return i
        return 0

    def _strip(self, k: int) -> "Polynomial":
        # divide by t**k; caller guarantees valuation >= k
        return Polynomial(self.coeffs[k:], self.field, trusted=True)

    def __add__(self, other):
        f = self.field
        return Polynomial(f.poly_add(self.coeffs, other.coeffs), f)

    def __neg__(self):
        f = self.field
        return Polynomial(tuple(f.raw_neg(c) for c in self.coeffs), f, trusted=True)

    def __sub__(self, other):
        f = self.field
        return Polynomial(f.poly_sub(self.coeffs, other.coeffs), f)

    def __mul__(self, other):
        f = self.field
        return Polynomial(f.poly_mul(self.coeffs, other.coeffs), f)

    def scale(self, raw) -> "Polynomial":
        f = self.field
        if f.raw_is_zero(raw):
            return Polynomial.zero(f)
        return Polynomial(tuple(f.raw_mul(c, raw) for c in self.coeffs), f)

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == self.field.raw_one:
            return self
        return self.scale(self.field.raw_inv(lead))

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        quot, rem = f.poly_divmod(self.coeffs, other.coeffs)
        return Polynomial(quot, f), Polynomial(rem, f)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(("Polynomial", self.field.spec, self.coeffs))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r}, {self.field.spec})"


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor via the Euclidean algorithm."""
    field = a.field
    return Polynomial(field.poly_gcd(a.coeffs, b.coeffs), field, trusted=False)


class RationalFunction(RingElement):
    """num/den over a base field in the variable t, in canonical form.

    Canonical means: denominator monic and nonzero, gcd(num, den) = 1, and
    the zero value is 0/1.  Equality of values is therefore structural
    equality.  Construct through :func:`ratfun_reduce` or ring handles; the
    raw constructor trusts its inputs.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        self.num = num
        self.den = den

    @property
    def ring(self):
        return RatFun(self.num.field)

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.den.degree() == 0 and self.num.degree() <= 0

    def constant_value(self):
        """Raw base-field value of a constant; requires ``is_constant()``."""
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        if self.num.is_zero():
            return self.field.raw_zero
        return self.num.coeffs[0]

    def try_invert(self):
        if self.num.is_zero():
            return None
        num, den = self.den, self.num
        lead = den.leading()
        if lead != self.field.raw_one:
            inv = self.field.raw_inv(lead)
            num, den = num.scale(inv), den.scale(inv)
        return RationalFunction(num, den)

    def _combine(self, other, subtract: bool):
        # inputs are canonical (gcd(num, den) = 1), which keeps the final
        # reduction down to a gcd against the small common den factor
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == d2:
            return ratfun_reduce(n1 - n2 if subtract else n1 + n2, d1)
        g = poly_gcd(d1, d2) if d1.degree() > 0 and d2.degree() > 0 else None
        if g is None or g.degree() == 0:
            num = n1 * d2 - n2 * d1 if subtract else n1 * d2 + n2 * d1
            return _monic_form(num, d1 * d2)
        e2 = d2 // g
        left, right = n1 * e2, n2 * (d1 // g)
        num = left - right if subtract else left + right
        den = d1 * e2
        shared = poly_gcd(num, g)
        if shared.degree() > 0:
            num, den = num // shared, den // shared
        return _monic_form(num, den)

    def __add__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        return self._combine(other, subtract=False)

    def __sub__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        return self._combine(other, subtract=True)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1.degree() == 0 and d2.degree() == 0:
            # monic degree-0 denominators are exactly 1: no reduction needed
            return RationalFunction(n1 * n2, d1)
        # cross-cancel; canonical inputs make the product coprime afterwards
        if n1.degree() > 0 and d2.degree() > 0:
            g = poly_gcd(n1, d2)
            if g.degree() > 0:
                n1, d2 = n1 // g, d2 // g
        if n2.degree() > 0 and d1.degree() > 0:
            g = poly_gcd(n2, d1)
            if g.degree() > 0:
                n2, d1 = n2 // g, d1 // g
        return _monic_form(n1 * n2, d1 * d2)

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
        return hash(("RationalFunction", self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _monic_form(num: Polynomial, den: Polynomial) -> RationalFunction:
    """Canonical form for an already-coprime pair: monic den, canonical zero."""
    field = num.field
    if num.is_zero():
        return RationalFunction(Polynomial.zero(field), Polynomial.one(field))
    lead = den.leading()
    if lead != field.raw_one:
        inv = field.raw_inv(lead)
        num, den = num.scale(inv), den.scale(inv)
    return RationalFunction(num, den)


def ratfun_reduce(num: Polynomial, den: Polynomial) -> RationalFunction:
    """Canonicalize num/den: cancel the gcd, make the denominator monic.

    Raises ZeroDenominator when den = 0.  The common t-power is cancelled
    first; it is the dominant case for conjugation-scaled matrices and
    avoids a full Euclidean run.
    """
    if den.is_zero():
        raise ZeroDenominator("rational function with zero denominator")
    field = num.field
    if num.is_zero():
        return RationalFunction(Polynomial.zero(field), Polynomial.one(field))
    v = min(num.valuation(), den.valuation())
    if v:
        num, den = num._strip(v), den._strip(v)
    if den.degree() > 0 and num.degree() > 0:
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num, den = num // g, den // g
    if den.degree() == 0 or den.leading() != field.raw_one:
        inv = field.raw_inv(den.leading())
        if inv != field.raw_one:
            num, den = num.scale(inv), den.scale(inv)
    return RationalFunction(num, den)


# ---------------------------------------------------------------------------
# token parsing / formatting helpers


_TERM_SPLIT = re.compile(r"[+-]?[^+-]+")
_RATIONAL_TOKEN = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def _split_terms(token: str):
    terms = _TERM_SPLIT.findall(token)
    if "".join(terms) != token or not terms:
        raise ValueError(f"malformed scalar token {token!r}")
    return terms


def _parse_coefficient(text: str) -> Fraction:
    if text in ("", "+"):
        return Fraction(1)
    if text == "-":
        return Fraction(-1)
    if not _RATIONAL_TOKEN.match(text):
        raise ValueError(f"malformed rational coefficient {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ZeroDenominator(f"zero denominator in {text!r}") from None


def _join_terms(terms):
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


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

    def __repr__(self):
        return f"<ring {self.spec}>"


class _RationalField(_Ring):
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
        if not _RATIONAL_TOKEN.match(token):
            raise ValueError(f"malformed rational token {token!r}")
        return Rational(_parse_coefficient(token))

    def format(self, x):
        return str(x.value)

    def random_element(self, rng):
        return Rational(rng.randint(-9, 9))

    # raw coefficient protocol (Fractions)
    @staticmethod
    def raw_is_zero(a):
        return a == 0

    @staticmethod
    def raw_add(a, b):
        return a + b

    @staticmethod
    def raw_neg(a):
        return -a

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

    @staticmethod
    def raw_format(a):
        return str(a)

    def wrap(self, raw):
        return Rational(raw)

    def unwrap(self, x):
        return x.value

    # bulk polynomial kernels over raw coefficient sequences
    @staticmethod
    def poly_add(a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return out

    @staticmethod
    def poly_sub(a, b):
        out = list(a)
        if len(out) < len(b):
            out.extend([Fraction(0)] * (len(b) - len(out)))
        for i, c in enumerate(b):
            out[i] = out[i] - c
        return out

    @staticmethod
    def poly_mul(a, b):
        if not a or not b:
            return []
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return out

    @staticmethod
    def poly_divmod(a, b):
        rem = list(a)
        db = len(b) - 1
        dn = len(rem) - 1
        if dn < db:
            return [], rem
        inv_lead = 1 / b[-1]
        quot = [Fraction(0)] * (dn - db + 1)
        for k in range(dn - db, -1, -1):
            coef = rem[db + k] * inv_lead
            if coef:
                quot[k] = coef
                for j, c in enumerate(b):
                    rem[j + k] -= coef * c
        return quot, rem

    def poly_gcd(self, a, b):
        a, b = list(a), list(b)
        while a and not a[-1]:
            a.pop()
        while b and not b[-1]:
            b.pop()
        while b:
            _, a = self.poly_divmod(a, b)
            while a and not a[-1]:
                a.pop()
            a, b = b, a
        if a and a[-1] != 1:
            inv = 1 / a[-1]
            a = [c * inv for c in a]
        return a


QQ = _RationalField()


class _PrimeField(_Ring):
    def __init__(self, p: int):
        self.p = p
        self.spec = f"gf:{p}"
        self.raw_zero = 0
        self.raw_one = 1 % p
        # inverse lookup for small moduli; polynomial kernels hit this hard
        self._inv_table = (
            [0] + [pow(i, -1, p) for i in range(1, p)] if p <= 1024 else None
        )

    def zero(self):
        return PrimeFieldElement(0, self.p)

    def one(self):
        return PrimeFieldElement(1, self.p)

    def from_int(self, n):
        return PrimeFieldElement(n, self.p)

    def parse(self, token):
        if not token.isdigit():
            raise ValueError(f"malformed prime field token {token!r}")
        return PrimeFieldElement(int(token), self.p)

    def format(self, x):
        return str(x.residue)

    def random_element(self, rng):
        return PrimeFieldElement(rng.randrange(self.p), self.p)

    def raw_is_zero(self, a):
        return a == 0

    def raw_add(self, a, b):
        return (a + b) % self.p

    def raw_neg(self, a):
        return -a % self.p

    def raw_mul(self, a, b):
        return a * b % self.p

    def raw_inv(self, a):
        if self._inv_table is not None:
            if a == 0:
                raise ZeroDivisionError("inverse of zero residue")
            return self._inv_table[a % self.p]
        return pow(a, -1, self.p)

    def raw_from_int(self, n):
        return n % self.p

    def raw_parse(self, text):
        sign, digits = 1, text
        if digits[:1] in ("+", "-"):
            sign = -1 if digits[0] == "-" else 1
            digits = digits[1:]
        if not digits.isdigit():
            raise ValueError(f"malformed prime field coefficient {text!r}")
        return sign * int(digits) % self.p

    @staticmethod
    def raw_format(a):
        return str(a)

    def wrap(self, raw):
        return PrimeFieldElement(raw, self.p)

    def unwrap(self, x):
        return x.residue

    # bulk polynomial kernels; products defer the reduction until the end,
    # which keeps the intermediate ints small and the inner loop tight
    def poly_add(self, a, b):
        p = self.p
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return out

    def poly_sub(self, a, b):
        p = self.p
        out = list(a)
        if len(out) < len(b):
            out.extend([0] * (len(b) - len(out)))
        for i, c in enumerate(b):
            out[i] = (out[i] - c) % p
        return out

    def poly_mul(self, a, b):
        if not a or not b:
            return []
        p = self.p
        la, lb = len(a), len(b)
        if la * lb <= 12:
            out = [0] * (la + lb - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        out[i + j] += ca * cb
            return [c % p for c in out]
        # pack each polynomial into one big integer; the digit width leaves
        # headroom so column sums never carry, making the product a single
        # native bigint multiplication
        bound = min(la, lb) * (p - 1) * (p - 1) + 1
        shift = bound.bit_length()
        mask = (1 << shift) - 1
        ai = 0
        for c in reversed(a):
            ai = (ai << shift) | c
        bi = 0
        for c in reversed(b):
            bi = (bi << shift) | c
        prod = ai * bi
        out = []
        for _ in range(la + lb - 1):
            out.append((prod & mask) % p)
            prod >>= shift
        return out

    def poly_divmod(self, a, b):
        p = self.p
        if p == 2:
            x = _pack_bits(a)
            y = _pack_bits(b)
            dy = y.bit_length()
            quot = 0
            while x and x.bit_length() >= dy:
                s = x.bit_length() - dy
                x ^= y << s
                quot |= 1 << s
            return _unpack_bits(quot), _unpack_bits(x)
        rem = list(a)
        db = len(b) - 1
        dn = len(rem) - 1
        if dn < db:
            return [], rem
        inv_lead = self.raw_inv(b[-1])
        quot = [0] * (dn - db + 1)
        for k in range(dn - db, -1, -1):
            coef = rem[db + k] * inv_lead % p
            if coef:
                quot[k] = coef
                for j, c in enumerate(b):
                    rem[j + k] = (rem[j + k] - coef * c) % p
        return quot, rem

    def poly_gcd(self, a, b):
        p = self.p
        if p == 2:
            x = _pack_bits(a)
            y = _pack_bits(b)
            while y:
                dy = y.bit_length()
                while x and x.bit_length() >= dy:
                    x ^= y << (x.bit_length() - dy)
                x, y = y, x
            return _unpack_bits(x)
        a = list(a)
        b = list(b)
        while a and not a[-1]:
            a.pop()
        while b and not b[-1]:
            b.pop()
        while b:
            if len(a) < len(b):
                a, b = b, a
                continue
            # a := a mod b, eliminating in place without building a quotient
            db = len(b) - 1
            inv_lead = self.raw_inv(b[-1])
            for k in range(len(a) - 1 - db, -1, -1):
                coef = a[db + k] * inv_lead % p
                if coef:
                    for j in range(db):
                        a[j + k] = (a[j + k] - coef * b[j]) % p
                    a[db + k] = 0
            while a and not a[-1]:
                a.pop()
            a, b = b, a
        if a and a[-1] != 1:
            inv = self.raw_inv(a[-1])
            a = [c * inv % p for c in a]
        return a


def _pack_bits(coeffs) -> int:
    x = 0
    for c in reversed(coeffs):
        x = (x << 1) | c
    return x


def _unpack_bits(x: int) -> list:
    return [(x >> i) & 1 for i in range(x.bit_length())]


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


class _GaussianRationalField(_Ring):
    spec = "qi"

    def zero(self):
        return GaussianRational()

    def one(self):
        return GaussianRational(1)

    def from_int(self, n):
        return GaussianRational(n)

    def parse(self, token):
        re_part = Fraction(0)
        im_part = Fraction(0)
        for term in _split_terms(token):
            if term.endswith("i"):
                coeff = term[:-1]
                if coeff.endswith("*"):
                    coeff = coeff[:-1]
                im_part += _parse_coefficient(coeff)
            else:
                re_part += _parse_coefficient(term)
        return GaussianRational(re_part, im_part)

    def format(self, x):
        terms = []
        if x.re != 0:
            terms.append(str(x.re))
        if x.im != 0:
            terms.append(f"{x.im}*i")
        if not terms:
            return "0"
        return _join_terms(terms)

    def random_element(self, rng):
        return GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))


QQ_I = _GaussianRationalField()


class _QuaternionRing(_Ring):
    spec = "quat"
    commutative = False

    _units = ("i", "j", "k")

    def zero(self):
        return Quaternion()

    def one(self):
        return Quaternion(1)

    def from_int(self, n):
        return Quaternion(n)

    def parse(self, token):
        parts = {"": Fraction(0), "i": Fraction(0), "j": Fraction(0), "k": Fraction(0)}
        for term in _split_terms(token):
            unit = term[-1] if term[-1] in self._units else ""
            coeff = term[: -1] if unit else term
            if unit and coeff.endswith("*"):
                coeff = coeff[:-1]
            parts[unit] += _parse_coefficient(coeff)
        return Quaternion(parts[""], parts["i"], parts["j"], parts["k"])

    def format(self, x):
        terms = []
        if x.a != 0:
            terms.append(str(x.a))
        for coeff, unit in ((x.b, "i"), (x.c, "j"), (x.d, "k")):
            if coeff != 0:
                terms.append(f"{coeff}*{unit}")
        if not terms:
            return "0"
        return _join_terms(terms)

    def random_element(self, rng):
        return Quaternion(*(rng.randint(-5, 5) for _ in range(4)))


QUAT = _QuaternionRing()


class _RationalFunctionField(_Ring):
    def __init__(self, base):
        self.base = base
        self.spec = f"ratfun:{base.spec}"

    def zero(self):
        return RationalFunction(Polynomial.zero(self.base), Polynomial.one(self.base))

    def one(self):
        return RationalFunction(Polynomial.one(self.base), Polynomial.one(self.base))

    def from_int(self, n):
        return self.constant(self.base.raw_from_int(n))

    def constant(self, raw):
        return RationalFunction(
            Polynomial.constant(raw, self.base), Polynomial.one(self.base)
        )

    def lift(self, x):
        """Embed a base-field element as a constant rational function."""
        return self.constant(self.base.unwrap(x))

    def t_power(self, exponent: int):
        """t**exponent for any integer exponent, negatives included."""
        if exponent >= 0:
            return RationalFunction(
                Polynomial.t_power(exponent, self.base), Polynomial.one(self.base)
            )
        return RationalFunction(
            Polynomial.one(self.base), Polynomial.t_power(-exponent, self.base)
        )

    def parse(self, token):
        if not token.startswith("("):
            raise ValueError(f"malformed rational function token {token!r}")
        close = token.find(")")
        if close < 0:
            raise ValueError(f"malformed rational function token {token!r}")
        num = self._parse_poly(token[1:close])
        rest = token[close + 1 :]
        if not rest:
            den = Polynomial.one(self.base)
        elif rest.startswith("/(") and rest.endswith(")"):
            den = self._parse_poly(rest[2:-1])
        else:
            raise ValueError(f"malformed rational function token {token!r}")
        return ratfun_reduce(num, den)

    def _parse_poly(self, text: str) -> Polynomial:
        base = self.base
        coeffs = {}
        for term in _split_terms(text):
            if "t" in term:
                head, _, tail = term.partition("t")
                if head.endswith("*"):
                    head = head[:-1]
                if head in ("", "+"):
                    coeff = base.raw_one
                elif head == "-":
                    coeff = base.raw_neg(base.raw_one)
                else:
                    coeff = base.raw_parse(head)
                if tail == "":
                    exp = 1
                elif tail.startswith("^") and tail[1:].isdigit():
                    exp = int(tail[1:])
                else:
                    raise ValueError(f"malformed polynomial term {term!r}")
            else:
                coeff, exp = base.raw_parse(term), 0
            if exp in coeffs:
                coeffs[exp] = base.raw_add(coeffs[exp], coeff)
            else:
                coeffs[exp] = coeff
        if not coeffs:
            return Polynomial.zero(base)
        out = [base.raw_zero] * (max(coeffs) + 1)
        for exp, coeff in coeffs.items():
            out[exp] = coeff
        return Polynomial(out, base)

    def _format_poly(self, poly: Polynomial) -> str:
        if poly.is_zero():
            return "0"
        base = self.base
        terms = []
        for exp, coeff in enumerate(poly.coeffs):
            if base.raw_is_zero(coeff):
                continue
            c = base.raw_format(coeff)
            if exp == 0:
                terms.append(c)
            elif exp == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{exp}")
        return _join_terms(terms)

    def format(self, x):
        num = f"({self._format_poly(x.num)})"
        if x.den.degree() == 0:
            return num
        return f"{num}/({self._format_poly(x.den)})"

    def random_element(self, rng):
        degree = rng.randint(0, 2)
        coeffs = [self.base.raw_from_int(rng.randint(-4, 4)) for _ in range(degree + 1)]
        return ratfun_reduce(Polynomial(coeffs, self.base), Polynomial.one(self.base))


@lru_cache(maxsize=None)
def _ratfun_field(base_spec: str) -> _RationalFunctionField:
    return _RationalFunctionField(ring_from_spec(base_spec))


def RatFun(base) -> _RationalFunctionField:
    """The field of rational functions in t over ``base`` (QQ or GF(p))."""
    if not isinstance(base, (_RationalField, _PrimeField)):
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
        return GF(int(spec[3:]))
    if spec.startswith("ratfun:"):
        base = spec[len("ratfun:") :]
        if base != "q" and not base.startswith("gf:"):
            raise ValueError(f"rational functions need a q or gf:P base, not {base!r}")
        return RatFun(ring_from_spec(base))
    raise ValueError(f"unknown ring spec {spec!r}")
