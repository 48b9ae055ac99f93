"""The finite field GF(p)[t]/Phi_l in which the base-field lift runs.

:func:`~blocklin.inversion.invert_gram_gv` adjoins a variable t to GF(p).
Instead of the rational function field K(t), where every canonical sum and
product needs a polynomial gcd, it computes in GF(p)[t]/Phi_l with Phi_l
the l-th cyclotomic polynomial, irreducible over GF(p) when p is a
primitive root mod l.  Its elements offer exactly what the lift needs:
``t_power``, +, -, *, ``try_invert`` and ``is_constant`` /
``constant_value``; the ring has no file syntax and no spec.
"""

from __future__ import annotations

from functools import lru_cache

from .rings import GF, RingElement, is_prime

__all__ = ["lift_field"]


def _prime_factors(n: int):
    factors, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    return factors


def _lift_order(p: int, n: int) -> int:
    """Smallest prime l with l - 1 > n(n-1) of which p is a primitive root.

    p primitive mod l makes the cyclotomic polynomial Phi_l irreducible over
    GF(p), so GF(p)[t]/Phi_l is a field of degree l - 1.
    """
    order = n * (n - 1) + 2
    while not (
        is_prime(order)
        and p % order
        and all(pow(p, (order - 1) // q, order) != 1 for q in _prime_factors(order - 1))
    ):
        order += 1
    return order


class _CyclotomicElement(RingElement):
    """An element of GF(p)[t]/Phi_l, packed into one int by its field."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field):
        self.value = value
        self.field = field

    @property
    def ring(self):
        return self.field

    def is_zero(self):
        return not self.value

    def is_constant(self) -> bool:
        return self.value >> self.field.width == 0

    def constant_value(self) -> int:
        """Residue of a constant; requires ``is_constant()``."""
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.value

    def try_invert(self):
        if not self.value:
            return None
        return _CyclotomicElement(self.field.invert(self.value), self.field)

    def _mismatch(self, other):
        if isinstance(other, _CyclotomicElement):
            raise TypeError("mixed lift fields")
        return NotImplemented

    def __add__(self, other):
        f = self.field
        if getattr(other, "field", None) is not f:
            return self._mismatch(other)
        return _CyclotomicElement(f.add(self.value, other.value), f)

    def __sub__(self, other):
        f = self.field
        if getattr(other, "field", None) is not f:
            return self._mismatch(other)
        return _CyclotomicElement(f.sub(self.value, other.value), f)

    def __neg__(self):
        return _CyclotomicElement(self.field.neg(self.value), self.field)

    def __mul__(self, other):
        f = self.field
        if getattr(other, "field", None) is not f:
            return self._mismatch(other)
        return _CyclotomicElement(f.mul(self.value, other.value), f)

    def __eq__(self, other):
        return (
            isinstance(other, _CyclotomicElement)
            and self.field is other.field
            and self.value == other.value
        )

    def __hash__(self):
        return hash(("_CyclotomicElement", self.field.spec, self.value))

    def __repr__(self):
        return f"_CyclotomicElement({self.field.coefficients(self.value)}, {self.field.spec})"


class _CyclotomicField:
    """GF(p)[t]/Phi_l with t a primitive l-th root of unity.

    An element is sum c_i t^i with 0 <= c_i < p and i < l - 1, packed into
    one int: c_i sits in bytes [i*w, (i+1)*w).  The slot width leaves room
    for the l - 1 products that a multiplication adds into one slot, so a
    product is one bigint multiplication followed by a fold (t^l = 1), a
    reduction of each slot mod p, and the elimination of t^(l-1) with
    Phi_l = 1 + t + ... + t^(l-1).  Sums and differences reduce all slots
    at once with a guard bit per slot; over GF(2) they are XOR.
    """

    def __init__(self, p: int, order: int):
        self.p = p
        self.order = order
        self.spec = f"gf:{p}[t]/phi{order}"
        self._guard = (2 * p - 1).bit_length()
        bits = max(((order - 1) * (p - 1) ** 2).bit_length(), self._guard + 1)
        self.nbytes = w = -(-bits // 8)
        self.width = 8 * w
        slot_ones = int.from_bytes(b"\x01".ljust(w, b"\x00") * order, "little")
        self._top = self.width * (order - 1)
        self._fold = self.width * order
        self._mask = (1 << self._fold) - 1
        self._ones_full = slot_ones  # one per slot, t^(l-1) included
        self._ones = slot_ones & ((1 << self._top) - 1)
        self._p_all = p * self._ones
        self._guard_offset = ((1 << self._guard) - p) * self._ones
        if p == 2:
            self.add = self.sub = self._xor
            self.neg = self._same
            self.mul = self._mul_gf2
        elif w * p < 256:
            # byte j of a slot weighs 256^j; its share mod p is a table lookup,
            # and the w shares of a slot sum to below 256
            self._byte_mod = [bytes(b * 256**j % p for b in range(256)) for j in range(w)]
            self._minus = [bytes((b - c) % p for b in range(256)) for c in range(p)]
            self.mul = self._mul_bytes

    def lift(self, x):
        """Embed a prime-field element as a constant."""
        return _CyclotomicElement(x.residue, self)

    def t_power(self, exponent: int):
        """t**exponent for any integer exponent, negatives included."""
        e = exponent % self.order
        if e < self.order - 1:
            return _CyclotomicElement(1 << (self.width * e), self)
        # t^(l-1) = -(1 + t + ... + t^(l-2))
        return _CyclotomicElement((self.p - 1) * self._ones, self)

    # packed-int kernels

    def _reduce(self, v):
        # each slot holds a value in [0, 2p); subtract p where it is >= p
        return v - ((v + self._guard_offset) >> self._guard & self._ones) * self.p

    def add(self, a, b):
        return self._reduce(a + b)

    def sub(self, a, b):
        return self._reduce(a - b + self._p_all)

    def neg(self, a):
        return self._reduce(self._p_all - a)

    def _folded(self, a, b):
        prod = a * b
        return (prod & self._mask) + (prod >> self._fold)

    def mul(self, a, b):
        p = self.p
        slots = self._unpack(self._folded(a, b), self.order)
        top = slots[-1]
        return self._pack([(c - top) % p for c in slots[:-1]])

    def _mul_bytes(self, a, b):
        w, order = self.nbytes, self.order
        data = self._folded(a, b).to_bytes(order * w, "little")
        total = 0
        for j, table in enumerate(self._byte_mod):
            total += int.from_bytes(data[j::w].translate(table), "little")
        residues = total.to_bytes(order, "little").translate(self._byte_mod[0])
        out = residues[:-1].translate(self._minus[residues[-1]])
        if w == 1:
            return int.from_bytes(out, "little")
        spread = bytearray(len(out) * w)
        spread[::w] = out
        return int.from_bytes(spread, "little")

    @staticmethod
    def _xor(a, b):
        return a ^ b

    @staticmethod
    def _same(a):
        return a

    def _mul_gf2(self, a, b):
        # the lowest bit of each slot is its sum mod 2
        v = self._folded(a, b) & self._ones_full
        if v >> self._top:
            v ^= self._ones_full
        return v

    def _unpack(self, x, count):
        w = self.nbytes
        data = x.to_bytes(count * w, "little")
        return [int.from_bytes(data[i : i + w], "little") for i in range(0, len(data), w)]

    def _pack(self, coeffs):
        w = self.nbytes
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in coeffs), "little")

    def coefficients(self, a) -> list:
        """The l - 1 coefficients of a packed element, lowest degree first."""
        return self._unpack(a, self.order - 1)

    def invert(self, a):
        """Inverse of a nonzero packed element by the extended Euclidean algorithm."""
        base = GF(self.p)
        r0, r1 = [1] * self.order, _strip(self.coefficients(a))
        s0, s1 = [], [1]
        while r1:
            quot, rem = base.poly_divmod(r0, r1)
            r0, r1 = r1, _strip(rem)
            s0, s1 = s1, _strip(base.poly_sub(s0, base.poly_mul(quot, s1)))
        # Phi_l is irreducible, so the gcd r0 is a nonzero constant
        inv = base.raw_inv(r0[0])
        out = [c * inv % self.p for c in s0]
        return self._pack(out + [0] * (self.order - 1 - len(out)))

    def __repr__(self):
        return f"<ring {self.spec}>"


def _strip(coeffs) -> list:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


@lru_cache(maxsize=None)
def lift_field(p: int, n: int) -> _CyclotomicField:
    """The field GF(p)[t]/Phi_l that the base-field lift of an n x n matrix runs in.

    l is the smallest prime with l - 1 > n(n-1) of which p is a primitive
    root.  The leading minors of the lifted Gram matrix are t-power multiples
    of polynomials of degree at most n(n-1) < deg Phi_l, so none that is
    nonzero in K(t) vanishes at t: the inversion meets the same pivots and
    the same zero pivots as in K(t).
    """
    return _CyclotomicField(p, _lift_order(p, n))
