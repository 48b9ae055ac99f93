"""The finite fields GF(p)[t]/Phi_l in which the base-field lift runs.

:func:`~blocklin.inversion.invert_gram_gv` adjoins a variable t to GF(p).
Instead of the rational function field K(t), where every canonical sum and
product needs a polynomial gcd, it computes in GF(p)[t]/Phi_l with Phi_l
the l-th cyclotomic polynomial, irreducible over GF(p) when p is a
primitive root mod l.  Two choices of l serve it.  :func:`small_field` is
one field per p, with p^(l-1) >= 2^32 elements: the lift runs there
first.  :func:`lift_field` is certified for n x n input, with
l - 1 > n(n-1): the lift falls back to it when the small field meets a
zero pivot.  Their elements offer exactly what the lift needs:
``t_power``, +, -, *, ``try_invert`` and ``is_constant`` /
``constant_value``; the rings have no file syntax and no spec.  An element
is one packed int, a raw value of its field, and the field owns the
arithmetic, as every single-value ring of :mod:`blocklin.rings` does: each
operator of an element is one call of the field's ``raw_add``,
``raw_sub``, ``raw_neg``, ``raw_mul`` or ``raw_inv``, and matrix products
run on the field's own packed ``dot_rows``.  ``raw_inv`` runs the extended
Euclidean algorithm on GF(p)'s own polynomial kernels.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .rings import GF, _Element, _Ring, is_prime

__all__ = ["lift_field", "small_field"]


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


def _cyclotomic_order(p: int, order: int) -> bool:
    """Whether order is a prime l of which p is a primitive root.

    p primitive mod l makes the cyclotomic polynomial Phi_l irreducible over
    GF(p), so GF(p)[t]/Phi_l is a field of degree l - 1.
    """
    return bool(
        is_prime(order)
        and p % order
        and all(pow(p, (order - 1) // q, order) != 1 for q in _prime_factors(order - 1))
    )


def _lift_order(p: int, n: int) -> int:
    """Smallest prime l with l - 1 > n(n-1) of which p is a primitive root."""
    order = n * (n - 1) + 2
    while not _cyclotomic_order(p, order):
        order += 1
    return order


class _CyclotomicElement(_Element):
    """An element of GF(p)[t]/Phi_l: ``value`` is the int its field packs it into."""

    __slots__ = ()
    field = property(lambda self: self.ring)

    def is_constant(self) -> bool:
        return self.value >> self.ring.width == 0

    def constant_value(self) -> int:
        """Residue of a constant; requires ``is_constant()``."""
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.value

    def __repr__(self):
        return f"_CyclotomicElement({self.ring.coefficients(self.value)}, {self.ring.spec})"


class _CyclotomicField(_Ring):
    """GF(p)[t]/Phi_l with t a primitive l-th root of unity.

    An element is sum c_i t^i with 0 <= c_i < p and i < l - 1, packed into
    one int: c_i sits in bytes [i*w, (i+1)*w).  A product of two packed
    elements puts at most l - 1 products of two coefficients into a slot
    once it is folded by t^l = 1, so at most (l - 1)(p - 1)^2.  The slot
    width is one byte more than that load needs, so a slot holds the sum of
    ``chunk`` >= 256 such products: a dot product of up to ``chunk`` terms
    is one bigint sum of products, settled once (``_settle``: the fold, a
    reduction of each slot mod p, and the elimination of t^(l-1) with
    Phi_l = 1 + t + ... + t^(l-1)), and longer ones are summed chunk by
    chunk.  Sums and differences reduce all slots at once with a guard bit
    per slot; over GF(2) they are XOR.
    """

    element = _CyclotomicElement
    raw_zero = 0
    raw_one = 1

    def __init__(self, p: int, order: int):
        self.p = p
        self.order = order
        self.spec = f"gf:{p}[t]/phi{order}"
        self._guard = (2 * p - 1).bit_length()
        # one byte more than a folded product's load needs, so a slot sums
        # at least 256 of them; that also leaves a sum its guard bit
        load = (order - 1) * (p - 1) ** 2
        self.nbytes = w = -(-load.bit_length() // 8) + 1
        self.chunk = (256**w - 1) // load
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
            self.raw_add = self.raw_sub = self._xor
            self.raw_neg = self._same
            self._settle = self._settle_gf2
        elif w * p < 256:
            # byte j of a slot weighs 256^j; its share mod p is a table lookup,
            # and the w shares of a slot sum to below 256
            self._byte_mod = [bytes(b * 256**j % p for b in range(256)) for j in range(w)]
            self._minus = [bytes((b - c) % p for b in range(256)) for c in range(p)]
            self._settle = self._settle_bytes

    def lift(self, x):
        """Embed a prime-field element as a constant."""
        return self.wrap(x.value)

    def t_power(self, exponent: int):
        """t**exponent for any integer exponent, negatives included."""
        e = exponent % self.order
        if e < self.order - 1:
            return self.wrap(1 << (self.width * e))
        # t^(l-1) = -(1 + t + ... + t^(l-2))
        return self.wrap((self.p - 1) * self._ones)

    # packed-int kernels

    def _reduce(self, v):
        # each slot holds a value in [0, 2p); subtract p where it is >= p
        return v - ((v + self._guard_offset) >> self._guard & self._ones) * self.p

    def raw_add(self, a, b):
        return self._reduce(a + b)

    def raw_sub(self, a, b):
        return self._reduce(a - b + self._p_all)

    def raw_neg(self, a):
        return self._reduce(self._p_all - a)

    def raw_mul(self, a, b):
        return self._settle(a * b)

    def dot_rows(self, rows, cols, addend=None, sign=1):
        """Row lists: entry (i, j) is sign * (rows[i] . cols[j]) + addend[i][j].

        Each dot product of up to ``chunk`` terms is one bigint sum of
        packed products and one ``_settle``; the sign and the addend then
        meet the settled value through ``raw_neg``, ``raw_add`` or ``raw_sub``.  Field
        arithmetic is canonical, so the entries equal those of the
        pairwise scalar kernel of :meth:`_Ring.dot_rows`.
        """
        left = [[x.value for x in row] for row in rows]
        right = [[x.value for x in col] for col in cols]
        if left and len(left[0]) > self.chunk:
            sums = [[self._chunked_dot(a, b) for b in right] for a in left]
        else:
            settle, mul = self._settle, operator.mul
            sums = [[settle(sum(map(mul, a, b))) for b in right] for a in left]
        if addend is None:
            if sign < 0:
                sums = [list(map(self.raw_neg, row)) for row in sums]
            return [[self.wrap(v) for v in row] for row in sums]
        combine = self.raw_add if sign > 0 else self.raw_sub
        return [
            [self.wrap(combine(z.value, v)) for z, v in zip(z_row, row)]
            for z_row, row in zip(addend, sums)
        ]

    def _chunked_dot(self, a, b):
        step = self.chunk
        total = 0
        for k in range(0, len(a), step):
            total = self.raw_add(total, self._settle(sum(map(operator.mul, a[k : k + step], b[k : k + step]))))
        return total

    def _settle(self, v):
        # a sum of packed products to a packed element; __init__ swaps in a
        # byte-table reduction for small p and a parity mask over GF(2)
        p = self.p
        slots = self._unpack((v & self._mask) + (v >> self._fold), self.order)
        top = slots[-1]
        return self._pack([(c - top) % p for c in slots[:-1]])

    def _settle_bytes(self, v):
        w, order = self.nbytes, self.order
        data = ((v & self._mask) + (v >> self._fold)).to_bytes(order * w, "little")
        total = 0
        for j, table in enumerate(self._byte_mod):
            total += int.from_bytes(data[j::w].translate(table), "little")
        residues = total.to_bytes(order, "little").translate(self._byte_mod[0])
        out = residues[:-1].translate(self._minus[residues[-1]])
        spread = bytearray(len(out) * w)
        spread[::w] = out
        return int.from_bytes(spread, "little")

    @staticmethod
    def _xor(a, b):
        return a ^ b

    @staticmethod
    def _same(a):
        return a

    def _settle_gf2(self, v):
        # the lowest bit of each slot is its sum mod 2
        v = ((v & self._mask) + (v >> self._fold)) & self._ones_full
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

    def raw_inv(self, a):
        """Inverse of a nonzero packed element by the extended Euclidean algorithm."""
        base = GF(self.p)
        # the loop ends only on a canonical remainder, so r1 starts reduced
        r0, r1 = [1] * self.order, base._reduce(self.coefficients(a))
        s0, s1 = [], [1]
        while r1:
            quot, rem = base.poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, base.poly_sub(s0, base.poly_mul(quot, s1))
        # Phi_l is irreducible, so the gcd r0 is a nonzero constant
        inv = base.raw_inv(r0[0])
        out = [c * inv % self.p for c in s0]
        return self._pack(out + [0] * (self.order - 1 - len(out)))


@lru_cache(maxsize=None)
def small_field(p: int) -> _CyclotomicField:
    """The field GF(p)[t]/Phi_l in which the base-field lift runs first.

    l is the smallest prime of which p is a primitive root with
    p^(l-1) >= 2^32: 37 for p = 2, 13 for p = 7, 17 for p = 65521, and 2
    (t = -1 in GF(p) itself) for p > 2^32.  No degree bound makes its
    pivots those of K(t); a run there that meets no zero pivot is exact all
    the same (see :func:`~blocklin.inversion.invert_gram_gv`).
    """
    order = 2
    while not (p ** (order - 1) >= 2**32 and _cyclotomic_order(p, order)):
        order += 1
    return _CyclotomicField(p, order)


@lru_cache(maxsize=None)
def lift_field(p: int, n: int) -> _CyclotomicField:
    """The certified field GF(p)[t]/Phi_l for the base-field lift of an n x n matrix.

    l is the smallest prime with l - 1 > n(n-1) of which p is a primitive
    root.  The leading minors of the lifted Gram matrix are t-power multiples
    of polynomials of degree at most n(n-1) < deg Phi_l, so none that is
    nonzero in K(t) vanishes at t: the inversion meets the same pivots and
    the same zero pivots as in K(t).  The lift falls back to this field
    when :func:`small_field` meets a zero pivot.
    """
    return _CyclotomicField(p, _lift_order(p, n))
