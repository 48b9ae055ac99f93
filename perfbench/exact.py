"""Exact arithmetic and checks built on the standard library alone.

The benchmark generates its inputs and checks blocklin's outputs here,
without blocklin's scalar classes or its dense oracle, so a fault in the
package's arithmetic cannot hide itself.  Raw scalars are:

* ``q``      -- ``int`` or ``Fraction``,
* ``gf:P``   -- ``int`` in ``[0, P)``,
* ``qi``     -- ``(re, im)`` pairs of ``Fraction``,
* ``quat``   -- ``(a, b, c, d)`` tuples of ``Fraction``; products keep
  operand order.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class Rationals:
    spec = "q"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(x, y):
        return x + y

    @staticmethod
    def sub(x, y):
        return x - y

    @staticmethod
    def mul(x, y):
        return x * y

    @staticmethod
    def inv(x):
        return 1 / Fraction(x)

    @staticmethod
    def is_zero(x):
        return x == 0

    @staticmethod
    def random(rng):
        return Fraction(rng.randint(-9, 9))

    @staticmethod
    def parts(x):
        return (Fraction(x),)


class PrimeField:
    def __init__(self, p):
        self.p = p
        self.spec = f"gf:{p}"
        self.zero = 0
        self.one = 1

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return x * y % self.p

    def inv(self, x):
        return pow(x, -1, self.p)

    @staticmethod
    def is_zero(x):
        return x == 0

    def random(self, rng):
        return rng.randrange(self.p)

    @staticmethod
    def parts(x):
        return (Fraction(x),)


class GaussianRationals:
    spec = "qi"
    zero = (Fraction(0), Fraction(0))
    one = (Fraction(1), Fraction(0))

    @staticmethod
    def add(x, y):
        return (x[0] + y[0], x[1] + y[1])

    @staticmethod
    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    @staticmethod
    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    @staticmethod
    def inv(x):
        norm = x[0] * x[0] + x[1] * x[1]
        return (x[0] / norm, -x[1] / norm)

    @staticmethod
    def is_zero(x):
        return x[0] == 0 and x[1] == 0

    @staticmethod
    def random(rng):
        return (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))

    @staticmethod
    def parts(x):
        return x


class Quaternions:
    spec = "quat"
    zero = (Fraction(0),) * 4
    one = (Fraction(1),) + (Fraction(0),) * 3

    @staticmethod
    def add(x, y):
        return tuple(a + b for a, b in zip(x, y))

    @staticmethod
    def sub(x, y):
        return tuple(a - b for a, b in zip(x, y))

    @staticmethod
    def mul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    @staticmethod
    def inv(x):
        norm = sum(c * c for c in x)
        return (x[0] / norm, -x[1] / norm, -x[2] / norm, -x[3] / norm)

    @staticmethod
    def is_zero(x):
        return not any(x)

    @staticmethod
    def random(rng):
        return tuple(Fraction(rng.randint(-5, 5)) for _ in range(4))

    @staticmethod
    def parts(x):
        return x


def field_for(spec):
    if spec == "q":
        return Rationals
    if spec == "qi":
        return GaussianRationals
    if spec == "quat":
        return Quaternions
    if spec.startswith("gf:"):
        return PrimeField(int(spec[3:]))
    raise ValueError(f"no exact field for ring {spec!r}")


# ---------------------------------------------------------------------------
# elimination and products


def is_invertible(field, rows, strongly=False) -> bool:
    """Row reduction by left multiplication; sound over a division ring.

    With ``strongly`` no rows are exchanged, so the answer is whether every
    leading principal minor is nonzero (the matrix is strongly nonsingular),
    which over a field is when the block Schur recursion needs no fallback.
    """
    if field is Rationals:
        # scaling a row by a nonzero integer keeps (non)singularity
        scaled = []
        for row in rows:
            d = _common_denominator([row])
            scaled.append([int(x * d) for x in row])
        return _bareiss_nonsingular(scaled, strongly)
    a = [list(row) for row in rows]
    n = len(a)
    for col in range(n):
        last = col + 1 if strongly else n
        pivot = next((r for r in range(col, last) if not field.is_zero(a[r][col])), None)
        if pivot is None:
            return False
        a[col], a[pivot] = a[pivot], a[col]
        pivot_inv = field.inv(a[col][col])
        for r in range(col + 1, n):
            if field.is_zero(a[r][col]):
                continue
            factor = field.mul(a[r][col], pivot_inv)
            a[r] = [field.sub(x, field.mul(factor, y)) for x, y in zip(a[r], a[col])]
    return True


def _bareiss_nonsingular(a, strongly) -> bool:
    """Fraction-free elimination of an integer matrix; exact."""
    n = len(a)
    prev = 1
    for k in range(n):
        last = k + 1 if strongly else n
        pivot = next((r for r in range(k, last) if a[r][k] != 0), None)
        if pivot is None:
            return False
        a[k], a[pivot] = a[pivot], a[k]
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pk - aik * row_k[j]) // prev
        prev = pk
    return True


def inverse(field, rows):
    """Gauss-Jordan inverse of an invertible matrix over a field."""
    n = len(rows)
    a = [list(row) + [field.one if i == j else field.zero for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if not field.is_zero(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        pivot_inv = field.inv(a[col][col])
        a[col] = [field.mul(pivot_inv, x) for x in a[col]]
        for r in range(n):
            if r != col and not field.is_zero(a[r][col]):
                factor = a[r][col]
                a[r] = [field.sub(x, field.mul(factor, y)) for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def block_pluq_exists(field, rows) -> bool:
    """Whether block pivoting factors ``rows`` (size a power of two) as P L U Q.

    At each node the leading block is the first invertible one of A, C, B, D,
    the precedence of ``blocklin.lu.block_pivot``; that block and then its
    Schur complement are factored the same way.  A node whose four blocks are
    all singular ends the recursion, since block swaps cannot help it.
    """
    n = len(rows)
    if n == 1:
        return not field.is_zero(rows[0][0])
    h = n // 2
    a, b, c, d = ([row[left:left + h] for row in rows[top:top + h]]
                  for top, left in ((0, 0), (0, h), (h, 0), (h, h)))
    # (leading block, the one beside it, the one below it, the one opposite)
    for lead, beside, below, rest in ((a, b, c, d), (c, d, a, b), (b, a, d, c), (d, c, b, a)):
        if is_invertible(field, lead):
            break
    else:
        return False
    product = matmul(field, below, matmul(field, inverse(field, lead), beside))
    complement = [[field.sub(x, y) for x, y in zip(r, s)] for r, s in zip(rest, product)]
    return block_pluq_exists(field, lead) and block_pluq_exists(field, complement)


def matmul(field, x, y):
    cols = list(zip(*y))
    add, mul = field.add, field.mul
    out = []
    for row in x:
        out_row = []
        for col in cols:
            acc = field.zero
            for a, b in zip(row, col):
                acc = add(acc, mul(a, b))
            out_row.append(acc)
        out.append(out_row)
    return out


def _int_matmul(x, y):
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


def _common_denominator(rows):
    return lcm(*(part.denominator for row in rows for x in row for part in Rationals.parts(x)))


def max_bits(field, rows) -> int:
    """Largest numerator or denominator bit length among the entries."""
    best = 0
    for row in rows:
        for x in row:
            for part in field.parts(x):
                best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


# ---------------------------------------------------------------------------
# oracle checks; each returns None when the output is right, else a reason


def check_inverse(field, m, x):
    """M * X == X * M == I, exactly."""
    n = len(m)
    if len(x) != n or any(len(row) != n for row in x):
        return "inverse has the wrong shape"
    if field is Rationals:
        # scale X to integers: M * (D X) == D I and (D X) * M == D I
        d = _common_denominator(x)
        y = [[int(v * d) for v in row] for row in x]
        mi = [[int(v) for v in row] for row in m]
        target = [[d if i == j else 0 for j in range(n)] for i in range(n)]
        if _int_matmul(mi, y) != target:
            return "M * X != I"
        if _int_matmul(y, mi) != target:
            return "X * M != I"
        return None
    eye = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    if matmul(field, m, x) != eye:
        return "M * X != I"
    if matmul(field, x, m) != eye:
        return "X * M != I"
    return None


def check_pluq(field, m, low, up, rows_vec, cols_vec):
    """M[i][j] == (L U)[rows[i]][cols[j]], L unit lower, U upper, invertible."""
    n = len(m)
    if not (len(low) == len(up) == len(rows_vec) == len(cols_vec) == n):
        return "factors have the wrong shape"
    if sorted(rows_vec) != list(range(n)) or sorted(cols_vec) != list(range(n)):
        return "permutation vectors are not permutations"
    for i in range(n):
        if low[i][i] != field.one:
            return f"L[{i}][{i}] is not 1"
        if field.is_zero(up[i][i]):
            return f"U[{i}][{i}] is zero"
        for j in range(i + 1, n):
            if not field.is_zero(low[i][j]):
                return f"L[{i}][{j}] is above the diagonal"
            if not field.is_zero(up[j][i]):
                return f"U[{j}][{i}] is below the diagonal"
    if field is Rationals:
        # row i of L scaled by d_i and column j of U by e_j
        d = [_common_denominator([row]) for row in low]
        e = [_common_denominator([col]) for col in zip(*up)]
        li = [[int(v * d[i]) for v in row] for i, row in enumerate(low)]
        ui = [[int(up[k][j] * e[j]) for j in range(n)] for k in range(n)]
        product = _int_matmul(li, ui)
        for i in range(n):
            r = rows_vec[i]
            for j in range(n):
                c = cols_vec[j]
                if product[r][c] != m[i][j] * d[r] * e[c]:
                    return f"P L U Q differs from M at ({i}, {j})"
        return None
    product = matmul(field, low, up)
    for i in range(n):
        for j in range(n):
            if product[rows_vec[i]][cols_vec[j]] != m[i][j]:
                return f"P L U Q differs from M at ({i}, {j})"
    return None
