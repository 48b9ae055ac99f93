"""Closed-form cost evaluators and the measured-count comparison engine.

Multiplication-count model: a naive block product of two n x n matrices
costs T_x(n) = alpha * n**omega base-scalar multiplications with alpha = 1
and omega = 3; a scalar inversion at a leaf costs one division, so every
kernel's unit cost at n = 1 is 1.  All evaluator arithmetic is exact
rational; closed forms that must give integers at power-of-two sizes are
flagged if they do not.

Two predictions exist for each instrumented kernel: direct integer
recurrence evaluation, and the closed-form solution.  For the general
inversion driver and the triangular product they agree; for triangular
inversion and the full factorization the shipped closed forms track a
different accounting (quadratic division tally, unit leaf cost), and the
reports carry an annotation instead of forcing agreement.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import blockmat as bm
from . import lu as lu_mod
from .blockmat import OpCounter
from .errors import NonPowerOfTwo
from .inversion import invert_gram_transpose
from .rings import QQ
from .sampling import random_invertible, random_triangular

__all__ = [
    "CostModel",
    "NAIVE",
    "STRASSEN",
    "CountReport",
    "closed_form_T_inv",
    "closed_form_T_trimul",
    "closed_form_T_lu",
    "closed_form_T_triinv",
    "recurrence_T_times",
    "recurrence_T_inv",
    "recurrence_T_hermitian",
    "recurrence_T_trimul",
    "recurrence_T_triinv",
    "recurrence_T_lu",
    "verify_counts",
    "render_table",
    "render_machine",
]


def _check_power_of_two(n: int):
    if n < 1 or n & (n - 1):
        raise NonPowerOfTwo(f"{n} is not a power of two")


@dataclass(frozen=True)
class CostModel:
    """Multiplication strategy cost parameters.

    ``naive`` has alpha = 1, omega = 3 and exact closed forms.  ``strassen``
    multiplies along a 7-branch recurrence; its exponent log2(7) is
    irrational, so Strassen counts are only ever compared against the
    recurrence, never a closed form.
    """

    strategy: str = "naive"

    def __post_init__(self):
        if self.strategy not in ("naive", "strassen"):
            raise ValueError(f"unknown strategy {self.strategy!r}")

    @property
    def alpha(self) -> Fraction:
        return Fraction(1)

    @property
    def omega(self) -> int | None:
        return 3 if self.strategy == "naive" else None

    def t_times(self, n: int) -> int:
        """Multiplications in one n x n product."""
        _check_power_of_two(n)
        if self.strategy == "naive":
            return n ** 3
        return 7 ** (n.bit_length() - 1)

    def _require_naive(self):
        if self.strategy != "naive":
            raise ValueError("closed forms are only exact for the naive strategy")


NAIVE = CostModel("naive")
STRASSEN = CostModel("strassen")


# ---------------------------------------------------------------------------
# closed forms


def closed_form_T_inv(n: int, model: CostModel = NAIVE) -> Fraction:
    """Multiplications and divisions of the Gram-symmetric inversion driver:

        2*a*n**w - (2*a - 1)*n + 8*a*(2**w + 2)*(n**w - n) / (4**w - 4)
    """
    model._require_naive()
    _check_power_of_two(n)
    a, w = model.alpha, model.omega
    nw = Fraction(n) ** w
    return 2 * a * nw - (2 * a - 1) * n + 8 * a * (2 ** w + 2) * (nw - n) / (4 ** w - 4)


def closed_form_T_trimul(n: int, model: CostModel = NAIVE) -> Fraction:
    """Multiplications of a triangular-general product:

        2*a/(2**w - 4) * (n**w - n**2) + n**2
    """
    model._require_naive()
    _check_power_of_two(n)
    a, w = model.alpha, model.omega
    return Fraction(2 * a, 2 ** w - 4) * (Fraction(n) ** w - n * n) + n * n


def closed_form_T_triinv(n: int) -> int:
    """Quadratic triangular-inversion figure n*(n+1)/2.

    This tracks a division-only back-substitution tally; the recursive
    block kernel measured here costs more (see recurrence_T_triinv).
    """
    _check_power_of_two(n)
    return n * (n + 1) // 2


def closed_form_T_lu(n: int, model: CostModel = NAIVE) -> Fraction:
    """Closed-form multiplication count for the recursive factorization:

        a*(n**w - n) * 2**w / ((2**w - 2)*(2**w - 4))
        + (n**2 - n) * (3/2 - 2*a/(2**w - 4))
        + n*log2(n)/2 + n

    It solves the factorization recurrence under a unit leaf cost and the
    quadratic triangular-inversion figure, both of which differ from the
    measured kernel conventions; reports print it alongside measurements
    with an annotation rather than forcing a match.
    """
    model._require_naive()
    _check_power_of_two(n)
    a, w = model.alpha, model.omega
    k = n.bit_length() - 1
    nw = Fraction(n) ** w
    return (
        a * (nw - n) * (2 ** w) / Fraction((2 ** w - 2) * (2 ** w - 4))
        + (n * n - n) * (Fraction(3, 2) - Fraction(2 * a, 2 ** w - 4))
        + Fraction(n * k, 2)
        + n
    )


# ---------------------------------------------------------------------------
# recurrences (exact integer evaluation)


def recurrence_T_times(n: int, model: CostModel = NAIVE) -> int:
    return model.t_times(n)


@lru_cache(maxsize=None)
def recurrence_T_inv(n: int, model: CostModel = NAIVE) -> int:
    """T(n) = 2*T_x(n) + 2*T(n/2) + 4*T_x(n/2), T(1) = 1."""
    _check_power_of_two(n)
    if n == 1:
        return 1
    h = n // 2
    return 2 * model.t_times(n) + 2 * recurrence_T_inv(h, model) + 4 * model.t_times(h)


@lru_cache(maxsize=None)
def recurrence_T_hermitian(n: int, model: CostModel = NAIVE) -> int:
    """Self-adjoint core alone: T(n) = 2*T(n/2) + 4*T_x(n/2), T(1) = 1."""
    _check_power_of_two(n)
    if n == 1:
        return 1
    h = n // 2
    return 2 * recurrence_T_hermitian(h, model) + 4 * model.t_times(h)


@lru_cache(maxsize=None)
def recurrence_T_trimul(n: int, model: CostModel = NAIVE) -> int:
    """T(n) = 4*T(n/2) + 2*T_x(n/2), T(1) = 1."""
    _check_power_of_two(n)
    if n == 1:
        return 1
    h = n // 2
    return 4 * recurrence_T_trimul(h, model) + 2 * model.t_times(h)


@lru_cache(maxsize=None)
def recurrence_T_triinv(n: int, model: CostModel = NAIVE) -> int:
    """T(n) = 2*T(n/2) + 2*T_trimul(n/2), T(1) = 1 (one leaf division)."""
    _check_power_of_two(n)
    if n == 1:
        return 1
    h = n // 2
    return 2 * recurrence_T_triinv(h, model) + 2 * recurrence_T_trimul(h, model)


@lru_cache(maxsize=None)
def recurrence_T_lu(n: int, model: CostModel = NAIVE, *, leaf_cost: int = 0) -> int:
    """T(n) = 2*T(n/2) + 2*T_triinv(n/2) + T_x(n/2) + 2*T_trimul(n/2).

    ``leaf_cost`` is the 1x1 base case: the unit-lower-diagonal kernel
    performs no counted work at a leaf (0); the closed form assumes 1.
    """
    _check_power_of_two(n)
    if n == 1:
        return leaf_cost
    h = n // 2
    return (
        2 * recurrence_T_lu(h, model, leaf_cost=leaf_cost)
        + 2 * recurrence_T_triinv(h, model)
        + model.t_times(h)
        + 2 * recurrence_T_trimul(h, model)
    )


# ---------------------------------------------------------------------------
# measured-vs-predicted harness


@dataclass
class CountReport:
    """One measured operation run compared against its predictions."""

    op: str
    n: int
    mul: int
    div: int
    add: int
    scaling: int
    recurrence: int
    closed_form: Fraction | None
    match: bool
    note: str = ""

    @property
    def measured(self) -> int:
        return self.mul + self.div


_TRIINV_NOTE = (
    "closed form n(n+1)/2 tracks a division-only tally; "
    "the recursive kernel's count is the recurrence value"
)
_LU_NOTE = (
    "closed form assumes unit leaf cost and n(n+1)/2 triangular inversions "
    "(documented mismatch, not a failure); triangular-inverse figures n(n+1)/2: "
)


def _measure(op: str, n: int, rng: random.Random) -> tuple[OpCounter, int, Fraction | None, str]:
    counter = OpCounter(label=op)
    depth = n.bit_length() - 1
    if op == "mul":
        x = random_invertible(QQ, depth, rng)
        y = random_invertible(QQ, depth, rng)
        bm.mul(x, y, counter)
        return counter, recurrence_T_times(n), Fraction(NAIVE.t_times(n)), ""
    if op == "tri_mul":
        tm = random_triangular(QQ, depth, rng)
        g = random_invertible(QQ, depth, rng)
        lu_mod.tri_mul(tm, g, "left", counter)
        return counter, recurrence_T_trimul(n), closed_form_T_trimul(n), ""
    if op == "tri_inv":
        tm = random_triangular(QQ, depth, rng)
        lu_mod.tri_invert(tm, counter)
        return counter, recurrence_T_triinv(n), Fraction(closed_form_T_triinv(n)), _TRIINV_NOTE
    if op == "gram_inv":
        x = random_invertible(QQ, depth, rng)
        invert_gram_transpose(x, counter)
        return counter, recurrence_T_inv(n), closed_form_T_inv(n), ""
    if op == "lu":
        x = random_invertible(QQ, depth, rng)
        lu_mod.lu_decompose(x, counter)
        note = _LU_NOTE + str(closed_form_T_triinv(n))
        return counter, recurrence_T_lu(n, leaf_cost=0), closed_form_T_lu(n), note
    raise ValueError(f"unknown operation {op!r}")


_CLOSED_MUST_MATCH = {"mul", "tri_mul", "gram_inv"}


def verify_counts(op: str, sizes, seed: int = 0) -> list[CountReport]:
    """Run ``op`` on seeded random invertible rational inputs and compare
    the measured multiplication-plus-division tally with the recurrence and
    closed-form predictions.  Sizes must be powers of two at most 64.
    Deterministic for a fixed seed.
    """
    reports = []
    for n in sizes:
        _check_power_of_two(n)
        if n > 64:
            raise ValueError("sizes are capped at 64")
        rng = random.Random(zlib.crc32(f"{seed}|{op}|{n}".encode()))
        counter, rec, closed, note = _measure(op, n, rng)
        measured = counter.muldiv
        match = measured == rec
        if closed is not None and op in _CLOSED_MUST_MATCH:
            if closed.denominator != 1:
                match = False
                note = (note + "; " if note else "") + "closed form is not integral"
            else:
                match = match and closed == measured
        reports.append(
            CountReport(
                op=op,
                n=n,
                mul=counter.mul_count,
                div=counter.div_count,
                add=counter.add_count,
                scaling=counter.scaling_count,
                recurrence=rec,
                closed_form=closed,
                match=match,
                note=note,
            )
        )
    return reports


def _fmt_closed(value: Fraction | None) -> str:
    if value is None:
        return "-"
    if value.denominator == 1:
        return str(value.numerator)
    return str(value)


def render_table(reports) -> str:
    headers = ["op", "n", "mul", "div", "add", "scaling", "measured", "recurrence", "closed_form", "match", "note"]
    rows = [
        [
            r.op,
            str(r.n),
            str(r.mul),
            str(r.div),
            str(r.add),
            str(r.scaling),
            str(r.measured),
            str(r.recurrence),
            _fmt_closed(r.closed_form),
            "ok" if r.match else "MISMATCH",
            r.note,
        ]
        for r in reports
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))).rstrip(),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))).rstrip())
    return "\n".join(lines) + "\n"


def render_machine(reports) -> str:
    lines = []
    for r in reports:
        lines.append(
            f"{r.op} {r.n} {r.measured} {r.recurrence} {_fmt_closed(r.closed_form)} "
            f"{'ok' if r.match else 'fail'}"
        )
    return "\n".join(lines) + "\n"
