"""Text serialization of matrices and permutation vectors.

Matrix file layout (UTF-8)::

    ring <q | gf:P | qi | quat | ratfun:q | ratfun:gf:P>
    size <n>
    <n rows of n whitespace-separated scalar tokens>

Scalar token syntax is owned by the ring handles in :mod:`blocklin.rings`.
Lines starting with ``#`` are comments and are skipped when parsing.
Serialization is canonical: re-serializing a parsed file reproduces the
scalar tokens byte for byte.

Permutation files carry two 1-indexed vectors::

    perm-rows 2 1 4 3
    perm-cols 1 2 3 4

Row i of a row-permuted matrix comes from row ``perm-rows[i]`` of the
original; columns likewise.
"""

from __future__ import annotations

from .dense import DenseMatrix
from .errors import MatrixFormatError, ZeroDenominator
from .rings import parse_natural, ring_from_spec

__all__ = [
    "format_matrix",
    "parse_matrix",
    "format_permutations",
    "parse_permutations",
]


def format_matrix(m: DenseMatrix, comments=()) -> str:
    ring = m.ring
    lines = [f"# {c}" for c in comments]
    lines.append(f"ring {ring.spec}")
    lines.append(f"size {m.n}")
    for row in m.rows:
        lines.append(" ".join(ring.format(x) for x in row))
    return "\n".join(lines) + "\n"


def _content_lines(text: str):
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line


def parse_matrix(text: str) -> DenseMatrix:
    lines = list(_content_lines(text))
    if len(lines) < 2 or not lines[0].startswith("ring ") or not lines[1].startswith("size "):
        raise MatrixFormatError("expected 'ring <spec>' then 'size <n>' header lines")
    try:
        ring = ring_from_spec(lines[0][5:].strip())
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from None
    n = parse_natural(lines[1][5:].strip())
    if n is None:
        raise MatrixFormatError(f"malformed size line {lines[1]!r}")
    if n < 1:
        raise MatrixFormatError("size must be at least 1")
    if len(lines) != 2 + n:
        raise MatrixFormatError(f"expected {n} data rows, found {len(lines) - 2}")
    rows = []
    for line_no, line in enumerate(lines[2:], start=1):
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixFormatError(f"row {line_no}: expected {n} entries, found {len(tokens)}")
        try:
            rows.append([ring.parse(tok) for tok in tokens])
        except (ValueError, ZeroDenominator) as exc:
            raise MatrixFormatError(f"row {line_no}: {exc}") from None
    return DenseMatrix(n, rows, ring)


def format_permutations(row_vector, col_vector) -> str:
    rows = " ".join(str(i + 1) for i in row_vector)
    cols = " ".join(str(j + 1) for j in col_vector)
    return f"perm-rows {rows}\nperm-cols {cols}\n"


def parse_permutations(text: str) -> tuple[list[int], list[int]]:
    vectors = {}
    for line in _content_lines(text):
        parts = line.split()
        if parts[0] not in ("perm-rows", "perm-cols") or parts[0] in vectors:
            raise MatrixFormatError(f"unexpected permutation line {line!r}")
        entries = [parse_natural(p) for p in parts[1:]]
        if None in entries:
            raise MatrixFormatError(f"malformed permutation line {line!r}")
        vec = [v - 1 for v in entries]
        n = len(vec)
        if sorted(vec) != list(range(n)):
            raise MatrixFormatError(f"{parts[0]} is not a permutation of 1..{n}")
        vectors[parts[0]] = vec
    if set(vectors) != {"perm-rows", "perm-cols"}:
        raise MatrixFormatError("expected one perm-rows line and one perm-cols line")
    return vectors["perm-rows"], vectors["perm-cols"]
