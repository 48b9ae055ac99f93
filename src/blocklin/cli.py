"""Batch command-line front end.

Subcommands: gen, mul, invert, lu, ldu, check, verify-counts.  Every run is
reproducible byte for byte given identical flags and files; randomness
enters only through explicit --seed flags feeding a 64-bit-seeded
deterministic generator (mt19937), which is recorded in generated file
headers.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error or
an unreadable path (OSError), 3 singular input, 4 pivot-block failure,
5 invertible input that block pivoting cannot factor (RandomnessExhausted:
some node has all four half-size blocks singular), 6 internal error (an
unexpected exception, reported as one ``error:`` line, not a traceback).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import blockmat as bm
from . import complexity, matio, sampling
from .dense import DenseMatrix, dense_identity, dense_mul
from .errors import (
    BlocklinError,
    MatrixFormatError,
    PivotBlockSingular,
    RandomnessExhausted,
    SingularMatrix,
)
from .inversion import auto_invert, gram_driver, invert_gram_gv, is_invertible, schur_invert
from .lu import ldu as ldu_factor
from .lu import lu_decompose, randomized_lu
from .rings import ring_from_spec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_PIVOT = 4
EXIT_RANDOMNESS = 5
EXIT_INTERNAL = 6


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load(path: str) -> DenseMatrix:
    return matio.parse_matrix(_read_text(path))


def _counter_summary(counter: bm.OpCounter) -> str:
    return (
        f"# ops {counter.label or 'run'}: mul={counter.mul_count} div={counter.div_count} "
        f"add={counter.add_count} scaling={counter.scaling_count}"
    )


def _project_like(block: bm.BlockMatrix, n: int) -> DenseMatrix:
    full = bm.to_dense(block)
    if full.n == n:
        return full
    rows = [row[:n] for row in full.rows[:n]]
    return DenseMatrix(n, rows, full.ring)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    try:
        ring = ring_from_spec(args.ring)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    n = args.size
    if not 1 <= n <= 256:
        print("error: size must be in 1..256", file=sys.stderr)
        return EXIT_USAGE
    rng = random.Random(args.seed)
    comments = [f"generator mt19937 seed {args.seed}"]
    if args.all_blocks_singular:
        if n < 4 or n & (n - 1):
            print(
                "error: --all-blocks-singular needs a power-of-two size >= 4",
                file=sys.stderr,
            )
            return EXIT_USAGE
        try:
            block = sampling.random_all_blocks_singular(ring, n.bit_length() - 1, rng)
        except sampling.GenerationFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        dense = bm.to_dense(block)
        comments.append("all four half-size blocks singular; determinant nonzero")
    elif args.invertible:
        # decided on the draw itself: the identity-summand embedding that
        # invert and lu apply later preserves invertibility
        for _ in range(sampling._MAX_DRAWS):
            dense = sampling.random_dense(ring, n, rng)
            if is_invertible(dense):
                break
        else:
            print("error: no invertible draw found", file=sys.stderr)
            return EXIT_USAGE
    else:
        dense = sampling.random_dense(ring, n, rng)
    _write_text(args.output, matio.format_matrix(dense, comments=comments))
    return EXIT_OK


def _cmd_mul(args) -> int:
    left = _load(args.left)
    right = _load(args.right)
    if left.ring.spec != right.ring.spec or left.n != right.n:
        print("error: operands must share ring and size", file=sys.stderr)
        return EXIT_USAGE
    counter = bm.OpCounter(label="mul")
    product = bm.mul(bm.embed(left), bm.embed(right), counter, strategy=args.strategy)
    _write_text(args.output, matio.format_matrix(_project_like(product, left.n)))
    print(_counter_summary(counter), file=sys.stderr)
    return EXIT_OK


_METHODS = {
    "schur": ("any", schur_invert),
    "gram": ("formally-real-or-star", None),
    "gv": ("base-field", invert_gram_gv),
    "auto": ("any", auto_invert),
}


def _cmd_invert(args) -> int:
    dense = _load(args.input)
    spec = dense.ring.spec
    if args.method == "gram":
        # the lift is method gv, not gram
        fn = gram_driver(dense.ring)
        if fn is None or fn is invert_gram_gv:
            print(f"error: method gram is not applicable to ring {spec}", file=sys.stderr)
            return EXIT_USAGE
    elif args.method == "gv":
        if not (spec == "q" or spec.startswith("gf:")):
            print(f"error: method gv is not applicable to ring {spec}", file=sys.stderr)
            return EXIT_USAGE
        fn = invert_gram_gv
    else:
        fn = _METHODS[args.method][1]
    counter = bm.OpCounter(label=f"invert-{args.method}")
    result = fn(bm.embed(dense), counter)
    _write_text(args.output, matio.format_matrix(_project_like(result, dense.n)))
    print(_counter_summary(counter), file=sys.stderr)
    return EXIT_OK


def _cmd_lu(args) -> int:
    dense = _load(args.input)
    block = bm.embed(dense)
    counter = bm.OpCounter(label="lu")
    if args.randomized:
        low, up = randomized_lu(block, counter)
        pvec = qvec = list(range(low.dimension))
        print("# randomized path: yes", file=sys.stderr)
        l_body, u_body = low.body, up.body
    else:
        result = lu_decompose(block, counter)
        pvec, qvec = result.permutation_vectors()
        print("# randomized path: no", file=sys.stderr)
        l_body, u_body = result.l.body, result.u.body
    prefix = args.out_prefix
    _write_text(f"{prefix}.L.mat", matio.format_matrix(bm.to_dense(l_body)))
    _write_text(f"{prefix}.U.mat", matio.format_matrix(bm.to_dense(u_body)))
    _write_text(f"{prefix}.perms", matio.format_permutations(pvec, qvec))
    print(_counter_summary(counter), file=sys.stderr)
    return EXIT_OK


def _cmd_ldu(args) -> int:
    dense = _load(args.input)
    if dense.n < 2:
        print("error: ldu needs a matrix of size >= 2", file=sys.stderr)
        return EXIT_USAGE
    counter = bm.OpCounter(label="ldu")
    lb, db, ub = ldu_factor(bm.embed(dense), counter)
    prefix = args.out_prefix
    _write_text(f"{prefix}.Lb.mat", matio.format_matrix(bm.to_dense(lb)))
    _write_text(f"{prefix}.Db.mat", matio.format_matrix(bm.to_dense(db)))
    _write_text(f"{prefix}.Ub.mat", matio.format_matrix(bm.to_dense(ub)))
    print(_counter_summary(counter), file=sys.stderr)
    return EXIT_OK


def _first_mismatch(got: DenseMatrix, expected: DenseMatrix):
    for i in range(got.n):
        for j in range(got.n):
            if got.rows[i][j] != expected.rows[i][j]:
                return i, j
    return None


def _report_mismatch(kind: str, got, expected, where) -> int:
    i, j = where
    ring = got.ring
    print(
        f"check {kind} failed at entry ({i + 1}, {j + 1}): "
        f"expected {ring.format(expected.rows[i][j])}, got {ring.format(got.rows[i][j])}"
    )
    return EXIT_CHECK_FAILED


def _inputs_disagree(m: DenseMatrix, others, size: int, perms=()) -> bool:
    """Whether a matrix in ``others`` is over another ring than m or not
    size x size, or a vector in ``perms`` is not of length size."""
    if any(x.ring.spec != m.ring.spec or x.n != size for x in others) or any(
        len(v) != size for v in perms
    ):
        print("error: dimension or ring mismatch across inputs", file=sys.stderr)
        return True
    return False


def _cmd_check(args) -> int:
    if args.kind == "inverse":
        m, inv = _load(args.files[0]), _load(args.files[1])
        if _inputs_disagree(m, [inv], m.n):
            return EXIT_USAGE
        # M*X alone: over a division ring (all five are) a square one-sided
        # inverse is two-sided, so X*M = I follows
        eye = dense_identity(m.n, m.ring)
        product = dense_mul(m, inv)
        where = _first_mismatch(product, eye)
        if where:
            return _report_mismatch("inverse", product, eye, where)
        print("check inverse ok")
        return EXIT_OK
    if args.kind == "pluq":
        m, low, up = (_load(p) for p in args.files[:3])
        pvec, qvec = matio.parse_permutations(_read_text(args.files[3]))
        embedded = bm.to_dense(bm.embed(m))
        n = embedded.n
        if _inputs_disagree(m, [low, up], n, (pvec, qvec)):
            return EXIT_USAGE
        product = dense_mul(low, up)
        permuted = DenseMatrix(
            n, [[product.rows[pvec[i]][qvec[j]] for j in range(n)] for i in range(n)], m.ring
        )
        where = _first_mismatch(permuted, embedded)
        if where:
            return _report_mismatch("pluq", permuted, embedded, where)
        print("check pluq ok")
        return EXIT_OK
    m, lb, db, ub = (_load(p) for p in args.files[:4])
    embedded = bm.to_dense(bm.embed(m))
    if _inputs_disagree(m, [lb, db, ub], embedded.n):
        return EXIT_USAGE
    product = dense_mul(dense_mul(lb, db), ub)
    where = _first_mismatch(product, embedded)
    if where:
        return _report_mismatch("ldu", product, embedded, where)
    print("check ldu ok")
    return EXIT_OK


def _cmd_verify_counts(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        print("error: --sizes wants a comma-separated list of integers", file=sys.stderr)
        return EXIT_USAGE
    try:
        reports = complexity.verify_counts(args.op, sizes, seed=args.seed)
    except ValueError as exc:  # a size above the cap
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.machine:
        sys.stdout.write(complexity.render_machine(reports))
    else:
        sys.stdout.write(complexity.render_table(reports))
    return EXIT_OK if all(r.match for r in reports) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Handlers are not bound here:
    :func:`main` looks ``_cmd_<command>`` up when it runs, so rebinding a
    handler in this module takes effect on the next call."""
    parser = argparse.ArgumentParser(
        prog="blocklin", description="Exact block-matrix algebra, batch interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random matrix file")
    gen.add_argument("--ring", required=True)
    gen.add_argument("--size", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--invertible", action="store_true")
    gen.add_argument("--all-blocks-singular", action="store_true")
    gen.add_argument("-o", "--output", default="-")

    mul = sub.add_parser("mul", help="multiply two matrix files")
    mul.add_argument("left")
    mul.add_argument("right")
    mul.add_argument("--strategy", choices=["naive", "strassen"], default="naive")
    mul.add_argument("-o", "--output", default="-")

    inv = sub.add_parser("invert", help="invert a matrix file")
    inv.add_argument("input")
    inv.add_argument("--method", choices=["schur", "gram", "gv", "auto"], default="auto")
    inv.add_argument("-o", "--output", default="-")

    lu_cmd = sub.add_parser("lu", help="factor as P L U Q")
    lu_cmd.add_argument("input")
    lu_cmd.add_argument("--randomized", action="store_true")
    lu_cmd.add_argument("--out-prefix", default="out")

    ldu_cmd = sub.add_parser("ldu", help="one-level block LDU factorization")
    ldu_cmd.add_argument("input")
    ldu_cmd.add_argument("--out-prefix", default="out")

    chk = sub.add_parser("check", help="verify an inverse or factorization exactly")
    chk.add_argument("--kind", choices=["inverse", "pluq", "ldu"], required=True)
    chk.add_argument("files", nargs="+")

    vc = sub.add_parser("verify-counts", help="compare measured counts with predictions")
    vc.add_argument("--op", choices=["mul", "tri_mul", "tri_inv", "gram_inv", "lu"], required=True)
    vc.add_argument("--sizes", required=True)
    vc.add_argument("--seed", type=int, default=0)
    vc.add_argument("--machine", action="store_true")

    return parser


_EXPECTED_FILES = {"inverse": 2, "pluq": 4, "ldu": 4}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if args.command == "check" and len(args.files) != _EXPECTED_FILES[args.kind]:
        print(
            f"error: check --kind {args.kind} expects {_EXPECTED_FILES[args.kind]} files",
            file=sys.stderr,
        )
        return EXIT_USAGE
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (MatrixFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SingularMatrix as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except PivotBlockSingular as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIVOT
    except RandomnessExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANDOMNESS
    except BlocklinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
