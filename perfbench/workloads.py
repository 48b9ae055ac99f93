"""The benchmark's workloads, their job classes and how one job runs and is checked.

A workload is a weighted mix of job classes.  A class names a ring, a size,
an input shape and the entry point it drives; its inputs are generated per
job from the seed by :mod:`inputs`.  Running a job is timed; converting,
checking and counting around it are not.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
from dataclasses import dataclass
from typing import Callable

import exact
import inputs


@dataclass(frozen=True)
class JobClass:
    spec: str  # ring spec, as in matrix file headers
    n: int
    # "generic": random invertible; "strong": every leading principal minor
    # nonzero, so the Schur recursion succeeds; "weak-lead": the leading half
    # block has a zero leading minor, so the Schur recursion fails on it;
    # "all-singular": four singular half blocks
    shape: str
    weight: int  # share of the workload's jobs, relative to the other classes
    quick_n: int  # size in the quick mode
    # redrawn until block pivoting factors the input as blocklin pads it
    # (exact.block_pluq_exists), so an LU of it cannot fail by design
    pivotable: bool = False

    @property
    def name(self):
        return f"{self.spec}-n{self.n}-{self.shape}"

    def size(self, quick):
        return self.quick_n if quick else self.n


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "auto_invert", "lu_decompose" or "cli"
    classes: tuple
    # inputs on which the entry point fails by design; a traced run gives a
    # fixed number of them to the entry point, outside the timed loop, to
    # report how often it fails
    probe: JobClass | None = None


# Why each workload exists, and what it must and must not touch, is set out
# in README.md beside this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "invert-char0",
            "auto_invert",
            (
                JobClass("q", 16, "strong", 8, 4),
                JobClass("q", 32, "strong", 4, 8),
                JobClass("q", 8, "all-singular", 4, 4),
                JobClass("q", 16, "all-singular", 1, 4),
                JobClass("qi", 8, "all-singular", 1, 4),
                JobClass("quat", 8, "all-singular", 1, 4),
            ),
        ),
        Workload(
            "invert-gfp",
            "auto_invert",
            (
                JobClass("gf:2", 8, "weak-lead", 6, 4),
                JobClass("gf:7", 8, "weak-lead", 4, 4),
                JobClass("gf:65521", 16, "generic", 3, 4),
                JobClass("gf:65521", 32, "generic", 2, 8),
            ),
        ),
        Workload(
            "lu-factor",
            "lu_decompose",
            (
                JobClass("q", 16, "strong", 8, 4),
                JobClass("gf:65521", 32, "generic", 2, 8),
                JobClass("gf:7", 16, "weak-lead", 1, 4, pivotable=True),
            ),
            probe=JobClass("gf:2", 8, "generic", 1, 4),
        ),
        Workload(
            "cli-batch",
            "cli",
            (
                JobClass("q", 6, "strong", 3, 3),
                JobClass("q", 12, "strong", 3, 3),
                JobClass("q", 24, "strong", 1, 6),
                JobClass("gf:7", 6, "generic", 1, 3, pivotable=True),
            ),
        ),
    )
}


def schedule(classes):
    """Endless smooth weighted round robin, so every prefix keeps the mix."""
    current = [0] * len(classes)
    total = sum(c.weight for c in classes)
    while True:
        for i, c in enumerate(classes):
            current[i] += c.weight
        best = max(range(len(classes)), key=current.__getitem__)
        current[best] -= total
        yield classes[best]


def make_input(job_class, seed, key, quick):
    field = exact.field_for(job_class.spec)
    rng = inputs.rng_for(seed, job_class.name, key)
    n = job_class.size(quick)
    for _ in range(100):
        if job_class.shape == "all-singular":
            rows = inputs.all_blocks_singular(field, n, rng)
        elif job_class.shape == "weak-lead":
            rows = inputs.weak_leading_block(field, n, rng)
        else:
            rows = inputs.random_invertible(field, n, rng, strongly=job_class.shape == "strong")
        if not job_class.pivotable:
            return rows
        if exact.block_pluq_exists(field, inputs.embed(field, rows, inputs.padded_size(n))):
            return rows
    raise RuntimeError(f"no pivotable draw for {job_class.name}")


@dataclass
class Step:
    """One timed call into blocklin, with its untimed check and counts."""

    label: str
    call: Callable[[], object]
    # result -> (reason the output is wrong or None, documented failure or None, output bits)
    check: Callable[[object], tuple]
    counts: Callable[[], dict]
    needs_previous: bool = False  # skipped when the step before it failed
    # blocklin errors the entry point documents for valid input; any other is a wrong answer
    documented: tuple = ()


# The one nonzero CLI exit documented for valid input: `lu` whose randomized
# fallback gave up (RandomnessExhausted); the pivotable inputs should never
# meet it.  Exit 3 (singular) and 4 (pivot failure) cannot happen on the
# benchmark's certified-invertible inputs.
_CLI_RANDOMNESS = {5: "exit5-randomness"}
_OPS_LINE = re.compile(r"# ops [^:]*: mul=(\d+) div=(\d+) add=(\d+) scaling=(\d+)")


class Runner:
    """Builds the steps of a workload's jobs; needs blocklin importable."""

    def __init__(self, workload, scratch_dir):
        from blocklin import blockmat, cli, dense, inversion, lu, rings

        self.bm, self.cli, self.dense = blockmat, cli, dense
        self.inversion, self.lu, self.rings = inversion, lu, rings
        self.workload = workload
        self.scratch_dir = scratch_dir

    # -- conversions between raw rows and blocklin values

    def to_block(self, spec, rows):
        r = self.rings
        ring = r.ring_from_spec(spec)
        if spec == "q":
            wrap = r.Rational
        elif spec == "qi":
            wrap = lambda x: r.GaussianRational(*x)  # noqa: E731
        elif spec == "quat":
            wrap = lambda x: r.Quaternion(*x)  # noqa: E731
        else:
            wrap = lambda x: r.PrimeFieldElement(x, ring.p)  # noqa: E731
        dense = self.dense.DenseMatrix(len(rows), [[wrap(x) for x in row] for row in rows], ring)
        return self.bm.from_dense(dense)

    def to_rows(self, spec, block):
        rows = self.bm.to_dense(block).rows
        if spec == "q":
            return [[x.value for x in row] for row in rows]
        if spec == "qi":
            return [[(x.re, x.im) for x in row] for row in rows]
        if spec == "quat":
            return [[(x.a, x.b, x.c, x.d) for x in row] for row in rows]
        return [[x.residue for x in row] for row in rows]

    # -- jobs

    def steps(self, job_class, rows, key):
        """The timed steps of one job on the input ``rows``."""
        field = exact.field_for(job_class.spec)
        if self.workload.entry == "cli":
            return self._cli_steps(job_class, field, rows, key)
        block = self.to_block(job_class.spec, rows)
        counter = self.bm.OpCounter()
        spec = job_class.spec
        if self.workload.entry == "auto_invert":

            def check(result):
                got = self.to_rows(spec, result)
                return exact.check_inverse(field, rows, got), None, exact.max_bits(field, got)

            # the module attribute is looked up per call, so a traced run sees it
            call = lambda: self.inversion.auto_invert(block, counter)  # noqa: E731
            return [Step("invert", call, check, counter.snapshot)]

        def check(result):
            low = self.to_rows(spec, result.l.body)
            up = self.to_rows(spec, result.u.body)
            rows_vec, cols_vec = result.permutation_vectors()
            bits = max(exact.max_bits(field, low), exact.max_bits(field, up))
            return exact.check_pluq(field, rows, low, up, rows_vec, cols_vec), None, bits

        call = lambda: self.lu.lu_decompose(block, counter)  # noqa: E731
        # a node with four singular blocks goes to randomized_lu, which gives up
        return [Step("lu", call, check, counter.snapshot, documented=("RandomnessExhausted",))]

    def _cli_steps(self, job_class, field, rows, key):
        """gen, then invert and lu on the benchmark's own file, each checked by the CLI too."""
        n = len(rows)
        base = os.path.join(self.scratch_dir, "job")
        m_path, g_path, inv_path = base + ".mat", base + ".gen.mat", base + ".inv.mat"
        l_path, u_path, p_path = base + ".L.mat", base + ".U.mat", base + ".perms"
        with open(m_path, "w", encoding="utf-8") as handle:
            handle.write(inputs.format_matrix(field, rows))
        embedded = inputs.embed(field, rows, inputs.padded_size(n))
        captured = {}

        def command(argv):
            def call():
                captured.clear()
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(argv)
                captured["out"], captured["err"] = out.getvalue(), err.getvalue()
                return code

            return call

        def counts():
            return parse_ops(captured.get("err", ""))

        def checked(verify, documented):
            def check(code):
                if code in documented:
                    return None, documented[code], 0
                if code != 0:
                    return f"exit code {code}: {captured['err'].strip()}", None, 0
                wrong, bits = verify()
                return wrong, None, bits

            return check

        def verify_gen():
            spec, got = _read_matrix(g_path)
            if spec != job_class.spec or len(got) != n:
                return "gen wrote the wrong ring or size", 0
            if not exact.is_invertible(field, got):
                return "gen --invertible wrote a singular matrix", 0
            return None, exact.max_bits(field, got)

        def verify_invert():
            _, got = _read_matrix(inv_path)
            return exact.check_inverse(field, rows, got), exact.max_bits(field, got)

        def verify_lu():
            _, low = _read_matrix(l_path)
            _, up = _read_matrix(u_path)
            with open(p_path, encoding="utf-8") as handle:
                rows_vec, cols_vec = inputs.parse_permutations(handle.read())
            bits = max(exact.max_bits(field, low), exact.max_bits(field, up))
            return exact.check_pluq(field, embedded, low, up, rows_vec, cols_vec), bits

        def verify_printed(kind):
            def verify():
                ok = f"check {kind} ok" in captured["out"]
                return (None if ok else f"check {kind} did not report ok"), 0

            return verify

        gen_argv = ["gen", "--ring", job_class.spec, "--size", str(n), "--seed", str(key),
                    "--invertible", "-o", g_path]
        plan = [
            ("gen", gen_argv, verify_gen, {}),
            ("invert", ["invert", m_path, "--method", "auto", "-o", inv_path], verify_invert, {}),
            ("check-inverse", ["check", "--kind", "inverse", m_path, inv_path],
             verify_printed("inverse"), {}),
            ("lu", ["lu", m_path, "--out-prefix", base], verify_lu, _CLI_RANDOMNESS),
            ("check-pluq", ["check", "--kind", "pluq", m_path, l_path, u_path, p_path],
             verify_printed("pluq"), {}),
        ]
        return [
            Step(label, command(argv), checked(verify, documented), counts, label.startswith("check"))
            for label, argv, verify, documented in plan
        ]


def _read_matrix(path):
    with open(path, encoding="utf-8") as handle:
        return inputs.parse_matrix(handle.read())


def parse_ops(stderr_text):
    """Sum of the ``# ops`` lines a CLI command printed to stderr."""
    totals = [0, 0, 0, 0]
    for match in _OPS_LINE.finditer(stderr_text):
        totals = [t + int(v) for t, v in zip(totals, match.groups())]
    return dict(zip(("mul", "div", "add", "scaling"), totals))
