"""The benchmark's tracer reaches into the package by name; these are its hooks.

``perfbench/tracing.py`` rebinds every function named in its ``TRACED`` map
and the functions held in ``cli._METHODS`` tuples.  A refactor that renames
one of them, or stores a method in another shape, silently stops the
benchmark from seeing it, so the hooks are checked here.  So are the parts
of an LU result the benchmark's checker reads, the error class names it
matches as strings, and the scalar constructors and attributes through
which it turns raw rows into matrices and back.
"""

import importlib
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

from blocklin import QQ, BlockMatrix, cli, errors, lu, ring_from_spec

from conftest import ring_mat

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = _load_tracing().TRACED
    assert traced
    for module_name, attr in traced.values():
        assert inspect.isfunction(getattr(importlib.import_module(module_name), attr)), (
            module_name,
            attr,
        )


def test_dispatched_methods_are_label_function_tuples():
    for method in ("auto", "schur"):
        entry = cli._METHODS[method]
        assert isinstance(entry, tuple) and len(entry) == 2
        label, fn = entry
        assert isinstance(label, str) and inspect.isfunction(fn)


def test_lu_result_parts_read_by_the_checker():
    result = lu.lu_decompose(ring_mat(QQ, [[0, 1], [1, 0]]))
    rows_vec, cols_vec = result.permutation_vectors()
    for vec in (rows_vec, cols_vec):
        assert type(vec) is list and all(type(i) is int for i in vec)
    assert (rows_vec, cols_vec) == ([1, 0], [0, 1])
    assert isinstance(result.l.body, BlockMatrix) and isinstance(result.u.body, BlockMatrix)


def test_error_names_matched_as_strings_exist():
    for name in ("RandomnessExhausted", "AllBlocksSingular"):
        assert issubclass(getattr(errors, name), errors.BlocklinError)


def test_runner_round_trips_the_scalars_of_each_ring(monkeypatch):
    """``Runner.to_block``/``to_rows`` build ``Rational(x)``,
    ``PrimeFieldElement(x, p)``, ``GaussianRational(*parts)`` and
    ``Quaternion(*parts)``, and read ``.value``, ``.residue``, ``.re``/``.im``
    and ``.a``-``.d`` back."""
    # workloads imports its sibling modules by name, so it is imported from
    # its own directory
    monkeypatch.syspath_prepend(str(TRACING.parent))
    workloads = importlib.import_module("workloads")
    runner = workloads.Runner(workloads.WORKLOADS["invert-char0"], None)
    half = Fraction(1, 2)
    cases = {
        "q": [[half, 0], [-3, Fraction(5, 7)]],
        "gf:7": [[1, 6], [0, 3]],
        "qi": [[(half, -1), (0, 0)], [(2, 0), (0, Fraction(-1, 3))]],
        "quat": [[(1, 2, 3, 4), (0, 0, 0, 0)], [(half, 0, -1, 0), (0, 0, 0, Fraction(7, 3))]],
    }
    for spec, rows in cases.items():
        block = runner.to_block(spec, rows)
        assert block.ring is ring_from_spec(spec)
        assert runner.to_rows(spec, block) == rows, spec
