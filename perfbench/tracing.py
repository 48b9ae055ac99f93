"""Spans around blocklin's public functions, recorded from outside the package.

:func:`install` rebinds each traced function in every blocklin module that
holds it (the defining module and each module that imported it by name,
plus module-level dispatch tables such as ``cli._METHODS``), so every
caller's lookup reaches the wrapper.  Spans are recorded only while a job
is open and are kept in memory until the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (defining module, function name)
TRACED = {
    "blockmat.mul": ("blocklin.blockmat", "mul"),
    "blockmat.from_dense": ("blocklin.blockmat", "from_dense"),
    "blockmat.embed": ("blocklin.blockmat", "embed"),
    "blockmat.to_dense": ("blocklin.blockmat", "to_dense"),
    "inversion.schur_invert": ("blocklin.inversion", "schur_invert"),
    "inversion.invert_gram_transpose": ("blocklin.inversion", "invert_gram_transpose"),
    "inversion.invert_gram_star": ("blocklin.inversion", "invert_gram_star"),
    "inversion.invert_gram_gv": ("blocklin.inversion", "invert_gram_gv"),
    "inversion.auto_invert": ("blocklin.inversion", "auto_invert"),
    "inversion.is_invertible": ("blocklin.inversion", "is_invertible"),
    "lu.lu_decompose": ("blocklin.lu", "lu_decompose"),
    "lu.block_pivot": ("blocklin.lu", "block_pivot"),
    "lu.tri_invert": ("blocklin.lu", "tri_invert"),
    "lu.tri_mul": ("blocklin.lu", "tri_mul"),
    "lu.randomized_lu": ("blocklin.lu", "randomized_lu"),
    "matio.parse_matrix": ("blocklin.matio", "parse_matrix"),
    "matio.format_matrix": ("blocklin.matio", "format_matrix"),
    "dense.dense_mul": ("blocklin.dense", "dense_mul"),
    "cli.main": ("blocklin.cli", "main"),
}

CONVERT = ("blockmat.from_dense", "blockmat.embed", "blockmat.to_dense")
ROUTES = (
    "inversion.schur_invert",
    "inversion.invert_gram_transpose",
    "inversion.invert_gram_star",
    "inversion.invert_gram_gv",
)

# characters of matrix text read or written (the format is ASCII)
_TEXT_SIZE = {
    "matio.parse_matrix": lambda args, result: len(args[0]),
    "matio.format_matrix": lambda args, result: len(result),
}

# span fields
NAME, START, END, PARENT, JOB, ERROR, MULDIV, SIZE = range(8)


class Tracer:
    """In-memory span recorder; one span per call of a traced function."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._rebound = []

    def _wrap(self, name, fn):
        params = list(inspect.signature(fn).parameters)
        counter_pos = params.index("counter") if "counter" in params else None
        size_of = _TEXT_SIZE.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            counter = kwargs.get("counter")
            if counter is None and counter_pos is not None and counter_pos < len(args):
                counter = args[counter_pos]
            before = counter.muldiv if counter is not None else 0
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                muldiv = counter.muldiv - before if counter is not None else None
                size = size_of(args, result) if size_of and error is None else 0
                spans[index] = (name, start, end, parent, self.job, error, muldiv, size)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every traced function wherever a blocklin module holds it."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "blocklin" and m]
        for name, (module_name, attr) in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        self._rebind_table(value, original, wrapper)

    def _rebind(self, module, key, wrapper):
        self._rebound.append((vars(module), key, getattr(module, key)))
        setattr(module, key, wrapper)

    def _rebind_table(self, table, original, wrapper):
        for key, value in list(table.items()):
            if isinstance(value, tuple) and any(v is original for v in value):
                self._rebound.append((table, key, value))
                table[key] = tuple(wrapper if v is original else v for v in value)

    def uninstall(self):
        for namespace, key, value in reversed(self._rebound):
            namespace[key] = value
        self._rebound.clear()

    def write(self, path):
        """One JSON array per line: name, start, end, parent, job, error, muldiv, size."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def summarize(spans):
    """Per-name calls, busy and self seconds, errors, and discarded work.

    Busy time counts a span only when no enclosing span has the same name
    (or, for the convert group, a name of the group), so nested calls are
    not counted twice.  Self time is a span's duration minus the durations
    of its direct child spans.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    errors = defaultdict(int)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    def has_ancestor(index, names):
        parent = spans[index][PARENT]
        while parent >= 0:
            if spans[parent][NAME] in names:
                return True
            parent = spans[parent][PARENT]
        return False

    convert_busy = 0.0
    discarded_outside = 0  # work no job counter received
    discarded_inside = 0  # work a job counter received but that was thrown away
    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        calls[name] += 1
        self_time[name] += duration - child_time[index]
        if span[ERROR]:
            errors[f"{name}:{span[ERROR]}"] += 1
        if not has_ancestor(index, (name,)):
            busy[name] += duration
        if name in CONVERT and not has_ancestor(index, CONVERT):
            convert_busy += duration
        muldiv = span[MULDIV] or 0
        if name in ROUTES and (span[ERROR] or has_ancestor(index, ("inversion.is_invertible",))):
            # a failed Schur attempt or a probe: its counter is dropped
            discarded_outside += muldiv
        elif name == "lu.randomized_lu" and span[ERROR]:
            discarded_inside += muldiv
    return {
        "calls": dict(calls),
        "busy_s": dict(busy),
        "self_s": dict(self_time),
        "errors": dict(errors),
        "convert_busy_s": convert_busy,
        "discarded_outside": discarded_outside,
        "discarded_inside": discarded_inside,
    }
