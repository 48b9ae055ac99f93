"""Seeded closed-loop benchmark for blocklin.

    python3 perfbench/run.py --workload invert-char0 --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8 --trace 0

One workload runs in one process as a closed loop with one client: the next
job starts only after the previous one finished, and each output is checked
by the exact oracle in ``exact.py`` outside the timed region.  Inputs come
from ``--seed`` alone.  The loop runs whole rounds of the job schedule
until the timed job time reaches ``--seconds`` and at least
``COUNTED_ROUNDS`` rounds are done.  Times are scaled to a reference machine
speed measured in the same run (see ``speed.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps blocklin's
public functions (see ``tracing.py``), prints the per-layer metrics, and
replays the same jobs untraced to measure the tracing overhead.  A workload
with a failure probe then gives ``PROBE_INPUTS`` inputs on which its entry
point fails by design, outside the loop; their failures are reported as
per-layer metrics, not as failed jobs.  ``--quick``
runs every class at its smallest size with every check on.  ``--workload
all`` runs each workload in its own process and prints every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-job counts,
per-class figures and, when traced, the spans go to ``.bench_out/`` in the
checkout.  The exit code is 0 only when every output was correct and every
repeated job repeated its exact counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import tracing
import workloads as wl
from speed import SpeedLog

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 5  # set-ups timed per untraced run: this process plus fresh ones
COUNTED_ROUNDS = 8  # rounds of the schedule whose exact counts are reported
TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail percentile
TRIM = 0.1  # share of each kind's fastest and of its slowest jobs left out of its mean
PROBE_INPUTS = 60  # inputs of a workload's failure probe, per traced run

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; counts are over the counted rounds, fractions over the whole traced
# run, except lu.randomized_lu.* and lu.failed.*, which are over the failure probe
PER_LAYER = {
    "rings.muldiv": "count",
    "rings.add": "count",
    "rings.scaling": "count",
    "rings.us_per_muldiv": "us",
    "rings.out_bits_max": "bits",
    "blockmat.mul.calls": "count",
    "blockmat.mul.busy_frac": "frac",
    "blockmat.mul.self_frac": "frac",
    "blockmat.convert.busy_frac": "frac",
    "inversion.schur_invert.calls": "count",
    "inversion.schur_invert.busy_frac": "frac",
    "inversion.schur_invert.failed": "count",
    "inversion.invert_gram_transpose.busy_frac": "frac",
    "inversion.invert_gram_star.busy_frac": "frac",
    "inversion.invert_gram_gv.busy_frac": "frac",
    "inversion.is_invertible.calls": "count",
    "inversion.is_invertible.busy_frac": "frac",
    "inversion.discarded_frac": "frac",
    "lu.lu_decompose.busy_frac": "frac",
    "lu.block_pivot.calls": "count",
    "lu.block_pivot.busy_frac": "frac",
    "lu.probe_frac": "frac",
    "lu.tri_invert.busy_frac": "frac",
    "lu.tri_mul.busy_frac": "frac",
    "lu.randomized_lu.calls": "count",
    "lu.randomized_lu.busy_frac": "frac",
    "lu.failed.AllBlocksSingular": "frac",
    "lu.failed.RandomnessExhausted": "frac",
    "matio.parse_matrix.busy_frac": "frac",
    "matio.format_matrix.busy_frac": "frac",
    "matio.bytes": "B",
    "dense.dense_mul.calls": "count",
    "dense.dense_mul.busy_frac": "frac",
    "cli.main.busy_frac": "frac",
    "cli.main.self_frac": "frac",
    "cli.exit_nonzero": "frac",
    "fail_frac": "frac",
    "trace.overhead_frac": "frac",
}


def import_blocklin():
    """Import blocklin from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import blocklin

    if not os.path.abspath(blocklin.__file__).startswith(SRC + os.sep):
        raise ImportError(f"blocklin came from {blocklin.__file__}, not from {SRC}")
    return blocklin


@dataclass
class Task:
    """One input of one job class and the records of its steps (its jobs)."""

    job_class: wl.JobClass
    key: int
    rows: list | None  # kept only for the first input of a class, which runs again
    records: list = field(default_factory=list)
    untraced: list | None = None  # the paired untraced run of a traced task


class Bench:
    """One workload's set-up and closed loop, in this process."""

    def __init__(self, workload, seed, quick, scratch):
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.scratch = scratch
        self.runner = None
        self.error_base = None
        self.next_job = 0
        self.problems = []  # wrong outputs met outside the timed loop
        self.speed = SpeedLog()

    # -- one task

    def execute(self, job_class, key, rows, tracer=None):
        """Run the steps of one task; time each call, then check it."""
        records = []
        previous_failed = False
        for step in self.runner.steps(job_class, rows, key):
            if step.needs_previous and previous_failed:
                continue
            job = self.next_job
            self.next_job += 1
            wrong = failure = None
            bits = 0
            ref = self.speed.sample()
            if tracer is not None:
                tracer.job = job
            start = perf_counter()
            try:
                result = step.call()
            except Exception as exc:  # every error is recorded; an undocumented one fails the run
                seconds = perf_counter() - start
                if isinstance(exc, self.error_base) and type(exc).__name__ in step.documented:
                    failure = type(exc).__name__
                else:
                    wrong = f"raised {type(exc).__name__}: {exc}"
            else:
                seconds = perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.job = None
            if failure is None and wrong is None:
                wrong, failure, bits = step.check(result)
            previous_failed = failure is not None or wrong is not None
            records.append(
                {
                    "job": job,
                    "step": step.label,
                    "seconds": seconds,
                    "ref": ref,
                    "failure": failure,
                    "wrong": wrong,
                    "bits": bits,
                    "counts": step.counts(),
                }
            )
        return records

    # -- set-up

    def warmup_classes(self):
        """The smallest class of each (ring, input shape), i.e. of each route."""
        best = {}
        for c in self.workload.classes:
            if (c.spec, c.shape) not in best or c.n < best[c.spec, c.shape].n:
                best[c.spec, c.shape] = c
        return list(best.values())

    def set_up(self):
        """Import blocklin and run one warm-up job per (ring, route).

        The warm-up inputs do not depend on the seed, so every run sets up
        the same way.  Returns the seconds spent at the reference speed,
        without the time to generate inputs.
        """
        first = self.speed.sample()
        start = perf_counter()
        blocklin = import_blocklin()
        self.error_base = blocklin.BlocklinError
        self.runner = wl.Runner(self.workload, self.scratch)
        spent = perf_counter() - start
        for c in self.warmup_classes():
            rows = wl.make_input(c, "warm-up", 0, self.quick)
            for record in self.execute(c, 0, rows):
                spent += record["seconds"]
                if record["wrong"]:
                    self.problems.append(f"warm-up {c.name} {record['step']}: {record['wrong']}")
        self.speed.sample()
        return spent * self.speed.factor(first, len(self.speed.samples) - 1)

    def scale(self, records):
        """Add each record's wall time at the reference speed (see speed.py)."""
        for r in records:
            r["scaled_s"] = r["seconds"] * self.speed.factor(r["ref"])

    # -- the closed loop

    def loop(self, seconds, tracer=None):
        """The closed loop; returns the tasks and how many of them are counted.

        It runs whole rounds of the schedule, so every run has the same mix,
        until the timed job time at the reference speed (see
        ``timed_seconds``) reaches ``seconds`` and at least
        ``COUNTED_ROUNDS`` rounds are done.  When traced, each task also
        runs untraced right before or after its traced run (alternating), so
        the overhead compares like with like.
        """
        classes = self.workload.classes
        round_len = sum(c.weight for c in classes)
        schedule = wl.schedule(classes)
        used = Counter()
        tasks = []
        kinds = defaultdict(list)  # scaled times by (class, step), as in end_to_end
        while (
            timed_seconds(kinds) < seconds
            or len(tasks) < COUNTED_ROUNDS * round_len
            or len(tasks) % round_len
        ):
            c = next(schedule)
            key = used[c.name]
            used[c.name] += 1
            task = Task(c, key, wl.make_input(c, self.seed, key, self.quick))
            if tracer is not None and len(tasks) % 2:
                task.untraced = self.execute(c, key, task.rows)
            task.records = self.execute(c, key, task.rows, tracer)
            if tracer is not None and not len(tasks) % 2:
                task.untraced = self.execute(c, key, task.rows)
            if key:
                task.rows = None  # only the first input of a class runs again
            tasks.append(task)
            for r in task.records:
                kinds[c.name, r["step"]].append(r["seconds"] * self.speed.factor(r["ref"]))
        return tasks, COUNTED_ROUNDS * round_len

    def probe(self, tracer):
        """The records of the workload's failure probe, traced."""
        c = self.workload.probe
        if c is None:
            return []
        return [
            record
            for key in range(PROBE_INPUTS)
            for record in self.execute(c, key, wl.make_input(c, self.seed, key, self.quick), tracer)
        ]

    def repeat(self, task, tracer=None):
        """Run a task again; the new records must carry the same exact counts."""
        records = self.execute(task.job_class, task.key, task.rows, tracer)
        return records, differs(task, task.records, records)


def differs(task, first, second):
    """Why two runs of one task did not repeat exactly, or None."""
    a = [(r["step"], r["counts"], r["failure"]) for r in first]
    b = [(r["step"], r["counts"], r["failure"]) for r in second]
    if a != b:
        return f"{task.job_class.name} #{task.key} did not repeat its counts: {a} vs {b}"
    return None


def setup_probe_median(args, own):
    """Median set-up time over this process and fresh processes."""
    samples = [own]
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        command.append("--quick")
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples), samples


def trimmed_mean(values):
    """Mean without the ``TRIM`` share of the lowest and of the highest values."""
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut: len(values) - cut])


def timed_seconds(kinds):
    """Total job time, each kind (class and step) at its trimmed mean time.

    A stall of the shared machine that slows a few jobs of a kind is left
    out; a change that slows more than ``TRIM`` of a kind's jobs shows.
    """
    return sum(len(v) * trimmed_mean(v) for v in kinds.values())


def kind_times(tasks, key="scaled_s", attr="records"):
    """Job times by kind (class and step) from each task's ``attr`` records."""
    kinds = defaultdict(list)
    for t in tasks:
        for r in getattr(t, attr):
            kinds[t.job_class.name, r["step"]].append(r[key])
    return kinds


def job_records(tasks):
    return [r for task in tasks for r in task.records]


def end_to_end(tasks, key="scaled_s"):
    """Throughput and job-time percentiles from the records' ``key`` times.

    The throughput divides by ``timed_seconds``; the plain sum of the job
    times is kept as ``jobs_per_s.mean``.
    """
    records = job_records(tasks)
    times = sorted(r[key] for r in records)
    ok = sum(1 for r in records if not r["failure"] and not r["wrong"])
    timed = timed_seconds(kind_times(tasks, key))
    n = len(times)
    tail_index = max(n - 1 - TAIL_BEYOND, 0)
    tail = {
        "percentile": 100.0 * (tail_index + 1) / n,
        "jobs": n,
        "beyond": n - 1 - tail_index,
    }
    metrics = {
        "jobs_per_s": ok / timed,
        "job_s.p50": statistics.median(times),
        "job_s.tail": times[tail_index],
    }
    return metrics, tail, ok / sum(times)


def count_totals(tasks):
    totals = Counter()
    for r in job_records(tasks):
        totals.update(r["counts"])
    return totals


def per_layer(tasks, counted, spans, probe, probe_spans):
    """Per-layer metrics from the traced loop, the paired untraced runs and the probe.

    Busy shares compare span time with the raw traced job time; the rate and
    the overhead use ``timed_seconds`` at the reference speed.  The
    randomized fallback and the failure shares are read from the failure
    probe's records and spans, as the loop's inputs never reach them.
    """
    records = job_records(tasks)
    traced_wall = sum(r["seconds"] for r in records)
    # trimmed times, so a stall in one run of a pair does not count
    traced_timed = timed_seconds(kind_times(tasks))
    untraced_timed = timed_seconds(kind_times(tasks, attr="untraced"))
    counted_jobs = {r["job"] for r in job_records(tasks[:counted])}
    # the counted jobs ran first, so their spans are a prefix and parent indices hold
    counted_spans = spans[: sum(1 for s in spans if s[tracing.JOB] in counted_jobs)]
    whole = tracing.summarize(spans)
    part = tracing.summarize(counted_spans)
    calls, errors = part["calls"], part["errors"]
    busy, self_s = whole["busy_s"], whole["self_s"]
    totals = count_totals(tasks[:counted])
    all_totals = count_totals(tasks)
    muldiv_all = all_totals["mul"] + all_totals["div"]
    work = muldiv_all + whole["discarded_outside"]
    discarded = whole["discarded_outside"] + whole["discarded_inside"]
    lu_busy = busy.get("lu.lu_decompose", 0.0)

    def frac(name, table=busy):
        return table.get(name, 0.0) / traced_wall

    probe_wall = sum(r["seconds"] for r in probe)
    fallback = [s for s in probe_spans if s[tracing.NAME] == "lu.randomized_lu"]

    def share_of_probe(name, error):
        """Share of the probe's jobs in which a call of ``name`` raised ``error``."""
        hit = {s[tracing.JOB] for s in probe_spans
               if s[tracing.NAME] == name and s[tracing.ERROR] == error}
        return len(hit) / len(probe) if probe else 0.0

    m = {
        "rings.muldiv": totals["mul"] + totals["div"],
        "rings.add": totals["add"],
        "rings.scaling": totals["scaling"],
        "rings.us_per_muldiv": untraced_timed * 1e6 / muldiv_all if muldiv_all else 0.0,
        "rings.out_bits_max": max(r["bits"] for r in records),
        "blockmat.mul.calls": calls.get("blockmat.mul", 0),
        "blockmat.mul.busy_frac": frac("blockmat.mul"),
        "blockmat.mul.self_frac": frac("blockmat.mul", self_s),
        "blockmat.convert.busy_frac": whole["convert_busy_s"] / traced_wall,
        "inversion.schur_invert.calls": calls.get("inversion.schur_invert", 0),
        "inversion.schur_invert.busy_frac": frac("inversion.schur_invert"),
        "inversion.schur_invert.failed": sum(
            v for k, v in errors.items() if k.startswith("inversion.schur_invert:")
        ),
        "inversion.invert_gram_transpose.busy_frac": frac("inversion.invert_gram_transpose"),
        "inversion.invert_gram_star.busy_frac": frac("inversion.invert_gram_star"),
        "inversion.invert_gram_gv.busy_frac": frac("inversion.invert_gram_gv"),
        "inversion.is_invertible.calls": calls.get("inversion.is_invertible", 0),
        "inversion.is_invertible.busy_frac": frac("inversion.is_invertible"),
        "inversion.discarded_frac": discarded / work if work else 0.0,
        "lu.lu_decompose.busy_frac": frac("lu.lu_decompose"),
        "lu.block_pivot.calls": calls.get("lu.block_pivot", 0),
        "lu.block_pivot.busy_frac": frac("lu.block_pivot"),
        "lu.probe_frac": busy.get("lu.block_pivot", 0.0) / lu_busy if lu_busy else 0.0,
        "lu.tri_invert.busy_frac": frac("lu.tri_invert"),
        "lu.tri_mul.busy_frac": frac("lu.tri_mul"),
        "lu.randomized_lu.calls": len(fallback),
        # randomized_lu does not call itself, so its spans do not nest
        "lu.randomized_lu.busy_frac": (
            sum(s[tracing.END] - s[tracing.START] for s in fallback) / probe_wall if probe else 0.0
        ),
        "lu.failed.AllBlocksSingular": share_of_probe("lu.block_pivot", "AllBlocksSingular"),
        "lu.failed.RandomnessExhausted": share_of_probe("lu.randomized_lu", "RandomnessExhausted"),
        "matio.parse_matrix.busy_frac": frac("matio.parse_matrix"),
        "matio.format_matrix.busy_frac": frac("matio.format_matrix"),
        "matio.bytes": sum(s[tracing.SIZE] for s in counted_spans),
        "dense.dense_mul.calls": calls.get("dense.dense_mul", 0),
        "dense.dense_mul.busy_frac": frac("dense.dense_mul"),
        "cli.main.busy_frac": frac("cli.main"),
        "cli.main.self_frac": frac("cli.main", self_s),
        "cli.exit_nonzero": sum(
            1 for r in records if (r["failure"] or r["wrong"] or "").startswith("exit")
        ) / len(records),
        "fail_frac": sum(1 for r in records if r["failure"]) / len(records),
        "trace.overhead_frac": traced_timed / untraced_timed - 1.0,
    }
    return m, class_shares(tasks, spans)


def class_shares(tasks, spans):
    """For each job class, the share of its job time inside each traced name."""
    job_class = {r["job"]: t.job_class.name for t in tasks for r in t.records}
    class_time = defaultdict(float)
    for t in tasks:
        class_time[t.job_class.name] += sum(r["seconds"] for r in t.records)
    busy = defaultdict(float)
    for index, span in enumerate(spans):
        cls = job_class.get(span[tracing.JOB])
        if cls is None:
            continue
        parent = span[tracing.PARENT]
        while parent >= 0 and spans[parent][tracing.NAME] != span[tracing.NAME]:
            parent = spans[parent][tracing.PARENT]
        if parent < 0:
            busy[cls, span[tracing.NAME]] += span[tracing.END] - span[tracing.START]
    shares = defaultdict(dict)
    for (cls, name), seconds in busy.items():
        shares[cls][name] = seconds / class_time[cls]
    return {cls: dict(sorted(v.items(), key=lambda kv: -kv[1])) for cls, v in shares.items()}


def class_stats(tasks):
    stats = {}
    for t in tasks:
        s = stats.setdefault(t.job_class.name, {"jobs": 0, "failed": 0, "seconds": []})
        for r in t.records:
            s["jobs"] += 1
            s["failed"] += bool(r["failure"])
            s["seconds"].append(r["scaled_s"])
    return {
        name: {
            "jobs": s["jobs"],
            "failed": s["failed"],
            "p50_s": statistics.median(s["seconds"]),
            "total_s": sum(s["seconds"]),
        }
        for name, s in stats.items()
    }


def counted_record(tasks, calls_by_job):
    """Exact counts per job of the counted rounds, to compare across runs."""
    return [
        {
            "class": t.job_class.name,
            "key": t.key,
            "steps": [
                {"step": r["step"], "failure": r["failure"], "counts": r["counts"],
                 **({"calls": calls_by_job.get(r["job"], {})} if calls_by_job is not None else {})}
                for r in t.records
            ],
        }
        for t in tasks
    ]


def run_workload(args):
    workload = wl.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        bench = Bench(workload, args.seed, args.quick, scratch)
        try:
            own_setup = bench.set_up()
        except ImportError as exc:
            print(f"error: cannot import blocklin: {exc}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(own_setup)
            return 0
        return measure(args, bench, own_setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, bench, own_setup):
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "quick": args.quick, "trace": args.trace}
    problems = list(bench.problems)
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tasks, counted = bench.loop(args.seconds, tracer)
            loop_spans = len(tracer.spans)
            repeats = [(t, *bench.repeat(t, tracer)) for t in first_of_each_class(tasks)]
            probe_start = len(tracer.spans)
            probe = bench.probe(tracer)
        finally:
            tracer.uninstall()
        calls = calls_by_job(tracer.spans)
        for task, records, problem in repeats:
            if problem is None and (
                [calls.get(r["job"]) for r in task.records] != [calls.get(r["job"]) for r in records]
            ):
                problem = f"{task.job_class.name} #{task.key} did not repeat its span counts"
            problems.append(problem)
        problems += [differs(t, t.records, t.untraced) for t in tasks]
        for t in tasks:
            bench.scale(t.records + t.untraced)
        metrics, shares = per_layer(tasks, counted, tracer.spans[:loop_spans], probe,
                                    tracer.spans[probe_start:])
        units = PER_LAYER
        detail["class_time_shares"] = shares
        problems += [f"probe job {r['job']}: {r['wrong']}" for r in probe if r["wrong"]]
        if probe:
            detail["probe"] = {
                "class": bench.workload.probe.name,
                "jobs": len(probe),
                "failures": dict(Counter(r["failure"] for r in probe if r["failure"])),
            }
        tracer.write(os.path.join(OUT_DIR, tag + "-spans.jsonl"))
    else:
        tasks, counted = bench.loop(args.seconds)
        problems += [bench.repeat(t)[1] for t in first_of_each_class(tasks)]
        calls = None
        bench.scale(job_records(tasks))
        metrics, tail, detail["jobs_per_s.mean"] = end_to_end(tasks)
        detail["raw_wall_metrics"] = end_to_end(tasks, key="seconds")[0]
        metrics["setup_s"], detail["setup_samples_s"] = setup_probe_median(args, own_setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
        detail["tail"] = tail
    problems = [p for p in problems if p]
    records = job_records(tasks)
    problems += [f"job {r['job']} {r['step']}: {r['wrong']}" for r in records if r["wrong"]]
    failures = Counter(r["failure"] for r in records if r["failure"])
    detail.update(
        metrics=metrics,
        failures=dict(failures),
        classes=class_stats(tasks),
        counted_jobs=sum(len(t.records) for t in tasks[:counted]),
        counted_totals=dict(count_totals(tasks[:counted])),
        counted=counted_record(tasks[:counted], calls),
        problems=problems,
    )
    with open(os.path.join(OUT_DIR, tag + ".json"), "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, default=str)
    report(args, detail, units)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def first_of_each_class(tasks):
    firsts = {}
    for task in tasks:
        firsts.setdefault(task.job_class.name, task)
    return list(firsts.values())


def calls_by_job(spans):
    calls = defaultdict(Counter)
    for span in spans:
        calls[span[tracing.JOB]][span[tracing.NAME]] += 1
    return {job: dict(sorted(c.items())) for job, c in calls.items()}


def report(args, detail, units):
    """Human-readable lines: every metric by name with its unit, then details."""
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' quick' if args.quick else ''}")
    for name, unit in units.items():
        print(f"{name} {detail['metrics'][name]:.6g} {unit}")
    if "raw_wall_metrics" in detail:
        raw = ", ".join(f"{k} {v:.6g}" for k, v in detail["raw_wall_metrics"].items())
        print(f"# times above are at the reference speed (speed.py); unscaled: {raw}")
    if "tail" in detail:
        print(f"# jobs_per_s with each job's own time: {detail['jobs_per_s.mean']:.6g} 1/s")
        t = detail["tail"]
        print(f"# job_s.tail is p{t['percentile']:.1f} of {t['jobs']} jobs ({t['beyond']} beyond)")
        samples = ", ".join(f"{s:.4f}" for s in detail["setup_samples_s"])
        print(f"# setup_s is the median of [{samples}] s")
    print(f"# failures by class of error: {detail['failures'] or 'none'}")
    if "probe" in detail:
        p = detail["probe"]
        print(f"# failure probe, untimed: {p['jobs']} jobs of {p['class']}, "
              f"failures by class of error: {p['failures'] or 'none'}")
    print(f"# exact counts over the first {detail['counted_jobs']} jobs: {detail['counted_totals']}")
    for name, s in detail["classes"].items():
        line = (f"# class {name}: {s['jobs']} jobs, {s['failed']} failed, "
                f"p50 {s['p50_s']:.4f} s, total {s['total_s']:.3f} s")
        top = list(detail.get("class_time_shares", {}).get(name, {}).items())[:3]
        if top:
            line += "; time in " + ", ".join(f"{k} {v:.0%}" for k, v in top)
        print(line)
    for problem in detail["problems"]:
        print(f"# WRONG: {problem}")


def run_all(args):
    """Each workload in a fresh process; every metric printed; nonzero if any failed."""
    worst = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        sys.stderr.write(done.stderr)
        worst = max(worst, done.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest sizes, every check on; for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print it (used to sample set-up time)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
