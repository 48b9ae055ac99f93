"""Tests of the benchmark itself, on its quick mode.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import exact  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    done = subprocess.run(
        [sys.executable, script, *args], capture_output=True, text=True, cwd=cwd, timeout=180
    )
    return done, done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_quick_run_reports_every_metric(workload, trace):
    done, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                        "--trace", trace, "--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if not line.startswith("#")}
    assert printed == expected


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_counts_repeat_exactly_across_processes():
    records = []
    for _ in range(2):
        done, _ = bench("--workload", "lu-factor", "--seed", "5", "--seconds", "0.2",
                        "--trace", "1", "--quick")
        assert done.returncode == 0, done.stdout + done.stderr
        with open(os.path.join(run.OUT_DIR, "lu-factor-seed5-trace1-quick.json"),
                  encoding="utf-8") as handle:
            records.append(json.load(handle))
    first, second = records
    assert first["counted"] == second["counted"]
    assert first["counted_totals"]["mul"] > 0
    assert all("calls" in step for task in first["counted"] for step in task["steps"])
    # the failure probe is outside the loop: its failures repeat and are not failed jobs
    assert first["probe"] == second["probe"]
    assert first["probe"]["jobs"] == run.PROBE_INPUTS
    assert first["failures"] == {}


def test_pivot_simulation_agrees_with_lu_decompose():
    """exact.block_pluq_exists tells which inputs lu_decompose cannot factor."""
    blocklin = run.import_blocklin()
    job_class = wl.JobClass("gf:2", 8, "generic", 1, 8)
    runner = wl.Runner(wl.WORKLOADS["lu-factor"], None)
    field = exact.field_for(job_class.spec)
    seen = set()
    for key in range(40):
        rows = wl.make_input(job_class, 1, key, False)
        try:
            runner.steps(job_class, rows, key)[0].call()
            factored = True
        except blocklin.errors.RandomnessExhausted:
            factored = False
        assert exact.block_pluq_exists(field, rows) == factored, key
        seen.add(factored)
    assert seen == {True, False}


def test_wrong_answer_fails_the_run(monkeypatch, capsys):
    blocklin = run.import_blocklin()
    real = blocklin.inversion.auto_invert

    def wrong_inverse(m, counter=None):
        return blocklin.blockmat.add(real(m, counter), blocklin.blockmat.identity(m.depth, m.ring))

    monkeypatch.setattr(blocklin.inversion, "auto_invert", wrong_inverse)
    code = run.main(["--workload", "invert-char0", "--seed", "1", "--seconds", "0.1", "--quick",
                     "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False


@pytest.mark.parametrize("workload", ["invert-char0", "cli-batch"])
def test_undocumented_error_fails_the_run(workload, monkeypatch, capsys):
    """auto_invert documents no failure on invertible input, in-process or as a CLI exit."""
    blocklin = run.import_blocklin()

    def singular(m, counter=None):
        raise blocklin.errors.SingularMatrix("certified-invertible input called singular")

    monkeypatch.setattr(blocklin.inversion, "auto_invert", singular)
    monkeypatch.setitem(blocklin.cli._METHODS, "auto", ("any", singular))
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.1", "--quick",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 0


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done, lines = bench("--workload", "invert-gfp", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_oracle_rejects_wrong_outputs():
    field = exact.Rationals
    m = [[2, 1], [1, 1]]
    good = [[1, -1], [-1, 2]]
    assert exact.check_inverse(field, m, good) is None
    assert exact.check_inverse(field, m, [[1, -1], [-1, 3]]) is not None
    gf = exact.PrimeField(7)
    low, up = [[1, 0], [4, 1]], [[2, 1], [0, 3]]
    product = exact.matmul(gf, low, up)
    assert exact.check_pluq(gf, product, low, up, [0, 1], [0, 1]) is None
    assert exact.check_pluq(gf, product, [[1, 0], [5, 1]], up, [0, 1], [0, 1]) is not None
    assert exact.check_pluq(gf, product, [[1, 1], [4, 1]], up, [0, 1], [0, 1]) is not None
    quat = exact.Quaternions
    i, j = (0, 1, 0, 0), (0, 0, 1, 0)
    assert quat.mul(i, j) != quat.mul(j, i)


@pytest.mark.parametrize("spec", ["q", "qi", "quat", "gf:7"])
def test_generated_inputs_are_seeded_and_shaped(spec):
    field = exact.field_for(spec)
    a = inputs.all_blocks_singular(field, 8, inputs.rng_for(1, "x"))
    assert a == inputs.all_blocks_singular(field, 8, inputs.rng_for(1, "x"))
    assert a != inputs.all_blocks_singular(field, 8, inputs.rng_for(2, "x"))
    assert exact.is_invertible(field, a)
    for top, left in ((0, 0), (0, 4), (4, 0), (4, 4)):
        block = [row[left:left + 4] for row in a[top:top + 4]]
        assert not exact.is_invertible(field, block)


@pytest.mark.parametrize("spec", ["q", "gf:7"])
def test_strong_inputs_have_every_leading_minor_nonzero(spec):
    field = exact.field_for(spec)
    for key in range(20):
        rows = inputs.random_invertible(field, 6, inputs.rng_for(1, "strong", key), strongly=True)
        for k in range(1, 7):
            assert exact.is_invertible(field, [row[:k] for row in rows[:k]])
    leading_zero = [[0, 1], [1, 0]]
    assert exact.is_invertible(field, leading_zero)
    assert not exact.is_invertible(field, leading_zero, strongly=True)
