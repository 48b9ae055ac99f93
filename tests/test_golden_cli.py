"""Byte-for-byte pin of the batch CLI.

Runs a fixed list of commands in a scratch directory and compares, per
command, the exit code and the SHA-256 of stdout, stderr and every file the
command wrote with ``golden_cli.json``.  The digests were recorded before
the ring token parser, the Schur step, the Gram routing and the padding
each got a single home, so any refactor that moves an output byte, an
``# ops`` count, an exit code or an error message fails here.

To re-record after an intended output change::

    PYTHONPATH=src:tests python -c "import test_golden_cli as g; g.record()"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from blocklin.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

RINGS = ("q", "qi", "quat", "gf:2", "gf:7", "ratfun:q", "ratfun:gf:7")

# inputs that gen cannot draw on purpose
FIXED_FILES = {
    "sing-q.mat": "ring q\nsize 4\n1 2 0 1\n2 4 0 2\n0 1 3 0\n5 0 1 1\n",
    "sing-qi.mat": "ring qi\nsize 3\n1 i 2\n-i 1 -2*i\n1 2 3\n",
    "sing-quat.mat": "ring quat\nsize 2\ni j\n-1 k\n",
    "sing-gf7.mat": "ring gf:7\nsize 4\n1 2 3 4\n2 4 6 1\n0 1 0 1\n1 1 1 1\n",
}


def _name(ring: str, size: int) -> str:
    return f"{ring.replace(':', '_')}-{size}"


def commands() -> list[list[str]]:
    cmds = []
    for ring in RINGS:
        for size in (1, 3, 4):
            m = _name(ring, size)
            cmds += [
                ["gen", "--ring", ring, "--size", str(size), "--seed", "5", "-o", f"{m}.raw"],
                ["gen", "--ring", ring, "--size", str(size), "--seed", "5", "--invertible",
                 "-o", f"{m}.mat"],
                ["invert", f"{m}.mat", "-o", f"{m}.inv"],
                ["check", "--kind", "inverse", f"{m}.mat", f"{m}.inv"],
                ["lu", f"{m}.mat", "--out-prefix", m],
            ]
            if size > 1:
                cmds += [
                    ["check", "--kind", "pluq", f"{m}.mat", f"{m}.L.mat", f"{m}.U.mat",
                     f"{m}.perms"],
                    ["ldu", f"{m}.mat", "--out-prefix", m],
                    ["check", "--kind", "ldu", f"{m}.mat", f"{m}.Lb.mat", f"{m}.Db.mat",
                     f"{m}.Ub.mat"],
                ]
    for ring in ("q", "qi", "gf:7"):
        cmds.append(["gen", "--ring", ring, "--size", "4", "--seed", "2",
                     "--all-blocks-singular", "-o", f"abs-{_name(ring, 4)}.mat"])
    cmds.append(["gen", "--ring", "quat", "--size", "4", "--all-blocks-singular"])
    inputs = [f"{_name(r, s)}.mat" for r in ("q", "qi", "quat", "gf:7") for s in (3, 4)]
    inputs += [f"abs-{_name(r, 4)}.mat" for r in ("q", "qi", "gf:7")]
    inputs += ["sing-q.mat", "sing-qi.mat", "sing-quat.mat", "sing-gf7.mat", "gf_2-4.mat",
               "ratfun_q-3.mat", "ratfun_gf_7-4.mat"]
    for path in inputs:
        for method in ("schur", "gram", "gv", "auto"):
            cmds.append(["invert", path, "--method", method,
                         "-o", f"{path[:-4]}.{method}.inv"])
    for path in ("abs-q-4.mat", "sing-q.mat", "sing-gf7.mat", "abs-gf_7-4.mat", "q-4.mat",
                 "gf_7-3.mat", "quat-4.mat"):
        cmds += [
            ["lu", path, "--out-prefix", f"{path[:-4]}.plain"],
            ["lu", path, "--randomized", "--out-prefix", f"{path[:-4]}.rand"],
            ["ldu", path, "--out-prefix", f"{path[:-4]}.blk"],
        ]
    for ring in ("q", "qi", "quat", "gf:7", "ratfun:q"):
        m = _name(ring, 3)
        for strategy in ("naive", "strassen"):
            cmds.append(["mul", f"{m}.raw", f"{m}.mat", "--strategy", strategy,
                         "-o", f"{m}.{strategy}.prod"])
    cmds.append(["mul", "q-3.mat", "q-4.mat"])
    for op in ("mul", "tri_mul", "tri_inv", "gram_inv", "lu"):
        cmds.append(["verify-counts", "--op", op, "--sizes", "1,2,4,8", "--seed", "3"])
        cmds.append(["verify-counts", "--op", op, "--sizes", "2,4", "--machine"])
    cmds.append(["verify-counts", "--op", "mul", "--sizes", "3"])
    return cmds


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(directory: Path, capture) -> list[dict]:
    """Run every command in ``directory``; ``capture()`` returns (out, err)
    written since its last call."""
    for name, text in FIXED_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    capture()
    records = []
    for argv in commands():
        # every command writes only names no earlier command wrote
        before = set(directory.iterdir())
        code = main(argv)
        out, err = capture()
        written = {
            p.name: _digest(p.read_bytes()) for p in sorted(set(directory.iterdir()) - before)
        }
        records.append({
            "argv": argv,
            "exit": code,
            "stdout": _digest(out.encode()),
            "stderr": _digest(err.encode()),
            "files": written,
        })
    return records


def record():
    """Rewrite golden_cli.json from the current code."""
    import contextlib
    import io
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()

        def capture():
            texts = out.getvalue(), err.getvalue()
            for buf in (out, err):
                buf.seek(0)
                buf.truncate()
            return texts

        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                records = run_all(Path(tmp), capture)
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n",
        encoding="utf-8",
    )


def test_cli_output_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def capture():
        got = capsys.readouterr()
        return got.out, got.err

    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    records = run_all(tmp_path, capture)
    assert [r["argv"] for r in records] == [r["argv"] for r in expected]
    for got, want in zip(records, expected):
        assert got == want, " ".join(got["argv"])
