import hashlib

import pytest

from blocklin import QQ, cli, dense_determinant, from_dense
from blocklin.cli import main
from blocklin.matio import format_matrix, parse_matrix

from conftest import WITNESS_ROWS, ring_dense


def run(*argv):
    return main(list(argv))


def write_witness(path):
    path.write_text(format_matrix(ring_dense(QQ, WITNESS_ROWS)))


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.mat", tmp_path / "b.mat"
    assert run("gen", "--ring", "gf:7", "--size", "8", "--seed", "3", "-o", str(a)) == 0
    assert run("gen", "--ring", "gf:7", "--size", "8", "--seed", "3", "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run("gen", "--ring", "gf:7", "--size", "8", "--seed", "4", "-o", str(b)) == 0
    assert a.read_bytes() != b.read_bytes()


# SHA-256 of `gen --invertible` output per seed.  Whether a draw is kept is
# an exact decision, so these bytes hold for any correct is_invertible and
# pin the whole sequence of accepted and rejected draws
GEN_INVERTIBLE_SHA256 = [
    ("q", 6, 1, "a792aa2e8419f709c459531c21b47e0a297371171347f2b80c0e808868e81413"),
    ("q", 6, 2, "ef56774009805c3e3f2d694cf838dfda0112a1764b5ede82502e6ff7cc08e47d"),
    ("q", 6, 3, "da04c7cd0c1267eb221f8bdf07bbf5b44defb0e4fffef5681617ebaf59a381f9"),
    ("q", 12, 1, "98042cd6ca81d20a34332764b31086b99b23c0b785c79af84be097858efbd9ac"),
    ("q", 12, 2, "3d743afe038ca3ed864f8d7e89170b4dcff2ed0f9d9b0af7d1227c630eb4d404"),
    ("q", 12, 3, "91db21355b763c8bfd15f579b4442a6df535a759df18f2d5e5ee6b352f9c7667"),
    ("gf:2", 8, 1, "a484d92ec6959cd998e0520fe88716c0c130e9259a377b0734d93a21dd281a61"),
    ("gf:2", 8, 2, "9bf5ed659b618f570cdbaeefa0457e689e854794b2bbdf77ebfffe63ece2878c"),
    ("gf:2", 8, 3, "0c014e82011c64008dd8ea919a17ebfa6046c7ec4180cdadb2c6a7be770a0efc"),
    ("gf:7", 6, 1, "4869385d219ba1897701dc61a45fc10debf0f4af78dc6d19b5733457b447e901"),
    ("gf:7", 6, 2, "a2e8a32d53917a6e0e7af264199babdbfd7b9cfb36acf7f3a1cbaa3620c5dfde"),
    ("gf:7", 6, 3, "4938d9f89d1c64f463dbc58431ae5b0483681c4a2bd145a43f0b6ba7db678cea"),
    ("qi", 4, 1, "6e96cb68c692e900c6740505db52edbc00e587e1d86617825efb2f54be840b53"),
    ("qi", 4, 2, "2cf56714197193d68cfceee69ba623138ea591861b1b0434072a889bf6d33a3d"),
    ("qi", 4, 3, "f900917eb760c469f552be65300db55d88c2a30b05cd4057400e71011e8a8070"),
    ("quat", 4, 1, "f29c5181af27a6be7091612efba446b50355d8aaa4fdf5e814fd60fa4ee4d249"),
    ("quat", 4, 2, "7edf8d21771f575b5fab6b1b0b9a5aa54f2f5a1147dc373890f1556071c6e809"),
    ("quat", 4, 3, "0418562b409e0b4b07ef5a2918c633712711aded3d54a0f19b5fc44ac3ae33c5"),
    ("ratfun:gf:7", 2, 1, "c25213bc2491650ec8a33b8bf0150882df7c12dcd307e9a9a7c5ce9c9766d770"),
    ("ratfun:gf:7", 2, 2, "8eacd24b9253a6d5c295aac15ff9e07aa87332e09000e2e34220fbf74da9aad8"),
    ("ratfun:gf:7", 2, 3, "06a92eeb281a8bf7ae269615fc079c8ec7aadddc840bf1d65384a0b9c99e4f14"),
]


@pytest.mark.parametrize("ring,size,seed,digest", GEN_INVERTIBLE_SHA256)
def test_gen_invertible_output_is_pinned(tmp_path, ring, size, seed, digest):
    out = tmp_path / "m.mat"
    assert run("gen", "--ring", ring, "--size", str(size), "--seed", str(seed),
               "--invertible", "-o", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_gen_invert_check_pipeline(tmp_path):
    m = tmp_path / "m.mat"
    inv = tmp_path / "inv.mat"
    assert run("gen", "--ring", "q", "--size", "4", "--seed", "1", "--invertible", "-o", str(m)) == 0
    assert run("invert", str(m), "--method", "auto", "-o", str(inv)) == 0
    assert run("check", "--kind", "inverse", str(m), str(inv)) == 0


def test_gen_all_blocks_singular_properties(tmp_path):
    out = tmp_path / "abs.mat"
    assert run("gen", "--ring", "q", "--size", "8", "--seed", "5", "--all-blocks-singular", "-o", str(out)) == 0
    dense = parse_matrix(out.read_text())
    assert not dense_determinant(dense).is_zero()
    block = from_dense(dense)
    for quadrant in block.blocks:
        from blocklin import to_dense

        assert dense_determinant(to_dense(quadrant)).is_zero()


def test_gen_unsatisfiable_flags(tmp_path):
    assert run("gen", "--ring", "q", "--size", "2", "--all-blocks-singular") == 2
    assert run("gen", "--ring", "quat", "--size", "4", "--all-blocks-singular") == 2
    assert run("gen", "--ring", "zz", "--size", "4") == 2
    assert run("gen", "--ring", "q", "--size", "500") == 2


def test_invert_method_dispatch_and_exit_codes(tmp_path):
    perm = tmp_path / "perm.mat"
    perm.write_text("ring q\nsize 2\n0 1\n1 0\n")
    out = tmp_path / "out.mat"
    assert run("invert", str(perm), "--method", "schur", "-o", str(out)) == 4
    assert run("invert", str(perm), "--method", "gram", "-o", str(out)) == 0
    assert out.read_text().splitlines()[2:] == ["0 1", "1 0"]
    singular = tmp_path / "sing.mat"
    singular.write_text("ring q\nsize 2\n1 1\n1 1\n")
    assert run("invert", str(singular), "--method", "auto", "-o", str(out)) == 3
    gf2 = tmp_path / "g.mat"
    gf2.write_text("ring gf:2\nsize 2\n1 1\n1 0\n")
    assert run("invert", str(gf2), "--method", "gv", "-o", str(out)) == 0
    assert out.read_text() == "ring gf:2\nsize 2\n0 1\n1 1\n"
    assert run("invert", str(gf2), "--method", "gram", "-o", str(out)) == 2
    assert run("invert", str(perm), "--method", "gv", "-o", str(out)) == 0


def test_invert_gv_pipeline_over_gf7_at_n32(tmp_path):
    m, inv = tmp_path / "m.mat", tmp_path / "inv.mat"
    assert run("gen", "--ring", "gf:7", "--size", "32", "--seed", "21", "--invertible", "-o", str(m)) == 0
    assert run("invert", str(m), "--method", "gv", "-o", str(inv)) == 0
    assert run("check", "--kind", "inverse", str(m), str(inv)) == 0


def test_invert_non_power_of_two_projects_back(tmp_path):
    m = tmp_path / "m3.mat"
    m.write_text("ring q\nsize 3\n1 0 0\n0 2 0\n0 0 4\n")
    out = tmp_path / "inv3.mat"
    assert run("invert", str(m), "-o", str(out)) == 0
    assert out.read_text() == "ring q\nsize 3\n1 0 0\n0 1/2 0\n0 0 1/4\n"
    assert run("check", "--kind", "inverse", str(m), str(out)) == 0


def test_lu_pipeline(tmp_path):
    m = tmp_path / "m.mat"
    assert run("gen", "--ring", "gf:7", "--size", "8", "--seed", "2", "--invertible", "-o", str(m)) == 0
    prefix = tmp_path / "f"
    assert run("lu", str(m), "--out-prefix", str(prefix)) == 0
    assert run(
        "check",
        "--kind",
        "pluq",
        str(m),
        f"{prefix}.L.mat",
        f"{prefix}.U.mat",
        f"{prefix}.perms",
    ) == 0


def test_lu_example_files(tmp_path, capsys):
    m = tmp_path / "m.mat"
    m.write_text("ring q\nsize 2\n1 2\n3 4\n")
    prefix = tmp_path / "out"
    assert run("lu", str(m), "--out-prefix", str(prefix)) == 0
    assert (tmp_path / "out.L.mat").read_text() == "ring q\nsize 2\n1 0\n3 1\n"
    assert (tmp_path / "out.U.mat").read_text() == "ring q\nsize 2\n1 2\n0 -2\n"
    assert (tmp_path / "out.perms").read_text() == "perm-rows 1 2\nperm-cols 1 2\n"


def test_lu_non_power_of_two_emits_padded_factors(tmp_path):
    m = tmp_path / "m3.mat"
    m.write_text("ring q\nsize 3\n0 1 2\n1 0 3\n2 3 0\n")
    prefix = tmp_path / "p"
    assert run("lu", str(m), "--out-prefix", str(prefix)) == 0
    padded = parse_matrix((tmp_path / "p.L.mat").read_text())
    assert padded.n == 4
    assert run(
        "check",
        "--kind",
        "pluq",
        str(m),
        f"{prefix}.L.mat",
        f"{prefix}.U.mat",
        f"{prefix}.perms",
    ) == 0


def test_lu_zero_matrix_exit_code(tmp_path):
    z = tmp_path / "z.mat"
    z.write_text("ring q\nsize 2\n0 0\n0 0\n")
    assert run("lu", str(z), "--out-prefix", str(tmp_path / "z")) == 3


def test_lu_all_blocks_singular_exhausts(tmp_path):
    m = tmp_path / "w.mat"
    write_witness(m)
    assert run("lu", str(m), "--out-prefix", str(tmp_path / "w")) == 5


def test_lu_randomized_flag(tmp_path, capsys):
    m = tmp_path / "m.mat"
    m.write_text("ring q\nsize 2\n1 2\n3 4\n")
    prefix = tmp_path / "r"
    assert run("lu", str(m), "--randomized", "--out-prefix", str(prefix)) == 0
    err = capsys.readouterr().err
    assert "randomized path: yes" in err
    # the factors are unique, so there is no seed or retry count to set
    assert run("lu", str(m), "--randomized", "--seed", "6") == 2
    assert run(
        "check",
        "--kind",
        "pluq",
        str(m),
        f"{prefix}.L.mat",
        f"{prefix}.U.mat",
        f"{prefix}.perms",
    ) == 0


def test_lu_randomized_certifies_ratfun_over_prime_field(tmp_path):
    # invertible with a zero leading entry: no L*U exists, and the check that
    # says so must answer for a ring that has no Gram driver
    m = tmp_path / "m.mat"
    m.write_text("ring ratfun:gf:7\nsize 2\n(0) (1)\n(1) (0)\n")
    assert run("lu", str(m), "--randomized", "--out-prefix", str(tmp_path / "r")) == 5


def test_ldu_pipeline(tmp_path):
    m = tmp_path / "m.mat"
    m.write_text("ring q\nsize 4\n1 2 0 1\n3 4 1 0\n0 1 1 2\n1 0 2 1\n")
    prefix = tmp_path / "d"
    assert run("ldu", str(m), "--out-prefix", str(prefix)) == 0
    assert run(
        "check",
        "--kind",
        "ldu",
        str(m),
        f"{prefix}.Lb.mat",
        f"{prefix}.Db.mat",
        f"{prefix}.Ub.mat",
    ) == 0


def test_check_detects_corruption(tmp_path, capsys):
    m = tmp_path / "m.mat"
    inv = tmp_path / "inv.mat"
    assert run("gen", "--ring", "q", "--size", "4", "--seed", "9", "--invertible", "-o", str(m)) == 0
    assert run("invert", str(m), "-o", str(inv)) == 0
    lines = inv.read_text().splitlines()
    row = lines[2].split()
    row[1] = "12345"
    lines[2] = " ".join(row)
    inv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("check", "--kind", "inverse", str(m), str(inv)) == 1
    out = capsys.readouterr().out
    assert "failed at entry" in out


@pytest.mark.parametrize(
    "command,kind,factors,tampered,row,message",
    [
        ("lu", "pluq", ("L.mat", "U.mat", "perms"), "L.mat", ("3 1", "3 2"),
         "check pluq failed at entry (2, 2): expected 4, got 2"),
        ("ldu", "ldu", ("Lb.mat", "Db.mat", "Ub.mat"), "Db.mat", ("0 -2", "0 2"),
         "check ldu failed at entry (2, 2): expected 4, got 8"),
    ],
    ids=["pluq", "ldu"],
)
def test_check_reports_tampered_factor(tmp_path, capsys, command, kind, factors, tampered, row, message):
    m = tmp_path / "m.mat"
    m.write_text("ring q\nsize 2\n1 2\n3 4\n")
    prefix = tmp_path / "f"
    assert run(command, str(m), "--out-prefix", str(prefix)) == 0
    target = tmp_path / f"f.{tampered}"
    lines = target.read_text().splitlines()
    assert lines[3] == row[0]
    lines[3] = row[1]
    target.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    files = [str(m)] + [f"{prefix}.{name}" for name in factors]
    assert run("check", "--kind", kind, *files) == 1
    assert capsys.readouterr().out == message + "\n"


def test_check_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("ring q\nsize 2\n1 2\n")
    good = tmp_path / "good.mat"
    good.write_text("ring q\nsize 2\n1 0\n0 1\n")
    assert run("check", "--kind", "inverse", str(bad), str(good)) == 2
    assert run("check", "--kind", "inverse", str(good)) == 2
    assert run("check", "--kind", "inverse", str(good), str(tmp_path / "nope.mat")) == 2
    # factor files over another ring or of another size than the input
    other_ring = tmp_path / "gf7.mat"
    other_ring.write_text("ring gf:7\nsize 2\n1 0\n0 1\n")
    small = tmp_path / "small.mat"
    small.write_text("ring q\nsize 1\n1\n")
    perms = tmp_path / "id.perms"
    perms.write_text("perm-rows 1 2\nperm-cols 1 2\n")
    g, o, s, p = str(good), str(other_ring), str(small), str(perms)
    capsys.readouterr()
    assert run("check", "--kind", "ldu", g, o, o, o) == 2
    assert run("check", "--kind", "ldu", g, g, o, g) == 2
    assert run("check", "--kind", "ldu", g, g, s, g) == 2
    assert run("check", "--kind", "pluq", g, o, o, p) == 2
    assert run("check", "--kind", "pluq", g, o, g, p) == 2
    assert run("check", "--kind", "pluq", g, g, o, p) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 6 and "Traceback" not in err


def test_unreadable_inputs_exit_usage(tmp_path, capsys):
    nested = tmp_path / "nested.mat"
    nested.write_text("ring ratfun:ratfun:q\nsize 1\n1\n")
    binary = tmp_path / "binary.mat"
    binary.write_bytes(b"ring q\nsize 1\n\xff\n")
    good = tmp_path / "good.mat"
    good.write_text("ring q\nsize 1\n1\n")
    perms = tmp_path / "binary.perms"
    perms.write_bytes(b"perm-rows 1\nperm-cols \xfe\n")
    capsys.readouterr()
    assert run("invert", str(nested)) == 2
    assert run("invert", str(binary)) == 2
    assert run("check", "--kind", "pluq", str(good), str(good), str(good), str(perms)) == 2
    # a directory is an unreadable path too, not an internal error
    assert run("invert", str(tmp_path)) == 2
    assert run("check", "--kind", "inverse", str(good), str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 5 and "Traceback" not in err
    assert "internal error" not in err


def test_huge_t_exponent_exits_usage(tmp_path, capsys):
    # the parser would allocate one coefficient per power of t
    m = tmp_path / "huge.mat"
    m.write_text("ring ratfun:q\nsize 1\n(t^100000000000000000000)\n")
    capsys.readouterr()
    assert run("invert", str(m)) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and len(err.splitlines()) == 1
    assert "internal error" not in err


def test_unexpected_error_exits_internal(tmp_path, monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    m = tmp_path / "m.mat"
    write_witness(m)
    # the parser is built once per process; a handler rebound after it was
    # built must still be the one that runs
    assert run("invert", str(m)) == 0
    monkeypatch.setattr(cli, "_cmd_invert", broken)
    capsys.readouterr()
    assert run("invert", str(m)) == 6
    assert capsys.readouterr().err.splitlines() == ["error: internal error: RuntimeError: boom"]


def test_mul_strategies_agree(tmp_path):
    m = tmp_path / "m.mat"
    assert run("gen", "--ring", "qi", "--size", "4", "--seed", "11", "-o", str(m)) == 0
    naive = tmp_path / "naive.mat"
    strassen = tmp_path / "strassen.mat"
    assert run("mul", str(m), str(m), "-o", str(naive)) == 0
    assert run("mul", str(m), str(m), "--strategy", "strassen", "-o", str(strassen)) == 0
    assert naive.read_bytes() == strassen.read_bytes()


def test_verify_counts_command(capsys):
    assert run("verify-counts", "--op", "gram_inv", "--sizes", "2,4,8", "--machine") == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "gram_inv 2 22 22 22 ok",
        "gram_inv 4 204 204 204 ok",
        "gram_inv 8 1688 1688 1688 ok",
    ]
    assert run("verify-counts", "--op", "tri_mul", "--sizes", "2,4,8,16", "--machine") == 0
    out = capsys.readouterr().out
    assert [line.split()[2] for line in out.splitlines()] == ["6", "40", "288", "2176"]
    assert run("verify-counts", "--op", "tri_inv", "--sizes", "2,4") == 0
    out = capsys.readouterr().out
    assert "division-only" in out


def test_usage_errors(tmp_path, capsys):
    assert run("nonsense") == 2
    assert run("verify-counts", "--op", "mul", "--sizes", "x") == 2
    # out-of-range input is a usage error, not an internal one
    one = tmp_path / "one.mat"
    one.write_text("ring q\nsize 1\n3/4\n")
    capsys.readouterr()
    assert run("ldu", str(one), "--out-prefix", str(tmp_path / "one")) == 2
    assert run("verify-counts", "--op", "mul", "--sizes", "128") == 2
    out, err = capsys.readouterr()
    assert out == "" and list(tmp_path.iterdir()) == [one]
    assert err.splitlines() == [
        "error: ldu needs a matrix of size >= 2",
        "error: sizes are capped at 64",
    ]


@pytest.mark.parametrize(
    "text, message",
    [
        ("ring q\nsize 1\n٣\n", "malformed rational token"),
        ("ring gf:7\nsize 1\n²\n", "malformed prime field token"),
        ("ring gf:٧\nsize 1\n1\n", "malformed prime field modulus"),
        ("ring q\nsize ٢\n1 0\n0 1\n", "malformed size line"),
    ],
)
def test_non_ascii_integers_exit_usage_with_the_format_message(tmp_path, capsys, text, message):
    m = tmp_path / "digits.mat"
    m.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run("invert", str(m)) == 2
    err = capsys.readouterr().err
    assert message in err and "invalid literal" not in err and "Traceback" not in err
