import pytest

from blocklin import QQ, dense_determinant, from_dense
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


def test_check_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("ring q\nsize 2\n1 2\n")
    good = tmp_path / "good.mat"
    good.write_text("ring q\nsize 2\n1 0\n0 1\n")
    assert run("check", "--kind", "inverse", str(bad), str(good)) == 2
    assert run("check", "--kind", "inverse", str(good)) == 2
    assert run("check", "--kind", "inverse", str(good), str(tmp_path / "nope.mat")) == 2


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
    err = capsys.readouterr().err
    assert err.count("error:") == 3 and "Traceback" not in err


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


def test_usage_errors():
    assert run("nonsense") == 2
    assert run("verify-counts", "--op", "mul", "--sizes", "x") == 2
