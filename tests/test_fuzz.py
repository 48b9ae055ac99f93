"""Seeded mutation fuzzing of the file parsers and the CLI.

Matrix files of all six ring kinds and permutation files are edited at
random: characters deleted, inserted, replaced, doubled or cut off, tokens
and lines dropped, doubled or swapped, numbers replaced by edge values.
``parse_matrix`` and ``parse_permutations`` may raise only
``MatrixFormatError``.  ``cli.main`` run on the edited files (``invert``
with each method, ``lu``, ``lu --randomized``, ``ldu``, ``mul``, and
``check --kind pluq`` with an edited permutation file) may return only the
documented exit codes 0-5: an escaped exception is exit 6.

The ``fuzz_*`` helpers take the number of edited files, so the same
mutations can be run at larger counts than the test uses.
"""

import random
import re

from blocklin import MatrixFormatError, ring_from_spec
from blocklin.blockmat import to_dense
from blocklin.cli import main
from blocklin.inversion import auto_invert
from blocklin.matio import format_matrix, format_permutations, parse_matrix, parse_permutations
from blocklin.sampling import random_all_blocks_singular, random_dense, random_invertible

from conftest import stable_seed

SPECS = ["q", "gf:7", "qi", "quat", "ratfun:q", "ratfun:gf:7"]
DOCUMENTED_EXIT_CODES = range(6)

# characters an edit inserts: the alphabets of tokens and headers, the
# separators, a comment mark, and characters that int() or str.isdigit
# take but the format must not (other Unicode digits, a superscript, an
# underscore, a no-break space)
ALPHABET = "0123456789+-*/^()ijkt #:._" + "eqgfratun" + "\n\t" + "٣² \x00"
# numbers an edit puts in place of a digit run: edge values of sizes,
# moduli, denominators and t exponents (65537 is prime and above the
# exponent cap)
EDGE_NUMBERS = ["0", "00", "1", "2", "3", "4", "5", "8", "9", "13", "65537", "12345678901234567890123"]


def _position(text, rng):
    return rng.randrange(len(text) + 1)


def _delete(text, rng):
    i = _position(text, rng)
    return text[:i] + text[i + 1 :]


def _insert(text, rng):
    i = _position(text, rng)
    return text[:i] + rng.choice(ALPHABET) + text[i:]


def _replace(text, rng):
    i = _position(text, rng)
    return text[:i] + rng.choice(ALPHABET) + text[i + 1 :]


def _double_span(text, rng):
    i = _position(text, rng)
    j = min(len(text), i + rng.randint(1, 6))
    return text[:j] + text[i:j] + text[j:]


def _cut(text, rng):
    return text[: _position(text, rng)]


def _edit_tokens(text, rng):
    tokens = text.split(" ")
    i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
    action = rng.randrange(3)
    if action == 0:
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif action == 1:
        del tokens[i]
    else:
        tokens.insert(i, tokens[j])
    return " ".join(tokens)


def _edit_lines(text, rng):
    lines = text.split("\n")
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    action = rng.randrange(3)
    if action == 0:
        lines[i], lines[j] = lines[j], lines[i]
    elif action == 1:
        del lines[i]
    else:
        lines.insert(i, lines[j])
    return "\n".join(lines)


def _edge_number(text, rng):
    runs = list(re.finditer(r"[0-9]+", text))
    if not runs:
        return text
    run = rng.choice(runs)
    return text[: run.start()] + rng.choice(EDGE_NUMBERS) + text[run.end() :]


EDITS = [_delete, _insert, _replace, _double_span, _cut, _edit_tokens, _edit_lines, _edge_number]


def mutate(text, rng):
    for _ in range(rng.randint(1, 2)):
        text = rng.choice(EDITS)(text, rng)
    return text


def matrix_texts():
    """Well-formed matrix files: random ones at n = 1..4 (n <= 3 for K(t))
    over every ring, the inverse of a random 2 x 2 one per ring (whose
    tokens carry denominators), a singular one per ring, and
    all-blocks-singular ones at n = 4 over q, gf:7 and qi, which lu
    refuses."""
    texts = []
    for spec in SPECS:
        ring = ring_from_spec(spec)
        rng = random.Random(stable_seed("fuzz-base", spec))
        for n in (1, 2, 3) if spec.startswith("ratfun") else (1, 2, 3, 4):
            texts.append(format_matrix(random_dense(ring, n, rng), comments=[f"seed {n}"]))
        texts.append(format_matrix(to_dense(auto_invert(random_invertible(ring, 1, rng)))))
        singular = random_dense(ring, 2, rng)
        singular.rows[1] = list(singular.rows[0])
        texts.append(format_matrix(singular))
        if spec in ("q", "gf:7", "qi"):
            texts.append(format_matrix(to_dense(random_all_blocks_singular(ring, 2, rng))))
    return texts


def permutation_texts():
    rng = random.Random(stable_seed("fuzz-perms"))
    texts = []
    for n in range(1, 9):
        rows, cols = list(range(n)), list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        texts.append(format_permutations(rows, cols))
    return texts


def fuzz_matrices(rng, count):
    """Parse ``count`` edited matrix files; only MatrixFormatError may escape."""
    bases = matrix_texts()
    parsed = 0
    for _ in range(count):
        try:
            parse_matrix(mutate(rng.choice(bases), rng))
            parsed += 1
        except MatrixFormatError:
            pass
    return parsed


def fuzz_permutations(rng, count):
    """Parse ``count`` edited permutation files; only MatrixFormatError may escape."""
    bases = permutation_texts()
    parsed = 0
    for _ in range(count):
        try:
            parse_permutations(mutate(rng.choice(bases), rng))
            parsed += 1
        except MatrixFormatError:
            pass
    return parsed


def fuzz_cli(rng, count, directory, capsys):
    """Run ``count`` commands on edited files; returns the exit codes seen.

    Each run edits one base matrix file and runs one command on it: invert
    with a random method, lu, lu --randomized, ldu, mul against the
    unedited file, or check --kind pluq of the unedited file's factors
    with an edited permutation file.
    """
    bases = matrix_texts()
    edited, original = directory / "edited.mat", directory / "original.mat"
    perms, out, prefix = directory / "edited.perms", str(directory / "out.mat"), str(directory / "out")
    seen = {}
    for _ in range(count):
        base = rng.choice(bases)
        original.write_text(base, encoding="utf-8")
        command = rng.choice(["invert", "invert", "lu", "lu-randomized", "ldu", "mul", "check-pluq"])
        if command == "check-pluq":
            if main(["lu", str(original), "--out-prefix", prefix]) != 0:
                capsys.readouterr()
                continue
            with open(prefix + ".perms", encoding="utf-8") as handle:
                text = mutate(handle.read(), rng)
            perms.write_text(text, encoding="utf-8")
            argv = ["check", "--kind", "pluq", str(original), prefix + ".L.mat", prefix + ".U.mat", str(perms)]
        else:
            text = mutate(base, rng)
            edited.write_text(text, encoding="utf-8")
            argv = {
                "invert": ["invert", str(edited), "--method", rng.choice(["schur", "gram", "gv", "auto"]), "-o", out],
                "lu": ["lu", str(edited), "--out-prefix", prefix],
                "lu-randomized": ["lu", str(edited), "--randomized", "--out-prefix", prefix],
                "ldu": ["ldu", str(edited), "--out-prefix", prefix],
                "mul": ["mul", str(edited), str(original), "-o", out],
            }[command]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in DOCUMENTED_EXIT_CODES, (argv, text, err)
        seen[code] = seen.get(code, 0) + 1
    return seen


def test_edited_matrix_files_raise_only_format_errors():
    parsed = fuzz_matrices(random.Random(stable_seed("fuzz-matrices")), 6000)
    # the edits leave some files well formed, so parsing goes past the header
    assert parsed > 100


def test_edited_permutation_files_raise_only_format_errors():
    parsed = fuzz_permutations(random.Random(stable_seed("fuzz-permutations")), 3000)
    assert parsed > 50


def test_cli_on_edited_files_returns_documented_exit_codes(tmp_path, capsys):
    seen = fuzz_cli(random.Random(stable_seed("fuzz-cli")), 800, tmp_path, capsys)
    # the runs reach success, parse errors, singular input, a singular
    # pivot block and an input that block pivoting cannot factor
    assert {0, 2, 3, 4, 5} <= set(seen), seen
