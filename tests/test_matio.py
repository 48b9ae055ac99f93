import pytest

from blocklin import MatrixFormatError, ring_from_spec
from blocklin.matio import (
    format_matrix,
    format_permutations,
    parse_matrix,
    parse_permutations,
)
from blocklin.sampling import random_dense

from conftest import stable_seed

import random

SPECS = ["q", "gf:7", "qi", "quat", "ratfun:q", "ratfun:gf:2"]


@pytest.mark.parametrize("spec", SPECS)
def test_round_trip_is_byte_identical(spec):
    ring = ring_from_spec(spec)
    rng = random.Random(stable_seed("matio", spec))
    dense = random_dense(ring, 4, rng)
    text = format_matrix(dense)
    parsed = parse_matrix(text)
    assert parsed == dense
    assert format_matrix(parsed) == text


def test_header_and_comments():
    text = format_matrix(random_dense(ring_from_spec("gf:7"), 2, random.Random(0)), comments=["seed 0"])
    assert text.startswith("# seed 0\nring gf:7\nsize 2\n")
    parsed = parse_matrix(text)
    assert parsed.n == 2 and parsed.ring.spec == "gf:7"


@pytest.mark.parametrize(
    "text",
    [
        "size 2\nring q\n1 2\n3 4\n",
        "ring nope\nsize 2\n1 2\n3 4\n",
        "ring q\nsize 2\n1 2\n3\n",
        "ring q\nsize 2\n1 2\n",
        "ring q\nsize x\n1 2\n3 4\n",
        "ring q\nsize 2\n1 2\n3 4/0\n",
        "ring gf:8\nsize 1\n1\n",
        "ring ratfun:ratfun:q\nsize 1\n1\n",
        "ring ratfun:qi\nsize 1\n1\n",
    ],
)
def test_malformed_files_rejected(text):
    with pytest.raises(MatrixFormatError):
        parse_matrix(text)


def test_permutation_lines_round_trip():
    text = format_permutations([1, 0, 3, 2], [0, 1, 2, 3])
    assert text == "perm-rows 2 1 4 3\nperm-cols 1 2 3 4\n"
    assert parse_permutations(text) == ([1, 0, 3, 2], [0, 1, 2, 3])


@pytest.mark.parametrize(
    "text",
    [
        "perm-rows 1 2\n",
        "perm-rows 1 2\nperm-cols 1 3\n",
        "perm-rows 1 1\nperm-cols 1 2\n",
        "perm-rows 1 2\nperm-rows 2 1\n",
    ],
)
def test_malformed_permutations_rejected(text):
    with pytest.raises(MatrixFormatError):
        parse_permutations(text)


# Integers in the format are ASCII digits 0-9 only; int() alone would read
# other Unicode digits, signs, spaces and underscores.
NON_ASCII_INTEGERS = [
    ("ring q\nsize 1\n٣\n", "malformed rational token '٣'"),
    ("ring q\nsize 1\n1/٣\n", "malformed rational token '1/٣'"),
    ("ring q\nsize 1\n-²\n", "malformed rational token '-²'"),
    ("ring gf:7\nsize 1\n٣\n", "malformed prime field token '٣'"),
    ("ring gf:7\nsize 1\n²\n", "malformed prime field token '²'"),
    ("ring qi\nsize 1\n1+٣*i\n", "malformed rational coefficient '+٣'"),
    ("ring ratfun:gf:7\nsize 1\n(٣*t)\n", "malformed prime field coefficient '٣'"),
    ("ring ratfun:q\nsize 1\n(t^²)\n", "malformed polynomial term 't^²'"),
    ("ring ratfun:q\nsize 1\n(t^1_0)\n", "malformed polynomial term 't^1_0'"),
    ("ring q\nsize ٢\n1 0\n0 1\n", "malformed size line 'size ٢'"),
    ("ring q\nsize 1_6\n1\n", "malformed size line 'size 1_6'"),
    ("ring q\nsize +1\n1\n", "malformed size line 'size +1'"),
    ("ring gf:٧\nsize 1\n1\n", "malformed prime field modulus in 'gf:٧'"),
    ("ring gf:+7\nsize 1\n1\n", "malformed prime field modulus in 'gf:+7'"),
    ("ring ratfun:gf:7_0\nsize 1\n(1)\n", "malformed prime field modulus in 'gf:7_0'"),
]


@pytest.mark.parametrize("text, message", NON_ASCII_INTEGERS)
def test_integers_are_ascii_digits_only(text, message):
    with pytest.raises(MatrixFormatError) as caught:
        parse_matrix(text)
    assert message in str(caught.value)


@pytest.mark.parametrize("line", ["perm-rows ٢ 1", "perm-rows 1_0 1", "perm-rows +2 1", "perm-rows ² 1"])
def test_permutation_entries_are_ascii_digits_only(line):
    with pytest.raises(MatrixFormatError, match="malformed permutation line"):
        parse_permutations(f"{line}\nperm-cols 1 2\n")
