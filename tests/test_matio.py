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
