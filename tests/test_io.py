import json

import numpy as np
import pytest

from thmm import InvalidMomentSequence
from thmm.io import (
    decode_matrix,
    moment_file_dict,
    parse_complex,
    read_moment_file,
    render_json,
)

from conftest import lebesgue, rel


@pytest.mark.parametrize("text,expected", [
    ("1.5", 1.5 + 0j),
    ("-2", -2 + 0j),
    ("3+4i", 3 + 4j),
    ("3-4i", 3 - 4j),
    ("-1.25e-2+0.5i", -0.0125 + 0.5j),
    ("0+1e3I", 1000j),
])
def test_parse_complex(text, expected):
    assert parse_complex(text) == expected


@pytest.mark.parametrize("text", ["", "i", "2i", "1+i", "1+2j", "abc", "1 + 2"])
def test_parse_complex_rejects(text):
    with pytest.raises(ValueError):
        parse_complex(text)


def nested(mat):
    """The nested [re, im] list form a report gave each matrix before arrays."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def test_matrix_round_trip():
    m = np.array([[1.0 + 2.0j, -0.5], [0.25j, 3.0]])
    assert rel(decode_matrix(json.loads(render_json(m))), m) == 0.0


def test_decode_matrix_validation():
    with pytest.raises(InvalidMomentSequence):
        decode_matrix([[1.0, 2.0]])
    with pytest.raises(InvalidMomentSequence):
        decode_matrix([[[1.0, 0.0], [0.0, 0.0]]], q=2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_decode_matrix_rejects_nonfinite(bad):
    pairs = [[[1.0, 0.0], [0.5, 0.25]], [[0.5, -0.25], [2.0, 0.0]]]
    pairs[1][0][1] = bad
    with pytest.raises(InvalidMomentSequence, match=rf"s0\[1\]\[0\] is not finite: \[0.5, {bad}\]"):
        decode_matrix(pairs, 2, what="s0")


def test_moment_file_round_trip(tmp_path):
    seq = lebesgue(3)
    path = tmp_path / "moments.json"
    path.write_text(render_json(moment_file_dict(seq)))
    back = read_moment_file(path)
    assert back.q == 1 and back.m == 3 and back.a == 0.0 and back.b == 1.0
    for x, y in zip(back.s, seq.s):
        assert rel(x, y) == 0.0


def test_render_json_deterministic_and_parseable():
    obj = {
        "name": "x",
        "value": 1.0 / 3.0,
        "ints": [1, 2, 3],
        "matrix": np.array([[0.1 + 0.2j]]),
        "flag": True,
        "none": None,
    }
    text1 = render_json(obj)
    text2 = render_json(obj)
    assert text1 == text2
    parsed = json.loads(text1)
    assert parsed["value"] == pytest.approx(1.0 / 3.0, abs=0)
    assert "0.33333333333333331" in text1  # 17 significant digits


def test_render_rejects_nonfinite():
    with pytest.raises(ValueError):
        render_json({"x": float("inf")})


def _matrix(rng, n, values):
    """An n x n complex matrix whose entries cycle through values, re and im shuffled."""
    flat = rng.permutation(np.resize(np.asarray(values, dtype=float), 2 * n * n))
    return flat.view(complex).reshape(n, n)


def _placements(mat, form):
    """The matrix at the top, inside a dict, and inside a list of dicts."""
    return [
        form(mat),
        {"q": 1, "matrix": form(mat), "after": [1.5]},
        {"results": [{"z": [2.0, 1.0], "U": form(mat)}, {"U": form(mat), "r": 0.1}]},
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_render_array_equals_nested_lists(n):
    rng = np.random.default_rng(n)
    values = [-0.0, 5e-324, 1e300, 1.0, 0.1, -1.0 / 3.0]
    mat = _matrix(rng, n, values)
    stack = np.stack([mat, 2 * mat, -mat])
    # contiguous, then transposed, a slice of a stack of transposes as
    # right_quotient returns them, and one with a strided last axis
    cases = [mat, stack[1], mat.T, np.swapaxes(stack, 1, 2)[2], np.repeat(mat, 2, axis=1)[:, ::2]]
    if n > 1:
        assert not any(case.flags.c_contiguous for case in cases[2:])
    for case in cases:
        for by_array, by_lists in zip(_placements(case, lambda x: x),
                                      _placements(case, nested)):
            assert render_json(by_array) == render_json(by_lists)


@pytest.mark.parametrize("part", [0, 1])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_render_array_rejects_nonfinite_like_nested_lists(part, bad):
    mat = np.array([[1.0 + 1.0j, 2.0 + 0.5j], [3.0 - 1.0j, 4.0 + 0.0j]])
    floats = mat.view(float)
    floats[1, part] = bad
    floats[1, 2] = float("nan")  # a later one in row-major, re-then-im order
    for obj in _placements(mat, lambda x: x):
        with pytest.raises(ValueError) as by_array:
            render_json(obj)
        with pytest.raises(ValueError) as by_lists:
            render_json(_placements(mat, nested)[0])
        assert str(by_array.value) == str(by_lists.value) == f"cannot render non-finite float {bad!r}"
