import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thmm import InvalidMomentSequence
from thmm.io import (
    Records,
    decode_matrix,
    moment_file_dict,
    parse_complex,
    read_measure_file,
    read_moment_file,
    read_parameter_file,
    render_json,
    write_text,
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


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("read,golden,kind", [
    (read_moment_file, "moments_q1.json", "moment"),
    (read_parameter_file, "params_q2.json", "parameter"),
])
@pytest.mark.parametrize("q", [1.9, True, 2.5, 2.0, 0, -1, "1", None])
def test_q_must_be_a_json_integer(tmp_path, read, golden, kind, q):
    data = json.loads((GOLDEN / golden).read_text())
    path = tmp_path / golden
    path.write_text(json.dumps({**data, "q": q}))
    with pytest.raises(InvalidMomentSequence) as info:
        read(path)
    assert str(info.value) == f"{kind} file needs an integer q >= 1, got {json.dumps(q)}"
    path.write_text(json.dumps(data))
    read(path)   # the file as it was reads


@pytest.mark.parametrize("read,golden,kind,key", [
    (read_moment_file, "moments_q1.json", "moment", "a"),
    (read_moment_file, "moments_q1.json", "moment", "b"),
    (read_parameter_file, "params_q2.json", "parameter", "a"),
    (read_parameter_file, "params_q2.json", "parameter", "b"),
    (read_measure_file, "measure_q1.json", "measure", "a"),
    (read_measure_file, "measure_q1.json", "measure", "b"),
    (read_measure_file, "measure_q1.json", "measure", "points[0]"),
    (read_measure_file, "measure_q1.json", "measure", "points[1]"),
])
@pytest.mark.parametrize("value", [False, True, "0.5", None, [0.5]])
def test_a_real_must_be_a_json_number(tmp_path, read, golden, kind, key, value):
    data = json.loads((GOLDEN / golden).read_text())
    if key.startswith("points"):
        data["points"][int(key[-2])] = value
    else:
        data[key] = value
    path = tmp_path / golden
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidMomentSequence) as info:
        read(path)
    assert str(info.value) == f"{kind} file needs a real {key}, got {json.dumps(value)}"


def test_a_real_may_be_a_json_integer(tmp_path):
    data = json.loads((GOLDEN / "moments_q1.json").read_text())
    path = tmp_path / "moments.json"
    path.write_text(json.dumps({**data, "a": 0, "b": 1}))
    seq = read_moment_file(path)
    assert (seq.a, seq.b) == (0.0, 1.0) and type(seq.a) is float


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


def _reference(obj):
    """The recursive renderer that render_json replaced, matrices as nested lists."""
    out = []
    _reference_walk(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _reference_walk(obj, indent, out):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.append(f'{pad}  "{key}": ')
            _reference_walk(val, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq):
            out.append("[" + ", ".join(_reference_number(v) for v in seq) + "]")
            return
        out.append("[\n")
        for i, val in enumerate(seq):
            out.append(pad + "  ")
            _reference_walk(val, indent + 1, out)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "c":
        _reference_walk(nested(obj), indent, out)
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, float)):
        out.append(_reference_number(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot render {type(obj)!r} deterministically")


def _reference_number(v):
    if isinstance(v, int):
        return str(v)
    f = float(v)
    if not np.isfinite(f):
        raise ValueError(f"cannot render non-finite float {f!r}")
    return format(f, ".17g")


def _outcome(render, obj):
    """The text render gives obj, or the message of the ValueError it raises."""
    try:
        return render(obj)
    except ValueError as exc:
        return f"ValueError: {exc}"


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -1e308, 0.1, 1.0 / 3.0]),
)
_TEXT = st.text(st.one_of(st.sampled_from('{}"\\\'\n é中{{}}'), st.characters()), max_size=8)


@st.composite
def _matrices(draw, floats=_FLOATS, shapes=st.tuples(st.integers(0, 3), st.integers(0, 3))):
    rows, cols = draw(shapes)
    parts = draw(st.lists(floats, min_size=2 * rows * cols, max_size=2 * rows * cols))
    mat = np.array(parts, dtype=float).view(complex).reshape(rows, cols)
    # a transposed matrix, as right_quotient returns them, is not contiguous
    return mat.T.copy().T if draw(st.booleans()) else mat


def _records(floats=_FLOATS):
    """Dicts shaped like report results, whose shape may change from one to the next."""
    return st.fixed_dictionaries({
        "z": st.lists(floats, min_size=2, max_size=3),
        "parity": st.sampled_from(["even", "odd", "{odd}"]),
        "U": _matrices(floats, st.sampled_from([(1, 1), (2, 2), (0, 2), (2, 0)])),
        "residual": st.one_of(floats, st.integers(), st.booleans(), st.none()),
    }, optional={"extra": st.lists(floats, max_size=2)})


def _documents(floats=_FLOATS):
    leaves = st.one_of(st.none(), st.booleans(), st.integers(), floats, _TEXT,
                       _matrices(floats), st.lists(st.one_of(floats, st.integers()), max_size=4))
    return st.recursive(
        st.one_of(leaves, st.lists(_records(floats), max_size=4)),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(_TEXT, children, max_size=4),
        ),
        max_leaves=12,
    )


@settings(max_examples=150, deadline=None)
@given(_documents())
def test_render_json_equals_the_recursive_renderer(obj):
    assert render_json(obj) == _reference(obj)


@settings(max_examples=150, deadline=None)
@given(st.lists(_records(), min_size=2, max_size=8))
@example([{1: 0.5}, {True: 0.5}, {"1": 0.5}])
def test_render_json_equals_the_recursive_renderer_on_record_lists(records):
    assert render_json({"results": records}) == _reference({"results": records})


_NONFINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@settings(max_examples=150, deadline=None)
@given(_documents(st.one_of(_FLOATS, _NONFINITE)))
def test_render_json_names_the_nonfinite_float_the_recursive_renderer_names(obj):
    assert _outcome(render_json, obj) == _outcome(_reference, obj)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["matrix", "list", "record"])
def test_render_json_names_the_first_nonfinite_float(bad, where):
    mat = np.array([[1.0 + 2.0j, 3.0 - 4.0j]])
    records = [{"z": [1.0, 2.0], "U": mat.copy(), "r": 0.5} for _ in range(3)]
    if where == "matrix":
        records[1]["U"][0, 1] = complex(1.0, bad)
    elif where == "list":
        records[1]["z"][0] = bad
    else:
        records[1]["r"] = bad
    records[2]["r"] = float("nan")   # a later one
    obj = {"results": records}
    with pytest.raises(ValueError) as err:
        render_json(obj)
    assert str(err.value) == f"cannot render non-finite float {bad!r}"
    assert _outcome(_reference, obj) == f"ValueError: {err.value}"


_SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1,
                     1.0 / 3.0, 1e-300, 2.5])


def _floats_from(rng, n):
    """n floats over the whole exponent range, a fifth of them from _SPECIAL."""
    vals = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    special = rng.random(n) < 0.2
    vals[special] = rng.choice(_SPECIAL, int(special.sum()))
    return vals


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 70), q=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       text=_TEXT, transposed=st.booleans(),
       bad=st.lists(st.tuples(st.sampled_from(["z", "U", "r"]), st.integers(0, 10 ** 6),
                              _NONFINITE), max_size=2))
@example(k=1, q=1, seed=0, text="%s{}", transposed=False, bad=[])
@example(k=70, q=4, seed=1, text="{0}%%", transposed=True, bad=[("r", 69, float("nan"))])
def test_records_render_as_their_list_of_dicts(k, q, seed, text, transposed, bad):
    rng = np.random.default_rng(seed)
    columns = {"z": _floats_from(rng, 2 * k).view(complex),
               "U": _floats_from(rng, 2 * k * q * q).view(complex).reshape(k, q, q),
               "r": _floats_from(rng, k)}
    for name, at, value in bad:
        flat = columns[name].view(float).reshape(-1)
        flat[at % flat.size] = value
    z, u, r = columns["z"], columns["U"], columns["r"]
    if transposed:   # right_quotient returns a stack of transposes
        u = np.swapaxes(u, 1, 2)
    records = Records(z=z, parity=text, U=u, **{"route %d {x}": "100%"}, residual=r)
    dicts = [{"z": [float(z[i].real), float(z[i].imag)], "parity": text, "U": u[i],
              "route %d {x}": "100%", "residual": float(r[i])} for i in range(k)]
    assert _outcome(render_json, {"results": records, "k": k}) == _outcome(
        _reference, {"results": dicts, "k": k})


@st.composite
def _matrix_runs(draw):
    """A list or tuple of matrices as reports hold them: mostly of one shape, as one run.

    Each item is a complex matrix of the run's shape, C-ordered, Fortran-ordered
    or the adjoint view of one; in a mixed run an item may also be a
    matrix of another shape, a number or, where every float is finite, a
    real 2-D array (render_json refuses its type before any float, the
    recursive renderer at its place in the text).
    """
    finite = draw(st.integers(0, 4)) > 0
    floats = _FLOATS if finite else st.one_of(_FLOATS, _NONFINITE)
    shape = draw(st.sampled_from([(1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (2, 3)]))
    kinds = ["plain", "fortran", "adjoint"]
    if draw(st.booleans()):
        kinds += ["other shape", "number"] + ["real"] * finite
    items = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(kinds))
        rows, cols = (shape[1], shape[0]) if kind == "adjoint" else shape
        if kind == "other shape":
            rows, cols = draw(st.sampled_from([(1, 1), (2, 2), (3, 2)]))
        parts = draw(st.lists(floats, min_size=2 * rows * cols, max_size=2 * rows * cols))
        mat = np.array(parts, dtype=float).view(complex).reshape(rows, cols)
        if kind == "number":
            items.append(draw(st.one_of(floats, st.integers())))
        elif kind == "real":
            items.append(mat.real.copy())
        elif kind == "fortran":
            items.append(np.asfortranarray(mat))
        elif kind == "adjoint":
            items.append(mat.conj().T)
        else:
            items.append(mat)
    return draw(st.sampled_from([list, tuple]))(items)


def _outcome_or_type_error(render, obj):
    """_outcome, with a TypeError's message as the outcome too."""
    try:
        return _outcome(render, obj)
    except TypeError as exc:
        return f"TypeError: {exc}"


@settings(max_examples=300, deadline=None)
@given(_matrix_runs())
@example([])
@example(())
@example([np.zeros((0, 3), dtype=complex)] * 2)
@example((np.eye(2, dtype=complex), np.eye(2)))
@example([np.eye(2, dtype=complex), 1.5])
def test_a_run_of_matrices_renders_as_matrix_by_matrix(run):
    # a run of complex matrices of one shape goes out as one stack; any
    # other sequence is walked item by item, as the recursive renderer does
    for obj in (run, {"q": 2, "run": run, "after": [run]}):
        assert _outcome_or_type_error(render_json, obj) == _outcome_or_type_error(_reference, obj)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_write_text_writes_to_a_pipe_as_open_w_does():
    # a pipe is not a regular file: it is written, not truncated
    read_end, write_end = os.pipe()
    try:
        write_text(f"/dev/fd/{write_end}", "abc\n")
        assert os.read(read_end, 16) == b"abc\n"
    finally:
        os.close(read_end)
        os.close(write_end)
