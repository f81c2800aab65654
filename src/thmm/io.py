"""JSON file formats, complex literals, and deterministic report rendering.

Moment file      { "q": int, "a": real, "b": real,
                   "moments": [ M_0, .., M_m ] }
Measure file     { "points": [x_0, ..], "weights": [ W_0, .. ],
                   optional "a", "b" (default 0, 1) }
Parameter file   { "q": int, "a": real, "b": real, "s0": M,
                   "mhat": [ M, .. ], "lhat": [ M, .. ] }

Every matrix M is a q x q row-major array of [re, im] pairs.  Reports are
rendered with stable key order and floats fixed at 17 significant digits,
so identical inputs produce identical bytes.  ``render_json`` takes a 2-D
complex ``np.ndarray`` wherever a matrix goes and writes it in that
[re, im] layout, so reports and file dicts hold the arrays themselves.

Rendering is one pass.  A walk of the report writes a str.format template
of the whole text, with a {:.17g} field for each float, and gathers the
floats in document order; the records of a list that have one shape (the
results of a factorize call, say) share one template.  One format call
then writes every float, and one finiteness check over the gathered
floats names the first non-finite one.
"""

from __future__ import annotations

import functools
import json
import math
import re

import numpy as np

from .errors import InvalidMomentSequence
from .moments import DiscreteMeasure, MomentSequence

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^(?P<re>{_NUM})(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)[iI])?$")


def parse_complex(text):
    """Parse the literal grammar A, A+Bi, A-Bi."""
    s = str(text).strip().replace(" ", "")
    match = _COMPLEX_RE.match(s)
    if not match:
        raise ValueError(f"cannot parse complex literal {text!r} (expected A, A+Bi, or A-Bi)")
    re_part = float(match.group("re"))
    im_part = float(match.group("im")) if match.group("im") else 0.0
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ValueError(f"complex literal {text!r} is not finite")
    return complex(re_part, im_part)


def decode_matrix(obj, q=None, what="matrix"):
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise InvalidMomentSequence(
            f"{what} must be a q x q array of [re, im] pairs, got shape {arr.shape}"
        )
    if q is not None and arr.shape[0] != q:
        raise InvalidMomentSequence(f"{what} must be {q} x {q}, got {arr.shape[0]}")
    finite = np.isfinite(arr).all(axis=2)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise InvalidMomentSequence(
            f"{what}[{i}][{j}] is not finite: {arr[i, j].tolist()}"
        )
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def encode_complex(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _read_object(path, kind, keys):
    """The JSON object of a kind of input file; an error names the kind and a missing key."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidMomentSequence(f"{kind} file must hold a JSON object")
    for key in keys:
        if key not in data:
            raise InvalidMomentSequence(f"{kind} file has no {key!r}")
    return data


def read_moment_file(path):
    data = _read_object(path, "moment", ("q", "a", "b", "moments"))
    q = int(data["q"])
    a = float(data["a"])
    b = float(data["b"])
    moments = data["moments"]
    if not isinstance(moments, list) or not moments:
        raise InvalidMomentSequence("moment file needs a nonempty 'moments' array")
    mats = [decode_matrix(mj, q, what=f"moments[{j}]") for j, mj in enumerate(moments)]
    return MomentSequence(a=a, b=b, s=tuple(mats))


def moment_file_dict(seq):
    return {
        "q": seq.q,
        "a": seq.a,
        "b": seq.b,
        "moments": seq.s,
    }


def read_measure_file(path):
    data = _read_object(path, "measure", ("points", "weights"))
    a = float(data.get("a", 0.0))
    b = float(data.get("b", 1.0))
    points = [float(x) for x in data["points"]]
    weights = [decode_matrix(w, what=f"weights[{i}]") for i, w in enumerate(data["weights"])]
    return DiscreteMeasure(a=a, b=b, points=tuple(points), weights=tuple(weights))


def read_parameter_file(path):
    data = _read_object(path, "parameter", ("q", "a", "b", "s0", "mhat", "lhat"))
    q = int(data["q"])
    a = float(data["a"])
    b = float(data["b"])
    s0 = decode_matrix(data["s0"], q, what="s0")
    mhat = [decode_matrix(x, q, what=f"mhat[{j}]") for j, x in enumerate(data["mhat"])]
    lhat = [decode_matrix(x, q, what=f"lhat[{j}]") for j, x in enumerate(data["lhat"])]
    return s0, mhat, lhat, a, b


def parameter_file_dict(seq, dsm):
    return {
        "q": seq.q,
        "a": seq.a,
        "b": seq.b,
        "s0": seq.s[0],
        "mhat": dsm.mhat,
        "lhat": dsm.lhat_from_zero,
    }


def _template(obj, indent, floats):
    """The str.format template of obj rendered at indent, with a field per float.

    The floats go to floats in document order; every other value is
    written into the template, its braces doubled.  The records of a list
    that have one shape (_record) share one template.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{{}}"
        pad = "  " * indent
        items = [f'{pad}  "{_escape(f"{key}")}": {_template(val, indent + 1, floats)}'
                 for key, val in obj.items()]
        return "{{\n" + ",\n".join(items) + "\n" + pad + "}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            return "[" + ", ".join([_number(v, floats) for v in obj]) + "]"
        pad = "  " * indent
        rows = {}
        items = []
        for val in obj:
            record = _record(val)
            if record is None:
                items.append(_template(val, indent + 1, floats))
                continue
            shape, values = record
            if shape not in rows:
                rows[shape] = _template(val, indent + 1, [])
            items.append(rows[shape])
            floats.extend(values)
        return "[\n" + ",\n".join([pad + "  " + item for item in items]) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "c":
        floats.extend(_matrix_floats(obj))
        return _matrix_template(*obj.shape, indent)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float)):
        return _number(obj, floats)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _escape(json.dumps(obj))
    raise TypeError(f"cannot render {type(obj)!r} deterministically")


def _record(obj):
    """(shape, floats) of a dict of floats, strings, float lists and complex matrices.

    Two such dicts of one shape render with one template at a given
    indent; floats are theirs in document order.  None for any other
    object, and for a dict with a key that is not a str.
    """
    if type(obj) is not dict:
        return None
    shape, floats = [], []
    for key, val in obj.items():
        if type(key) is not str:   # 1 and True are one dict key but render apart
            return None
        kind = type(val)
        if kind is float:
            floats.append(val)
            shape.append((key, kind))
        elif kind is str:
            shape.append((key, kind, val))
        elif kind is list and all(type(v) is float for v in val):
            floats.extend(val)
            shape.append((key, kind, len(val)))
        elif kind is np.ndarray and val.ndim == 2 and val.dtype.kind == "c":
            floats.extend(_matrix_floats(val))
            shape.append((key, kind, val.shape))
        else:
            return None
    return tuple(shape), floats


def _matrix_floats(mat):
    """re, im of each entry of a complex matrix, row by row."""
    return np.ascontiguousarray(mat, dtype=complex).view(float).ravel().tolist()


def _escape(text):
    return text.replace("{", "{{").replace("}", "}}")


def _number(v, floats):
    """An int as its digits; a float as a field, the float going to floats."""
    if isinstance(v, int):
        return str(v)
    floats.append(float(v))
    return "{:.17g}"


@functools.lru_cache(maxsize=256)
def _matrix_template(rows, cols, indent):
    """str.format template for a rows x cols complex matrix rendered at indent.

    It is the layout of the nested [re, im] lists of the matrix.
    """
    if not rows:
        return "[]"
    pad = "  " * indent
    if cols:
        pair = pad + "    [{:.17g}, {:.17g}]"
        row = "[\n" + ",\n".join([pair] * cols) + "\n" + pad + "  ]"
    else:
        row = "[]"
    return "[\n" + ",\n".join([pad + "  " + row] * rows) + "\n" + pad + "]"


def render_json(obj):
    """Deterministic JSON text: insertion-ordered keys, 17 significant digits.

    One walk of obj makes a str.format template of the whole text and
    gathers its floats; one format call then writes every float.  A
    non-finite float raises ValueError, naming the first in the text.
    """
    floats = []
    template = _template(obj, 0, floats)
    # a nan or an infinity among the floats makes their sum one too
    if not math.isfinite(sum(floats)):
        bad = next((f for f in floats if not math.isfinite(f)), None)
        if bad is not None:
            raise ValueError(f"cannot render non-finite float {bad!r}")
    return (template + "\n").format(*floats)
