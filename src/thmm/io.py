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
"""

from __future__ import annotations

import functools
import json
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
    z = complex(re_part, im_part)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValueError(f"complex literal {text!r} is not finite")
    return z


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


def _render(obj, indent, out):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.append(f'{pad}  "{key}": ')
            _render(val, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        flat = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq)
        if flat:
            out.append("[" + ", ".join(_format_number(v) for v in seq) + "]")
            return
        out.append("[\n")
        for i, val in enumerate(seq):
            out.append(pad + "  ")
            _render(val, indent + 1, out)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "c":
        out.append(_render_matrix(obj, indent))
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, float)):
        out.append(_format_number(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot render {type(obj)!r} deterministically")


def _render_matrix(mat, indent):
    """A complex matrix in the layout _render gives its nested [re, im] lists."""
    floats = np.ascontiguousarray(mat, dtype=complex).view(float).ravel()
    finite = np.isfinite(floats)
    if not finite.all():
        _format_number(floats[np.argmin(finite)].item())  # raises its ValueError
    return _matrix_template(*mat.shape, indent).format(*floats.tolist())


@functools.lru_cache(maxsize=256)
def _matrix_template(rows, cols, indent):
    """str.format template for a rows x cols complex matrix rendered at indent."""
    if not rows:
        return "[]"
    pad = "  " * indent
    if cols:
        pair = pad + "    [{:.17g}, {:.17g}]"
        row = "[\n" + ",\n".join([pair] * cols) + "\n" + pad + "  ]"
    else:
        row = "[]"
    return "[\n" + ",\n".join([pad + "  " + row] * rows) + "\n" + pad + "]"


def _format_number(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    f = float(v)
    if not np.isfinite(f):
        raise ValueError(f"cannot render non-finite float {f!r}")
    return format(f, ".17g")


def render_json(obj):
    """Deterministic JSON text: insertion-ordered keys, 17 significant digits."""
    out = []
    _render(obj, 0, out)
    out.append("\n")
    return "".join(out)
