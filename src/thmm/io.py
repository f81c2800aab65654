"""JSON file formats, complex literals, and deterministic report rendering.

Moment file      { "q": int >= 1, "a": real, "b": real,
                   "moments": [ M_0, .., M_m ] }
Measure file     { "points": [x_0, ..], "weights": [ W_0, .. ],
                   optional "a", "b" (default 0, 1) }
Parameter file   { "q": int >= 1, "a": real, "b": real, "s0": M,
                   "mhat": [ M, .. ], "lhat": [ M, .. ] }

Every matrix M is a q x q row-major array of [re, im] pairs, and a, b,
every point and every re and im a JSON number (a boolean or a string is
refused).  A file's list of moments, mhat or lhat is decoded by one
np.asarray into one (K, q, q) stack, and its entries are typed by one
check over the list (decode_matrices); only a list that is not K finite
q x q matrices of numbers is decoded matrix by matrix, for the error to
name the first bad one.  Reports are
rendered with stable key order and floats fixed at 17 significant digits,
so identical inputs produce identical bytes.  ``render_json`` takes a 2-D
complex ``np.ndarray`` wherever a matrix goes and writes it in that
[re, im] layout, so reports and file dicts hold the arrays themselves.

Rendering is one pass.  A walk of the report writes a printf-style
template of the whole text, with a %.17g field for each float and every
literal % doubled, and gathers the floats in document order.  One %
operation then writes every float (the bytes str.format's .17g would
write: both are PyOS_double_to_string(x, 'g', 17)), and one finiteness
check over the gathered floats names the first non-finite one.  A Records
object holds the K records of a factorize or extremal call as columns:
they share one row template, and one np.concatenate gathers their floats.
Every file a command writes goes through write_text, which rewrites it in
place.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
import stat

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


def _numbers_only(obj, depth):
    """Whether every item of a list nested depth deep is a JSON number (int or float, no bool)."""
    for _ in range(depth - 1):
        obj = itertools.chain.from_iterable(obj)
    return set(map(type, obj)) <= {int, float}


def decode_matrix(obj, q=None, what="matrix"):
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise InvalidMomentSequence(
            f"{what} must be a q x q array of [re, im] pairs, got shape {arr.shape}"
        )
    if q is not None and arr.shape[0] != q:
        raise InvalidMomentSequence(f"{what} must be {q} x {q}, got {arr.shape[0]}")
    if not _numbers_only(obj, 3):
        i, j = next((i, j) for i, row in enumerate(obj) for j, pair in enumerate(row)
                    if not _numbers_only(pair, 1))
        raise InvalidMomentSequence(
            f"{what}[{i}][{j}] is not a pair of JSON numbers: {json.dumps(obj[i][j])}")
    finite = np.isfinite(arr).all(axis=2)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise InvalidMomentSequence(
            f"{what}[{i}][{j}] is not finite: {arr[i, j].tolist()}"
        )
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def decode_matrices(objs, q, what):
    """decode_matrix of each item of a list, as one (K, q, q) stack.

    The list is decoded by one np.asarray, and _numbers_only types its
    entries.  Only a list that this does not give as K finite q x q matrices
    of numbers is decoded item by item, so that the error names the first
    bad item, what[j], as that loop meets it.
    """
    try:
        arr = np.asarray(objs, dtype=float)
    except (TypeError, ValueError, OverflowError):   # ragged, or not numbers
        arr = None
    if (arr is None or arr.shape[1:] != (q, q, 2) or not np.isfinite(arr).all()
            or not _numbers_only(objs, 4)):
        mats = [decode_matrix(x, q, what=f"{what}[{j}]") for j, x in enumerate(objs)]
        return np.array(mats, dtype=complex).reshape(-1, q, q)
    return arr[..., 0] + 1j * arr[..., 1]


def _real(value, name, kind):
    """value as a float; InvalidMomentSequence naming it unless it is a JSON number (no bool)."""
    if type(value) not in (int, float):
        raise InvalidMomentSequence(f"{kind} file needs a real {name}, got {json.dumps(value)}")
    return float(value)


def _read_object(path, kind, keys):
    """The JSON object of a kind of input file; an error names the kind and a missing key.

    A "q" among keys must be a JSON integer >= 1 (not a boolean, not 1.0).
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidMomentSequence(f"{kind} file must hold a JSON object")
    for key in keys:
        if key not in data:
            raise InvalidMomentSequence(f"{kind} file has no {key!r}")
    if "q" in keys and (type(data["q"]) is not int or data["q"] < 1):
        raise InvalidMomentSequence(
            f"{kind} file needs an integer q >= 1, got {json.dumps(data['q'])}")
    return data


def read_moment_file(path):
    data = _read_object(path, "moment", ("q", "a", "b", "moments"))
    q = data["q"]
    a, b = (_real(data[key], key, "moment") for key in ("a", "b"))
    moments = data["moments"]
    if not isinstance(moments, list) or not moments:
        raise InvalidMomentSequence("moment file needs a nonempty 'moments' array")
    return MomentSequence(a=a, b=b, s=decode_matrices(moments, q, "moments"))


def moment_file_dict(seq):
    return {
        "q": seq.q,
        "a": seq.a,
        "b": seq.b,
        "moments": seq.s,
    }


def read_measure_file(path):
    data = _read_object(path, "measure", ("points", "weights"))
    a, b = (_real(data.get(key, end), key, "measure") for key, end in (("a", 0.0), ("b", 1.0)))
    points = [_real(x, f"points[{i}]", "measure") for i, x in enumerate(data["points"])]
    weights = [decode_matrix(w, what=f"weights[{i}]") for i, w in enumerate(data["weights"])]
    return DiscreteMeasure(a=a, b=b, points=tuple(points), weights=tuple(weights))


def read_parameter_file(path):
    data = _read_object(path, "parameter", ("q", "a", "b", "s0", "mhat", "lhat"))
    q = data["q"]
    a, b = (_real(data[key], key, "parameter") for key in ("a", "b"))
    s0 = decode_matrix(data["s0"], q, what="s0")
    mhat, lhat = (decode_matrices(data[key], q, key) for key in ("mhat", "lhat"))
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


class Records:
    """K report records of one shape, held as columns: a list of K dicts to render_json.

    Each keyword is a key of every record, in order.  Its value is a str
    that every record shares, or an array whose leading axis runs over the
    K records: (K,) float as a number, (K,) complex as [re, im], (K, r, c)
    complex as a matrix.
    """

    def __init__(self, **fields):
        self.fields = {key: val if isinstance(val, str) else np.asarray(val)
                       for key, val in fields.items()}
        self.count = next(len(val) for val in self.fields.values() if not isinstance(val, str))

    def _row(self):
        """One record with zeros for its floats, whose template each record shares."""
        return {key: val if isinstance(val, str)
                else [0.0, 0.0] if val.ndim == 1 and val.dtype.kind == "c"
                else np.zeros_like(val[0]) if val.ndim == 3 else 0.0
                for key, val in self.fields.items()}

    def _floats(self):
        """Every float of the K records, record by record in document order."""
        cols = [np.ascontiguousarray(val, dtype=complex if val.dtype.kind == "c" else float)
                .view(float).reshape(self.count, -1)
                for val in self.fields.values() if not isinstance(val, str)]
        return np.concatenate(cols, axis=1).ravel().tolist()


def _template(obj, indent, floats):
    """The printf-style template of obj rendered at indent, with a field per float.

    The floats go to floats in document order; every other value is
    written into the template, its % signs doubled.  The K records of a
    Records share one template.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * indent
        items = [f'{pad}  "{_escape(f"{key}")}": {_template(val, indent + 1, floats)}'
                 for key, val in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, Records):
        if not obj.count:
            return "[]"
        pad = "  " * indent
        row = pad + "  " + _template(obj._row(), indent + 1, [])
        floats.extend(obj._floats())
        return "[\n" + ",\n".join([row] * obj.count) + "\n" + pad + "]"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            return "[" + ", ".join([_number(v, floats) for v in obj]) + "]"
        pad = "  " * indent
        # complex matrices of one shape go out as one stack, in one row template
        kinds = {(v.dtype.kind, v.ndim, v.shape) if type(v) is np.ndarray else None for v in obj}
        if kinds == {("c", 2, getattr(obj[0], "shape", None))}:
            floats.extend(np.array(obj, dtype=complex).view(float).ravel().tolist())
            row = pad + "  " + _matrix_template(*obj[0].shape, indent + 1)
            return "[\n" + ",\n".join([row] * len(obj)) + "\n" + pad + "]"
        items = [pad + "  " + _template(val, indent + 1, floats) for val in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "c":
        floats.extend(np.ascontiguousarray(obj, dtype=complex).view(float).ravel().tolist())
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


def _escape(text):
    return text.replace("%", "%%")


def _number(v, floats):
    """An int as its digits; a float as a field, the float going to floats."""
    if isinstance(v, int):
        return str(v)
    floats.append(float(v))
    return "%.17g"


@functools.lru_cache(maxsize=256)
def _matrix_template(rows, cols, indent):
    """printf-style template for a rows x cols complex matrix rendered at indent.

    It is the layout of the nested [re, im] lists of the matrix.
    """
    if not rows:
        return "[]"
    pad = "  " * indent
    if cols:
        pair = pad + "    [%.17g, %.17g]"
        row = "[\n" + ",\n".join([pair] * cols) + "\n" + pad + "  ]"
    else:
        row = "[]"
    return "[\n" + ",\n".join([pad + "  " + row] * rows) + "\n" + pad + "]"


def render_json(obj):
    """Deterministic JSON text: insertion-ordered keys, 17 significant digits.

    One walk of obj makes a printf-style template of the whole text and
    gathers its floats; one % operation then writes every float.  A
    non-finite float raises ValueError, naming the first in the text.
    """
    floats = []
    template = _template(obj, 0, floats)
    # a nan or an infinity among the floats makes their sum one too
    if not math.isfinite(sum(floats)):
        bad = next((f for f in floats if not math.isfinite(f)), None)
        if bad is not None:
            raise ValueError(f"cannot render non-finite float {bad!r}")
    return (template + "\n") % tuple(floats)


def write_text(path, text):
    """Write text to path as UTF-8, leaving exactly its bytes there, as open(path, "w") does.

    The file is opened without O_TRUNC and overwritten from its start; a
    regular file is then cut to the written length, and anything else
    (/dev/null, a pipe, a terminal) is written as "w" writes it.  A new file
    gets mode 0o666 under the umask, as with "w", and a failed open raises
    the OSError "w" raises.

    There is no truncation to zero, as "w" does first, because the file
    system then frees the old blocks only to allocate new ones.  On ext4
    mounted with discard (2 shared vCPUs), 1,000 rewrites of one 1.5-9 kB
    file, about 1 ms of Python work apart, took a median of 180 us (minimum
    44 us) with "w" and 5.4 us (minimum 4.2 us) in place; an analyze op
    takes about 3.4 ms.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, written)
    finally:
        os.close(fd)
