"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer.install`` wraps every public function of each ``thmm`` layer module,
and the public methods of the classes defined there, then rebinds the
wrappers wherever the originals are bound in a ``thmm.*`` namespace, so
calls made through ``from .x import y`` are traced too.  ``uninstall`` puts
the originals back.  Nothing under ``src/`` changes.

A span is (id, parent id, op id, name, start ns, end ns, self ns, error).
Self time is the span's duration minus that of its child spans, the child
wrappers' own bookkeeping included, so tracing cost is nobody's self time
and shows only in the traced ops/s.  A span counts as an error only where
the exception started, not in the callers it passes through.  The spans of each op are folded into per-layer totals when
the op ends; those of the first ops, up to KEEP_SPANS spans in whole ops, are
also kept for writing out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = {
    "thmm.cli": "cli",
    "thmm.io": "io",
    "thmm.moments": "moments",
    "thmm.polynomials": "polynomials",
    "thmm.dsm": "dsm",
    "thmm.resolvent": "resolvent",
    "thmm.extremal": "extremal",
    "thmm._linalg": "linalg",
}


def _matrix_key(args, kwargs, result):
    return hash(np.ascontiguousarray(args[0] if args else kwargs["a"], dtype=complex).tobytes())


def _sequence_key(kind):
    def key(args, kwargs, result):
        source = args[0] if args else kwargs.get("seq", kwargs.get("source"))
        seq = getattr(source, "seq", source)
        return (kind, hash(b"".join(np.ascontiguousarray(s).tobytes() for s in seq.s)))
    return key


def _text_bytes(args, kwargs, result):
    return None if result is None else len(result.encode("utf-8"))


# Values recorded beside some spans: the matrix a PD factorization attempt
# reads, the sequence a DSM chain is computed for (also when the call
# raises), and the size of a rendered report (result is None on a raise).
PROBES = {
    "linalg.cholesky_pd": _matrix_key,
    "dsm.compute_second": _sequence_key("second"),
    "dsm.compute_first": _sequence_key("first"),
    "io.render_json": _text_bytes,
}
CHAIN_SPANS = ("dsm.compute_second", "dsm.compute_first")
KEEP_SPANS = 50_000   # about 5 MB of JSON lines


class Tracer:
    def __init__(self):
        self.kept = []          # spans of the first ops, in whole ops
        self._keeping = True
        self.names = []         # span name per wrapped function, indexed by name id
        self.ops = 0
        self.totals = {layer: {"self_ns": 0, "calls": 0, "errors": 0}
                       for layer in LAYERS.values()}
        self.factorizations = 0
        self.distinct_factorizations = 0
        self.chains = 0
        self.distinct_chains = 0
        self.bytes_out = 0
        self._spans = []
        self._stack = []
        self._next_id = 0
        self._op = None
        self._last_error = None
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self):
        wrapped = {}
        for modname, layer in LAYERS.items():
            module = sys.modules[modname]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    wrapped[obj] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._restore.append((obj, attr, member))
                            setattr(obj, attr, self._wrap(f"{layer}.{name}.{attr}", member))
        for modname, module in list(sys.modules.items()):
            if modname != "thmm" and not modname.startswith("thmm."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrapped[obj])

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self._spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]      # id, time covered by child spans and their tracing
            stack.append(frame)
            error = False
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc is not self._last_error
                self._last_error = exc
                raise
            else:
                return result
            finally:
                t1 = clock()
                stack.pop()
                value = None if probe is None else probe(args, kwargs, result)
                spans.append((sid, parent, self._op, name_id, t0, t1,
                               t1 - t0 - frame[1], error, value))
                if stack:
                    # the wrapper's own work is tracing overhead, not the caller's self time
                    stack[-1][1] += clock() - entered

        return traced

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id):
        self._op = op_id
        self._last_error = None

    def end_op(self):
        """Fold the spans of the op that just ended into the totals."""
        matrices, chains = set(), set()
        n_fact = n_chain = 0
        for span in self._spans:
            name = self.names[span[3]]
            total = self.totals[name.split(".", 1)[0]]
            total["self_ns"] += span[6]
            total["calls"] += 1
            total["errors"] += span[7]
            if name == "linalg.cholesky_pd":
                n_fact += 1
                matrices.add(span[8])
            elif name in CHAIN_SPANS:
                n_chain += 1
                chains.add(span[8])
            elif name == "io.render_json" and span[8] is not None:
                self.bytes_out += span[8]
        # distinct counts are per op: equal matrices in different ops are not waste
        self.factorizations += n_fact
        self.distinct_factorizations += len(matrices)
        self.chains += n_chain
        self.distinct_chains += len(chains)
        self._keeping = self._keeping and len(self.kept) + len(self._spans) <= KEEP_SPANS
        if self._keeping:
            self.kept.extend(self._spans)
        self.ops += 1
        self._spans.clear()
        self._op = None

    def metrics(self):
        """Per-op layer metrics, as name -> (value, unit)."""
        ops = max(self.ops, 1)
        out = {}
        for layer, total in self.totals.items():
            out[f"{layer}.self_ms"] = (total["self_ns"] / 1e6 / ops, "ms/op")
            out[f"{layer}.calls"] = (total["calls"] / ops, "count/op")
            out[f"{layer}.errors"] = (total["errors"] / ops, "count/op")
        out["linalg.factorizations"] = (self.factorizations / ops, "count/op")
        out["linalg.distinct_share"] = (
            self.distinct_factorizations / self.factorizations if self.factorizations else 1.0,
            "ratio")
        out["dsm.chains"] = (self.chains / ops, "count/op")
        out["dsm.distinct_share"] = (
            self.distinct_chains / self.chains if self.chains else 1.0, "ratio")
        out["io.bytes_out"] = (self.bytes_out / ops, "B/op")
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "start_ns",
                                            "end_ns", "self_ns", "error"]}) + "\n")
            for span in self.kept:
                fh.write(json.dumps([span[0], span[1], span[2], self.names[span[3]],
                                     span[4], span[5], span[6], span[7]]) + "\n")
