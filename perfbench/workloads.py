"""Inputs, operations and output checks of the three benchmark workloads.

An op is a short list of ``thmm`` command lines, each run in-process through
``thmm.cli.main``.  Inputs are moment files written from the workload seed
before timing starts.  A workload is a list of rounds; every round holds one
op per grid point, in the same order, so whole rounds keep the mix of op
kinds exact.

The checks here read the CLI's reports and compare them with what the
generator knows (the input moments, or a closed-form oracle); they never call
into ``thmm``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os

import numpy as np

A, B = 0.0, 1.0
DIGITS_CAP = 16.0
RECOVERY_TOL = 1e-9   # acceptance criterion 5
ORACLE_TOL = 1e-8     # closed-form ceiling ops
Z_PER_CALL = 64

WORKLOADS = ("analyze", "evaluate", "ceiling")


@dataclasses.dataclass
class Op:
    kind: str
    q: int
    n: int
    argvs: list
    expect: dict
    point: int = 0   # index of the op's grid point within a round


@dataclasses.dataclass
class Outcome:
    status: str                 # "ok", "refused" (diagnosed exit 3/4) or "failed"
    digits: float | None = None  # None: the op does not score digits
    detail: str = ""
    codes: tuple = ()            # exit code of each CLI call


def _digits(err):
    return min(DIGITS_CAP, -math.log10(max(err, 10.0 ** -DIGITS_CAP)))


def _rel(x, y):
    return float(np.linalg.norm(x - y) / max(1.0, np.linalg.norm(x), np.linalg.norm(y)))


def _encode(mat):
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _decode(obj):
    arr = np.asarray(obj, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _write_moments(path, moments):
    data = {"q": moments[0].shape[0], "a": A, "b": B,
            "moments": [_encode(s) for s in moments]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _pd_weight(rng, q):
    g = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    return g @ g.conj().T + 0.1 * np.eye(q)


def _measure_moments(rng, q, n, m):
    """s_0..s_m of n + 2 jittered atoms with random PD weights on [A, B].

    Drawn like the package's acceptance ensemble, so the sequence is
    Hausdorff positive definite for m <= 2n + 1.
    """
    atoms = n + 2
    grid = A + (B - A) * (np.arange(atoms) + 0.5) / atoms
    pts = np.sort(grid + (B - A) * 0.2 / atoms * rng.uniform(-1.0, 1.0, atoms))
    wts = [_pd_weight(rng, q) for _ in range(atoms)]
    return [sum(x ** j * w for x, w in zip(pts, wts)) for j in range(m + 1)]


def _z_literal(z):
    return f"{z.real!r}{'+' if z.imag >= 0 else ''}{z.imag!r}i"


def _z_points(rng):
    """Half on Stieltjes-inversion lines near [A, B], half like the acceptance set."""
    half = Z_PER_CALL // 2
    zs = [complex(x, eps) for x, eps in zip(
        rng.uniform(A - 0.2, B + 0.2, half), rng.choice([0.1, 0.01], half))]
    while len(zs) < Z_PER_CALL:
        z = complex(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        dx = max(A - z.real, 0.0, z.real - B)
        if abs(z) <= 10.0 and math.hypot(dx, z.imag) >= 0.1:
            zs.append(z)
    return zs


def _analyze_op(rng, path, workdir, q, n):
    s = _measure_moments(rng, q, n, 2 * n + 1)
    _write_moments(path, s)
    params = os.path.join(workdir, "params.json")
    return Op("analyze+recover", q, n,
              [["analyze", "--input", path, "--params-out", params],
               ["recover", "--input", params]],
              {"moments": s})


# Calls cycle through these four commands; each takes Z_PER_CALL points.
EVALUATE_COMMANDS = (("factorize", "--route", "second"), ("factorize", "--route", "first"),
                     ("extremal", "--which", "krein"), ("extremal", "--which", "friedrichs"))


def _evaluate_op(rng, path, q, n, m, command):
    _write_moments(path, _measure_moments(rng, q, n, m))
    zs = _z_points(rng)
    # "--z=<lit>", not "--z <lit>": after a space argparse takes a literal
    # such as -0.2+0.1i for an option and exits 2.
    argv = [command[0], "--input", path, *command[1:]] + [f"--z={_z_literal(z)}" for z in zs]
    return Op("-".join((command[0], command[2])), q, n, [argv], {"z": zs})


def _ceiling_op(rng, path, q, n, closed_form):
    m = 2 * n + 1
    if closed_form:
        # Lebesgue measure on [0, 1] tensor W: s_j = W / (j + 1).
        w = _pd_weight(rng, q)
        _write_moments(path, [w / (j + 1) for j in range(m + 1)])
        return Op("closed-form", q, n, [["analyze", "--input", path]], {"W": w})
    _write_moments(path, _measure_moments(rng, q, n, m))
    return Op("random", q, n, [["analyze", "--input", path]], {})


def grid(workload):
    """Grid points of one round, in op order."""
    if workload == "analyze":
        # n stops at 3: from n = 4 about 2% of draws at q >= 3 hit the
        # accuracy ceiling, which the ceiling workload measures.
        return list(itertools.product((1, 2, 4), (1, 2, 3)))
    if workload == "evaluate":
        # Each q and each command meets both (n, m) = (2, 5) odd and (3, 6)
        # even, but the four are not crossed: fewer points means more repeats
        # of each in a run, so the fastest repeat is steadier.
        orders = ((2, 5), (3, 6))
        return [(q, *orders[(i + c) % 2], command) for i, q in enumerate((1, 2, 4))
                for c, command in enumerate(EVALUATE_COMMANDS)]
    if workload == "ceiling":
        return list(itertools.product((1, 2, 3, 4), range(3, 10), (True, False)))
    raise ValueError(f"unknown workload {workload!r}")


def build_rounds(workload, seed, workdir, rounds):
    """Write the inputs of `rounds` rounds from `seed`; return the ops per round.

    Round r draws after rounds 0..r-1, so a round's inputs do not depend on
    how many rounds are built.
    """
    rng = np.random.default_rng(seed)
    out = []
    for r in range(rounds):
        ops = []
        for i, point in enumerate(grid(workload)):
            path = os.path.join(workdir, f"r{r}-{i}.json")
            if workload == "analyze":
                op = _analyze_op(rng, path, workdir, *point)
            elif workload == "evaluate":
                op = _evaluate_op(rng, path, *point)
            else:
                op = _ceiling_op(rng, path, *point)
            op.point = i
            ops.append(op)
        out.append(ops)
    return out


def check(workload, op, results):
    """Outcome of one op from its (exit code, stdout, stderr) per CLI call."""
    outcome = _outcome(workload, op, results)
    outcome.codes = tuple(code for code, _, _ in results)
    return outcome


def _outcome(workload, op, results):
    codes = [code for code, _, _ in results]
    zero = None if op.kind == "random" else 0.0   # random ceiling ops score no digits
    if workload == "ceiling" and codes[0] in (3, 4):
        # A diagnosed refusal (precondition failure or route mismatch) at or
        # beyond the ceiling: no wrong number was printed.
        return Outcome("refused", zero, f"exit {codes[0]}")
    if any(code != 0 for code in codes):
        return Outcome("failed", zero, f"exit codes {codes}: {results[-1][2].strip()[:200]}")
    try:
        reports = [json.loads(out) for _, out, _ in results]
        return _CHECKS[workload](op, reports)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome("failed", zero, f"unreadable report: {exc!r}")


def _check_analyze(op, reports):
    analyzed, recovered = reports
    if analyzed["classification"] != "PositiveDefinite":
        return Outcome("failed", 0.0, f"classified {analyzed['classification']}")
    back = [_decode(s) for s in recovered["moments"]]
    if len(back) != len(op.expect["moments"]):
        return Outcome("failed", 0.0, f"recovered {len(back)} moments")
    err = max(_rel(x, y) for x, y in zip(back, op.expect["moments"]))
    if err > RECOVERY_TOL:
        return Outcome("failed", 0.0, f"recovery error {err:.3e}")
    return Outcome("ok", _digits(err))


def _check_evaluate(op, reports):
    results = reports[0]["results"]
    if len(results) != Z_PER_CALL:
        return Outcome("failed", 0.0, f"{len(results)} results")
    for res, z in zip(results, op.expect["z"]):
        if complex(*res["z"]) != z:
            return Outcome("failed", 0.0, f"result for z={res['z']} where {z} was asked")
    key = "residual_vs_direct" if reports[0]["command"] == "factorize" else "cross_residual"
    return Outcome("ok", _digits(max(res[key] for res in results)))


def _check_ceiling(op, reports):
    if op.kind != "closed-form":
        return Outcome("ok")
    w = op.expect["W"]
    w_inv = np.linalg.inv(w)
    dsm = reports[0]["dsm_second"]
    mhat = [_decode(x) for x in dsm["mhat"]]
    lhat = [_decode(x) for x in dsm["lhat"][1:]]   # the report's lhat starts at index -1
    err = 0.0
    for j, x in enumerate(mhat):
        exact = (2 * j + 2) * w_inv
        err = max(err, np.linalg.norm(x - exact) / np.linalg.norm(exact))
    for j, x in enumerate(lhat):
        exact = (1.0 / (j + 1) + 1.0 / (j + 2)) * w
        err = max(err, np.linalg.norm(x - exact) / np.linalg.norm(exact))
    if len(mhat) != op.n + 1 or len(lhat) != op.n or err > ORACLE_TOL:
        return Outcome("failed", 0.0, f"oracle error {err:.3e}")
    return Outcome("ok", _digits(err))


_CHECKS = {"analyze": _check_analyze, "evaluate": _check_evaluate, "ceiling": _check_ceiling}
