"""Exit code, output digests and stderr of a fixed corpus of thmm command lines.

Two versions of thmm that agree on every line of this tool behave the same
on its corpus.  Each line names one command and gives its exit code, the
sha256 of its stdout and of each file it was asked to write (--output,
--params-out) and its stderr.  Each such file holds a fixed stale filler,
longer than any report, before its line runs: "-" means the file still
holds exactly that filler (it is then removed), and a report that does not
replace all of it shows in the digest.  The corpus:

- the golden reports of tests/test_golden.py;
- every op of the benchmark pools of seeds 13 and 29 (analyze, evaluate,
  ceiling), built with perfbench/workloads.py;
- degenerate, indefinite and rank-one moment sequences under analyze,
  factorize (every route and parity), extremal (both solutions, every
  parity) and scalar-report;
- tests/data/overflow_q3.json;
- positive definite sequences with -0.0 entries (the golden moments and a
  measure with exact zero moments, each zero written as -0.0) under
  analyze, factorize (every route and parity) and extremal, so that a
  change to the sign of a zero in any intermediate shows;
- z at a, at b, inside [a, b], at 1e200 and at 1e-300;
- the even parity at n = 0 (m = 0, and m = 1 with --parity even, of the
  golden moments) under factorize with every route, at a, at b and at
  three points off [a, b];
- the golden moments cut to m = 1..6 (to m = 5 for q = 1, which has no
  more) under factorize --route second|first and extremal --which
  krein|friedrichs with --parity even|odd, at a, at b and at three points
  off [a, b], so that where each parameter chain stops shows;
- gen, recover and scalar-report on good and bad input (recover with an
  infinite endpoint or surplus mhat, gen on a measure with a > b), and
  parse failures, runs of --z=<lit> tokens among them, and a q that is
  not an integer (1.9, true, 2.5) in a moment and a parameter file;
- a, b and a measure point given as false, true and "0.5" under analyze,
  recover and gen, a non-Hermitian moment after two good ones, and a
  parameter file with a non-Hermitian mhat_1 and an indefinite lhat_0;
- factorize, extremal and scalar-report with --rtol 0, where a residual
  above it exits 4;
- scalar-report on the golden q = 1 moments times 1e150, whose
  determinant formula overflows;
- analyze on the golden q = 1 moments times 1e200, whose route check
  sums overflow, and times 1e307, whose identity residuals leave the
  float range, and extremal on the latter, whose resolvent does;
- analyze on the golden q = 1 moments times 1e308 and the golden q = 2
  moments times 1e307, whose symmetrized moments overflow.

Inputs are written with the json module, never by thmm, so every version
reads the same bytes.  thmm is imported from PYTHONPATH, so one checkout of
this file measures any version; warnings are ignored, since their text
names source lines:

    PYTHONPATH=src python tests/cli_parity.py --out new.txt
    PYTHONPATH=/path/to/other/src python tests/cli_parity.py --out old.txt
    python tests/cli_parity.py --compare old.txt new.txt

--compare prints each line that differs, or that only one file has, then
how many of them moved between each pair of exit codes (0->3: 166 means
166 lines exit 0 in A and 3 in B; "-" stands for a missing line), and
exits 1 if there is any.  pytest does not collect this file (no test_
prefix).
"""

import os

# one BLAS thread, as in the benchmark: thread counts can move the rounding
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

GOLDEN = HERE / "golden"
POOLS = {"analyze": 8, "evaluate": 8, "ceiling": 16}   # the rounds of perfbench/run.py
SEEDS = (13, 29)
OUTPUT_FLAGS = ("--output", "--params-out")
# what each output file holds before its line runs: longer than any report, so
# a report that leaves a tail of it, or none of it rewritten, shows
STALE = b"stale filler that no report writes\n" * 2048


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)


def _encode(mat):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(mat)]


def _moment_file(path, moments, a=0.0, b=1.0):
    q = np.atleast_2d(moments[0]).shape[0]
    return _write(path, {"q": q, "a": a, "b": b, "moments": [_encode(s) for s in moments]})


def _measure_moments(points, weights, m):
    return [sum(x ** j * np.asarray(w, dtype=complex) for x, w in zip(points, weights))
            for j in range(m + 1)]


def _negative_zeros(obj):
    """obj with every float 0.0 in it, at any depth of lists and dicts, written as -0.0."""
    if isinstance(obj, dict):
        return {key: _negative_zeros(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_negative_zeros(value) for value in obj]
    return -0.0 if isinstance(obj, (int, float)) and obj == 0 else obj


def _signed_zero_inputs(work):
    """(name, path) of positive definite moment files whose zeros are all -0.0."""
    for name in ("moments_q1.json", "moments_q2.json"):
        data = json.loads((GOLDEN / name).read_text())
        data["moments"] = _negative_zeros(data["moments"])
        data["a"] = _negative_zeros(data["a"])
        yield name, _write(work / f"negzero_{name}", data)
    # atoms symmetric about 0 with diagonal weights: every odd moment and
    # every off-diagonal entry is an exact zero
    points = [-0.75, -0.25, 0.25, 0.75]
    weights = [np.diag([1.0, 0.5]), np.diag([0.25, 2.0]), np.diag([0.25, 2.0]), np.diag([1.0, 0.5])]
    for m in (5, 6):
        moments = [_encode(s) for s in _measure_moments(points, weights, m)]
        data = {"q": 2, "a": -1.0, "b": 1.0, "moments": _negative_zeros(moments)}
        yield f"symmetric_q2_m{m}", _write(work / f"negzero_symmetric_m{m}.json", data)


def _singular_sequences():
    """(name, moments) of degenerate, rank-one and indefinite sequences on [0, 1]."""
    out = []
    for m in (2, 3, 4, 5, 6):
        out.append((f"atom_at_b_m{m}", _measure_moments([0.5, 1.0], [[[1.0]], [[1.0]]], m)))
        out.append((f"atom_at_a_m{m}", _measure_moments([0.0, 0.5], [[[1.0]], [[1.0]]], m)))
        out.append((f"single_atom_m{m}", _measure_moments([0.5], [[[1.0]]], m)))
        out.append((f"rank_one_m{m}", _measure_moments(
            [0.3, 0.7], [np.diag([1.0, 0.0]), np.eye(2)], m)))
        out.append((f"rank_one_everywhere_m{m}", _measure_moments(
            [0.2, 0.5, 0.8], [np.diag([1.0, 0.0])] * 3, m)))
    rng = np.random.default_rng(90)
    for q in (1, 2):
        for m in (3, 4, 5, 6):
            points = (np.arange(5) + 0.5) / 5
            weights = [g @ g.conj().T + 0.1 * np.eye(q) for g in
                       rng.normal(size=(5, q, q)) + 1j * rng.normal(size=(5, q, q))]
            base = _measure_moments(points, weights, m)
            for k in (0, m // 2, m):
                for shift in (-0.3, -3.0):
                    s = list(base)
                    s[k] = s[k] + shift * np.eye(q) / (k + 1) ** 2
                    out.append((f"indefinite_q{q}_m{m}_s{k}_{shift}", s))
    return out


def _evaluations(path, label, zs):
    """(label, argv) of every factorize route and parity and extremal solution and parity."""
    z_args = [f"--z={z}" for z in zs]
    for parity in ("auto", "even", "odd"):
        for route in ("direct", "second", "first"):
            yield (f"{label}/factorize/{route}/{parity}",
                   ["factorize", "--input", path, "--route", route, "--parity", parity, *z_args])
        for which in ("krein", "friedrichs"):
            yield (f"{label}/extremal/{which}/{parity}",
                   ["extremal", "--input", path, "--which", which, "--parity", parity, *z_args])


def corpus(workdir):
    """(label, argv) of every command line, writing its inputs into workdir."""
    work = Path(workdir)
    from test_golden import CASES

    for name in sorted(CASES):
        argv, outputs = CASES[name]
        argv = [str(GOLDEN / arg) if arg.endswith(".json") else arg for arg in argv]
        for flag, expected in outputs.items():
            argv += [flag, str(work / expected)]
        yield f"golden/{name}", argv

    for seed in SEEDS:
        for workload, rounds in POOLS.items():
            pool = work / f"{workload}-{seed}"
            pool.mkdir()
            for r, ops in enumerate(workloads.build_rounds(workload, seed, str(pool), rounds)):
                for op in ops:
                    for c, argv in enumerate(op.argvs):
                        yield f"{workload}/{seed}/r{r}/op{op.point}/{c}", argv

    for name, moments in _singular_sequences():
        path = _moment_file(work / f"{name}.json", moments)
        yield f"singular/{name}/analyze", ["analyze", "--input", path,
                                           "--params-out", str(work / "params.json")]
        yield from _evaluations(path, f"singular/{name}", ["2+1i", "-0.3+0.05i"])
        if np.atleast_2d(moments[0]).shape[0] == 1:
            yield f"singular/{name}/scalar-report", ["scalar-report", "--input", path]

    for name, path in _signed_zero_inputs(work):
        yield f"negzero/{name}/analyze", ["analyze", "--input", path,
                                          "--params-out", str(work / "params.json")]
        yield from _evaluations(path, f"negzero/{name}", ["2+1i", "-0.3+0.05i", "3", "-2"])

    overflow = str(HERE / "data" / "overflow_q3.json")
    yield "overflow/analyze", ["analyze", "--input", overflow]
    yield from _evaluations(overflow, "overflow", ["1e200"])
    yield from _evaluations(overflow, "overflow-neg", ["-1e200", "2+1i"])

    for moments, (a, b) in (("moments_q1.json", (0.0, 1.0)), ("moments_q2.json", (-0.5, 1.5))):
        path = str(GOLDEN / moments)
        for z in (a, b, 0.5 * (a + b), 1e200, -1e200, 1e-300, "1e-300+1e-300i", "1e200+1e200i"):
            yield from _evaluations(path, f"z/{moments}/{z}", [z])
        # a failing point after a good one, and two failing points
        yield from _evaluations(path, f"z/{moments}/good-then-a", ["2+1i", a])
        yield from _evaluations(path, f"z/{moments}/mid-then-b", [0.5 * (a + b), b])
        data = json.loads((GOLDEN / moments).read_text())
        for m, parity in ((0, "auto"), (1, "even")):
            short = _write(work / f"n0_m{m}_{moments}", {**data, "moments": data["moments"][:m + 1]})
            for z in (a, b, "2+1i", "-0.3+0.05i", 3):
                for route in ("direct", "second", "first"):
                    yield (f"n0/{moments}/m{m}/{z}/{route}",
                           ["factorize", "--input", short, "--route", route, "--parity", parity,
                            f"--z={z}"])
        for m in range(1, min(7, len(data["moments"]))):
            cut = _write(work / f"cut_m{m}_{moments}", {**data, "moments": data["moments"][:m + 1]})
            for parity in ("even", "odd"):
                for z in (a, b, "2+1i", "-0.3+0.05i", 3):
                    for command, flag, choice in (("factorize", "--route", "second"),
                                                  ("factorize", "--route", "first"),
                                                  ("extremal", "--which", "krein"),
                                                  ("extremal", "--which", "friedrichs")):
                        yield (f"rungs/{moments}/m{m}/{parity}/{z}/{command}/{choice}",
                               [command, "--input", cut, flag, choice, "--parity", parity,
                                f"--z={z}"])

    for measure in ("measure_q1.json", "measure_q2.json"):
        for count in (0, 1, 2, 5, 9):
            yield f"gen/{measure}/{count}", ["gen", "--input", str(GOLDEN / measure),
                                             "--count", str(count)]
    for params in ("params_q1.json", "params_q2.json"):
        yield f"recover/{params}", ["recover", "--input", str(GOLDEN / params)]
    bad_params = json.loads((GOLDEN / "params_q1.json").read_text())
    bad_params["mhat"][0] = [[[-1.0, 0.0]]]
    yield "recover/negative_mhat", ["recover", "--input", _write(work / "bad_params.json", bad_params)]
    for endpoint, value in (("a", -np.inf), ("b", np.inf)):
        params = {**json.loads((GOLDEN / "params_q2.json").read_text()), endpoint: value}
        yield f"recover/infinite_{endpoint}", ["recover", "--input",
                                               _write(work / f"params_{endpoint}.json", params)]
    for kept in (0, 1):   # three mhat against too few lhat
        params = json.loads((GOLDEN / "params_q2.json").read_text())
        params["lhat"] = params["lhat"][:kept]
        yield f"recover/surplus_mhat_lhat{kept}", ["recover", "--input",
                                                   _write(work / f"params_lhat{kept}.json", params)]
    for q in (1.9, True, 2.5):   # q must be a JSON integer
        for command, golden in (("analyze", "moments_q1.json"), ("recover", "params_q2.json")):
            data = {**json.loads((GOLDEN / golden).read_text()), "q": q}
            yield f"parse/q/{q}/{command}", [command, "--input", _write(work / f"q_{q}_{golden}", data)]
    for value in (False, True, "0.5"):   # a real must be a JSON number
        for command, golden, keys in (("analyze", "moments_q1.json", ("a", "b")),
                                      ("recover", "params_q2.json", ("a", "b")),
                                      ("gen", "measure_q1.json", ("a", "b", "points"))):
            for key in keys:
                data = json.loads((GOLDEN / golden).read_text())
                if key == "points":
                    data["points"][0] = value
                else:
                    data[key] = value
                path = _write(work / f"real_{key}_{value}_{golden}", data)
                count = ["--count", "3"] if command == "gen" else []
                yield f"parse/real/{key}/{value}/{command}", [command, "--input", path, *count]
    skewed = json.loads((GOLDEN / "params_q2.json").read_text())
    skewed["mhat"][1][0][1] = [5.0, 0.0]
    skewed["lhat"][0] = [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    yield "recover/skew_mhat1_indefinite_lhat0", ["recover", "--input",
                                                  _write(work / "skewed_params.json", skewed)]
    q2 = str(GOLDEN / "moments_q2.json")
    for command in ("factorize", "extremal"):
        yield f"gate/{command}/moments_q2.json", [command, "--input", q2, "--z", "2+1i",
                                                  "--rtol", "0"]
    data = json.loads((GOLDEN / "moments_q1.json").read_text())
    short = _write(work / "gate_m1_moments_q1.json", {**data, "moments": data["moments"][:2]})
    yield "gate/scalar-report/moments_q1.json/m1", ["scalar-report", "--input", short, "--rtol", "0"]
    for moments in ("moments_q1.json", "moments_q2.json"):
        for rtol in ("1e-8", "0", "1e-20"):
            yield f"scalar-report/{moments}/{rtol}", ["scalar-report", "--input",
                                                      str(GOLDEN / moments), "--rtol", rtol]
    # every moment times 1e150: the determinant formula leaves the float range
    scaled = {**data, "moments": (np.array(data["moments"]) * 1e150).tolist()}
    yield "scalar-report/moments_q1.json/scaled-1e150", [
        "scalar-report", "--input", _write(work / "scaled_moments_q1.json", scaled)]
    for factor in ("1e200", "1e307"):
        scaled = {**data, "moments": (np.array(data["moments"]) * float(factor)).tolist()}
        path = _write(work / f"scaled_{factor}_moments_q1.json", scaled)
        yield f"analyze/moments_q1.json/scaled-{factor}", [
            "analyze", "--input", path, "--params-out", str(work / f"scaled_{factor}_params.json")]
    yield "extremal/moments_q1.json/scaled-1e307", ["extremal", "--input", path, "--z=2+1i"]
    # finite moments whose symmetrized copies overflow
    for name, factor in (("moments_q1.json", "1e308"), ("moments_q2.json", "1e307")):
        golden = json.loads((GOLDEN / name).read_text())
        scaled = {**golden, "moments": (np.array(golden["moments"]) * float(factor)).tolist()}
        yield f"analyze/{name}/scaled-{factor}", [
            "analyze", "--input", _write(work / f"scaled_{factor}_{name}", scaled)]

    good = str(GOLDEN / "moments_q1.json")
    broken = {
        "not_json": "{",
        "array": "[1, 2]",
        "no_moments": json.dumps({"q": 1, "a": 0.0, "b": 1.0}),
        "empty_moments": json.dumps({"q": 1, "a": 0.0, "b": 1.0, "moments": []}),
        "nan_entry": '{"q": 1, "a": 0.0, "b": 1.0, "moments": [[[[NaN, 0.0]]]]}',
        "wrong_q": json.dumps({"q": 2, "a": 0.0, "b": 1.0, "moments": [[[[1.0, 0.0]]]]}),
        "not_hermitian": json.dumps({"q": 2, "a": 0.0, "b": 1.0, "moments": [
            [[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}),
        "not_hermitian_s2": json.dumps({"q": 2, "a": 0.0, "b": 1.0, "moments": [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
            [[[0.25, 0.0], [0.125, 0.0]], [[0.0, 0.0], [0.25, 0.0]]]]}),
        "b_below_a": json.dumps({"q": 1, "a": 1.0, "b": 0.0, "moments": [[[[1.0, 0.0]]]]}),
    }
    for name, text in broken.items():
        path = work / f"broken_{name}.json"
        path.write_text(text)
        for command in ("analyze", "scalar-report"):
            yield f"parse/{name}/{command}", [command, "--input", str(path)]
        yield f"parse/{name}/factorize", ["factorize", "--input", str(path), "--z", "2"]
    for z in ("1+i", "abc", "inf", "1e400", "nan+1i", "2+1j"):
        yield f"parse/z/{z}", ["factorize", "--input", good, f"--z={z}"]
    yield "parse/z/none", ["extremal", "--input", good]
    yield "parse/z/negative-after-space", ["factorize", "--input", good, "--z", "-0.2+0.1i"]
    # runs of --z=<lit> tokens among space-form --z, other options, "--" and -h
    zrun = {
        "golden-mixed": ["--z", "2+1i", "--z=-0.2+0.1i", "--z", "0.5+0.01i", "--z", "3"],
        "runs": ["--z=2+1i", "--z=-0.2+0.1i", "--z", "0.5+0.01i", "--z=3", "--z=4"],
        "run-of-64": [f"--z={k}.5+0.25i" for k in range(2, 66)],
        "rtol-before-a-literal": ["--rtol", "--z=1", "5"],
        "after-dashes": ["--z=1", "--", "--z=2", "--z=3"],
        "empty": ["--z="],
        "empty-in-run": ["--z=2", "--z=", "--z=3"],
        "help-in-run": ["--z=2", "-h", "--z=3"],
        "route-in-run": ["--z=1", "--route=first", "--z=3"],
        "nul": ["--z=1\x002"],
        "nul-in-run": ["--z=2", "--z=1\x002", "--z=3"],
    }
    for name, args in zrun.items():
        for command in ("factorize", "extremal"):
            yield f"parse/zrun/{name}/{command}", [command, "--input", good, *args]
    yield "parse/zrun/analyze", ["analyze", "--input", good, "--z=1", "--z=2"]
    for rtol in ("-1", "nan", "inf", "x"):
        yield f"parse/rtol/{rtol}", ["factorize", "--input", good, "--z", "2", "--rtol", rtol]
    yield "parse/missing_file", ["analyze", "--input", str(work / "absent.json")]
    yield "parse/unknown_command", ["plot", "--input", good]
    yield "parse/no_command", []
    yield "parse/bad_choice", ["factorize", "--input", good, "--z", "2", "--route", "third"]
    yield "parse/gen_no_count", ["gen", "--input", str(GOLDEN / "measure_q1.json")]
    bad_measure = {"points": [0.5, 2.0], "weights": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]}
    yield "parse/gen_outside", ["gen", "--input", _write(work / "outside.json", bad_measure),
                                "--count", "3"]
    reversed_measure = {**json.loads((GOLDEN / "measure_q1.json").read_text()), "a": 1.0, "b": 0.0}
    yield "parse/gen_reversed", ["gen", "--input", _write(work / "reversed.json", reversed_measure),
                                 "--count", "3"]


def _written(path):
    """The digest of what a line wrote to path over STALE, or "-" if it wrote nothing.

    A file that still holds STALE is removed, so the next line finds no file there.
    """
    data = Path(path).read_bytes()
    if data == STALE:
        os.remove(path)
        return "-"
    if len(data) > len(STALE):
        raise SystemExit(f"{path}: {len(data)} bytes written, STALE must be longer")
    return _digest(data)


def run(cli, argv, workdir):
    """One line: exit code, digests of stdout and of each output file, stderr."""
    outputs = [argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg in OUTPUT_FLAGS]
    for path in outputs:
        Path(path).write_bytes(STALE)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = "uncaught"
    files = [_written(path) for path in outputs]
    stderr = err.getvalue().replace(workdir, "<work>").replace(str(HERE), "<tests>")
    return "\t".join([str(code), _digest(out.getvalue().encode()), ",".join(files) or "-",
                      json.dumps(stderr)])


def record(out_path):
    from thmm import cli

    warnings.simplefilter("ignore")
    lines = 0
    with tempfile.TemporaryDirectory() as workdir, open(out_path, "w", encoding="utf-8") as fh:
        for label, argv in corpus(workdir):
            fh.write(f"{label}\t{run(cli, argv, workdir)}\n")
            lines += 1
    print(f"{lines} lines written to {out_path}")


def compare(path_a, path_b):
    def lines(path):
        with open(path, encoding="utf-8") as fh:
            return dict(line.rstrip("\n").split("\t", 1) for line in fh)

    a, b = lines(path_a), lines(path_b)
    differ = [label for label in sorted(a.keys() | b.keys()) if a.get(label) != b.get(label)]
    for label in differ:
        print(f"{label}\n  {path_a}: {a.get(label)}\n  {path_b}: {b.get(label)}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} lines differ")

    def code(line):
        return "-" if line is None else line.split("\t", 1)[0]

    moves = collections.Counter(f"{code(a.get(label))}->{code(b.get(label))}" for label in differ)
    if moves:
        print(", ".join(f"{move}: {count}" for move, count in sorted(moves.items())))
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="run the corpus and write its lines here")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"),
                       help="list the lines two such files disagree on")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    record(args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
