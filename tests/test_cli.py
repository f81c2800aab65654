import argparse
import collections
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from thmm import (
    extremal_cf_many,
    extremal_quotient_many,
    resolvent_factorized_many,
)
from thmm import _linalg, cli, dsm, errors, moments, polynomials
from thmm.cli import main
from thmm.io import decode_matrix, moment_file_dict, read_moment_file, render_json

from conftest import (family_of, lebesgue, moment_file_at_parity, random_sequence, random_z_points,
                      rel, spy_lapack)


def write_json(path, obj):
    path.write_text(render_json(obj) if isinstance(obj, dict) else obj)
    return str(path)


def lebesgue_file(tmp_path, m, name="moments.json"):
    return write_json(tmp_path / name, moment_file_dict(lebesgue(m)))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_gen_single_atom(tmp_path, capsys):
    measure = {
        "a": 0.0, "b": 1.0,
        "points": [0.5],
        "weights": [np.eye(1, dtype=complex)],
    }
    inp = write_json(tmp_path / "measure.json", measure)
    code, out = run(capsys, ["gen", "--input", inp, "--count", "2"])
    assert code == 0
    data = json.loads(out)
    values = [m[0][0][0] for m in data["moments"]]
    assert values == [1.0, 0.5, 0.25]


def test_analyze_lebesgue_values(tmp_path, capsys):
    inp = lebesgue_file(tmp_path, 3)
    code, out = run(capsys, ["analyze", "--input", inp])
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "PositiveDefinite"
    mhat = [m[0][0][0] for m in data["dsm_second"]["mhat"]]
    assert mhat == pytest.approx([2.0, 4.0], abs=1e-10)
    assert data["dsm_second"]["lhat_first_index"] == -1
    lhat = [m[0][0][0] for m in data["dsm_second"]["lhat"]]
    assert lhat == pytest.approx([1.0, 1.5], abs=1e-10)
    assert data["max_identity_residual"] < 1e-9


def test_analyze_empty_moments_is_input_error(tmp_path, capsys):
    inp = write_json(tmp_path / "bad.json",
                     '{"q": 1, "a": 0.0, "b": 1.0, "moments": []}')
    code, _ = run(capsys, ["analyze", "--input", inp])
    assert code == 2


def test_analyze_degenerate_exit_3(tmp_path, capsys):
    moments = [np.array([[0.5 ** j]], dtype=complex) for j in range(3)]
    inp = write_json(tmp_path / "pm.json",
                     render_json({"q": 1, "a": 0.0, "b": 1.0, "moments": moments}))
    code, out = run(capsys, ["analyze", "--input", inp])
    assert code == 3
    data = json.loads(out)
    assert data["classification"] == "Degenerate"
    assert abs(data["witness"]["min_eigenvalue"]) < 1e-12


@pytest.mark.parametrize("values, witness", [
    ([0.5 ** j for j in range(3)], "H1[1]"),      # one atom at 0.5: Degenerate
    ([1.0, 0.5, 1.0 / 3.0, 0.55], "K1[1]"),       # Lebesgue with s_3 raised: Indefinite
])
@pytest.mark.parametrize("argv", [
    ["factorize", "--route", "direct"], ["factorize", "--route", "second"],
    ["factorize", "--route", "first"], ["extremal", "--which", "krein"],
    ["extremal", "--which", "friedrichs"],
])
def test_evaluation_refuses_input_that_is_not_positive_definite(tmp_path, capsys, values,
                                                                witness, argv):
    # build_family accepts both sequences; the classification witness is named
    inp = write_json(tmp_path / "moments.json", render_json(
        {"q": 1, "a": 0.0, "b": 1.0, "moments": [np.array([[x]], dtype=complex) for x in values]}))
    assert main([argv[0], "--input", inp, *argv[1:], "--z=2", "--z=-1+0.5i"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"precondition failure: {witness} is not positive definite"
                            " (pivot at or below threshold)\n")


def test_gen_checks_each_weight_once(tmp_path, capsys, monkeypatch):
    checked = []
    monkeypatch.setattr(moments, "min_eigenvalue",
                        lambda w: checked.append(w) or _linalg.min_eigenvalue(w))
    weights = (np.eye(2), np.diag([1.0, 2.0]), np.ones((2, 2)))
    measure = {"a": 0.0, "b": 1.0, "points": [0.2, 0.5, 0.9],
               "weights": [w.astype(complex) for w in weights]}
    inp = write_json(tmp_path / "measure.json", measure)
    assert main(["gen", "--input", inp, "--count", "3", "--output", os.devnull]) == 0
    assert len(checked) == 3


def test_ill_conditioned_input_exits_4_with_its_digits_lost(tmp_path, capsys):
    # q = 1, m = 13: the chain would be up to 6e-8 off, so no command prints it
    inp = lebesgue_file(tmp_path, 13)
    for argv in (["analyze"], ["factorize", "--route", "second", "--z=2"],
                 ["extremal", "--which", "krein", "--z=2"]):
        assert main(argv + ["--input", inp]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ill-conditioned: K1[6] scaled to unit diagonal has cond ~ ")


def test_factorize_residual_and_exit_codes(tmp_path, capsys):
    inp = lebesgue_file(tmp_path, 3)
    code, out = run(capsys, [
        "factorize", "--input", inp, "--z", "-1", "--route", "second",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["results"][0]["residual_vs_direct"] <= 1e-10
    # an absurdly small tolerance turns the same run into a route mismatch
    code, _ = run(capsys, [
        "factorize", "--input", inp, "--z", "-1", "--route", "second", "--rtol", "1e-30",
    ])
    assert code == 4


def test_factorize_direct_route(tmp_path, capsys):
    inp = lebesgue_file(tmp_path, 2)
    code, out = run(capsys, [
        "factorize", "--input", inp, "--z", "2+1i", "--route", "direct",
    ])
    assert code == 0
    assert json.loads(out)["results"][0]["residual_vs_direct"] == 0.0


def test_extremal_command(tmp_path, capsys):
    inp = lebesgue_file(tmp_path, 2)
    code, out = run(capsys, [
        "extremal", "--input", inp, "--z", "-1", "--which", "friedrichs",
    ])
    assert code == 0
    data = json.loads(out)
    value = data["results"][0]["value"][0][0][0]
    assert value == pytest.approx(11.0 / 16.0, abs=1e-12)
    assert data["results"][0]["cross_residual"] <= 1e-10


def test_recover_round_trip_through_files(tmp_path, capsys):
    inp = lebesgue_file(tmp_path, 3)
    params = tmp_path / "params.json"
    code, _ = run(capsys, [
        "analyze", "--input", inp, "--output", str(tmp_path / "report.json"),
        "--params-out", str(params),
    ])
    assert code == 0
    code, out = run(capsys, ["recover", "--input", str(params)])
    assert code == 0
    data = json.loads(out)
    values = [m[0][0][0] for m in data["moments"]]
    assert values == pytest.approx([1.0, 0.5, 1.0 / 3.0, 0.25], abs=1e-9)


def test_scalar_report(tmp_path, capsys):
    inp = lebesgue_file(tmp_path, 3)
    code, out = run(capsys, ["scalar-report", "--input", inp])
    assert code == 0
    data = json.loads(out)
    assert data["mtilde"] == pytest.approx([2.0, 4.0], abs=1e-9)
    assert data["ltilde"] == pytest.approx([1.5], abs=1e-9)
    assert data["max_residual"] <= 1e-8


def test_scalar_report_on_degenerate_input_is_a_precondition_failure(tmp_path, capsys):
    # unit atoms at 0.5 and 1.0: K1[1] = {s_{l+k} - s_{l+k+1}} is singular,
    # so det K1[1] = 0 must not be divided by
    measure = write_json(tmp_path / "measure.json", json.dumps(
        {"a": 0.0, "b": 1.0, "points": [0.5, 1.0],
         "weights": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]}))
    moments = str(tmp_path / "moments.json")
    assert main(["gen", "--input", measure, "--count", "3", "--output", moments]) == 0
    capsys.readouterr()
    code = main(["scalar-report", "--input", moments])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("precondition failure: ")
    assert "K1[1]" in captured.err


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_nonfinite_entry_is_named_input_error(tmp_path, capsys, bad):
    # the JSON reader takes NaN and Infinity; each file format names the entry
    moments = json.loads(render_json(moment_file_dict(lebesgue(3))))
    moments["moments"][2][0][0][1] = float(bad)
    params = tmp_path / "params.json"
    assert main(["analyze", "--input", lebesgue_file(tmp_path, 3),
                 "--output", str(tmp_path / "report.json"), "--params-out", str(params)]) == 0
    param_data = json.loads(params.read_text())
    param_data["mhat"][1][0][0][0] = float(bad)
    measure = {"points": [0.5], "weights": [[[[float(bad), 0.0]]]]}
    inputs = {name: tmp_path / f"{name}.json" for name in ("moments", "params", "measure")}
    for name, data in zip(inputs, (moments, param_data, measure)):
        inputs[name].write_text(json.dumps(data))
    cases = [
        (["analyze"], "moments", "moments[2][0][0]"),
        (["factorize", "--z", "2+1i"], "moments", "moments[2][0][0]"),
        (["extremal", "--z", "2+1i"], "moments", "moments[2][0][0]"),
        (["recover"], "params", "mhat[1][0][0]"),
        (["gen", "--count", "2"], "measure", "weights[0][0][0]"),
    ]
    for argv, name, entry in cases:
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--input", str(inputs[name])])
        out, err = capsys.readouterr()
        assert (code, out, caught) == (2, "", [])
        assert err.startswith(f"input error: {entry} is not finite: [")
        assert err.count("\n") == 1 and bad.lower()[:3] in err


def test_bad_complex_literal_is_input_error(tmp_path, capsys):
    inp = lebesgue_file(tmp_path, 3)
    code, _ = run(capsys, ["factorize", "--input", inp, "--z", "1+2j"])
    assert code == 2


def test_missing_file_is_input_error(tmp_path, capsys):
    code, _ = run(capsys, ["analyze", "--input", str(tmp_path / "nope.json")])
    assert code == 2


def test_deterministic_bytes(tmp_path, capsys):
    inp = lebesgue_file(tmp_path, 3)
    _, out1 = run(capsys, ["analyze", "--input", inp])
    _, out2 = run(capsys, ["analyze", "--input", inp])
    assert out1 == out2


def z_arg(z):
    # "--z=<lit>": after a space argparse would take -0.2+0.1i for an option
    return f"--z={z.real!r}{'+' if z.imag >= 0 else ''}{z.imag!r}i"


def test_multi_z_matches_per_point_calls(tmp_path, capsys, rng):
    seq, _ = random_sequence(rng, 2, 2)
    inp = write_json(tmp_path / "moments.json", moment_file_dict(seq))
    # the sequence as written (m = 5) and without s_5
    inputs = {parity: moment_file_at_parity(inp, parity, tmp_path) for parity in ("even", "odd")}
    fams = {parity: family_of(read_moment_file(path)) for parity, path in inputs.items()}
    # four points on Stieltjes-inversion lines x + 0.01i, five off the interval
    zs = [complex(x, 0.01) for x in (-0.1, 0.3, 0.6, 1.05)] + random_z_points(rng, 5)
    for route in ("second", "first"):
        for parity in ("even", "odd"):
            code, out = run(capsys, ["factorize", "--input", inputs[parity], "--route", route]
                            + [z_arg(z) for z in zs])
            assert code == 0
            results = json.loads(out)["results"]
            assert [complex(*res["z"]) for res in results] == zs
            for z, res in zip(zs, results):
                want = resolvent_factorized_many(fams[parity], [z], route)[0]
                assert rel(decode_matrix(res["U"]), want) <= 1e-12
    for which in ("krein", "friedrichs"):
        for parity in ("even", "odd"):
            code, out = run(capsys, ["extremal", "--input", inputs[parity], "--which", which]
                            + [z_arg(z) for z in zs])
            assert code == 0
            results = json.loads(out)["results"]
            assert [complex(*res["z"]) for res in results] == zs
            for z, res in zip(zs, results):
                want = extremal_quotient_many(fams[parity], [z], which)[0]
                assert rel(decode_matrix(res["value"]), want) <= 1e-12
                assert rel(extremal_cf_many(fams[parity], [z], which)[0], want) <= 1e-8


def test_first_failing_z_decides_the_error(tmp_path, capsys):
    inp = lebesgue_file(tmp_path, 5)
    # two real points inside [0, 1]: the first one is named
    code = main(["extremal", "--input", inp, "--z=2", "--z=-1+0.5i", "--z=0.25",
                 "--z=0.75", "--z=3"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "(0.25+0j)" in err and "0.75" not in err
    # z = b is a pole of the odd second-type product; 1e200 overflows the
    # direct route, which runs first, but only at a later point
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["factorize", "--input", inp, "--route", "second",
                     "--z=2", "--z=1", "--z=1e200", "--z=-1"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "pole at z = (1+0j)" in err and "1e+200" not in err


@pytest.mark.parametrize("z", ["1e200", "1e300+1e300i"])
def test_extremal_at_overflowing_z_exits_3(tmp_path, capsys, z):
    # an overflowed denominator is a singular denominator (exit 3), not an
    # input error (exit 2)
    golden_q2 = str(Path(__file__).parent / "golden" / "moments_q2.json")
    inp = lebesgue_file(tmp_path, 6)
    for path in (golden_q2, inp):
        for which in ("krein", "friedrichs"):
            with np.errstate(over="ignore", invalid="ignore"):
                code = main(["extremal", "--input", path, "--which", which, f"--z={z}"])
            out, err = capsys.readouterr()
            assert code == 3 and out == ""
            assert "input error" not in err and "numerically singular" in err


# (parity the input is read at: "auto" as written, else cut to it, command)
OVERFLOW_COMMANDS = [
    *((parity, ["factorize", "--route", route])
      for route in ("direct", "second", "first") for parity in ("auto", "even", "odd")),
    *((parity, ["extremal", "--which", which])
      for which in ("krein", "friedrichs") for parity in ("auto", "even", "odd")),
]


@pytest.mark.parametrize("z", ["1e200", "1e300+1e300i"])
@pytest.mark.parametrize("moments", ["moments_q1.json", "moments_q2.json"])
def test_overflowing_z_fails_without_a_warning(tmp_path, capsys, moments, z):
    # the stacked evaluation overflows; the point fails by its exit code and
    # stderr line alone, and numpy warns of nothing on the way
    golden = Path(__file__).parent / "golden" / moments
    for parity, command in OVERFLOW_COMMANDS:
        inp = moment_file_at_parity(golden, parity, tmp_path)
        argv = [*command, "--input", inp, f"--z={z}"]
        with np.errstate(all="ignore"):
            quiet = main(argv), capsys.readouterr()
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            strict = main(argv), capsys.readouterr()
        assert strict == quiet, argv
        assert strict[0] == 3 and strict[1].out == "", argv
        assert strict[1].err.startswith("precondition failure: "), argv


@pytest.mark.parametrize("z", ["1e200", "-1e200"])
def test_overflowing_z_keeps_lapack_text_off_stdout(z):
    # q = 3 moments on which an SVD of the overflowed denominator made LAPACK
    # print "** On entry to DLASCL ..." to the process's stdout; only a child
    # process's file descriptor 1 shows that
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    inp = str(Path(__file__).parent / "data" / "overflow_q3.json")
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-m", "thmm.cli", "extremal", "--input", inp, f"--z={z}"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.strip().endswith("numerically singular (cond ~ nan)")


def test_analyze_loads_no_scipy(tmp_path):
    # a fresh interpreter, since the test process may have imported scipy already
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    argv = ["analyze", "--input", str(Path(__file__).parent / "golden" / "moments_q2.json"),
            "--output", str(tmp_path / "out.json")]
    script = f"import sys, thmm.cli\nprint(thmm.cli.main({argv!r}), 'scipy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


def test_analyze_factors_each_family_once(tmp_path, monkeypatch):
    factored = []
    real_cholesky = _linalg.cholesky_pd
    for module in (_linalg, moments, dsm):
        monkeypatch.setattr(module, "cholesky_pd",
                            lambda a, *rest, **kw: factored.append(a)
                            or real_cholesky(a, *rest, **kw))
    kernel_calls = spy_lapack(monkeypatch)
    families = []
    real_build = cli.build_family
    monkeypatch.setattr(cli, "build_family", lambda src: families.append(real_build(src))
                        or families[-1])
    inp = str(Path(__file__).parent / "golden" / "moments_q2.json")
    assert main(["analyze", "--input", inp, "--output", str(tmp_path / "out.json")]) == 0
    (fam,) = families
    hank = fam.hankels
    names = ("H1", "H2", "K1", "K2")
    largest = [getattr(hank, name)[-1] for name in names]
    assert [sum(a is m for a in factored) for m in largest] == [1, 1, 1, 1]
    # the classification's pair (m = 6: H1[3], H2[2]) comes first
    assert factored[0] is hank.H1[3] and factored[1] is hank.H2[2]
    # no smaller member and no Schur complement reaches cholesky_pd
    others = [m for name in names for m in getattr(hank, name)[:-1]]
    others += [m for name in names for m in hank.complements(name)]
    assert not any(a is m for a in factored for m in others)
    # the parameters mhat_0..2 and lhat_0..2 reach no cholesky_pd: each chain
    # is factored once, as one stack
    assert len(factored) == 4
    stacks = [ops[0] for name, ops in kernel_calls if name == "cholesky" and ops[0].ndim == 3]
    assert [s.shape for s in stacks] == [(3, 2, 2), (3, 2, 2)]


def test_analyze_reads_one_hankel_set(monkeypatch):
    sets, seen = [], set()
    real_build_hankels = cli.build_hankels
    monkeypatch.setattr(cli, "build_hankels", lambda seq: sets.append(real_build_hankels(seq))
                        or sets[-1])
    # the columns, complements and shift resolvents every consumer reads
    for name in ("v", "second_kind", "complements", "R_at_a_times"):
        real = getattr(moments.HankelSet, name)
        monkeypatch.setattr(moments.HankelSet, name,
                            lambda self, *args, real=real: seen.add(id(self)) or real(self, *args))
    builds = []
    real_many = moments.HankelSet.R_many
    monkeypatch.setattr(moments.HankelSet, "R_many",
                        lambda self, j, zs: seen.add(id(self)) or builds.append(j)
                        or real_many(self, j, zs))
    families = []
    real_build = cli.build_family
    monkeypatch.setattr(cli, "build_family", lambda src: families.append(real_build(src))
                        or families[-1])
    inp = str(Path(__file__).parent / "golden" / "moments_q2.json")
    assert main(["analyze", "--input", inp, "--output", os.devnull]) == 0
    (hank,) = sets
    (fam,) = families
    assert fam.hankels is hank and seen == {id(hank)}
    # m = 6: R_j(conj z) over the sample points built once, at the largest j,
    # whose leading blocks both ratio identities read for every j; R_j(a) is
    # applied by its recurrence and never built
    assert builds == [3]


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["factorize", "--route", "second", "--z=-1", "--z=0.3+0.2i"],
    ["factorize", "--route", "first", "--z=-1", "--z=0.3+0.2i"],
    ["extremal", "--which", "krein", "--z=-1", "--z=0.3+0.2i"],
])
def test_no_hankel_member_is_solved_twice(monkeypatch, argv):
    solved, sets = [], []
    real_solve = moments.HankelSet.solve

    def solve(self, family, j, rhs):
        sets.append(self)   # keeps ids apart
        solved.append((id(self), family, j, np.ascontiguousarray(rhs).tobytes()))
        return real_solve(self, family, j, rhs)

    monkeypatch.setattr(moments.HankelSet, "solve", solve)
    inp = str(Path(__file__).parent / "golden" / "moments_q2.json")
    assert main([argv[0], "--input", inp, *argv[1:], "--output", os.devnull]) == 0
    assert solved and len(set(solved)) == len(solved)


def test_main_runs_the_cmd_function_bound_at_call_time(tmp_path, monkeypatch):
    inp = lebesgue_file(tmp_path, 3)
    assert main(["analyze", "--input", inp, "--output", os.devnull]) == 0   # parser built
    calls = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: calls.append(args.input) or 7)
    monkeypatch.setattr(cli, "cmd_scalar_report", lambda args: calls.append(args.rtol) or 8)
    assert main(["analyze", "--input", inp]) == 7
    assert main(["scalar-report", "--input", inp, "--rtol", "0.5"]) == 8
    assert calls == [inp, 0.5]


def test_scalar_report_builds_one_family_and_chain(monkeypatch):
    from thmm import polynomials

    built, chains = [], []
    real_build = polynomials.build_family
    for module in (polynomials, dsm, cli):
        monkeypatch.setattr(module, "build_family",
                            lambda src: built.append(src) or real_build(src))
    real_second = dsm.compute_second
    for module in (dsm, cli):
        monkeypatch.setattr(module, "compute_second",
                            lambda *args, **kw: chains.append(args) or real_second(*args, **kw))
    inp = str(Path(__file__).parent / "golden" / "moments_q1.json")
    assert main(["scalar-report", "--input", inp, "--output", os.devnull]) == 0
    assert len(built) == 1 and len(chains) == 1


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    progs = []
    real_init = argparse.ArgumentParser.__init__

    def init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    cli.build_parser.cache_clear()
    inp = lebesgue_file(tmp_path, 3)
    assert main(["analyze", "--input", inp]) == 0
    built = len(progs)
    assert main(["factorize", "--input", inp, "--z=-1"]) == 0
    assert main(["factorize", "--input", inp, "--z", "oops", "--bogus"]) == 2
    assert main(["extremal", "--input", inp, "--z=2"]) == 0
    capsys.readouterr()
    assert progs.count("thmm") == 1 and len(progs) == built


def test_reused_parser_keeps_calls_apart(tmp_path, capsys):
    inp = lebesgue_file(tmp_path, 3)

    def points(argv):
        code, out = run(capsys, argv)
        assert code == 0
        return [r["z"] for r in json.loads(out)["results"]]

    assert points(["factorize", "--input", inp, "--z=-1", "--z=2+1i"]) == [[-1.0, 0.0], [2.0, 1.0]]
    assert points(["factorize", "--input", inp, "--z=3"]) == [[3.0, 0.0]]
    assert points(["extremal", "--input", inp, "--z=-2"]) == [[-2.0, 0.0]]
    _, fresh = run(capsys, ["analyze", "--input", inp])
    assert run(capsys, ["analyze", "--input", inp, "--no-such-option"]) == (2, "")
    assert run(capsys, ["analyze", "--input", inp]) == (0, fresh)
    code, out = run(capsys, ["--help"])
    assert code == 0 and "factorize" in out
    code, out = run(capsys, ["factorize", "--help"])
    assert code == 0 and "--rtol" in out


GOLDEN_Q1 = str(Path(__file__).parent / "golden" / "moments_q1.json")
UNKNOWN = "thmm: error: unrecognized arguments: "
BAD_LITERAL = "input error: cannot parse complex literal {} (expected A, A+Bi, or A-Bi)\n"


# argv after "--input FILE": exit code, the points of the report (stdout
# starts with "usage: thmm " where None) and the last line of stderr
@pytest.mark.parametrize("command, args, code, points, err", [
    ("factorize", ["--z", "2+1i", "--z=-0.2+0.1i", "--z", "0.5+0.01i", "--z", "3"], 0,
     [[2, 1], [-0.2, 0.1], [0.5, 0.01], [3, 0]], ""),
    ("extremal", ["--z=2+1i", "--z=-0.2+0.1i", "--z", "0.5+0.01i", "--z=3", "--z=4"], 0,
     [[2, 1], [-0.2, 0.1], [0.5, 0.01], [3, 0], [4, 0]], ""),
    ("factorize", ["--rtol", "--z=1", "5"], 2, [],
     "thmm factorize: error: argument --rtol: expected one argument\n"),
    ("factorize", ["--z=1", "--", "--z=2", "--z=3"], 2, [], UNKNOWN + "-- --z=2 --z=3\n"),
    ("analyze", ["--z=1", "--z=2"], 2, [], UNKNOWN + "--z=1 --z=2\n"),
    ("factorize", ["--z="], 2, [], BAD_LITERAL.format("''")),
    ("factorize", ["--z=2", "--z="], 2, [], BAD_LITERAL.format("''")),
    ("extremal", ["--z=2", "-h", "--z=3"], 0, None, ""),
    ("extremal", ["--z=2", "--z=3", "-h"], 0, None, ""),
    ("factorize", ["--z=1", "--route=first", "--z=3"], 0, [[1, 0], [3, 0]], ""),
    ("factorize", ["--z=1\x002"], 2, [], BAD_LITERAL.format("'1\\x002'")),
    ("factorize", ["--z=2", "--z=1\x002", "--z=3"], 2, [], BAD_LITERAL.format("'1\\x002'")),
])
def test_runs_of_z_literals_parse_as_separate_tokens(capsys, monkeypatch, command, args, code,
                                                      points, err):
    argv = [command, "--input", GOLDEN_Q1, *args]

    def outcome():
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    got = outcome()
    # the same command line with every --z token handed to argparse
    monkeypatch.setattr(cli, "_set_aside_z_runs", lambda argv: (argv, {}))
    assert got == outcome()
    assert got[0] == code and got[2].endswith(err) and (got[2] == "") == (err == "")
    if points is None:
        assert got[1].startswith(f"usage: thmm {command}")
    elif points:
        assert [r["z"] for r in json.loads(got[1])["results"]] == points
    else:
        assert got[1] == ""


def test_a_run_of_z_literals_reaches_argparse_once(capsys, monkeypatch):
    calls = []
    real_call = argparse._AppendAction.__call__

    def call(self, parser, namespace, values, option_string=None):
        calls.append(values)
        real_call(self, parser, namespace, values, option_string)

    monkeypatch.setattr(argparse._AppendAction, "__call__", call)
    zs = [f"{k}.5+0.25i" for k in range(2, 66)]
    code, out = run(capsys, ["extremal", "--input", GOLDEN_Q1, *(f"--z={z}" for z in zs)])
    assert code == 0 and calls == [zs[0]]
    assert [r["z"] for r in json.loads(out)["results"]] == [[k + 0.5, 0.25] for k in range(2, 66)]
    calls.clear()
    code, out = run(capsys, ["factorize", "--input", GOLDEN_Q1, "--z=2", "--z=3", "--z", "4",
                             "--z=5", "--z=6", "--z=7"])
    assert code == 0 and calls == ["2", "4", "5"]
    assert [r["z"] for r in json.loads(out)["results"]] == [[k, 0] for k in range(2, 8)]


@pytest.mark.parametrize("command", [["factorize", "--z=-1"], ["extremal", "--z=-1"],
                                     ["scalar-report"]])
@pytest.mark.parametrize("rtol", ["nan", "inf", "-1e-8", "tight"])
def test_bad_rtol_is_a_parse_error(tmp_path, capsys, monkeypatch, command, rtol):
    monkeypatch.setattr(cli.tio, "read_moment_file", lambda path: pytest.fail("input was read"))
    inp = lebesgue_file(tmp_path, 3)
    assert main([command[0], "--input", inp, *command[1:], f"--rtol={rtol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --rtol: expected a finite nonnegative number, got '{rtol}'" in captured.err


@pytest.mark.parametrize("command", [["analyze"], ["recover"], ["gen", "--count", "2"]])
def test_rtol_only_where_it_is_read(tmp_path, capsys, command):
    inp = lebesgue_file(tmp_path, 3)
    assert main([command[0], "--input", inp, *command[1:], "--rtol", "1e-8"]) == 2
    assert "unrecognized arguments: --rtol" in capsys.readouterr().err


@pytest.mark.parametrize("command,kind,text,key", [
    ("analyze", "moment", '{"q": 1, "a": 0.0, "moments": [[[[1.0, 0.0]]]]}', "b"),
    ("gen", "measure", '{"points": [0.5]}', "weights"),
    ("recover", "parameter", '{"q": 1, "a": 0.0, "b": 1.0, "mhat": [], "lhat": []}', "s0"),
])
def test_missing_key_names_file_kind_and_key(tmp_path, capsys, command, kind, text, key):
    inp = write_json(tmp_path / "input.json", text)
    extra = ["--count", "2"] if command == "gen" else []
    assert main([command, "--input", inp, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {kind} file has no '{key}'\n"


@pytest.mark.parametrize("command,golden,kind,q", [
    ("analyze", "moments_q1.json", "moment", 1.9),
    ("analyze", "moments_q1.json", "moment", True),
    ("recover", "params_q2.json", "parameter", 2.5),
])
def test_a_q_that_is_not_an_integer_is_an_input_error(tmp_path, capsys, command, golden, kind, q):
    data = json.loads((Path(__file__).parent / "golden" / golden).read_text())
    inp = write_json(tmp_path / "input.json", json.dumps({**data, "q": q}))
    assert main([command, "--input", inp]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {kind} file needs an integer q >= 1, got {json.dumps(q)}\n"


@pytest.mark.parametrize("command,kind", [(["analyze"], "moment"), (["recover"], "parameter"),
                                          (["gen", "--count", "2"], "measure")])
def test_input_file_must_hold_an_object(tmp_path, capsys, command, kind):
    inp = write_json(tmp_path / "input.json", "[1, 2]")
    assert main([command[0], "--input", inp, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {kind} file must hold a JSON object\n"


def test_first_route_makes_only_the_members_it_reads(monkeypatch):
    from thmm import polynomials

    made, read = [], set()
    real_convolve = polynomials._convolve
    monkeypatch.setattr(polynomials, "_convolve",
                        lambda *args: made.append(args) or real_convolve(*args))
    real_getitem = moments.Kept.__getitem__
    monkeypatch.setattr(moments.Kept, "__getitem__",
                        lambda self, j: read.add((id(self), j)) or real_getitem(self, j))
    families = []
    real_build = cli.build_family
    monkeypatch.setattr(cli, "build_family", lambda src: families.append(real_build(src))
                        or families[-1])
    inp = str(Path(__file__).parent / "golden" / "moments_q2.json")
    argv = ["factorize", "--input", inp, "--route", "first", "--z", "2+1i", "--z=-0.2+0.1i",
            "--output", os.devnull]
    assert main(argv) == 0
    (fam,) = families
    tags = {id(getattr(fam, tag.lower())): tag for tag in ("P1", "P2", "Q1", "Q2", "G1", "G2", "T1", "T2")}
    complements = {id(fam.hankels.complements(name)) for name in ("H1", "H2", "K1", "K2")}
    # m = 6, even: the direct route reads T2, T1, G2, G1 at n = 3 and the
    # first-type tail Q1, P1, T1, G1 there; no Schur complement is formed
    assert {(tags[i], j) for i, j in read if i in tags} == {
        ("T2", 3), ("T1", 3), ("G2", 3), ("G1", 3), ("Q1", 3), ("P1", 3)}
    assert not any(i in complements for i, _ in read)
    # the monic members P1, G1, G2 are their Schur rows: only T2, T1, Q1 convolve
    assert len(made) == 3


@pytest.mark.parametrize("moments", ["moments_q1.json", "moments_q2.json"])
def test_factorize_second_solves_each_quotient_it_reads_once(moments, monkeypatch, capsys):
    values = set()
    at_a = polynomials.PolynomialFamily.at_a

    def spy_at_a(fam, p):
        value = at_a(fam, p)
        values.add(id(value))
        return value

    monkeypatch.setattr(polynomials.PolynomialFamily, "at_a", spy_at_a)
    kernel_calls = spy_lapack(monkeypatch)
    inp = str(Path(__file__).parent / "golden" / moments)
    code, _ = run(capsys, ["factorize", "--input", inp, "--route", "second", "--z", "2+1i"])
    assert code == 0
    solved = [(id(ops[0]), id(ops[1])) for name, ops in kernel_calls
              if name == "solve" and id(ops[0]) in values and id(ops[1]) in values]
    assert solved and len(set(solved)) == len(solved)


@pytest.mark.parametrize("endpoint, value", [("a", -np.inf), ("b", np.inf)])
def test_recover_refuses_an_infinite_endpoint_without_warnings(endpoint, value, tmp_path, capsys):
    params = json.loads((Path(__file__).parent / "golden" / "params_q2.json").read_text())
    params[endpoint] = value
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["recover", "--input", str(path)])
    assert code == 2 and not caught
    assert "need a finite interval" in capsys.readouterr().err


def test_import_loads_no_numpy_random():
    # a fresh interpreter, since the test process has imported numpy.random already
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    script = "import sys, thmm.cli\nprint(any(m.startswith('numpy.random') for m in sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.stdout.split() == ["False"], proc.stderr


# the exit code and stderr label cli.main gave each error class before the
# classes carried them
ERROR_OUTCOMES = {
    **dict.fromkeys(["InvalidMomentSequence", "EmptyMeasure", "PointOutsideInterval",
                     "InconsistentLengths", "WrongMatrixSize"], (2, "input error")),
    **dict.fromkeys(["SingularPivot", "SingularNormalization", "PoleAtZ", "PointOnInterval",
                     "SingularDenominator", "SingularLevel", "NonPositiveParameter",
                     "InsufficientMoments"], (3, "precondition failure")),
    "RouteMismatch": (4, "route mismatch"),
    "IllConditioned": (4, "ill-conditioned"),
    "ThmmError": (3, "error"),
}
ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.ThmmError)]


def raise_in_a_command(monkeypatch, exc):
    """main's exit code for a gen command line whose cmd_gen raises exc."""
    def cmd_gen(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_gen", cmd_gen)
    return main(["gen", "--input", "measure.json", "--count", "1"])


def test_every_error_class_carries_an_exit_code_and_a_label():
    assert set(ERROR_OUTCOMES) <= {cls.__name__ for cls in ERROR_CLASSES}
    for cls in ERROR_CLASSES:
        assert cls.exit_code in (2, 3, 4), cls
        assert isinstance(cls.label, str) and cls.label, cls
        if cls.__name__ in ERROR_OUTCOMES:
            assert (cls.exit_code, cls.label) == ERROR_OUTCOMES[cls.__name__], cls


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_main_reports_each_error_class_by_its_exit_code_and_label(cls, monkeypatch, capsys):
    # __new__ alone: str() reads args, and no constructor signature matters
    code = raise_in_a_command(monkeypatch, cls.__new__(cls, "the message"))
    assert (code, capsys.readouterr().err) == (cls.exit_code, f"{cls.label}: the message\n")


def test_an_error_class_defined_elsewhere_needs_no_cli_edit(monkeypatch, capsys):
    class Refusal(errors.PreconditionFailure):
        pass

    class Custom(errors.InputError):
        exit_code, label = 4, "custom"

    assert raise_in_a_command(monkeypatch, Refusal("refused")) == 3
    assert raise_in_a_command(monkeypatch, Custom("odd")) == 4
    assert capsys.readouterr().err == "precondition failure: refused\ncustom: odd\n"


@pytest.mark.parametrize("exc", [
    OSError(2, "No such file or directory"), KeyError("s0"), TypeError("not a list"),
    ValueError("bad literal"), json.JSONDecodeError("Expecting value", "{", 1),
], ids=lambda exc: type(exc).__name__)
def test_builtin_reading_and_parsing_errors_are_input_errors(exc, monkeypatch, capsys):
    assert raise_in_a_command(monkeypatch, exc) == 2
    assert capsys.readouterr().err == f"input error: {exc}\n"


def test_other_exceptions_are_not_caught(monkeypatch):
    with pytest.raises(ZeroDivisionError):
        raise_in_a_command(monkeypatch, ZeroDivisionError("a bug, not a failure of the input"))


@pytest.mark.parametrize("moments, argv, key", [
    ("moments_q1.json", ["factorize"], "residual_vs_direct"),
    ("moments_q2.json", ["factorize"], "residual_vs_direct"),
    ("moments_q2.json", ["extremal", "--which", "krein"], "cross_residual"),
    ("moments_q2.json", ["extremal"], "cross_residual"),
    ("moments_q1.json", ["extremal", "--which", "krein"], "cross_residual"),
    ("moments_q1.json", ["extremal"], "cross_residual"),
])
def test_a_residual_above_rtol_exits_4_naming_it(moments, argv, key, capsys):
    argv = [*argv, "--input", str(Path(__file__).parent / "golden" / moments), "--z", "2+1i"]
    assert main(argv) == 0
    report = capsys.readouterr().out
    code = main([*argv, "--rtol", "0"])
    out, err = capsys.readouterr()
    assert code == 4
    # the report is the one the default tolerance prints, but for its rtol
    assert out == report.replace('"rtol": 1e-08', '"rtol": 0')
    (printed,) = [r.get("residual_vs_direct", r.get("cross_residual"))
                  for r in json.loads(out)["results"]]
    assert err.startswith(f"route mismatch: largest {key} ")
    assert err.endswith(" exceeds --rtol 0\n") and err.count("\n") == 1
    assert float(err.split()[4]) == float(f"{printed:.3e}")


def test_scalar_report_above_rtol_exits_4_naming_it(monkeypatch, capsys):
    inp = str(Path(__file__).parent / "golden" / "moments_q1.json")
    real = cli.scalar_determinant_params

    def shifted(seq):
        mtilde, ltilde, chain = real(seq)
        return (mtilde[0] * (1 + 1e-6),) + mtilde[1:], ltilde, chain

    monkeypatch.setattr(cli, "scalar_determinant_params", shifted)
    code = main(["scalar-report", "--input", inp])
    out, err = capsys.readouterr()
    worst = json.loads(out)["max_residual"]
    assert code == 4 and worst > 1e-8
    assert err == f"route mismatch: largest max_residual {worst:.3e} exceeds --rtol 1e-08\n"


@pytest.mark.parametrize("moments, rtol", [(None, "0"), (None, "1e-20"), (2, "0")],
                         ids=["rtol0", "rtol1e-20", "m1-rtol0"])
def test_scalar_report_above_rtol_still_prints_its_report(tmp_path, capsys, moments, rtol):
    # the command's gate is the only one: the report is written, then exit 4 names it
    data = json.loads((Path(__file__).parent / "golden" / "moments_q1.json").read_text())
    inp = write_json(tmp_path / "moments.json", json.dumps({**data, "moments": data["moments"][:moments]}))
    code = main(["scalar-report", "--input", inp, "--rtol", rtol])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 4 and report["max_residual"] > float(rtol)
    assert len(report["mtilde"]) == len(report["mhat"]) == (1 if moments else 3)
    assert err == (f"route mismatch: largest max_residual {report['max_residual']:.3e}"
                   f" exceeds --rtol {rtol}\n")


def test_analyze_and_recover_linalg_counts(tmp_path, monkeypatch, capsys):
    """The LAPACK solves, inverses, factorizations and SVDs and the np.linalg.norm
    calls of analyze --params-out then recover on moments_q2.json.

    The DSM parameter chains are factored and inverted as stacks and the
    moments are checked as one stack; a change that splits a stack again
    changes these counts.
    """
    norms = []
    real_norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kw: norms.append(args)
                        or real_norm(*args, **kw))
    kernel_calls = spy_lapack(monkeypatch)
    inp = str(Path(__file__).parent / "golden" / "moments_q2.json")
    params = str(tmp_path / "params.json")
    assert main(["analyze", "--input", inp, "--params-out", params]) == 0
    assert main(["recover", "--input", params]) == 0
    capsys.readouterr()
    counts = collections.Counter(name for name, _ in kernel_calls)
    assert (len(norms), counts) == (0, {"cholesky": 15, "solve": 77, "inv": 21, "svd": 2})


def test_analyze_and_recover_convolve_count(tmp_path, monkeypatch, capsys):
    """analyze --params-out then recover on moments_q2.json convolves 14 members.

    They are the second-kind members Q1, Q2, T1 and T2 that analyze reads;
    the monic members P1, P2, G1 and G2 are their Schur rows and recover
    builds no polynomial.
    """
    made = []
    real_convolve = polynomials._convolve
    monkeypatch.setattr(polynomials, "_convolve",
                        lambda *args: made.append(args) or real_convolve(*args))
    inp = str(Path(__file__).parent / "golden" / "moments_q2.json")
    params = str(tmp_path / "params.json")
    assert main(["analyze", "--input", inp, "--params-out", params]) == 0
    assert len(made) == 14
    assert main(["recover", "--input", params]) == 0
    capsys.readouterr()
    assert len(made) == 14


def test_scalar_report_out_of_float_range_is_a_precondition_failure(tmp_path, capsys):
    # scaled by 1e150, det(D)^2 of the K1 formula at j = 2 overflows; the
    # matrix routes of analyze still answer
    data = json.loads((Path(__file__).parent / "golden" / "moments_q1.json").read_text())
    data["moments"] = (np.array(data["moments"]) * 1e150).tolist()
    inp = write_json(tmp_path / "scaled.json", json.dumps(data))
    code = main(["scalar-report", "--input", inp])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("precondition failure: determinant formula of K1 at j=2"
                            " leaves the float range\n")
    assert main(["analyze", "--input", inp, "--output", os.devnull]) == 0


@pytest.mark.parametrize("scale, j", [(1e120, 2), (1e150, 2), (1e200, 1), (1e307, 1)])
def test_scalar_report_out_of_float_range_warns_of_nothing(tmp_path, capsys, scale, j):
    # np.linalg.det overflows, and from 1e200 on so does the Frobenius sum
    # of the pivot thresholds; stderr holds the labelled line alone
    data = json.loads((Path(__file__).parent / "golden" / "moments_q1.json").read_text())
    data["moments"] = (np.array(data["moments"]) * scale).tolist()
    inp = write_json(tmp_path / "scaled.json", json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["scalar-report", "--input", inp])
    captured = capsys.readouterr()
    assert code == 3 and not caught
    assert captured.out == ""
    assert captured.err == (f"precondition failure: determinant formula of K1 at j={j}"
                            " leaves the float range\n")


def scaled_golden(tmp_path, scale, name="moments_q1.json"):
    data = json.loads((Path(__file__).parent / "golden" / name).read_text())
    data["moments"] = (np.array(data["moments"]) * scale).tolist()
    return write_json(tmp_path / "scaled.json", json.dumps(data))


def test_analyze_refuses_identity_residuals_out_of_float_range(tmp_path, capsys):
    # times 1e307 the ratio identity q1/p1 at j = 2 overflows to NaN at each sample point
    inp = scaled_golden(tmp_path, 1e307)
    params = tmp_path / "params.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["analyze", "--input", inp, "--params-out", str(params)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and not params.exists() and not caught
    assert captured.err == (
        "precondition failure: identity ratio_q1_p1 at j=2 leaves the float range\n")


@pytest.mark.parametrize("command, chain", [
    (["analyze", "--params-out"], "rhat at j=2"),
    (["extremal", "--which", "krein", "--z=-1", "--output"], "rhat at j=2"),
    (["extremal", "--which", "friedrichs", "--z=-1", "--output"], "L at j=1"),
], ids=["analyze", "extremal-krein", "extremal-friedrichs"])
def test_a_chain_that_leaves_the_float_range_is_refused_where_it_is_made(tmp_path, capsys,
                                                                         command, chain):
    # times 3e307 the symmetrized rhat_2 and the K2 form behind L_1 overflow,
    # though every moment and its symmetrized copy is finite
    inp = scaled_golden(tmp_path, 3e307)
    written = tmp_path / "written.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command[0], "--input", inp, *command[1:], str(written)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and not written.exists() and not caught
    assert captured.err == f"precondition failure: parameter {chain} leaves the float range\n"


@pytest.mark.parametrize("name, scale, moment", [("moments_q1.json", 1e308, "s_0"),
                                                  ("moments_q2.json", 1e307, "s_5")])
@pytest.mark.parametrize("command", [["analyze", "--params-out"],
                                     ["factorize", "--z=2+1i", "--output"],
                                     ["extremal", "--z=2+1i", "--output"],
                                     ["scalar-report", "--output"]],
                         ids=["analyze", "factorize", "extremal", "scalar-report"])
def test_commands_refuse_moments_whose_symmetrization_overflows(tmp_path, capsys, command, name,
                                                                scale, moment):
    # the moments are finite, but their symmetrized copies hold inf entries:
    # the moment file is refused as it is read, whatever the command
    inp = scaled_golden(tmp_path, scale, name)
    written = tmp_path / "written.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command[0], "--input", inp, *command[1:], str(written)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and not written.exists() and not caught
    assert captured.err == (f"precondition failure: {moment} leaves the float range"
                            " when symmetrized\n")


@pytest.mark.parametrize("name", ["moments_q1.json", "moments_q2.json"])
@pytest.mark.parametrize("scale", [1e200, 1e300])
@pytest.mark.parametrize("command", [["analyze"], ["factorize", "--z=2+1i"],
                                     ["extremal", "--z=2+1i", "--z=-1"]],
                         ids=["analyze", "factorize", "extremal"])
def test_commands_near_the_float_range_write_no_warning(tmp_path, capsys, command, scale, name):
    # analyze's route check sums Frobenius norms that overflow here, and frob rescales them
    inp = scaled_golden(tmp_path, scale, name)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command[0], "--input", inp] + command[1:])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    report = json.loads(captured.out)
    assert "NaN" not in captured.out and "Infinity" not in captured.out
    if command[0] == "analyze":
        assert report["classification"] == "PositiveDefinite"


# (parity the golden q = 1 moments (m = 5) are read at: "even" cuts s_5, options)
FLOAT_RANGE_CASES = {
    "default": ("auto", []), "z=-1": ("auto", ["--z=-1"]),
    **{f"parity-{parity}-which-{which}": (parity, ["--which", which])
       for parity in ("even", "odd", "auto") for which in ("krein", "friedrichs")},
}


@pytest.mark.parametrize("parity, options", FLOAT_RANGE_CASES.values(), ids=FLOAT_RANGE_CASES.keys())
def test_extremal_near_the_float_range_is_the_scaled_value(tmp_path, capsys, parity, options):
    # times 1e307 the resolvent overflows at z = 2+1i, but the extremal values
    # are block quotients and continued fractions, which scale with the moments
    argv = ["extremal", "--z=2+1i"] + options
    golden = Path(__file__).parent / "golden" / "moments_q1.json"
    assert main(argv + ["--input", moment_file_at_parity(golden, parity, tmp_path)]) == 0
    unscaled = json.loads(capsys.readouterr().out)["results"]
    scaled = moment_file_at_parity(scaled_golden(tmp_path, 1e307), parity, tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--input", scaled])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    results = json.loads(captured.out)["results"]
    assert len(results) == len(unscaled)
    for got, one in zip(results, unscaled):
        value, expected = decode_matrix(got["value"]), 1e307 * decode_matrix(one["value"])
        assert np.abs(value - expected).max() <= 1e-15 * np.abs(expected).max()


# --- files a command writes ---------------------------------------------------

def test_output_files_over_longer_files_hold_exactly_the_new_bytes(tmp_path, capsys):
    inp = str(Path(__file__).parent / "golden" / "moments_q2.json")
    fresh = tmp_path / "fresh.json"
    code, stdout = run(capsys, ["analyze", "--input", inp, "--params-out", str(fresh)])
    assert code == 0
    report, params = tmp_path / "report.json", tmp_path / "params.json"
    for path in (report, params):
        path.write_bytes(b"x" * (4 * len(stdout)))
    code, out = run(capsys, ["analyze", "--input", inp, "--output", str(report),
                             "--params-out", str(params)])
    assert (code, out) == (0, "")
    assert report.read_text() == stdout
    assert params.read_bytes() == fresh.read_bytes()
    # a shorter report over the longer one, through --output of another command
    code, stdout = run(capsys, ["recover", "--input", str(params)])
    assert code == 0
    assert main(["recover", "--input", str(params), "--output", str(report)]) == 0
    assert report.read_text() == stdout


def test_a_new_output_file_gets_the_mode_open_w_gives(tmp_path, capsys):
    inp = str(Path(__file__).parent / "golden" / "moments_q1.json")
    old = os.umask(0o027)
    try:
        with open(tmp_path / "reference.json", "w", encoding="utf-8"):
            pass
        assert main(["analyze", "--input", inp, "--output", str(tmp_path / "report.json"),
                     "--params-out", str(tmp_path / "params.json")]) == 0
    finally:
        os.umask(old)
    mode = os.stat(tmp_path / "reference.json").st_mode
    assert os.stat(tmp_path / "report.json").st_mode == mode
    assert os.stat(tmp_path / "params.json").st_mode == mode


def test_output_to_dev_null_exits_0(capsys):
    inp = str(Path(__file__).parent / "golden" / "moments_q1.json")
    assert main(["analyze", "--input", inp, "--output", os.devnull,
                 "--params-out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("flag", ["--output", "--params-out"])
def test_output_in_a_missing_directory_is_the_input_error_open_w_gives(tmp_path, capsys, flag):
    target = str(tmp_path / "absent" / "out.json")
    with pytest.raises(OSError) as opened:
        open(target, "w", encoding="utf-8")
    inp = str(Path(__file__).parent / "golden" / "moments_q1.json")
    assert main(["analyze", "--input", inp, flag, target]) == 2
    assert capsys.readouterr().err == f"input error: {opened.value}\n"
    assert not os.path.exists(target)
