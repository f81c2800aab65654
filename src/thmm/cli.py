"""Command-line surface.

Subcommands: analyze, factorize, extremal, recover, gen, scalar-report.
The CLI is a thin shell over the library; it never computes numbers
itself.  Exit codes: 0 success, 2 input or parse error, 3 mathematical
precondition failure, 4 cross-route residual above tolerance.  A raised
ThmmError exits with its class's exit_code and writes "<label>: <message>"
to stderr, so a library caller can map an error exactly as the CLI does.
factorize, extremal and scalar-report print their report whatever its
residuals; one above --rtol then exits 4 with a stderr line in
RouteMismatch's label that names the residual, its largest value and --rtol.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import io as tio
from .dsm import (
    compute_first,
    compute_second,
    product_identities,
    recover_moments,
    scalar_determinant_params,
)
from .errors import RouteMismatch, SingularPivot, ThmmError
from ._linalg import PointPrefix, frobs
from .extremal import extremal_cf_many, extremal_quotient_many
from .moments import build_hankels, classify
from .polynomials import build_family, verify_family_identities
from .resolvent import resolvent_direct_many, resolvent_factorized_many


def _emit(report, output):
    text = tio.render_json(report)
    if output:
        tio.write_text(output, text)
    else:
        sys.stdout.write(text)


def _z_values(args):
    if not args.z:
        raise ValueError("at least one --z value is required")
    return [tio.parse_complex(text) for text in args.z]


def _classification_dict(cls):
    out = {"classification": cls.kind}
    if cls.witness is None:
        out["witness"] = None
    else:
        out["witness"] = {
            "family": cls.witness.family,
            "index": cls.witness.index,
            "min_eigenvalue": cls.witness.min_eigenvalue,
        }
    return out


def cmd_analyze(args):
    seq = tio.read_moment_file(args.input)
    hank = build_hankels(seq)
    cls = classify(hank)
    report = {"command": "analyze", "q": seq.q, "a": seq.a, "b": seq.b, "m": seq.m}
    report.update(_classification_dict(cls))
    if not cls.is_positive_definite:
        _emit(report, args.output)
        return 3
    fam = build_family(hank)
    # the chains first: compute_second may refuse before any complement is made
    dsm = compute_second(fam)
    first = compute_first(fam)
    report["schur"] = {name: tuple(hank.complements(family)) for name, family in
                       (("hhat1", "H1"), ("hhat2", "H2"), ("khat1", "K1"), ("khat2", "K2"))}
    report["dsm_second"] = {
        "mhat": dsm.mhat,
        "lhat_first_index": -1,
        "lhat": dsm.lhat,
        "rhat": dsm.rhat,
        "that": dsm.that,
    }
    report["dsm_first"] = {
        "M": first.M,
        "L": first.L,
    }
    residuals = {**verify_family_identities(fam), **product_identities(fam, dsm, first)}
    report["identity_residuals"] = residuals
    report["max_identity_residual"] = max(residuals.values(), default=0.0)
    _emit(report, args.output)
    if args.params_out:
        tio.write_text(args.params_out, tio.render_json(tio.parameter_file_dict(seq, dsm)))
    return 0


def _gate(key, worst, rtol):
    """0 if the largest residual worst is within --rtol, else 4 and a stderr line naming it."""
    if worst <= rtol:
        return 0
    print(f"{RouteMismatch.label}: largest {key} {worst:.3e} exceeds --rtol {rtol:g}",
          file=sys.stderr)
    return 4


def _residuals(values, reference):
    """Frobenius distance of each value from its reference, over the reference norm (floor 1)."""
    return frobs(values - reference) / np.maximum(1.0, frobs(reference))


def _evaluation_input(args):
    """(family, points) of factorize or extremal; SingularPivot unless PositiveDefinite."""
    hank = build_hankels(tio.read_moment_file(args.input))
    fam = build_family(hank)
    cls = classify(hank)
    if not cls.is_positive_definite:
        raise SingularPivot(cls.witness.family, cls.witness.index)
    return fam, PointPrefix(_z_values(args))


def cmd_factorize(args):
    fam, points = _evaluation_input(args)
    # the stacked evaluation overflows at a large z; _finite, guard_cond and
    # PointPrefix check every value it keeps, so numpy's warnings only repeat
    # the failure of that point
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        direct = resolvent_direct_many(fam, points)
        if args.route == "direct":
            values = direct
        else:
            values = resolvent_factorized_many(fam, points, args.route)
    points.finish()
    residuals = _residuals(values, direct)
    results = tio.Records(z=points.zs, parity=fam.seq.parity, route=args.route, U=values,
                          residual_vs_direct=residuals)
    _emit({"command": "factorize", "parity": fam.seq.parity, "route": args.route,
           "rtol": args.rtol, "results": results}, args.output)
    return _gate("residual_vs_direct", residuals.max(), args.rtol)


def cmd_extremal(args):
    fam, points = _evaluation_input(args)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # as in cmd_factorize
        quotient_values = extremal_quotient_many(fam, points, args.which)
        cf_values = extremal_cf_many(fam, points, args.which)
    points.finish()
    cross = _residuals(cf_values, quotient_values)
    results = tio.Records(z=points.zs, which=args.which, parity=fam.seq.parity,
                          value=quotient_values, route="quotient", cross_residual=cross)
    _emit({"command": "extremal", "which": args.which, "parity": fam.seq.parity,
           "rtol": args.rtol, "results": results}, args.output)
    return _gate("cross_residual", cross.max(), args.rtol)


def cmd_recover(args):
    s0, mhat, lhat, a, b = tio.read_parameter_file(args.input)
    seq = recover_moments(s0, mhat, lhat, a, b)
    cls = classify(build_hankels(seq))
    _emit(tio.moment_file_dict(seq), args.output)
    return 0 if cls.is_positive_definite else 3


def cmd_gen(args):
    measure = tio.read_measure_file(args.input)
    _emit(tio.moment_file_dict(measure.moments(args.count)), args.output)
    return 0


def cmd_scalar_report(args):
    seq = tio.read_moment_file(args.input)
    mtilde, ltilde, dsm = scalar_determinant_params(seq)
    m_res = [
        abs(mt - float(dsm.mhat[j][0, 0].real)) / max(1.0, abs(mt))
        for j, mt in enumerate(mtilde)
    ]
    l_res = [
        abs(lt - float(dsm.lhat_from_zero[j][0, 0].real)) / max(1.0, abs(lt))
        for j, lt in enumerate(ltilde)
    ]
    worst = max(m_res + l_res, default=0.0)
    _emit({
        "command": "scalar-report",
        "mtilde": list(mtilde),
        "ltilde": list(ltilde),
        "mhat": [float(x[0, 0].real) for x in dsm.mhat],
        "lhat": [float(x[0, 0].real) for x in dsm.lhat_from_zero],
        "max_residual": worst,
        "rtol": args.rtol,
    }, args.output)
    return _gate("max_residual", worst, args.rtol)


def _tolerance(text):
    """A finite, nonnegative --rtol value; argparse names the option on rejection."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite nonnegative number, got {text!r}")
    return value


@functools.cache
def build_parser():
    """The one argument parser of the process, built on the first call.

    main reuses it for every call: parsing leaves the parser unchanged, and
    the append action of --z copies its default list before appending.
    """
    parser = argparse.ArgumentParser(
        prog="thmm",
        description="Truncated Hausdorff matrix moment toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", help="write the JSON report here instead of stdout")

    def rtol(p):
        p.add_argument("--rtol", type=_tolerance, default=1e-8,
                       help="residual tolerance for exit-code purposes")

    p = sub.add_parser("analyze", help="classification, Schur chains, parameter chains")
    common(p)
    p.add_argument("--params-out", help="also write a parameter file for 'recover'")

    # argparse reads "-0.2+0.1i" after a space as an option, so such a
    # literal has to be attached with "="
    z_help = ("evaluation point (A, A+Bi, or A-Bi); repeatable; write a negative"
              " real part with an imaginary part as --z=-0.2+0.1i")

    p = sub.add_parser("factorize", help="resolvent by direct and factorized routes")
    common(p)
    rtol(p)
    p.add_argument("--z", action="append", default=[], help=z_help)
    p.add_argument("--route", choices=("direct", "second", "first"), default="second")

    p = sub.add_parser("extremal", help="extremal solutions by quotient and continued fraction")
    common(p)
    rtol(p)
    p.add_argument("--z", action="append", default=[], help=z_help)
    p.add_argument("--which", choices=("krein", "friedrichs"), default="friedrichs")

    p = sub.add_parser("recover", help="rebuild moments from a parameter file")
    common(p)

    p = sub.add_parser("gen", help="moments of a discrete measure file")
    common(p)
    p.add_argument("--count", type=int, required=True, help="highest moment index m")

    p = sub.add_parser("scalar-report", help="determinant-formula parameters for q = 1")
    common(p)
    rtol(p)

    return parser


def _set_aside_z_runs(argv):
    """(argv with each run of "--z=<lit>" tokens cut to its first token, the cut literals).

    argparse spends about 10 us on each option token, so a call with many
    points hands it each run as one token.  Only a factorize or extremal
    command line is cut, and only before its first "--".  There every --z
    token is one occurrence of --z, so after a parse that succeeds the k-th
    --z token kept gave args.z[k]; the literals cut after it are tails[k].
    """
    kept, tails, count = [], {}, 0
    if argv[:1] not in (["factorize"], ["extremal"]):
        return argv, tails
    for i, token in enumerate(argv):
        if token == "--":
            return kept + argv[i:], tails
        if token.startswith("--z=") and kept[-1].startswith("--z="):
            tails.setdefault(count - 1, []).append(token[len("--z="):])
            continue
        count += token == "--z" or token.startswith("--z=")
        kept.append(token)
    return kept, tails


def main(argv=None):
    parser = build_parser()
    argv, tails = _set_aside_z_runs(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    if tails:
        args.z = [lit for k, head in enumerate(args.z) for lit in (head, *tails.get(k, ()))]
    # looked up per call, not bound into the cached parser, so a cmd_* function
    # rebound in this module (a tracer, a test) is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ThmmError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, KeyError, TypeError, ValueError) as exc:   # reading and parsing
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
