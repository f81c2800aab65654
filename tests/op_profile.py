"""Calls, LAPACK kernel calls and np.errstate entries of each op of a benchmark pool.

The pool is built with ``perfbench/workloads.build_rounds`` from a seed, as
``perfbench/run.py`` builds it, and each op runs its command lines through
``thmm.cli.main``.  Every op runs once untraced first, so that caches
filled on a first use (the argument parser, the report templates) are
warm.  Then each op is run twice more:

- under ``sys.setprofile``, counting every call event: Python functions
  and C functions both ("calls"), and the entries of an ``np.errstate``,
  as a context manager or as a decorator ("errstate");
- with every gufunc of ``numpy.linalg._umath_linalg`` wrapped in a
  counter, giving the LAPACK kernel calls by gufunc.

One line per op, then the mean over the pool.  thmm is imported from
PYTHONPATH, so one checkout of this file measures any version:

    PYTHONPATH=src python tests/op_profile.py
    PYTHONPATH=src python tests/op_profile.py --workload evaluate --seed 13 --rounds 1

pytest does not collect this file (no test_ prefix).
"""

import os

# one BLAS thread, as in the benchmark
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from thmm import cli  # noqa: E402

# the code objects numpy runs on entering an errstate: its __enter__, and the
# wrapper its decorator form returns
ERRSTATE_ENTRIES = {np.errstate.__enter__.__code__,
                    np.errstate(all="ignore")(lambda: None).__code__}
KERNELS = sorted(name for name in dir(_umath_linalg)
                 if isinstance(getattr(_umath_linalg, name), np.ufunc))


def run_op(op):
    """Run the command lines of op, stopping after the first nonzero exit; stdout is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in op.argvs:
            if cli.main(argv) != 0:
                break


def profiled(op):
    """(calls, errstate entries) of one run of op."""
    counts = collections.Counter()

    def hook(frame, event, arg):
        if event == "call":
            counts["calls"] += 1
            counts["errstate"] += frame.f_code in ERRSTATE_ENTRIES
        elif event == "c_call":
            counts["calls"] += 1

    sys.setprofile(hook)
    try:
        run_op(op)
    finally:
        sys.setprofile(None)
    return counts["calls"], counts["errstate"]


def kernel_calls(op):
    """Calls of each numpy.linalg._umath_linalg gufunc in one run of op."""
    counts = collections.Counter()
    real = {name: getattr(_umath_linalg, name) for name in KERNELS}

    def counting(name):
        def kernel(*args, **kwargs):
            counts[name] += 1
            return real[name](*args, **kwargs)
        return kernel

    try:
        for name in KERNELS:
            setattr(_umath_linalg, name, counting(name))
        run_op(op)
    finally:
        for name, gufunc in real.items():
            setattr(_umath_linalg, name, gufunc)
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="analyze")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args(argv)
    total = collections.Counter()
    with tempfile.TemporaryDirectory() as workdir:
        rounds = workloads.build_rounds(args.workload, args.seed, workdir, args.rounds)
        ops = [(r, op) for r, round_ops in enumerate(rounds) for op in round_ops]
        for _, op in ops:
            run_op(op)
        for r, op in ops:
            calls, errstate = profiled(op)
            kernels = kernel_calls(op)
            total.update(calls=calls, errstate=errstate, **kernels)
            print(f"r{r} op{op.point:<2d} {op.kind:<20s} q={op.q} n={op.n}  calls {calls:6d}  "
                  f"errstate {errstate:4d}  "
                  + "  ".join(f"{name} {count}" for name, count in sorted(kernels.items())))
    mean = {key: value / len(ops) for key, value in total.items()}
    print(f"mean of {len(ops)} ops  calls {mean.pop('calls'):.1f}  "
          f"errstate {mean.pop('errstate'):.2f}  "
          + "  ".join(f"{name} {count:.2f}" for name, count in sorted(mean.items())))


if __name__ == "__main__":
    main()
