"""Every op of the benchmark's ceiling pool, run once per seed, with its outcome.

The ceiling workload of ``perfbench`` is analyze on moment sequences out to
n = 9, half of them with a closed-form answer (Lebesgue measure on [0, 1]
tensor a weight W).  This tool builds the 16-round pool of each seed with
``perfbench/workloads.build_rounds``, runs each op once through
``thmm.cli.main`` and checks it with ``workloads.check``.  Per seed and in
total it prints how many ops were answered (every command exited 0), how
many were refused (exit 3 or 4) and how many of the answered were wrong:
more than the oracle tolerance (1e-8) off, or an unreadable report.  The
ops neither answered nor refused failed otherwise.  thmm is imported from
PYTHONPATH, so one checkout of this file measures any version:

    PYTHONPATH=src python tests/ceiling_pools.py
    PYTHONPATH=/path/to/other/src python tests/ceiling_pools.py --seeds 13,29,41,7,101

pytest does not collect this file (no test_ prefix).
"""

import os

# one BLAS thread, as in the benchmark: thread counts can move the rounding
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from thmm import cli  # noqa: E402

ROUNDS = 16   # the ceiling pool of perfbench/run.py


def run_op(argvs):
    """(exit code, stdout, stderr) of each command of an op, up to the first nonzero exit."""
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # counted as an op neither answered nor refused
                traceback.print_exc()
                code = None
        results.append((code, out.getvalue(), err.getvalue()))
        if code != 0:
            break
    return results


def tally(seed):
    """Counts of answered, refused and wrong exit-0 ops in the pool of one seed."""
    counts = {"ops": 0, "answered": 0, "refused": 0, "wrong": 0}
    with tempfile.TemporaryDirectory() as workdir:
        for ops in workloads.build_rounds("ceiling", seed, workdir, ROUNDS):
            for op in ops:
                results = run_op(op.argvs)
                outcome = workloads.check("ceiling", op, results)
                counts["ops"] += 1
                if all(code == 0 for code in outcome.codes):
                    counts["answered"] += 1
                    counts["wrong"] += outcome.status == "failed"
                counts["refused"] += outcome.status == "refused"
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="13,29,41,7,101",
                        help="comma-separated workload seeds (default 13,29,41,7,101)")
    args = parser.parse_args(argv)
    total = dict.fromkeys(("ops", "answered", "refused", "wrong"), 0)
    for seed in (int(s) for s in args.seeds.split(",")):
        counts = tally(seed)
        for key in total:
            total[key] += counts[key]
        print(f"seed {seed:4d}  " + "  ".join(f"{k} {v}" for k, v in counts.items()), flush=True)
    print("total      " + "  ".join(f"{k} {v}" for k, v in total.items()))


if __name__ == "__main__":
    main()
