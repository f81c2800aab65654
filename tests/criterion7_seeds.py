"""Criterion 7's worst factor vs split pair residual over fresh ensemble seeds.

Tier-1 asserts the pair residual <= 1e-12 on one ensemble, drawn from
ENSEMBLE_SEED.  That residual is a disagreement between two routes at the
conditioning floor, so a change of rounding can move it either way on one
ensemble.  This tool reruns the loop of test_criterion_7_auxiliary_and_bp on
the ensembles of seeds 1..20 (or --seeds A-B) and prints the worst pair
residual per seed, then the median, the maximum and how many seeds exceed
the bound, so that two versions can be compared in distribution.

Route agreement does not certify accuracy, so the tool then prints the
forward error of the Lebesgue row of test_dsm's closed-form table
(s_j = W/(j+1), both parameter chains, q = 1..4, CLOSED_FORM_DRAWS weights W
per q) for n = 1..5: the median and maximum over the chains computed, and how
many were refused.  thmm is imported from
PYTHONPATH, so one checkout of this file measures any version:

    PYTHONPATH=src python tests/criterion7_seeds.py
    PYTHONPATH=/path/to/other/src python tests/criterion7_seeds.py --seeds 1-20

pytest does not collect this file (no test_ prefix).
"""

import argparse
import statistics

from test_acceptance import build_ensemble, criterion_7_residuals
from test_dsm import closed_form_error, closed_form_weights

PAIR_BOUND = 1e-12   # the tier-1 bound on the pair residual


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-20"),
                        help="inclusive seed range A-B (default 1-20)")
    args = parser.parse_args(argv)
    worst = []
    for seed in args.seeds:
        pair = criterion_7_residuals(build_ensemble(seed))[1]
        worst.append(pair)
        print(f"seed {seed:3d}  worst pair residual {pair:.3e}")
    above = sum(w > PAIR_BOUND for w in worst)
    print(f"median {statistics.median(worst):.3e}  max {max(worst):.3e}  "
          f"above {PAIR_BOUND:g}: {above} of {len(worst)}")
    weights = [w for q in (1, 2, 3, 4) for w in closed_form_weights(q)]
    for n in range(1, 6):
        errors = [closed_form_error(w, n) for w in weights]
        done = [e for e in errors if e is not None]
        spread = (f"median {statistics.median(done):.3e}  max {max(done):.3e}"
                  if done else "no chain computed")
        print(f"closed form n={n}  {spread}  refused {len(errors) - len(done)} of {len(errors)}")


if __name__ == "__main__":
    main()
