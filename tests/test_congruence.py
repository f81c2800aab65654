"""A diagonal congruence s_j -> D s_j D, D = diag(2^k_i), moves no decision of the CLI.

The input is Lebesgue moments times I_q, s_j = I_q / (j + 1) on [0, 1], which
is positive definite; so is D s_j D at every D.  In binary floating point
each Hankel member of the scaled input is a power-of-two diagonal
congruence of the unscaled one, its Cholesky factor is the unscaled
factor scaled to the bit, and each pivot over its own diagonal entry is
unchanged.  So analyze classifies the same and prints mhat and that
scaled to D^-1 X D^-1, lhat and rhat to D X D, to the bit, and factorize
exits as it does on the unscaled input.

extremal exits the same only where max k_i - min k_i <= 14: its
continued fraction's cond guard takes the unscaled 2-norm condition
number, which a larger spread pushes over COND_LIMIT.  Residuals are not
compared, since their floor of 1 in the norm is not scale-free.
"""

import json

import numpy as np
import pytest

from thmm.cli import main

# exponents k_i of D, a permutation of values from {0, +-14, +-30} per component
EXPONENTS = {
    2: [(0, 14), (14, 0), (0, -14), (-30, 0), (30, -14), (-14, 30), (30, -30)],
    3: [(0, 14, 0), (14, 0, -14), (0, -14, 14), (30, 0, -30), (-30, 14, 0), (0, 30, -14)],
}
CASES = [(q, m, k) for q in sorted(EXPONENTS) for m in (3, 5, 6, 7) for k in EXPONENTS[q]]


def _moment_file(path, q, m, d):
    """Lebesgue times I_q scaled to D s_j D, D = diag(d), for j = 0..m."""
    moments = [[[[d[r] * d[c] / (j + 1) if r == c else 0.0, 0.0] for c in range(q)]
                for r in range(q)] for j in range(m + 1)]
    path.write_text(json.dumps({"q": q, "a": 0.0, "b": 1.0, "moments": moments}))
    return str(path)


def _matrices(chain):
    """The printed chain as a (K, q, q) complex stack."""
    x = np.array(chain, dtype=float)
    return x[..., 0] + 1j * x[..., 1]


@pytest.mark.parametrize("q,m,k", CASES, ids=[f"q{q}-m{m}-{k}" for q, m, k in CASES])
def test_a_diagonal_congruence_moves_no_decision(tmp_path, q, m, k):
    d = 2.0 ** np.array(k, dtype=float)
    plain = _moment_file(tmp_path / "plain.json", q, m, np.ones(q))
    scaled = _moment_file(tmp_path / "scaled.json", q, m, d)

    def analyze(path):
        out = tmp_path / "out.json"
        code = main(["analyze", "--input", path, "--output", str(out)])
        return code, json.loads(out.read_text())

    code, report = analyze(plain)
    assert code == 0 and report["classification"] == "PositiveDefinite"
    scaled_code, scaled_report = analyze(scaled)
    assert scaled_code == code and scaled_report["classification"] == report["classification"]
    inner, outer = 1.0 / np.outer(d, d), np.outer(d, d)
    for name, factor in (("mhat", inner), ("that", inner), ("lhat", outer), ("rhat", outer)):
        expected = _matrices(report["dsm_second"][name]) * factor
        assert np.array_equal(_matrices(scaled_report["dsm_second"][name]), expected), name

    zs = ["--z=2+1i", "--z=-0.3+0.05i", "--z=0.5+0.01i"]
    commands = [["factorize", "--route", route] for route in ("direct", "second", "first")]
    if max(k) - min(k) <= 14:
        commands += [["extremal", "--which", which] for which in ("krein", "friedrichs")]
    for command in commands:
        codes = [main([command[0], "--input", path, *command[1:], *zs]) for path in (plain, scaled)]
        assert codes[0] == codes[1], command
