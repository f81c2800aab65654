import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from thmm import (DiscreteMeasure, MomentSequence, build_family, build_hankels, compute_first,
                  compute_second, eval_poly)


def family_of(seq):
    """The PolynomialFamily of a MomentSequence, built as every command builds it."""
    return build_family(build_hankels(seq))


def spy_lapack(monkeypatch):
    """Record each call of NumPy's solve, inverse, Cholesky and SVD kernels, by whatever route.

    Returns a list that gets one (name, operands) per kernel call: name is
    "solve" (the gufuncs solve and solve1), "inv", "cholesky"
    (cholesky_lo) or "svd" (the singular values alone, as cond takes
    them).  _linalg's entry points and np.linalg both call these gufuncs,
    so a solve_factored counts its two solves.
    """
    calls = []
    for kernel, name in (("solve", "solve"), ("solve1", "solve"), ("inv", "inv"),
                         ("cholesky_lo", "cholesky"), ("svd", "svd")):
        real = getattr(_umath_linalg, kernel)

        def spy(*operands, real=real, name=name, **kwargs):
            calls.append((name, operands))
            return real(*operands, **kwargs)

        monkeypatch.setattr(_umath_linalg, kernel, spy)
    return calls


def lebesgue(m, a=0.0, b=1.0):
    """Moments of the Lebesgue measure on [0, 1]: s_j = 1/(j+1)."""
    return MomentSequence(a, b, tuple(np.array([[1.0 / (j + 1)]]) for j in range(m + 1)))


def rel(x, y):
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return float(np.linalg.norm(x - y) / max(1.0, np.linalg.norm(x), np.linalg.norm(y)))


def orthogonality_residual(fam, measure):
    """Largest rel of sum_i P1[j](x_i) w_i P1[k](x_i)^* against delta_jk hhat1[j], j, k <= m // 2.

    The sums run over the atoms x_i and weights w_i of a measure that
    reproduces the moments of fam.
    """
    n = fam.seq.m // 2
    hhat1 = fam.hankels.complements("H1")
    vals = [[eval_poly(fam.p1[j], x) for x in measure.points] for j in range(n + 1)]
    worst = 0.0
    for j in range(n + 1):
        for k in range(n + 1):
            gram = sum(vals[j][i] @ w @ vals[k][i].conj().T for i, w in enumerate(measure.weights))
            worst = max(worst, rel(gram, hhat1[j] if j == k else np.zeros_like(gram)))
    return worst


def limit_errors(seq, b):
    """Errors of b mhat_j(0, b) against M_j(0) and of lhat_j(0, b) / b against L_j(0).

    seq has a = 0; its moments are read on [0, b].  As b grows with the
    moments held fixed, both lists of Frobenius errors fall at rate 1/b:
    the half-line limit of the second-type parameters.
    """
    dsm = compute_second(family_of(MomentSequence(0.0, b, seq.s)))
    first = compute_first(family_of(seq))
    return ([np.linalg.norm(b * m - big_m) for m, big_m in zip(dsm.mhat, first.M)],
            [np.linalg.norm(lhat / b - big_l) for lhat, big_l in zip(dsm.lhat_from_zero, first.L)])


def random_pd_weight(rng, q, floor=0.1):
    g = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    return g @ g.conj().T + floor * np.eye(q)


def random_measure(rng, q, atoms, a=0.0, b=1.0):
    """Well-separated atoms with complex Hermitian positive definite weights.

    Atoms sit on a jittered equispaced grid so the generated Hankel
    matrices stay far from degeneracy across the whole ensemble.
    """
    grid = a + (b - a) * (np.arange(atoms) + 0.5) / atoms
    jitter = (b - a) * 0.2 / atoms * rng.uniform(-1.0, 1.0, atoms)
    pts = np.sort(grid + jitter)
    wts = tuple(random_pd_weight(rng, q) for _ in range(atoms))
    return DiscreteMeasure(a=a, b=b, points=tuple(pts), weights=wts)


def random_sequence(rng, q, n, a=0.0, b=1.0, atoms=None):
    """PositiveDefinite sequence with m = 2n + 1 from a random measure."""
    measure = random_measure(rng, q, atoms if atoms is not None else n + 2, a, b)
    seq = measure.moments(2 * n + 1)
    return seq, measure


def seg_dist(z, a, b):
    x, y = z.real, z.imag
    dx = max(a - x, 0.0, x - b)
    return float(np.hypot(dx, y))


def random_z_points(rng, count, a=0.0, b=1.0, min_dist=0.1, rmax=10.0):
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-rmax, rmax), rng.uniform(-rmax, rmax))
        if abs(z) <= rmax and seg_dist(z, a, b) >= min_dist:
            out.append(z)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)
