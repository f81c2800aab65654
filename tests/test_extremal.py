from pathlib import Path

import numpy as np
import pytest

from thmm import (
    DsmFirst,
    PointOnInterval,
    SingularLevel,
    compute_first,
    compute_second,
    extremal_cf_many,
    extremal_quotient_many,
    resolvent_direct_many,
)
from thmm import extremal
from thmm._linalg import PointPrefix
from thmm.cli import main
from thmm.dsm import rungs

from conftest import (at_parity, family_of, lebesgue, moment_file_at_parity, random_measure,
                      random_sequence, random_z_points, rel)

GOLDEN = Path(__file__).parent / "golden"


def cf_at(fam, z, which):
    """The continued-fraction value of one extremal solution at the single point z."""
    return extremal_cf_many(fam, [z], which)[0]


def cf_of_chain(chain, zs, a=0.0, b=1.0):
    """The continued fraction a DSM chain drives on [a, b] at the points zs, as extremal_cf_many has it."""
    pts = PointPrefix(zs)
    value = extremal._fraction(chain, pts, a, b)
    pts.finish()
    return value


def mobius(u, x, y):
    """(A X + B Y)(C X + D Y)^{-1} for the 2q x 2q block matrix u = [[A, B], [C, D]]."""
    q = len(x)
    return (u[:q, :q] @ x + u[:q, q:] @ y) @ np.linalg.inv(u[q:, :q] @ x + u[q:, q:] @ y)


def test_krein_even_base_case():
    # n = 0: sK(z) = -s_0 / (z - a), the transform of a mass at a
    fam = family_of(lebesgue(0))
    zs = [-1.0, 2.0, 1.5 + 1.0j]
    quo = extremal_quotient_many(fam, zs, "krein")
    cf = extremal_cf_many(fam, zs, "krein")
    for k, z in enumerate(zs):
        assert rel(quo[k], np.array([[-1.0 / (z - 0.0)]])) < 1e-14
        assert rel(cf[k], quo[k]) < 1e-14


def test_friedrichs_even_desk_value():
    # Lebesgue, n = 1, z = -1: (−1 − 5/6) / (2 (−1 − 1/3)) = 11/16
    fam = family_of(lebesgue(2))
    quo = extremal_quotient_many(fam, [-1.0], "friedrichs")
    assert abs(quo[0, 0, 0] - 11.0 / 16.0) < 1e-13
    assert abs(cf_at(fam, -1.0, "friedrichs")[0, 0] - 11.0 / 16.0) < 1e-13


def test_krein_even_desk_value():
    fam = family_of(lebesgue(2))
    quo = extremal_quotient_many(fam, [-1.0], "krein")
    assert abs(quo[0, 0, 0] - 0.7) < 1e-13
    assert abs(cf_at(fam, -1.0, "krein")[0, 0] - 0.7) < 1e-13


def test_odd_desk_values():
    fam = family_of(lebesgue(3))
    assert abs(extremal_quotient_many(fam, [-1.0], "krein")[0, 0, 0] - 25.0 / 36.0) < 1e-13
    assert abs(extremal_quotient_many(fam, [-1.0], "friedrichs")[0, 0, 0]
               - 9.0 / 13.0) < 1e-13
    assert abs(cf_at(fam, -1.0, "krein")[0, 0] - 25.0 / 36.0) < 1e-13
    assert abs(cf_at(fam, -1.0, "friedrichs")[0, 0] - 9.0 / 13.0) < 1e-13


def test_friedrichs_odd_minimal():
    # m = 1 Lebesgue data: sF(z) = 1 / (1/2 - z)
    zs = [-2.0, 3.0]
    quo = extremal_quotient_many(family_of(lebesgue(1)), zs, "friedrichs")
    for k, z in enumerate(zs):
        assert abs(quo[k, 0, 0] - 1.0 / (0.5 - z)) < 1e-13


def test_cf_equals_quotient_random(rng):
    for q, n in ((1, 3), (2, 2), (3, 2)):
        seq, _ = random_sequence(rng, q, n)
        for parity in ("even", "odd"):
            fam = family_of(at_parity(seq, parity))
            zs = random_z_points(rng, 5)
            for which in ("krein", "friedrichs"):
                quo = extremal_quotient_many(fam, zs, which)
                cf = extremal_cf_many(fam, zs, which)
                for k in range(len(zs)):
                    assert rel(cf[k], quo[k]) < 1e-8


def test_cf_q2_point(rng):
    seq, _ = random_sequence(rng, 2, 2)
    fam = family_of(seq)
    z = 2.0 + 1.0j
    quo = extremal_quotient_many(fam, [z], "friedrichs")
    assert rel(cf_at(fam, z, "friedrichs"), quo[0]) < 1e-9


def test_chain_depth_and_levels():
    fam = family_of(lebesgue(3))
    dsm, first = compute_second(fam), compute_first(fam)
    # the odd Krein fraction reads mhat_0, lhat_0, mhat_1, the odd Friedrichs one M_0, L_0, M_1, L_1
    krein = rungs(dsm)
    want = (dsm.mhat[0], dsm.lhat_from_zero[0], dsm.mhat[1])
    assert len(krein) == 3 and all(np.array_equal(x, y) for x, y in zip(krein, want))
    friedrichs = rungs(first)
    want = (first.M[0], first.L[0], first.M[1], first.L[1])
    assert len(friedrichs) == 4 and all(np.array_equal(x, y) for x, y in zip(friedrichs, want))
    # at z = -1 on [0, 1]: -(z-a)(b-z) = 2, b - z = 2 and -(z-a) = 1 scale the
    # levels, and the second-type fraction has the head s_0 / (b - z)
    s0 = complex(dsm.s0[0, 0])
    m0, l0, m1 = (complex(x[0, 0]) for x in krein)
    want = s0 / 2 + 1 / (2 * m0 + 1 / (l0 / 2 + 1 / (2 * m1)))
    assert abs(cf_of_chain(dsm, [-1.0])[0, 0, 0] - want) < 1e-13
    big_m0, big_l0, big_m1, big_l1 = (complex(x[0, 0]) for x in friedrichs)
    want = 1 / (big_m0 + 1 / (big_l0 + 1 / (big_m1 + 1 / big_l1)))
    assert abs(cf_of_chain(first, [-1.0])[0, 0, 0] - want) < 1e-13
    # the even Friedrichs fraction reads mhat_0, lhat_0 under the same head
    even = compute_second(family_of(lebesgue(2)))
    assert len(rungs(even)) == 2
    m0, l0 = (complex(x[0, 0]) for x in rungs(even))
    want = complex(even.s0[0, 0]) / 2 + 1 / (2 * m0 + 1 / (l0 / 2))
    assert abs(cf_of_chain(even, [-1.0])[0, 0, 0] - want) < 1e-13


def test_chain_accepts_prebuilt_params():
    fam = family_of(lebesgue(3))
    cf = cf_of_chain(compute_second(fam), [-1.0])[0]
    assert abs(cf[0, 0] - 25.0 / 36.0) < 1e-13
    cf2 = cf_of_chain(compute_first(fam), [-1.0])[0]
    assert abs(cf2[0, 0] - 9.0 / 13.0) < 1e-13


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("which", ["krein", "friedrichs"])
def test_a_passed_chain_reads_the_rungs_of_its_family(rng, m, parity, which):
    measure = random_measure(rng, 2, m // 2 + 2)
    fam = family_of(at_parity(measure.moments(m), parity))
    chain = (compute_second if (which == "friedrichs") == (parity == "even") else compute_first)(fam)
    zs = random_z_points(rng, 6)
    from_chain = cf_of_chain(chain, zs, fam.seq.a, fam.seq.b)
    assert from_chain.tobytes() == extremal_cf_many(fam, zs, which).tobytes()


@pytest.mark.parametrize("given", ["family"])   # the one source the fractions take
@pytest.mark.parametrize("call", [
    lambda fam, parity, which: extremal_cf_many(fam, [2 + 1j], which, parity=parity)[0],
    lambda fam, parity, which: extremal_cf_many(fam, [2 + 1j, -1.0], which, parity=parity),
    lambda fam, parity, which: extremal_quotient_many(fam, [2 + 1j, -1.0], which, parity=parity),
], ids=["cf", "cf_many", "quotient"])
@pytest.mark.parametrize("which", ["krein", "friedrichs"])
def test_a_bad_parity_is_refused_whatever_the_source(call, given, which):
    # m decides the parity: every parity passed is a bad one, even the one m gives
    with pytest.raises(TypeError, match="unexpected keyword argument 'parity'"):
        call(family_of(lebesgue(3)), "odd", which)


def test_singular_level():
    # a zero M_0 makes the one level -(z - a) M_0 of the Krein fraction zero
    chain = DsmFirst(M=(np.zeros((1, 1), dtype=complex),), L=())
    with pytest.raises(SingularLevel):
        cf_of_chain(chain, [2.0])


def test_point_on_interval_rejected():
    fam = family_of(lebesgue(3))
    with pytest.raises(PointOnInterval):
        extremal_quotient_many(fam, [0.25], "krein")
    # points just off the interval are accepted
    extremal_quotient_many(fam, [0.25 + 0.5j], "krein")


def test_hermitian_for_real_z_off_interval(rng):
    seq, _ = random_sequence(rng, 2, 2)
    for parity in ("even", "odd"):
        fam = family_of(at_parity(seq, parity))
        for which in ("krein", "friedrichs"):
            for v in extremal_quotient_many(fam, [-2.0, 3.5], which):
                assert np.linalg.norm(v - v.conj().T) < 1e-9 * (1 + np.linalg.norm(v))


def test_solution_transform_constant_pairs(rng):
    seq, _ = random_sequence(rng, 2, 1)
    fam = family_of(seq)
    z = -1.5
    (u,) = resolvent_direct_many(fam, [z])
    eye, zero = np.eye(2), np.zeros((2, 2))
    assert rel(mobius(u, eye, zero), extremal_quotient_many(fam, [z], "krein")[0]) < 1e-10
    assert rel(mobius(u, zero, eye),
               extremal_quotient_many(fam, [z], "friedrichs")[0]) < 1e-10
    mixed = mobius(u, eye, eye)
    assert np.linalg.norm(mixed - mixed.conj().T) < 1e-9 * (1 + np.linalg.norm(mixed))


def test_right_quotient_convention(rng):
    # beta delta^{-1} computed blockwise equals the Friedrichs quotient
    seq, _ = random_sequence(rng, 2, 2)
    for parity in ("even", "odd"):
        fam = family_of(at_parity(seq, parity))
        zs = random_z_points(rng, 4)
        u = resolvent_direct_many(fam, zs)
        quo = extremal_quotient_many(fam, zs, "friedrichs")
        for k in range(len(zs)):
            blockwise = u[k, :2, 2:] @ np.linalg.inv(u[k, 2:, 2:])
            assert rel(blockwise, quo[k]) < 1e-10


def test_many_is_the_stack_of_single_points(rng):
    seq, _ = random_sequence(rng, 2, 2)
    zs = random_z_points(rng, 5) + [complex(x, 0.01) for x in (-0.1, 0.5, 1.1)]
    for parity in ("even", "odd"):
        fam = family_of(at_parity(seq, parity))
        # each point of the stack is the stack of that point alone
        for which in ("krein", "friedrichs"):
            quo = extremal_quotient_many(fam, zs, which)
            assert quo.shape == (len(zs), 2, 2)
            cf = extremal_cf_many(fam, zs, which)
            for k, z in enumerate(zs):
                assert np.array_equal(cf[k], cf_at(fam, z, which))
                assert np.array_equal(quo[k], extremal_quotient_many(fam, [z], which)[0])
    with pytest.raises(PointOnInterval, match=r"\(0.5\+0j\)"):
        extremal_quotient_many(family_of(seq), [2.0, 0.5, 0.75], "krein")


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("which", ["krein", "friedrichs"])
def test_extremal_evaluates_only_the_printed_solution(monkeypatch, tmp_path, which, parity):
    # one numerator and one denominator: the other solution is never evaluated
    calls = []
    real = extremal.adjoint_eval

    def spy(p, z):
        calls.append(p)
        return real(p, z)

    monkeypatch.setattr(extremal, "adjoint_eval", spy)
    inp = moment_file_at_parity(GOLDEN / "moments_q2.json", parity, tmp_path)
    argv = ["extremal", "--input", inp, "--which", which, "--z=2+1i", "--z=-1",
            "--output", str(tmp_path / "out.json")]
    assert main(argv) == 0
    assert len(calls) == 2


# Quadrature oracle.  The extremal solutions of Lebesgue moments on [0, 1]
# are Stieltjes transforms e_0^T (J - z)^{-1} e_0 of Gauss-type rules, whose
# Jacobi matrices J come from the Legendre one (alpha = 1/2,
# beta_k = k^2 / (4 (4k^2 - 1))) by Golub's modification of the last entries
# (Golub, "Some modified matrix eigenvalue problems", SIAM Rev. 15, 1973).
# It reads no moment, Hankel matrix or parameter chain of the package.

def _legendre_jacobi(size):
    k = np.arange(1, size)
    off = np.sqrt(k ** 2 / (4.0 * (4.0 * k ** 2 - 1.0)))
    return np.diag(np.full(size, 0.5)) + np.diag(off, 1) + np.diag(off, -1)


def _radau_jacobi(n, node):
    """The (n+1)-point Gauss-Radau rule with a node at node."""
    jac = _legendre_jacobi(n + 1)
    delta = np.linalg.solve(jac[:n, :n] - node * np.eye(n), jac[n - 1, n] ** 2 * np.eye(n)[-1])
    jac[n, n] = node + delta[-1]
    return jac


def _lobatto_jacobi(n, a=0.0, b=1.0):
    """The (n+2)-point Gauss-Lobatto rule with nodes at a and b."""
    jac = _legendre_jacobi(n + 2)
    top, last = jac[:n + 1, :n + 1], np.eye(n + 1)[-1]
    g = np.linalg.solve(top - a * np.eye(n + 1), last)[-1]
    h = np.linalg.solve(top - b * np.eye(n + 1), last)[-1]
    alpha, beta = np.linalg.solve([[1.0, -g], [1.0, -h]], [a, b])
    jac[n + 1, n + 1] = alpha
    jac[n, n + 1] = jac[n + 1, n] = np.sqrt(beta)
    return jac


def _quadrature_rules(m):
    """{which: Jacobi matrix} of the two extremal solutions of order m."""
    if m % 2:
        n = (m - 1) // 2
        return {"friedrichs": _legendre_jacobi(n + 1), "krein": _lobatto_jacobi(n)}
    n = m // 2
    return {"krein": _radau_jacobi(n, 0.0), "friedrichs": _radau_jacobi(n, 1.0)}


def _stieltjes(jac, z):
    return np.linalg.solve(jac - z * np.eye(len(jac)), np.eye(len(jac))[0])[0]


QUADRATURE_ZS = (2.0 + 1.0j, -0.5 + 0.25j, 0.5 + 0.1j, -3.0, 1.5)


@pytest.mark.parametrize("m", range(2, 13))
def test_extremal_values_are_gauss_type_quadratures(m):
    # both routes read the same chains and polynomials, so only an
    # independent oracle shows how many digits they keep (worst 2.2e-9, m = 12)
    fam = family_of(lebesgue(m))
    for which, jac in _quadrature_rules(m).items():
        quotients = extremal_quotient_many(fam, QUADRATURE_ZS, which)
        cfs = extremal_cf_many(fam, QUADRATURE_ZS, which)
        for k, z in enumerate(QUADRATURE_ZS):
            exact = _stieltjes(jac, z)
            for value in (quotients[k, 0, 0], cfs[k, 0, 0]):
                assert abs(value - exact) <= 1e-8 * abs(exact), (which, z, value, exact)


def test_quadrature_oracle_is_exact_on_the_moments():
    # each rule integrates x^j exactly for j <= m, so it is a solution of order m
    for m in range(2, 13):
        for jac in _quadrature_rules(m).values():
            nodes, vecs = np.linalg.eigh(jac)
            weights = vecs[0] ** 2
            assert nodes.min() >= -1e-12 and nodes.max() <= 1.0 + 1e-12
            for j in range(m + 1):
                assert abs(weights @ nodes ** j - 1.0 / (j + 1)) < 1e-13
