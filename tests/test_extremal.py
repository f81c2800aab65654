import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thmm import (
    ContinuedFractionChain,
    PointOnInterval,
    SingularDenominator,
    SingularLevel,
    ThmmError,
    WrongChainKind,
    build_family,
    compute_first,
    compute_second,
    evaluate_chain,
    extremal_cf,
    extremal_cf_many,
    extremal_chain,
    extremal_quotient,
    extremal_quotient_many,
    mobius_apply,
    mobius_chain_apply,
    moments_from_discrete_measure,
    resolvent_direct,
    resolvent_factors,
)

from conftest import lebesgue, random_measure, random_sequence, random_z_points, rel


def test_mobius_identity_transform():
    u = np.eye(4, dtype=complex)
    x = np.array([[2.0, 0.0], [1.0, 1.0]])
    y = np.array([[1.0, 0.5], [0.0, 2.0]])
    assert rel(mobius_apply(u, x, y), x @ np.linalg.inv(y)) < 1e-14


def test_mobius_block_swap_inverts():
    q = 2
    u = np.block([[np.zeros((q, q)), np.eye(q)], [np.eye(q), np.zeros((q, q))]])
    s = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
    got = mobius_apply(u, s, np.eye(q))
    assert rel(got, np.linalg.inv(s)) < 1e-14


def test_mobius_singular_denominator():
    q = 1
    u = np.block([[np.zeros((q, q)), np.eye(q)], [np.eye(q), np.zeros((q, q))]])
    with pytest.raises(SingularDenominator):
        mobius_apply(u, np.zeros((q, q)), np.zeros((q, q)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_mobius_composition_property(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 3))
    f1 = rng.normal(size=(2 * q, 2 * q)) + 1j * rng.normal(size=(2 * q, 2 * q))
    f2 = rng.normal(size=(2 * q, 2 * q)) + 1j * rng.normal(size=(2 * q, 2 * q))
    x, y = np.eye(q, dtype=complex), np.eye(q, dtype=complex)
    # the 1e-8 comparison needs well-conditioned final denominators C X + D Y,
    # of the product and of the factor-by-factor column
    xy = np.vstack([x, y])
    if not all(np.linalg.cond(col[q:]) <= 1e8 for col in ((f1 @ f2) @ xy, f1 @ (f2 @ xy))):
        return
    once = mobius_apply(f1 @ f2, x, y)
    stepped = mobius_chain_apply([f1, f2], x, y)
    assert rel(once, stepped) < 1e-8


def test_krein_even_base_case():
    # n = 0: sK(z) = -s_0 / (z - a), the transform of a mass at a
    seq = lebesgue(0)
    for z in (-1.0, 2.0, 1.5 + 1.0j):
        ext = extremal_quotient(seq, z, "even")
        assert rel(ext.sK, np.array([[-1.0 / (z - 0.0)]])) < 1e-14
        cf = extremal_cf(seq, z, "even", "krein")
        assert rel(cf, ext.sK) < 1e-14


def test_friedrichs_even_desk_value():
    # Lebesgue, n = 1, z = -1: (−1 − 5/6) / (2 (−1 − 1/3)) = 11/16
    seq = lebesgue(2)
    ext = extremal_quotient(seq, -1.0, "even")
    assert abs(ext.sF[0, 0] - 11.0 / 16.0) < 1e-13
    cf = extremal_cf(seq, -1.0, "even", "friedrichs")
    assert abs(cf[0, 0] - 11.0 / 16.0) < 1e-13


def test_krein_even_desk_value():
    seq = lebesgue(2)
    ext = extremal_quotient(seq, -1.0, "even")
    assert abs(ext.sK[0, 0] - 0.7) < 1e-13
    assert abs(extremal_cf(seq, -1.0, "even", "krein")[0, 0] - 0.7) < 1e-13


def test_odd_desk_values():
    seq = lebesgue(3)
    ext = extremal_quotient(seq, -1.0, "odd")
    assert abs(ext.sK[0, 0] - 25.0 / 36.0) < 1e-13
    assert abs(ext.sF[0, 0] - 9.0 / 13.0) < 1e-13
    assert abs(extremal_cf(seq, -1.0, "odd", "krein")[0, 0] - 25.0 / 36.0) < 1e-13
    assert abs(extremal_cf(seq, -1.0, "odd", "friedrichs")[0, 0] - 9.0 / 13.0) < 1e-13


def test_friedrichs_odd_minimal():
    # m = 1 Lebesgue data: sF(z) = 1 / (1/2 - z)
    seq = lebesgue(1)
    for z in (-2.0, 3.0):
        ext = extremal_quotient(seq, z, "odd")
        assert abs(ext.sF[0, 0] - 1.0 / (0.5 - z)) < 1e-13


def test_cf_equals_quotient_random(rng):
    for q, n in ((1, 3), (2, 2), (3, 2)):
        seq, _ = random_sequence(rng, q, n)
        fam = build_family(seq)
        for parity in ("even", "odd"):
            for z in random_z_points(rng, 5):
                ext = extremal_quotient(fam, z, parity)
                assert ext.cross_residual < 1e-10
                for which, quo in (("krein", ext.sK), ("friedrichs", ext.sF)):
                    cf = extremal_cf(fam, z, parity, which)
                    assert rel(cf, quo) < 1e-8


def test_cf_q2_point(rng):
    seq, _ = random_sequence(rng, 2, 2)
    fam = build_family(seq)
    z = 2.0 + 1.0j
    ext = extremal_quotient(fam, z, "odd")
    cf = extremal_cf(fam, z, "odd", "friedrichs")
    assert rel(cf, ext.sF) < 1e-9


def test_chain_depth_and_tags():
    seq = lebesgue(3)
    chain = extremal_chain(seq, -1.0, "odd", "krein")
    assert chain.depth == 3
    assert chain.tags == ("mhat[0]", "lhat[0]", "mhat[1]")
    chain_f = extremal_chain(seq, -1.0, "odd", "friedrichs")
    assert chain_f.depth == 4
    assert chain_f.tags == ("M[0]", "L[0]", "M[1]", "L[1]")
    chain_e = extremal_chain(lebesgue(2), -1.0, "even", "friedrichs")
    assert chain_e.depth == 2 and chain_e.head is not None


def test_chain_accepts_prebuilt_params():
    seq = lebesgue(3)
    dsm = compute_second(seq)
    cf = extremal_cf(dsm, -1.0, "odd", "krein")
    assert abs(cf[0, 0] - 25.0 / 36.0) < 1e-13
    first = compute_first(seq)
    cf2 = extremal_cf(first, -1.0, "odd", "friedrichs")
    assert abs(cf2[0, 0] - 9.0 / 13.0) < 1e-13


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("which", ["krein", "friedrichs"])
def test_a_passed_chain_reads_the_rungs_of_its_family(rng, m, parity, which):
    measure = random_measure(rng, 2, m // 2 + 2)
    fam = build_family(moments_from_discrete_measure(measure.points, measure.weights, m, 0.0, 1.0))
    chain = (compute_second if (which == "friedrichs") == (parity == "even") else compute_first)(fam)
    zs = random_z_points(rng, 6)
    from_chain = extremal_cf_many(chain, zs, parity, which)
    assert from_chain.tobytes() == extremal_cf_many(fam, zs, parity, which).tobytes()
    assert extremal_chain(chain, zs[0], parity, which).tags == \
        extremal_chain(fam, zs[0], parity, which).tags


@pytest.mark.parametrize("which, parity, given", [
    ("krein", "even", "DsmSecond"), ("friedrichs", "odd", "DsmSecond"),
    ("friedrichs", "even", "DsmFirst"), ("krein", "odd", "DsmFirst"),
])
@pytest.mark.parametrize("call", [
    lambda chain, parity, which: extremal_chain(chain, -1.0, parity, which),
    lambda chain, parity, which: extremal_cf(chain, -1.0, parity, which),
    lambda chain, parity, which: extremal_cf_many(chain, [-1.0, 2.0], parity, which),
], ids=["chain", "cf", "cf_many"])
def test_chain_of_the_wrong_kind_is_named(call, which, parity, given):
    seq = lebesgue(3)
    chain = compute_second(seq) if given == "DsmSecond" else compute_first(seq)
    expected = "DsmFirst" if given == "DsmSecond" else "DsmSecond"
    with pytest.raises(WrongChainKind) as info:
        call(chain, parity, which)
    assert isinstance(info.value, ThmmError)
    assert (info.value.which, info.value.parity) == (which, parity)
    assert (info.value.expected, info.value.given) == (expected, given)
    assert str(info.value) == (f"the {which} solution at {parity} parity reads a {expected}"
                               f" chain, got a {given}")


@pytest.mark.parametrize("given", ["DsmSecond", "DsmFirst", "family"])
@pytest.mark.parametrize("call", [
    lambda source, parity, which: extremal_chain(source, 2 + 1j, parity, which),
    lambda source, parity, which: extremal_cf(source, 2 + 1j, parity, which),
    lambda source, parity, which: extremal_cf_many(source, [2 + 1j, -1.0], parity, which),
], ids=["chain", "cf", "cf_many"])
@pytest.mark.parametrize("which", ["krein", "friedrichs"])
def test_a_bad_parity_is_refused_whatever_the_source(call, given, which):
    seq = lebesgue(3)
    source = {"DsmSecond": compute_second, "DsmFirst": compute_first,
              "family": build_family}[given](seq)
    with pytest.raises(ValueError) as info:
        call(source, "foo", which)
    assert str(info.value) == "parity must be 'even' or 'odd', got 'foo'"


def test_singular_level():
    chain = ContinuedFractionChain(
        head=None, levels=(np.zeros((1, 1), dtype=complex),), tags=("mhat[0]",)
    )
    with pytest.raises(SingularLevel):
        evaluate_chain(chain)


def test_point_on_interval_rejected():
    seq = lebesgue(3)
    with pytest.raises(PointOnInterval):
        extremal_quotient(seq, 0.25, "odd")
    # points just off the interval are accepted
    extremal_quotient(seq, 0.25 + 0.5j, "odd")


def test_hermitian_for_real_z_off_interval(rng):
    seq, _ = random_sequence(rng, 2, 2)
    fam = build_family(seq)
    for parity in ("even", "odd"):
        for z in (-2.0, 3.5):
            ext = extremal_quotient(fam, z, parity)
            for v in (ext.sK, ext.sF):
                assert np.linalg.norm(v - v.conj().T) < 1e-9 * (1 + np.linalg.norm(v))


def test_solution_transform_constant_pairs(rng):
    seq, _ = random_sequence(rng, 2, 1)
    fam = build_family(seq)
    z = -1.5
    u = resolvent_direct(fam, z, "odd")
    ext = extremal_quotient(fam, z, "odd")
    eye, zero = np.eye(2), np.zeros((2, 2))
    assert rel(mobius_apply(u, eye, zero), ext.sK) < 1e-10
    assert rel(mobius_apply(u, zero, eye), ext.sF) < 1e-10
    mixed = mobius_apply(u, eye, eye)
    assert np.linalg.norm(mixed - mixed.conj().T) < 1e-9 * (1 + np.linalg.norm(mixed))


def test_right_quotient_convention(rng):
    # beta delta^{-1} computed blockwise equals the Friedrichs quotient
    seq, _ = random_sequence(rng, 2, 2)
    fam = build_family(seq)
    for parity in ("even", "odd"):
        for z in random_z_points(rng, 4):
            u = resolvent_direct(fam, z, parity)
            blockwise = u.beta @ np.linalg.inv(u.delta)
            ext = extremal_quotient(fam, z, parity)
            assert rel(blockwise, ext.sF) < 1e-10


def test_mobius_chain_equals_once_on_factor_chain(rng):
    seq, _ = random_sequence(rng, 2, 1)
    fam = build_family(seq)
    eye, zero = np.eye(2), np.zeros((2, 2))
    for parity, route in (("even", "second"), ("odd", "second"),
                          ("even", "first"), ("odd", "first")):
        zs = random_z_points(rng, 3)
        chain = resolvent_factors(fam, zs, parity, route)
        for k in range(len(zs)):
            # z-independent factors are single matrices, the others stacks over zs
            factors = [f if f.ndim == 2 else f[k] for f in chain]
            stepped = mobius_chain_apply(factors, zero, eye)
            once = mobius_apply(functools.reduce(np.matmul, factors), zero, eye)
            assert rel(stepped, once) < 1e-9


def test_many_is_the_stack_of_single_points(rng):
    seq, _ = random_sequence(rng, 2, 2)
    fam = build_family(seq)
    zs = random_z_points(rng, 5) + [complex(x, 0.01) for x in (-0.1, 0.5, 1.1)]
    for parity in ("even", "odd"):
        ext = extremal_quotient_many(fam, zs, parity)
        assert ext.sK.shape == ext.sF.shape == (len(zs), 2, 2)
        for which in ("krein", "friedrichs"):
            cf = extremal_cf_many(fam, zs, parity, which)
            for k, z in enumerate(zs):
                assert np.array_equal(cf[k], extremal_cf(fam, z, parity, which))
        for k, z in enumerate(zs):
            one = extremal_quotient(fam, z, parity)
            assert np.array_equal(ext.sK[k], one.sK) and np.array_equal(ext.sF[k], one.sF)
            assert ext.cross_residual[k] == one.cross_residual < 1e-10
    with pytest.raises(PointOnInterval, match=r"\(0.5\+0j\)"):
        extremal_quotient_many(fam, [2.0, 0.5, 0.75], "odd")


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
    seq = lebesgue(m)
    parity = "odd" if m % 2 else "even"
    for z in QUADRATURE_ZS:
        ext = extremal_quotient(seq, z, parity)
        for which, jac in _quadrature_rules(m).items():
            exact = _stieltjes(jac, z)
            quotient = (ext.sK if which == "krein" else ext.sF)[0, 0]
            cf = extremal_cf(seq, z, parity, which)[0, 0]
            for value in (quotient, cf):
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
