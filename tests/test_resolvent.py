import functools

import numpy as np
import pytest

from thmm import (
    InsufficientMoments,
    MomentSequence,
    PoleAtZ,
    resolvent_direct_many,
    resolvent_factorized_many,
    resolvent_factors,
)

from conftest import family_of, lebesgue, random_sequence, random_z_points, rel


@pytest.fixture(scope="module")
def leb5():
    return family_of(lebesgue(5))


def test_value_at_left_endpoint_both_parities(leb5):
    fam = leb5
    for parity in ("even", "odd"):
        (u,) = resolvent_direct_many(fam, [0.0], parity)
        assert rel(u[:1, :1], np.eye(1)) < 1e-13   # alpha
        assert np.linalg.norm(u[1:, :1]) < 1e-13   # gamma
    (u,) = resolvent_direct_many(fam, [0.0], "odd")
    assert rel(u[1:, 1:], np.eye(1)) < 1e-13       # delta


def test_direct_vs_factorized_lebesgue(leb5):
    fam = leb5
    zs = [-1.0, 2.5, 1.3 + 0.8j]
    for parity in ("even", "odd"):
        d = resolvent_direct_many(fam, zs, parity)
        s = resolvent_factorized_many(fam, zs, parity, "second")
        f = resolvent_factorized_many(fam, zs, parity, "first")
        for k in range(len(zs)):
            assert rel(d[k], s[k]) < 1e-10
            assert rel(d[k], f[k]) < 1e-10


def test_route_vs_route_q2(rng):
    seq, _ = random_sequence(rng, 2, 2)
    fam = family_of(seq)
    z = 3.0 + 1.0j
    (s,) = resolvent_factorized_many(fam, [z], "odd", "second")
    (f,) = resolvent_factorized_many(fam, [z], "odd", "first")
    assert rel(s, f) < 1e-9


def test_route_equality_ensemble(rng):
    for q, n in ((1, 2), (2, 2), (3, 1)):
        seq, _ = random_sequence(rng, q, n)
        fam = family_of(seq)
        for parity in ("even", "odd"):
            zs = random_z_points(rng, 5)
            d = resolvent_direct_many(fam, zs, parity)
            s = resolvent_factorized_many(fam, zs, parity, "second")
            f = resolvent_factorized_many(fam, zs, parity, "first")
            for k in range(len(zs)):
                assert rel(d[k], s[k]) < 1e-8
                assert rel(d[k], f[k]) < 1e-8


def test_factorized_pole_rejection(leb5):
    fam = leb5
    for z, parity, route in (
        (0.0, "even", "second"),
        (1.0, "even", "second"),
        (1.0, "odd", "second"),
        (0.0, "odd", "first"),
    ):
        with pytest.raises(PoleAtZ):
            resolvent_factorized_many(fam, [z], parity, route)
    # the even first-type product has no scalar prefactor, so endpoints pass
    d = resolvent_direct_many(fam, [1.0], "even")
    f = resolvent_factorized_many(fam, [1.0], "even", "first")
    assert rel(d, f) < 1e-10


def test_even_second_n0_product_equals_direct(rng):
    # at n = 0 the second-type product is
    # diag(1/((b-z)(z-a)), 1) up((z-a) s_0) low(tail) diag((b-a)(z-a), (b-z)/(b-a))
    seqs = [lebesgue(0), lebesgue(1)]
    for q in (1, 2, 3):
        seq, _ = random_sequence(rng, q, 1, a=-0.5, b=1.5)
        seqs += [MomentSequence(seq.a, seq.b, seq.s[:1]), MomentSequence(seq.a, seq.b, seq.s[:2])]
    zs = random_z_points(rng, 4, a=-0.5, b=1.5) + [2.0, -1.0 + 0.5j]
    for seq in seqs:
        fam = family_of(seq)
        factors = resolvent_factors(fam, zs, "even", "second")
        assert len(factors) == 4
        direct = resolvent_direct_many(fam, zs, "even")
        product = resolvent_factorized_many(fam, zs, "even", "second")
        assert np.array_equal(product, functools.reduce(np.matmul, factors))
        for k, z in enumerate(zs):
            assert rel(product[k], direct[k]) < 1e-14
            assert np.array_equal(
                resolvent_factorized_many(fam, [z], "even", "second")[0], product[k])
        # the scalar prefactors have their poles at a and b
        for z in (seq.a, seq.b):
            with pytest.raises(PoleAtZ):
                resolvent_factorized_many(fam, [z], "even", "second")


def test_odd_parity_needs_m_at_least_one():
    fam = family_of(lebesgue(0))
    with pytest.raises(InsufficientMoments):
        resolvent_direct_many(fam, [2.0], "odd")


def product(factors):
    return functools.reduce(np.matmul, factors)


def test_factor_chain_matches_direct(leb5, rng):
    fam = leb5
    for parity in ("even", "odd"):
        for route in ("second", "first"):
            zs = [2.5, -1.3 + 0.4j]
            values = product(resolvent_factors(fam, zs, parity, route))
            direct = resolvent_direct_many(fam, zs, parity)
            for k in range(len(zs)):
                assert rel(values[k], direct[k]) < 1e-10
    seq, _ = random_sequence(rng, 2, 1)
    fam2 = family_of(seq)
    zs = random_z_points(rng, 3)
    values = product(resolvent_factors(fam2, zs, "odd", "first"))
    direct = resolvent_direct_many(fam2, zs, "odd")
    for k in range(len(zs)):
        assert rel(values[k], direct[k]) < 1e-9


def test_many_is_the_stack_of_single_points(rng):
    seq, _ = random_sequence(rng, 2, 2)
    fam = family_of(seq)
    zs = random_z_points(rng, 6) + [complex(x, 0.01) for x in (0.2, 0.9)]
    for parity in ("even", "odd"):
        direct = resolvent_direct_many(fam, zs, parity)
        second = resolvent_factorized_many(fam, zs, parity, "second")
        first = resolvent_factorized_many(fam, zs, parity, "first")
        assert direct.shape == second.shape == first.shape == (len(zs), 4, 4)
        # each point of the stack is the stack of that point alone
        for k, z in enumerate(zs):
            assert np.array_equal(direct[k], resolvent_direct_many(fam, [z], parity)[0])
            assert np.array_equal(
                second[k], resolvent_factorized_many(fam, [z], parity, "second")[0])
            assert np.array_equal(
                first[k], resolvent_factorized_many(fam, [z], parity, "first")[0])
        # the printed product is the left-to-right product of the factor list
        assert np.array_equal(
            second, product(resolvent_factors(fam, zs, parity, "second")))
        assert np.array_equal(first, product(resolvent_factors(fam, zs, parity, "first")))


def test_many_raises_at_the_first_failing_point(leb5):
    fam = leb5
    with pytest.raises(PoleAtZ, match=r"z = \(1\+0j\)"):
        resolvent_factorized_many(fam, [2.0, 1.0, 0.0], "even", "second")
    with pytest.raises(PoleAtZ, match=r"z = 0j"):
        resolvent_factorized_many(fam, [2.0, 0.0, 1.0], "even", "second")
