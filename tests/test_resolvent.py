import functools

import numpy as np
import pytest

from thmm import (
    MomentSequence,
    PoleAtZ,
    resolvent_direct_many,
    resolvent_factorized_many,
    resolvent_factors,
)

from conftest import at_parity, family_of, lebesgue, random_sequence, random_z_points, rel


@pytest.fixture(scope="module")
def leb5():
    """{parity: family} of the Lebesgue moments s_0..s_5 read at each parity (m = 4 at even)."""
    return {parity: family_of(at_parity(lebesgue(5), parity)) for parity in ("even", "odd")}


def test_value_at_left_endpoint_both_parities(leb5):
    for parity in ("even", "odd"):
        (u,) = resolvent_direct_many(leb5[parity], [0.0])
        assert rel(u[:1, :1], np.eye(1)) < 1e-13   # alpha
        assert np.linalg.norm(u[1:, :1]) < 1e-13   # gamma
    (u,) = resolvent_direct_many(leb5["odd"], [0.0])
    assert rel(u[1:, 1:], np.eye(1)) < 1e-13       # delta


def test_direct_vs_factorized_lebesgue(leb5):
    zs = [-1.0, 2.5, 1.3 + 0.8j]
    for parity in ("even", "odd"):
        fam = leb5[parity]
        d = resolvent_direct_many(fam, zs)
        s = resolvent_factorized_many(fam, zs, "second")
        f = resolvent_factorized_many(fam, zs, "first")
        for k in range(len(zs)):
            assert rel(d[k], s[k]) < 1e-10
            assert rel(d[k], f[k]) < 1e-10


def test_route_vs_route_q2(rng):
    seq, _ = random_sequence(rng, 2, 2)
    fam = family_of(seq)
    z = 3.0 + 1.0j
    (s,) = resolvent_factorized_many(fam, [z], "second")
    (f,) = resolvent_factorized_many(fam, [z], "first")
    assert rel(s, f) < 1e-9


def test_route_equality_ensemble(rng):
    for q, n in ((1, 2), (2, 2), (3, 1)):
        seq, _ = random_sequence(rng, q, n)
        for parity in ("even", "odd"):
            fam = family_of(at_parity(seq, parity))
            zs = random_z_points(rng, 5)
            d = resolvent_direct_many(fam, zs)
            s = resolvent_factorized_many(fam, zs, "second")
            f = resolvent_factorized_many(fam, zs, "first")
            for k in range(len(zs)):
                assert rel(d[k], s[k]) < 1e-8
                assert rel(d[k], f[k]) < 1e-8


def test_factorized_pole_rejection(leb5):
    for z, parity, route in (
        (0.0, "even", "second"),
        (1.0, "even", "second"),
        (1.0, "odd", "second"),
        (0.0, "odd", "first"),
    ):
        with pytest.raises(PoleAtZ):
            resolvent_factorized_many(leb5[parity], [z], route)
    # the even first-type product has no scalar prefactor, so endpoints pass
    d = resolvent_direct_many(leb5["even"], [1.0])
    f = resolvent_factorized_many(leb5["even"], [1.0], "first")
    assert rel(d, f) < 1e-10


def test_even_second_n0_product_equals_direct(rng):
    # at n = 0 (m = 0: s_0 alone) the second-type product is
    # diag(1/((b-z)(z-a)), 1) up((z-a) s_0) low(tail) diag((b-a)(z-a), (b-z)/(b-a))
    seqs = [lebesgue(0)]
    for q in (1, 2, 3):
        seq, _ = random_sequence(rng, q, 1, a=-0.5, b=1.5)
        seqs.append(MomentSequence(seq.a, seq.b, seq.s[:1]))
    zs = random_z_points(rng, 4, a=-0.5, b=1.5) + [2.0, -1.0 + 0.5j]
    for seq in seqs:
        fam = family_of(seq)
        factors = resolvent_factors(fam, zs, "second")
        assert len(factors) == 4
        direct = resolvent_direct_many(fam, zs)
        product = resolvent_factorized_many(fam, zs, "second")
        assert np.array_equal(product, functools.reduce(np.matmul, factors))
        for k, z in enumerate(zs):
            assert rel(product[k], direct[k]) < 1e-14
            assert np.array_equal(resolvent_factorized_many(fam, [z], "second")[0], product[k])
        # the scalar prefactors have their poles at a and b
        for z in (seq.a, seq.b):
            with pytest.raises(PoleAtZ):
                resolvent_factorized_many(fam, [z], "second")


def product(factors):
    return functools.reduce(np.matmul, factors)


def test_factor_chain_matches_direct(leb5, rng):
    for parity in ("even", "odd"):
        for route in ("second", "first"):
            zs = [2.5, -1.3 + 0.4j]
            values = product(resolvent_factors(leb5[parity], zs, route))
            direct = resolvent_direct_many(leb5[parity], zs)
            for k in range(len(zs)):
                assert rel(values[k], direct[k]) < 1e-10
    seq, _ = random_sequence(rng, 2, 1)
    fam2 = family_of(seq)
    zs = random_z_points(rng, 3)
    values = product(resolvent_factors(fam2, zs, "first"))
    direct = resolvent_direct_many(fam2, zs)
    for k in range(len(zs)):
        assert rel(values[k], direct[k]) < 1e-9


def test_many_is_the_stack_of_single_points(rng):
    seq, _ = random_sequence(rng, 2, 2)
    zs = random_z_points(rng, 6) + [complex(x, 0.01) for x in (0.2, 0.9)]
    for parity in ("even", "odd"):
        fam = family_of(at_parity(seq, parity))
        direct = resolvent_direct_many(fam, zs)
        second = resolvent_factorized_many(fam, zs, "second")
        first = resolvent_factorized_many(fam, zs, "first")
        assert direct.shape == second.shape == first.shape == (len(zs), 4, 4)
        # each point of the stack is the stack of that point alone
        for k, z in enumerate(zs):
            assert np.array_equal(direct[k], resolvent_direct_many(fam, [z])[0])
            assert np.array_equal(second[k], resolvent_factorized_many(fam, [z], "second")[0])
            assert np.array_equal(first[k], resolvent_factorized_many(fam, [z], "first")[0])
        # the printed product is the left-to-right product of the factor list
        assert np.array_equal(second, product(resolvent_factors(fam, zs, "second")))
        assert np.array_equal(first, product(resolvent_factors(fam, zs, "first")))


def test_many_raises_at_the_first_failing_point(leb5):
    fam = leb5["even"]
    with pytest.raises(PoleAtZ, match=r"z = \(1\+0j\)"):
        resolvent_factorized_many(fam, [2.0, 1.0, 0.0], "second")
    with pytest.raises(PoleAtZ, match=r"z = 0j"):
        resolvent_factorized_many(fam, [2.0, 0.0, 1.0], "second")
