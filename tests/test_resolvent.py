import functools

import numpy as np
import pytest

from thmm import (
    InsufficientMoments,
    MomentSequence,
    PoleAtZ,
    aux_hat_even,
    aux_matrices,
    aux_product,
    aux_tilde_odd,
    bp_factor,
    bp_pair_check,
    build_family,
    compute_first,
    compute_second,
    resolvent_direct,
    resolvent_direct_many,
    resolvent_factorized,
    resolvent_factorized_many,
    resolvent_factors,
    resolvent_from_aux,
)

from conftest import lebesgue, random_sequence, random_z_points, rel


@pytest.fixture(scope="module")
def leb5():
    seq = lebesgue(5)
    fam = build_family(seq)
    return seq, fam, compute_second(fam), compute_first(fam)


def test_value_at_left_endpoint_both_parities(leb5):
    _, fam, _, _ = leb5
    for parity in ("even", "odd"):
        u = resolvent_direct(fam, 0.0, parity)
        assert rel(u.alpha, np.eye(1)) < 1e-13
        assert np.linalg.norm(u.gamma) < 1e-13
    u = resolvent_direct(fam, 0.0, "odd")
    assert rel(u.delta, np.eye(1)) < 1e-13


def test_direct_vs_factorized_lebesgue(leb5):
    _, fam, _, _ = leb5
    for parity in ("even", "odd"):
        for z in (-1.0, 2.5, 1.3 + 0.8j):
            d = resolvent_direct(fam, z, parity)
            s = resolvent_factorized(fam, z, parity, "second")
            f = resolvent_factorized(fam, z, parity, "first")
            assert rel(d.full, s.full) < 1e-10
            assert rel(d.full, f.full) < 1e-10


def test_route_vs_route_q2(rng):
    seq, _ = random_sequence(rng, 2, 2)
    fam = build_family(seq)
    z = 3.0 + 1.0j
    s = resolvent_factorized(fam, z, "odd", "second")
    f = resolvent_factorized(fam, z, "odd", "first")
    assert rel(s.full, f.full) < 1e-9


def test_route_equality_ensemble(rng):
    for q, n in ((1, 2), (2, 2), (3, 1)):
        seq, _ = random_sequence(rng, q, n)
        fam = build_family(seq)
        for parity in ("even", "odd"):
            for z in random_z_points(rng, 5):
                d = resolvent_direct(fam, z, parity)
                s = resolvent_factorized(fam, z, parity, "second")
                f = resolvent_factorized(fam, z, parity, "first")
                assert rel(d.full, s.full) < 1e-8
                assert rel(d.full, f.full) < 1e-8


def test_aux_at_left_endpoint_is_identity(leb5):
    _, fam, _, _ = leb5
    triple = aux_matrices(fam, 1, 0.0)
    eye = np.eye(2)
    for aux in (triple.tilde_even, triple.tilde_odd, triple.hat_even):
        assert rel(aux.value, eye) < 1e-14


def test_aux_shear_identity_asserted(leb5):
    _, fam, _, _ = leb5
    for z in (2.0, -0.7 + 1.1j):
        aux_matrices(fam, 1, z)


def test_first_odd_aux_is_first_bp_factor(leb5):
    _, fam, _, _ = leb5
    for z in (0.4, 2.0 - 1.0j):
        lhs = aux_tilde_odd(fam, 0, z).value
        rhs = bp_factor(fam, 1, z)
        assert rel(lhs, rhs) < 1e-13


def test_hat_even_zero_is_two_factor_product(leb5):
    _, fam, _, _ = leb5
    z = 2.0
    lhs = aux_hat_even(fam, 0, z).value
    rhs = bp_factor(fam, 0, z) @ bp_factor(fam, 2, z)
    assert rel(lhs, rhs) < 1e-12


def test_aux_products_both_kinds(leb5, rng):
    _, fam, _, _ = leb5
    for z in (2.0, 1j, -1.4 + 0.3j):
        aux_product(fam, 0, z, "hat-even")
        aux_product(fam, 2, z, "hat-even")
        aux_product(fam, 1, z, "tilde-odd")
        aux_product(fam, 3, z, "tilde-odd")
        aux_product(fam, 5, z, "tilde-odd")
    seq, _ = random_sequence(rng, 2, 2)
    fam2 = build_family(seq)
    for z in random_z_points(rng, 3):
        aux_product(fam2, 2, z, "hat-even")
        aux_product(fam2, 5, z, "tilde-odd")


def test_resolvent_from_aux_matches_direct(leb5, rng):
    _, fam, _, _ = leb5
    for parity in ("even", "odd"):
        for z in (-1.0, 2.5, 1.7 + 0.9j):
            d = resolvent_direct(fam, z, parity)
            r = resolvent_from_aux(fam, z, parity)
            assert rel(d.full, r.full) < 1e-10
    seq, _ = random_sequence(rng, 3, 2)
    fam2 = build_family(seq)
    for parity in ("even", "odd"):
        for z in random_z_points(rng, 3):
            d = resolvent_direct(fam2, z, parity)
            r = resolvent_from_aux(fam2, z, parity)
            assert rel(d.full, r.full) < 1e-9


def test_bp_factor_forms(leb5):
    _, fam, dsm, _ = leb5
    z = 1.7 - 0.4j
    d0 = bp_factor(fam, 0, z)
    expected = np.array([[1.0, z * 1.0], [0.0, 1.0]])
    assert rel(d0, expected) < 1e-15
    assert rel(bp_factor(fam, 0, 0.0), np.eye(2)) == 0.0
    for k in (1, 3, 5):
        assert rel(bp_factor(fam, k, 0.0), np.eye(2)) < 1e-15


def test_bp_factor_equals_split(leb5, rng):
    _, fam, dsm, _ = leb5
    for k in range(6):
        for z in (0.3, 2.0 - 1.0j, -3.0 + 0.5j):
            bp_pair_check(fam, dsm, k, z)
    seq, _ = random_sequence(rng, 2, 2)
    fam2 = build_family(seq)
    dsm2 = compute_second(fam2)
    for k in range(6):
        bp_pair_check(fam2, dsm2, k, 1.4 + 2.2j)


def test_bp_factor_unit_determinant(leb5):
    _, fam, _, _ = leb5
    for k in range(6):
        for z in (0.9, -2.0 + 3.0j):
            det = np.linalg.det(bp_factor(fam, k, z))
            assert abs(det - 1.0) < 1e-10


def test_factorized_pole_rejection(leb5):
    seq, fam, _, _ = leb5
    for z, parity, route in (
        (0.0, "even", "second"),
        (1.0, "even", "second"),
        (1.0, "odd", "second"),
        (0.0, "odd", "first"),
    ):
        with pytest.raises(PoleAtZ):
            resolvent_factorized(fam, z, parity, route)
    # the even first-type product has no scalar prefactor, so endpoints pass
    d = resolvent_direct(fam, 1.0, "even")
    f = resolvent_factorized(fam, 1.0, "even", "first")
    assert rel(d.full, f.full) < 1e-10


def test_even_second_n0_product_equals_direct(rng):
    # at n = 0 the second-type product is
    # diag(1/((b-z)(z-a)), 1) up((z-a) s_0) low(tail) diag((b-a)(z-a), (b-z)/(b-a))
    seqs = [lebesgue(0), lebesgue(1)]
    for q in (1, 2, 3):
        seq, _ = random_sequence(rng, q, 1, a=-0.5, b=1.5)
        seqs += [MomentSequence(seq.a, seq.b, seq.s[:1]), MomentSequence(seq.a, seq.b, seq.s[:2])]
    zs = random_z_points(rng, 4, a=-0.5, b=1.5) + [2.0, -1.0 + 0.5j]
    for seq in seqs:
        fam = build_family(seq)
        factors = resolvent_factors(fam, zs, "even", "second")
        assert len(factors) == 4
        direct = resolvent_direct_many(fam, zs, "even")
        product = resolvent_factorized_many(fam, zs, "even", "second")
        assert np.array_equal(product, functools.reduce(np.matmul, factors))
        for k, z in enumerate(zs):
            assert rel(product[k], direct[k]) < 1e-14
            assert np.array_equal(resolvent_factorized(fam, z, "even", "second").full, product[k])
        # the scalar prefactors have their poles at a and b
        for z in (seq.a, seq.b):
            with pytest.raises(PoleAtZ):
                resolvent_factorized(fam, z, "even", "second")


def test_odd_parity_needs_m_at_least_one():
    fam = build_family(lebesgue(0))
    with pytest.raises(InsufficientMoments):
        resolvent_direct(fam, 2.0, "odd")


def product(factors):
    return functools.reduce(np.matmul, factors)


def test_factor_chain_matches_direct(leb5, rng):
    _, fam, _, _ = leb5
    for parity in ("even", "odd"):
        for route in ("second", "first"):
            zs = [2.5, -1.3 + 0.4j]
            values = product(resolvent_factors(fam, zs, parity, route))
            for k, z in enumerate(zs):
                d = resolvent_direct(fam, z, parity)
                assert rel(values[k], d.full) < 1e-10
    seq, _ = random_sequence(rng, 2, 1)
    fam2 = build_family(seq)
    zs = random_z_points(rng, 3)
    values = product(resolvent_factors(fam2, zs, "odd", "first"))
    for k, z in enumerate(zs):
        assert rel(values[k], resolvent_direct(fam2, z, "odd").full) < 1e-9


def test_many_is_the_stack_of_single_points(rng):
    seq, _ = random_sequence(rng, 2, 2)
    fam = build_family(seq)
    zs = random_z_points(rng, 6) + [complex(x, 0.01) for x in (0.2, 0.9)]
    for parity in ("even", "odd"):
        direct = resolvent_direct_many(fam, zs, parity)
        second = resolvent_factorized_many(fam, zs, parity, "second")
        first = resolvent_factorized_many(fam, zs, parity, "first")
        assert direct.shape == second.shape == first.shape == (len(zs), 4, 4)
        for k, z in enumerate(zs):
            assert np.array_equal(direct[k], resolvent_direct(fam, z, parity).full)
            assert np.array_equal(
                second[k], resolvent_factorized(fam, z, parity, "second").full)
            assert np.array_equal(first[k], resolvent_factorized(fam, z, parity, "first").full)
        # the printed product is the left-to-right product of the factor list
        assert np.array_equal(
            second, product(resolvent_factors(fam, zs, parity, "second")))
        assert np.array_equal(first, product(resolvent_factors(fam, zs, parity, "first")))


def test_many_raises_at_the_first_failing_point(leb5):
    _, fam, _, _ = leb5
    with pytest.raises(PoleAtZ, match=r"z = \(1\+0j\)"):
        resolvent_factorized_many(fam, [2.0, 1.0, 0.0], "even", "second")
    with pytest.raises(PoleAtZ, match=r"z = 0j"):
        resolvent_factorized_many(fam, [2.0, 0.0, 1.0], "even", "second")
