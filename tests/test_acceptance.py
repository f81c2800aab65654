"""Acceptance suite: one test per criterion, one printed verdict line each.

The shared ensemble draws 50 random discrete-measure sequences with
q in {1,2,3}, n in {1,2,3}, n+2 atoms carrying random positive definite
weights on [0, 1], and 20 z points per sequence with |z| <= 10 staying
at least 0.1 away from [0, 1].
"""

import numpy as np
import pytest

from thmm import (
    build_hankels,
    classify,
    compute_first,
    compute_second,
    extremal_cf_many,
    extremal_quotient_many,
    product_identities,
    recover_moments,
    resolvent_direct_many,
    resolvent_factorized_many,
    scalar_determinant_params,
)
from thmm import dsm as dsm_module

from conftest import (at_parity, family_of, lebesgue, limit_errors, orthogonality_residual,
                      random_sequence, random_z_points, rel)


def _verdict(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


ENSEMBLE_SEED = 20260810


@pytest.fixture(scope="module")
def ensemble():
    rng = np.random.default_rng(ENSEMBLE_SEED)
    cases = []
    for _ in range(50):
        q = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        seq, measure = random_sequence(rng, q, n, atoms=n + 2)
        fam = family_of(seq)
        dsm = compute_second(fam)
        first = compute_first(fam)
        zs = random_z_points(rng, 20)
        cases.append((q, n, seq, measure, fam, dsm, first, zs))
    return cases


def test_criterion_1_factorization_equivalence(ensemble):
    worst = 0.0
    for q, n, seq, _, fam, dsm, first, zs in ensemble:
        for parity in ("even", "odd"):
            fam_p = family_of(at_parity(seq, parity))
            direct = resolvent_direct_many(fam_p, zs)
            second = resolvent_factorized_many(fam_p, zs, "second")
            first_v = resolvent_factorized_many(fam_p, zs, "first")
            for k in range(len(zs)):
                worst = max(worst, rel(direct[k], second[k]), rel(direct[k], first_v[k]))
    _verdict(1, worst <= 1e-8,
             f"direct vs second/first factorized routes, worst residual {worst:.3e} <= 1e-8")


def test_criterion_2_continued_fractions(ensemble):
    worst = 0.0
    for q, n, seq, _, fam, dsm, first, zs in ensemble:
        for parity in ("even", "odd"):
            fam_p = family_of(at_parity(seq, parity))
            for which in ("krein", "friedrichs"):
                quo = extremal_quotient_many(fam_p, zs[:10], which)
                cf = extremal_cf_many(fam_p, zs[:10], which)
                worst = max(worst, *(rel(cf[k], quo[k]) for k in range(len(cf))))
    desk = extremal_cf_many(family_of(lebesgue(2)), [-1.0], "friedrichs")[0, 0, 0]
    desk_err = abs(desk - 11.0 / 16.0)
    ok = worst <= 1e-8 and desk_err <= 1e-12
    _verdict(2, ok,
             f"cf vs quotient worst {worst:.3e} <= 1e-8; "
             f"sF(-1) = 11/16 within {desk_err:.3e} <= 1e-12")


def test_criterion_3_dsm_cross_route(ensemble):
    # compute_second itself enforces ROUTE_RTOL agreement and raises
    # otherwise; recompute here so the criterion is exercised explicitly.
    assert dsm_module.ROUTE_RTOL == 1e-10
    for q, n, seq, _, fam, _, _, _ in ensemble:
        compute_second(fam)
    dsm = compute_second(family_of(lebesgue(3)))
    desk = max(
        abs(dsm.mhat[0][0, 0] - 2.0),
        abs(dsm.mhat[1][0, 0] - 4.0),
        abs(dsm.lhat_from_zero[0][0, 0] - 1.5),
        abs(dsm.rhat[1][0, 0] - 2.5),
    )
    _verdict(3, desk <= 1e-12,
             f"both routes agree <= 1e-10 on 50 sequences; desk values "
             f"mhat=(2,4), lhat_0=3/2, rhat_1=5/2 within {desk:.3e} <= 1e-12")


def test_criterion_4_product_identities(ensemble):
    worst = p2 = 0.0
    for q, n, seq, _, fam, dsm, first, _ in ensemble:
        report = product_identities(fam, dsm, first)
        worst = max(worst, *report.values())
        p2 = max(p2, report["p2_sum_through_current"])
    fam = family_of(lebesgue(3))
    dsm = compute_second(fam)
    desk = abs(fam.hankels.complements("K1")[0][0, 0] - 1.0 / dsm.mhat[0][0, 0])
    ok = worst <= 1e-9 and p2 <= 1e-9 and desk <= 1e-12
    _verdict(4, ok,
             f"product identities worst {worst:.3e} <= 1e-9; khat1_0 = mhat_0^-1 "
             f"within {desk:.3e} <= 1e-12; P2 partial sum through the current index "
             f"within {p2:.3e} <= 1e-9")


def test_criterion_5_recovery_round_trip(ensemble):
    worst = 0.0
    all_pd = True
    for q, n, seq, _, fam, dsm, _, _ in ensemble:
        rec = recover_moments(seq.s[0], list(dsm.mhat), list(dsm.lhat_from_zero),
                              seq.a, seq.b)
        for x, y in zip(rec.s, seq.s):
            worst = max(worst, rel(x, y))
        all_pd = all_pd and classify(build_hankels(rec)).is_positive_definite
    _verdict(5, worst <= 1e-9 and all_pd,
             f"moments -> (s0, mhat, lhat) -> moments worst entry residual "
             f"{worst:.3e} <= 1e-9; all recovered sequences PositiveDefinite")


def test_criterion_6_orthogonality(ensemble):
    worst = 0.0
    for q, n, seq, measure, fam, _, _, _ in ensemble:
        worst = max(worst, orthogonality_residual(fam, measure))
    _verdict(6, worst <= 1e-9,
             f"quadrature of P1[j] against P1[k] vs delta_jk hhat1[j], "
             f"worst residual {worst:.3e} <= 1e-9")


def test_criterion_8_stieltjes_limit(ensemble):
    ratios = []
    for q, n, seq, _, _, _, _, _ in ensemble[:6]:
        (m3, l3), (m4, l4) = limit_errors(seq, 1e3), limit_errors(seq, 1e4)
        ratios += [x / y for x, y in zip(m3 + l3, m4 + l4)]
    ok = all(8.0 <= r <= 12.0 for r in ratios)
    _verdict(8, ok,
             f"b mhat_j -> M_j and lhat_j / b -> L_j error ratios between "
             f"b=1e3 and b=1e4 all in [8, 12] (got {min(ratios):.2f}..{max(ratios):.2f})")


def test_criterion_9_scalar_determinant_route(ensemble):
    worst = 0.0
    for q, n, seq, _, _, dsm, _, _ in ensemble:
        if q != 1:
            continue
        mt, lt, _ = scalar_determinant_params(seq)
        for j, v in enumerate(mt):
            worst = max(worst, abs(v - dsm.mhat[j][0, 0].real) / max(1.0, abs(v)))
        for j, v in enumerate(lt):
            worst = max(worst, abs(v - dsm.lhat_from_zero[j][0, 0].real) / max(1.0, abs(v)))
    mt, _, _ = scalar_determinant_params(lebesgue(3))
    desk = abs(mt[1] - 4.0)
    ok = worst <= 1e-8 and desk <= 1e-10
    _verdict(9, ok,
             f"determinant route vs matrix route worst {worst:.3e} <= 1e-8; "
             f"mtilde_1 = 4 within {desk:.3e} <= 1e-10")
