from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy

from thmm import (
    DiscreteMeasure,
    IllConditioned,
    InconsistentLengths,
    InvalidMomentSequence,
    MomentSequence,
    NonPositiveParameter,
    RouteMismatch,
    SingularPivot,
    WrongMatrixSize,
    build_family,
    build_hankels,
    classify,
    compute_first,
    compute_second,
    product_identities,
    recover_moments,
    scalar_determinant_params,
)
from thmm import dsm as dsm_module
from thmm import reporting
from thmm._linalg import min_eigenvalue, rel_residuals, scaled_cond
from thmm.io import read_moment_file, read_parameter_file
from thmm.errors import ThmmError

from conftest import (at_parity, family_of, lebesgue, limit_errors, random_pd_weight,
                      random_sequence, rel, spy_lapack)


@pytest.fixture(scope="module")
def leb3():
    seq = lebesgue(3)
    fam = family_of(seq)
    return seq, fam, compute_second(fam)


def test_second_desk_values(leb3):
    _, _, dsm = leb3
    assert abs(dsm.mhat[0][0, 0] - 2.0) < 1e-12
    assert abs(dsm.mhat[1][0, 0] - 4.0) < 1e-12
    assert abs(dsm.lhat_from_zero[0][0, 0] - 1.5) < 1e-12
    assert abs(dsm.rhat[1][0, 0] - 2.5) < 1e-12
    assert abs(dsm.s0[0, 0] - 1.0) < 1e-15
    # that_1 is the top-left entry of K1[1]^{-1}
    assert abs(dsm.that[1][0, 0] - 6.0) < 1e-11


def test_mhat0_is_inverse_of_k10(rng):
    seq, _ = random_sequence(rng, 2, 2)
    dsm = compute_second(family_of(seq))
    k10 = seq.b * seq.s[0] - seq.s[1]
    assert rel(dsm.mhat[0], np.linalg.inv(k10)) < 1e-12


def test_telescoping_exact(rng):
    for q, n in ((1, 3), (2, 2), (3, 2)):
        seq, _ = random_sequence(rng, q, n)
        dsm = compute_second(family_of(seq))
        for j in range(1, len(dsm.mhat)):
            assert rel(dsm.mhat[j], dsm.that[j] - dsm.that[j - 1]) < 1e-12
        for j in range(len(dsm.lhat_from_zero)):
            assert rel(dsm.lhat_from_zero[j], dsm.rhat[j + 1] - dsm.rhat[j]) < 1e-12


def test_positivity(rng):
    for q, n in ((2, 2), (3, 2)):
        seq, _ = random_sequence(rng, q, n)
        fam = family_of(seq)
        dsm, first = compute_second(fam), compute_first(fam)
        for x in list(dsm.mhat) + list(dsm.lhat) + list(first.M) + list(first.L):
            assert min_eigenvalue(x) > 0.0


def test_exact_rational_oracle_q1():
    # Independent exact-arithmetic evaluation of the defining quadratic
    # forms for q = 1 Lebesgue data, via sympy rationals.
    m = 5
    s = [sympy.Rational(1, j + 1) for j in range(m + 1)]
    b = sympy.Integer(1)

    def k1(j):
        return sympy.Matrix(j + 1, j + 1, lambda l, k: b * s[l + k] - s[l + k + 1])

    def h2(j):
        return sympy.Matrix(j + 1, j + 1, lambda l, k: s[l + k + 1] - s[l + k + 2])

    that = [k1(j).inv()[0, 0] for j in range(3)]
    mhat = [that[0]] + [that[j] - that[j - 1] for j in (1, 2)]
    # u2_j + a v s0 at a = 0 stacks (-(a+b)s0 + s1; -shat_0; ...)
    def qf(j):
        col = sympy.Matrix([-s[0] + s[1]] + [-(s[i + 1] - s[i + 2]) for i in range(j)])
        return (col.T * h2(j).inv() * col)[0, 0]

    lhat = [qf(0), qf(1) - qf(0)]
    assert mhat == [2, 4, 6]
    assert lhat == [sympy.Rational(3, 2), sympy.Rational(5, 6)]

    seq = lebesgue(m)
    dsm = compute_second(family_of(seq))
    for j, exact in enumerate(mhat):
        assert abs(dsm.mhat[j][0, 0] - float(exact)) < 1e-10
    for j, exact in enumerate(lhat):
        assert abs(dsm.lhat_from_zero[j][0, 0] - float(exact)) < 1e-10


CLOSED_FORM_DRAWS = 6   # weights W per q

# Beta(alpha, beta) laws on [0, 1] times a weight W: s_j = c_j W with
# c_j = prod_{i<j} (alpha+i)/(alpha+beta+i), and then mhat_j = mhat(j) W^{-1}
# and lhat_j = lhat(j) W exactly, for the scalar closed forms below
# (alpha, beta, mhat(j), lhat(j)); checked in rational arithmetic to j = 8.
BETA_LAWS = {
    "arcsine": (Fraction(1, 2), Fraction(1, 2), lambda j: 2.0, lambda j: 2.0),
    "lebesgue": (Fraction(1), Fraction(1), lambda j: 2 * j + 2.0,
                 lambda j: (2 * j + 3) / ((j + 1) * (j + 2))),
    "beta(1,2)": (Fraction(1), Fraction(2), lambda j: (2 * j + 3) / 2,
                  lambda j: 4 * (j + 2) / ((j + 1) * (j + 3))),
    "beta(2,1)": (Fraction(2), Fraction(1), lambda j: (j + 1) * (j + 2) * (2 * j + 3) / 2,
                  lambda j: 4 / ((j + 1) * (j + 2) * (j + 3))),
    "beta(1/2,3/2)": (Fraction(1, 2), Fraction(3, 2),
                      lambda j: (2 * j + 2) ** 2 / ((2 * j + 1) * (2 * j + 3)),
                      lambda j: (2 * j + 3) ** 2 / ((j + 1) * (j + 2))),
    "beta(3/2,3/2)": (Fraction(3, 2), Fraction(3, 2), lambda j: (j + 1) * (j + 2),
                      lambda j: 4 / ((j + 1) * (j + 3))),
}


def closed_form_weights(q):
    """The positive definite weights W of the closed-form table for one q."""
    rng = np.random.default_rng(1000 + q)
    return [random_pd_weight(rng, q) for _ in range(CLOSED_FORM_DRAWS)]


def closed_form_sequence(w, n, law="lebesgue"):
    """s_0 .. s_{2n+1} of the law times W on [0, 1], each s_j = (W num_j) / den_j for c_j exact."""
    alpha, beta = BETA_LAWS[law][:2]
    c = [Fraction(1)]
    for i in range(2 * n + 1):
        c.append(c[-1] * (alpha + i) / (alpha + beta + i))
    return MomentSequence(0.0, 1.0, tuple(w * x.numerator / x.denominator for x in c))


def closed_form_error(w, n, law="lebesgue"):
    """Forward error of the parameter chains of the law times W on [0, 1], m = 2n + 1.

    Covers mhat and lhat of the second-type chain, and for Lebesgue also
    the first-type chain, M_j = (2j+1) W^{-1} and L_j = 2/(j+1) W.
    Returns the largest ||x - exact||_F / ||exact||_F over the chains, or
    None where the chain is refused as analyze refuses it: a classification
    other than PositiveDefinite, or a raised ThmmError.
    """
    seq = closed_form_sequence(w, n, law)
    try:
        hank = build_hankels(seq)
        if not classify(hank).is_positive_definite:
            return None
        fam = build_family(hank)
        dsm = compute_second(fam)
    except ThmmError:
        return None
    _, _, mhat, lhat = BETA_LAWS[law]
    w_inv = np.linalg.inv(w)
    exact = [(x, mhat(j) * w_inv) for j, x in enumerate(dsm.mhat)]
    exact += [(x, lhat(j) * w) for j, x in enumerate(dsm.lhat_from_zero)]
    assert len(exact) == 2 * n + 1
    if law == "lebesgue":
        first = compute_first(fam)
        exact += [(x, (2 * j + 1) * w_inv) for j, x in enumerate(first.M)]
        exact += [(x, 2.0 / (j + 1) * w) for j, x in enumerate(first.L)]
    return max(np.linalg.norm(x - y) / np.linalg.norm(y) for x, y in exact)


def input_error_estimate(seq, n):
    """eps * scaled_cond of the largest K1 and H2 members of m = 2n + 1, the refusal rule's estimate."""
    hank = build_hankels(seq)
    conds = (scaled_cond(hank.member("K1", n)), scaled_cond(hank.member("H2", n - 1)))
    return np.finfo(float).eps * max(conds)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_closed_form_parameters_within_route_rtol(q):
    # both routes read the same Hankel factors, so their agreement does not
    # certify accuracy; the exact parameters do.  Lebesgue stays within
    # ROUTE_RTOL.  Some Beta(2, 1) inputs at q = 3, 4 are conditioned worse
    # than ROUTE_RTOL allows (eps * scaled_cond up to 2.1e-10 at n = 3), and
    # each error stays within 1.3 times that estimate, so the other laws may
    # also reach twice it.
    for law in BETA_LAWS:
        for w in closed_form_weights(q):
            for n in (1, 2, 3):
                err = closed_form_error(w, n, law)
                bound = dsm_module.ROUTE_RTOL
                if law != "lebesgue":
                    bound = max(bound, 2 * input_error_estimate(closed_form_sequence(w, n, law), n))
                assert err is not None and err <= bound, (law, n, err, bound)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_closed_form_past_the_ceiling_is_refused_or_right(q):
    # past n = 3 the digits run out; a chain that is returned is still right
    for law in BETA_LAWS:
        for w in closed_form_weights(q):
            for n in (4, 5, 6, 7):
                err = closed_form_error(w, n, law)
                assert err is None or err <= dsm_module.ACCURACY_RTOL, (law, n, err)


def test_ill_conditioned_member_is_refused_before_the_routes_run(monkeypatch):
    # q = 1, n = 6: eps * scaled cond(K1[6]) is 1.07e-8, and the chain is up to
    # 6e-8 off whether or not the routes agree
    seq = MomentSequence(0.0, 1.0, tuple(np.array([[1.0 / (j + 1)]]) for j in range(14)))
    monkeypatch.setattr(reporting, "rel_residuals", lambda x, y: np.zeros(len(x)))
    with pytest.raises(IllConditioned) as err:
        compute_second(family_of(seq))
    assert (err.value.family, err.value.index) == ("K1", 6)
    assert str(err.value).startswith("K1[6] scaled to unit diagonal has cond ~ 4.8e+07: "
                                     "about 8 digits lost, accuracy 1e-08 unattainable")


@pytest.mark.parametrize("b", [300.0, 1000.0])
def test_badly_scaled_interval_keeps_its_digits(b):
    # Lebesgue on [0, b], m = 5: cond(K1[2]) is 3.2e9 at b = 300 and 4e11 at
    # b = 1000, but scaled to unit diagonal it is 151, and mhat_j = (2j+2)/b^2
    seq = MomentSequence(0.0, b, tuple(np.array([[b ** (j + 1) / (j + 1)]]) for j in range(6)))
    fam = family_of(seq)
    assert np.finfo(float).eps * np.linalg.cond(fam.hankels.K1[2]) > dsm_module.ACCURACY_RTOL
    second = compute_second(fam)
    for j, x in enumerate(second.mhat):
        assert abs(x[0, 0] / ((2 * j + 2) / b ** 2) - 1.0) < 1e-12


def test_route_agreement_ensemble(rng):
    for q, n in ((1, 3), (2, 3), (3, 2)):
        seq, _ = random_sequence(rng, q, n)
        compute_second(family_of(seq))  # raises RouteMismatch above 1e-10


def _route_error(monkeypatch, run, failing):
    """The RouteMismatch of run() when the rows failing of its one route-residual call read 1.0.

    A negative row counts from the last one.
    """
    def residuals(x, y):
        out = rel_residuals(x, y)
        out[list(failing)] = 1.0
        return out

    monkeypatch.setattr(reporting, "rel_residuals", residuals)
    with pytest.raises(RouteMismatch) as err:
        run()
    return err.value


def test_route_mismatch_names_the_first_failing_row(monkeypatch):
    # an early and a late row fail; the error names the early one
    fam = family_of(lebesgue(5))
    err = _route_error(monkeypatch, lambda: compute_second(fam), (1, -1))
    assert (err.what, err.where, err.residual) == ("mhat", "j=1", 1.0)


def test_route_check_is_one_stacked_residual_call(monkeypatch):
    # the four route checks of a chain share one rel_residuals call
    fam = family_of(lebesgue(5))
    calls = []
    monkeypatch.setattr(reporting, "rel_residuals",
                        lambda x, y: calls.append(len(x)) or rel_residuals(x, y))
    second = compute_second(fam)
    rows = len(second.mhat) + len(second.lhat_from_zero) + len(second.rhat) + len(second.that)
    assert calls == [rows]


def test_first_desk_values():
    first = compute_first(family_of(lebesgue(3)))
    assert abs(first.M[0][0, 0] - 1.0) < 1e-14
    assert abs(first.M[1][0, 0] - 3.0) < 1e-12
    assert abs(first.L[0][0, 0] - 2.0) < 1e-12


def test_first_m0_is_s0_inverse(rng):
    seq, _ = random_sequence(rng, 3, 1)
    first = compute_first(family_of(seq))
    assert rel(first.M[0], np.linalg.inv(seq.s[0])) < 1e-12


def test_product_identities_desk(leb3):
    seq, fam, dsm = leb3
    report = product_identities(fam, dsm, compute_first(fam))
    # g1_alternating_product at j=1: G1[1](0) = -mhat_0^{-1} lhat_0^{-1} = -1/3
    assert report["g1_alternating_product"] < 1e-12
    assert report["q2_alternating_product"] < 1e-12
    assert report["khat1_from_params"] < 1e-12
    assert report["hhat2_from_params"] < 1e-12
    assert report["mhat_from_schur"] < 1e-12
    assert report["lhat_from_schur"] < 1e-12
    assert report["p2_sum_through_current"] < 1e-12


def test_product_identities_values(leb3):
    seq, fam, dsm = leb3
    from thmm import eval_poly

    g11 = eval_poly(fam.g1[1], 0.0)[0, 0]
    assert abs(g11 - (-1.0 / 3.0)) < 1e-13
    q21 = eval_poly(fam.q2[1], 0.0)[0, 0]
    prod = -1.0 / (dsm.mhat[0][0, 0] * dsm.lhat_from_zero[0][0, 0] * dsm.mhat[1][0, 0])
    assert abs(q21 - prod) < 1e-13
    assert abs(q21 - (-1.0 / 12.0)) < 1e-13
    # khat1[0] = mhat_0^{-1}
    assert abs(fam.hankels.complements("K1")[0][0, 0] - 1.0 / dsm.mhat[0][0, 0]) < 1e-13


@pytest.mark.parametrize("moment, mhat", [
    (lambda k: sympy.Rational(1, k + 1), lambda j: sympy.Integer(2 * j + 2)),
    (lambda k: sympy.Rational(2, (k + 1) * (k + 2)), lambda j: sympy.Rational(2 * j + 3, 2)),
], ids=["lebesgue", "beta(1,2)"])
def test_p2_partial_sum_through_current_holds_exactly(moment, mhat):
    # q = 1 on [a, b] = [0, 1], in rational arithmetic.  At z = a = 0 the
    # shift resolvent R_j(a) is I, so P2[j](a) is the first entry of the
    # Schur row (-x_j, 1) of H2, x_j = H2[j-1]^{-1} (e_j; ..; e_{2j-1}), and
    # Q2[j](a) = -row . (head; -e_0; ..; -e_{j-1}), e_k = shat_k = s_{k+1} - s_{k+2}
    # and head = -(a+b) s_0 + s_1
    top = 6
    s = [moment(k) for k in range(2 * top + 3)]
    e = [s[k + 1] - s[k + 2] for k in range(2 * top + 1)]
    mh = [mhat(j) for j in range(top + 1)]
    # the closed forms are the increments of that_j = K1[j]^{-1}[0, 0]
    that = [sympy.Matrix(j + 1, j + 1, lambda l, k: s[l + k] - s[l + k + 1]).inv()[0, 0]
            for j in range(top + 1)]
    assert [that[0]] + [that[j] - that[j - 1] for j in range(1, top + 1)] == mh
    fam = family_of(MomentSequence(0.0, 1.0, tuple(np.array([[float(x)]]) for x in s[:8])))
    for j in range(top + 1):
        x = sympy.Matrix(j, j, lambda l, k: e[l + k]).LUsolve(sympy.Matrix(e[j:2 * j]))
        row = [-v for v in x] + [1]
        p2 = row[0]
        q2 = -sum(r * u for r, u in zip(row, [-s[0] + s[1]] + [-v for v in e[:j]]))
        assert p2 == q2 * sum(mh[:j + 1])          # p2_sum_through_current
        assert p2 != q2 * sum(mh[:j])              # p2_sum_through_previous fails
        if j < len(fam.p2):   # the same values as the package's P2[j](a) and Q2[j](a)
            assert abs(fam.at_a(fam.p2[j])[0, 0] - float(p2)) < 1e-12
            assert abs(fam.at_a(fam.q2[j])[0, 0] - float(q2)) < 1e-12


def test_product_identities_ensemble(rng):
    for q, n in ((2, 2), (3, 2)):
        seq, _ = random_sequence(rng, q, n)
        fam = family_of(seq)
        dsm = compute_second(fam)
        report = product_identities(fam, dsm, compute_first(fam))
        assert max(report.values()) < 1e-9


def test_recover_minimal():
    s1_expected = 1.0 * 1.0 - 0.5  # b s0 - mhat_0^{-1}
    seq = recover_moments(np.array([[1.0]]), [np.array([[2.0]])], [], 0.0, 1.0)
    assert seq.m == 1
    assert abs(seq.s[1][0, 0] - s1_expected) < 1e-15


def test_recover_lebesgue_round_trip(leb3):
    seq, _, dsm = leb3
    rec = recover_moments(seq.s[0], list(dsm.mhat), list(dsm.lhat_from_zero), 0.0, 1.0)
    assert rec.m == 3
    for x, y in zip(rec.s, seq.s):
        assert rel(x, y) < 1e-12


def test_recover_round_trip_q2(rng):
    seq, _ = random_sequence(rng, 2, 2)
    dsm = compute_second(family_of(seq))
    rec = recover_moments(seq.s[0], list(dsm.mhat), list(dsm.lhat_from_zero), seq.a, seq.b)
    assert rec.m == 5
    for x, y in zip(rec.s, seq.s):
        assert rel(x, y) < 1e-9
    assert classify(build_hankels(rec)).kind == "PositiveDefinite"


def test_recover_names_the_member_its_corner_cannot_factor():
    # hhat2_0 = 1e-24 is below the rounding of s_1 = 1 - 1e-12, so the rebuilt
    # H2[0] = s_1 - s_2 is 0, though every parameter passes its own test
    one = np.array([[1.0]])
    with pytest.raises(SingularPivot) as err:
        recover_moments(one, [1e12 * one, one], [one, one], 0.0, 1.0)
    assert (err.value.family, err.value.index) == ("H2", 0)


def test_recover_errors():
    with pytest.raises(NonPositiveParameter):
        recover_moments(np.array([[1.0]]), [np.array([[-2.0]])], [], 0.0, 1.0)
    with pytest.raises(NonPositiveParameter):
        recover_moments(np.array([[-1.0]]), [np.array([[2.0]])], [], 0.0, 1.0)
    with pytest.raises(InconsistentLengths):
        recover_moments(
            np.array([[1.0]]), [np.array([[2.0]])],
            [np.array([[1.0]]), np.array([[1.0]])], 0.0, 1.0,
        )


@pytest.mark.parametrize("kept", [0, 1])
def test_recover_refuses_surplus_mhat(kept):
    # three mhat drive at most two lhat: the third mhat would be dropped unread
    mhat = [np.array([[2.0]])] * 3
    with pytest.raises(InconsistentLengths, match="or one more; got 3 and"):
        recover_moments(np.array([[1.0]]), mhat, [np.array([[1.0]])] * kept, 0.0, 1.0)


def test_limit_check_scalar_algebra():
    # j = 0: b mhat_0 = b / (b s0 - s1) converges to 1/s0 = M_0
    seq = lebesgue(1)
    errs = {b: limit_errors(seq, b)[0][0] for b in (1e3, 1e4)}
    assert 8.0 <= errs[1e3] / errs[1e4] <= 12.0


def test_limit_check_ratio_and_q2(rng):
    seq, _ = random_sequence(rng, 2, 2)
    (m3, _), (m4, l4) = limit_errors(seq, 1e3), limit_errors(seq, 1e4)
    first = compute_first(family_of(seq))
    for j in range(2):
        assert 8.0 <= m3[j] / m4[j] <= 12.0
        assert m4[j] / np.linalg.norm(first.M[j]) <= 1e-2
        if j < len(l4):
            assert l4[j] / np.linalg.norm(first.L[j]) <= 1e-2


def test_scalar_determinant_desk():
    mt, lt = scalar_determinant_params(family_of(lebesgue(3)))
    assert abs(mt[0] - 2.0) < 1e-12
    assert abs(mt[1] - 4.0) < 1e-10
    assert abs(lt[0] - 1.5) < 1e-12


def test_scalar_determinant_d3_value():
    # D3 at x=0, j=1 for Lebesgue data is [[1/2, 1/6], [1, 0]], det -1/6,
    # so mtilde_1 = (1/36) / ((1/72)(1/2)) = 4.
    d3 = np.array([[0.5, 1.0 / 6.0], [1.0, 0.0]])
    det = np.linalg.det(d3)
    assert abs(det + 1.0 / 6.0) < 1e-15
    k11 = np.array([[0.5, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 12.0]])
    assert abs(det ** 2 / (np.linalg.det(k11) * 0.5) - 4.0) < 1e-12


def test_scalar_determinant_matches_matrix_route(rng):
    seq, _ = random_sequence(rng, 1, 3)
    fam = family_of(seq)
    mt, lt = scalar_determinant_params(fam)
    dsm = compute_second(fam)
    for j, v in enumerate(mt):
        assert abs(v - dsm.mhat[j][0, 0].real) <= 1e-8 * max(1.0, abs(v))
    for j, v in enumerate(lt):
        assert abs(v - dsm.lhat_from_zero[j][0, 0].real) <= 1e-8 * max(1.0, abs(v))


def test_scalar_determinant_wrong_size(rng):
    seq, _ = random_sequence(rng, 2, 1)
    with pytest.raises(WrongMatrixSize):
        scalar_determinant_params(family_of(seq))


def test_product_identities_inverts_each_schur_complement_at_most_once(monkeypatch):
    fam = family_of(read_moment_file(Path(__file__).parent / "golden" / "moments_q2.json"))
    dsm, first = compute_second(fam), compute_first(fam)
    kernel_calls = spy_lapack(monkeypatch)
    product_identities(fam, dsm, first)
    inverted = [ops[0] for name, ops in kernel_calls if name == "inv"]
    counts = {}
    for family in ("H1", "H2", "K1", "K2"):
        for j, c in enumerate(fam.hankels.complements(family)):
            counts[family, j] = sum(x.shape == c.shape and (x == c).all() for x in inverted)
    assert max(counts.values()) == 1, counts


def test_recover_refuses_an_infinite_endpoint():
    s0, mhat, lhat, a, b = read_parameter_file(Path(__file__).parent / "golden" / "params_q2.json")
    for a, b in ((-np.inf, b), (a, np.inf)):
        with pytest.raises(InvalidMomentSequence, match="need a finite interval"):
            recover_moments(s0, mhat, lhat, a, b)


@pytest.mark.parametrize("points, m, pivot", [
    ([0.25, 0.5, 1.0], 5, ("K1", 2)),
    ([0.0, 0.25, 0.5, 1.0], 6, ("H2", 2)),
])
def test_singular_largest_member_is_a_pivot_failure_not_ill_conditioning(points, m, pivot):
    seq = DiscreteMeasure(0.0, 1.0, points, [np.eye(1)] * len(points)).moments(m)
    with pytest.raises(SingularPivot) as err:
        compute_second(family_of(seq))
    assert (err.value.family, err.value.index) == pivot


def expected_rungs(seq, second):
    """The names of the rungs of a chain, written out from the order n = m // 2 and the parity of seq."""
    n = seq.m // 2
    x, y = ("mhat", "lhat") if second else ("M", "L")
    pairs = [f"{t}[{k}]" for k in range(n) for t in (x, y)]
    if second:
        return pairs + ([f"mhat[{n}]"] if seq.parity == "odd" else [])
    return pairs + [f"M[{n}]"] + ([f"L[{n}]"] if seq.parity == "odd" else [])


# the Lebesgue moments s_0..s_m read at each parity; m = 0 is even, and no cut is odd
RUNG_CASES = [(parity, m) for m in range(8) for parity in ("even", "odd") if m or parity == "even"]


@pytest.mark.parametrize("parity, m", RUNG_CASES, ids=[f"{p}-{m}" for p, m in RUNG_CASES])
@pytest.mark.parametrize("second", [True, False], ids=["DsmSecond", "DsmFirst"])
def test_rungs_interleave_the_chain_up_to_the_order_of_the_parity(m, parity, second):
    seq = at_parity(lebesgue(m), parity)
    chain = (compute_second if second else compute_first)(family_of(seq))
    own = ({"mhat": chain.mhat, "lhat": chain.lhat_from_zero} if second
           else {"M": chain.M, "L": chain.L})
    names = expected_rungs(seq, second)
    want = [own[name][int(k)] for name, k in (tag[:-1].split("[") for tag in names)]
    rungs = dsm_module.rungs(chain)
    # each rung is the chain's own matrix, in reading order
    assert len(rungs) == len(want) and all(got is mat for got, mat in zip(rungs, want))
