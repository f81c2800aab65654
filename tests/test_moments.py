from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thmm import (
    DiscreteMeasure,
    SingularPivot,
    InsufficientMoments,
    InvalidMomentSequence,
    EmptyMeasure,
    PointOutsideInterval,
    MomentSequence,
    build_hankels,
    classify,
)
from thmm import build_family, compute_first, compute_second, moments as moments_module
from thmm._linalg import cholesky_pd, hermitize, solve_factored, solve_pd
from thmm.moments import hankel_entries, hankel_from_entries

from conftest import lebesgue, random_measure, rel


def test_hankel_members_match_entry_definitions(rng):
    q, n = 2, 2
    from conftest import random_sequence

    seq, _ = random_sequence(rng, q, n)
    hank = build_hankels(seq)
    a, b, s = seq.a, seq.b, seq.s
    shat = [-a * b * s[k] + (a + b) * s[k + 1] - s[k + 2] for k in range(seq.m - 1)]
    for j in range(len(hank.H1)):
        for l in range(j + 1):
            for k in range(j + 1):
                blk = hank.H1[j][l * q:(l + 1) * q, k * q:(k + 1) * q]
                assert np.array_equal(blk, seq.s[l + k])
    for j in range(len(hank.K1)):
        for l in range(j + 1):
            for k in range(j + 1):
                blk = hank.K1[j][l * q:(l + 1) * q, k * q:(k + 1) * q]
                assert np.allclose(blk, b * seq.s[l + k] - seq.s[l + k + 1], rtol=0, atol=0)
                blk2 = hank.K2[j][l * q:(l + 1) * q, k * q:(k + 1) * q]
                assert np.allclose(blk2, -a * seq.s[l + k] + seq.s[l + k + 1], rtol=0, atol=0)
    for j in range(len(hank.H2)):
        for l in range(j + 1):
            for k in range(j + 1):
                blk = hank.H2[j][l * q:(l + 1) * q, k * q:(k + 1) * q]
                assert np.array_equal(blk, shat[l + k])


def test_lebesgue_k11_exact():
    hank = build_hankels(lebesgue(3))
    expected = np.array([[Fraction(1, 2), Fraction(1, 6)], [Fraction(1, 6), Fraction(1, 12)]],
                        dtype=float)
    assert rel(hank.member("K1", 1), expected) < 1e-15


def test_lebesgue_h20_is_shat0():
    hank = build_hankels(lebesgue(2))
    assert abs(hank.member("H2", 0)[0, 0] - 1.0 / 6.0) < 1e-15


def test_m0_has_only_h1():
    seq = MomentSequence(0.0, 1.0, (np.array([[1.0]]),))
    hank = build_hankels(seq)
    assert len(hank.H1) == 1 and hank.member("H1", 0)[0, 0] == 1.0
    assert len(hank.K1) == 0 and len(hank.H2) == 0
    with pytest.raises(InsufficientMoments):
        hank.member("K1", 0)
    with pytest.raises(InsufficientMoments):
        hank.member("H2", 0)


def test_hermitian_validation_and_interval():
    with pytest.raises(InvalidMomentSequence):
        MomentSequence(0.0, 1.0, (np.array([[0.0, 1.0], [0.0, 0.0]]),))
    with pytest.raises(InvalidMomentSequence):
        MomentSequence(1.0, 0.0, (np.array([[1.0]]),))
    with pytest.raises(InvalidMomentSequence):
        MomentSequence(0.0, 1.0, ())
    with pytest.raises(InvalidMomentSequence, match="interval"):
        MomentSequence(-np.inf, 1.0, (np.array([[1.0]]),))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_entries_rejected(bad):
    s1 = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
    s1[1, 0] = bad
    with pytest.raises(InvalidMomentSequence, match=r"s_1\[1\]\[0\] is not finite"):
        MomentSequence(0.0, 1.0, (np.eye(2), s1))
    with pytest.raises(InvalidMomentSequence, match=r"weight_1\[1\]\[0\] is not finite"):
        DiscreteMeasure(0.0, 1.0, (0.25, 0.75), (np.eye(2), s1))
    with pytest.raises(InvalidMomentSequence, match="atom at .* is not finite"):
        DiscreteMeasure(0.0, 1.0, (0.25, bad), (np.eye(2), np.eye(2)))


def test_schur_base_cases_and_k11():
    hank = build_hankels(lebesgue(3))
    assert abs(hank.complements("H1")[0][0, 0] - 1.0) < 1e-15
    assert abs(hank.complements("K1")[0][0, 0] - 0.5) < 1e-15
    assert abs(hank.complements("K2")[0][0, 0] - 0.5) < 1e-15
    # 1/12 - (1/6)^2 * 2 = 1/36
    assert abs(hank.complements("K1")[1][0, 0] - 1.0 / 36.0) < 1e-15
    # one kept sequence per family
    assert hank.complements("K1") is hank.complements("K1")


def test_schur_hhat2_base_is_shat0():
    hank = build_hankels(lebesgue(2))
    assert abs(hank.complements("H2")[0][0, 0] - 1.0 / 6.0) < 1e-15


def test_schur_determinant_telescoping(rng):
    from conftest import random_sequence

    for q, n in ((1, 3), (2, 2), (3, 2)):
        seq, _ = random_sequence(rng, q, n)
        hank = build_hankels(seq)
        for j in range(len(hank.K1)):
            det_parent = np.linalg.det(hank.K1[j])
            det_prod = np.prod([np.linalg.det(x) for x in hank.complements("K1")[:j + 1]])
            assert abs(det_parent - det_prod) <= 1e-9 * abs(det_parent)
        for j in range(len(hank.H1)):
            det_parent = np.linalg.det(hank.H1[j])
            det_prod = np.prod([np.linalg.det(x) for x in hank.complements("H1")[:j + 1]])
            assert abs(det_parent - det_prod) <= 1e-9 * abs(det_parent)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_block_pd_splitting_both_directions(seed):
    # A = [[A11, A12], [A12^*, A22]] > 0  iff  A11 > 0 and the Schur
    # complement of A11 is positive definite.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    g = rng.normal(size=(2 * k, 2 * k)) + 1j * rng.normal(size=(2 * k, 2 * k))
    shift = rng.uniform(-0.5, 1.0)
    a = g @ g.conj().T + shift * np.eye(2 * k)
    a11, a12, a22 = a[:k, :k], a[:k, k:], a[k:, k:]
    whole_pd = cholesky_pd(hermitize(a)) is not None
    if cholesky_pd(hermitize(a11)) is None:
        assert not whole_pd
        return
    complement = a22 - a12.conj().T @ np.linalg.solve(a11, a12)
    assert whole_pd == (cholesky_pd(hermitize(complement)) is not None)


def test_classify_lebesgue_positive_definite():
    assert classify(lebesgue(5)).kind == "PositiveDefinite"
    assert classify(lebesgue(4)).kind == "PositiveDefinite"


def test_classify_m0_scalar():
    assert classify(MomentSequence(0.0, 1.0, (np.array([[1.0]]),))).kind == "PositiveDefinite"


def test_classify_point_mass_degenerate():
    seq = MomentSequence(0.0, 1.0, tuple(np.array([[0.5 ** j]]) for j in range(3)))
    cls = classify(seq)
    assert cls.kind == "Degenerate"
    assert cls.witness.family == "H1" and cls.witness.index == 1
    assert abs(cls.witness.min_eigenvalue) < 1e-12


def test_classify_indefinite_witness():
    seq = MomentSequence(0.0, 1.0, (np.array([[1.0]]), np.array([[3.0]]), np.array([[0.0]])))
    cls = classify(seq)
    assert cls.kind == "Indefinite"
    assert cls.witness.min_eigenvalue < 0


def test_discrete_measure_moments_two_atoms():
    seq = DiscreteMeasure(0.0, 1.0, [0.0, 1.0], [np.array([[0.5]])] * 2).moments(2)
    assert [x[0, 0].real for x in seq.s] == [1.0, 0.5, 0.5]


def test_discrete_measure_single_atom():
    w = np.array([[2.0, 1j], [-1j, 3.0]])
    seq = DiscreteMeasure(0.0, 1.0, [0.5], [w]).moments(3)
    for j in range(4):
        assert rel(seq.s[j], 0.5 ** j * w) < 1e-15


def test_discrete_measure_identity_atoms_positive_definite():
    seq = DiscreteMeasure(0.0, 1.0, [0.25, 0.75], [np.eye(2), np.eye(2)]).moments(3)
    assert classify(seq).kind == "PositiveDefinite"


def test_measure_rank_deficiency_vs_atom_count(rng):
    q = 2
    for atoms in (1, 2, 3):
        meas = random_measure(rng, q, atoms)
        seq = meas.moments(6)
        hank = build_hankels(seq)
        for j in range(len(hank.H1)):
            if atoms >= j + 1:
                assert cholesky_pd(hank.H1[j]) is not None
            else:
                rank = np.linalg.matrix_rank(hank.H1[j], tol=1e-10)
                assert rank <= atoms * q
                assert cholesky_pd(hank.H1[j]) is None


def test_measure_errors():
    with pytest.raises(EmptyMeasure):
        DiscreteMeasure(0.0, 1.0, [], [])
    with pytest.raises(PointOutsideInterval):
        DiscreteMeasure(0.0, 1.0, [1.5], [np.eye(1)])


def test_R_many_inverts_the_block_shift(rng):
    from conftest import random_sequence

    seq, _ = random_sequence(rng, 2, 2)
    hank = build_hankels(seq)
    for j in range(3):
        for z in (0.3, -1.2 + 0.7j):
            r = hank.R_many(j, [z])[0]
            eye = np.eye((j + 1) * seq.q)
            t = np.eye((j + 1) * seq.q, k=-seq.q)   # the block lower shift T_j
            assert rel(r @ (eye - z * t), eye) < 1e-14
            rv = r @ hank.v(j)
            for k in range(j + 1):
                blk = rv[k * seq.q:(k + 1) * seq.q]
                assert rel(blk, (z ** k) * np.eye(seq.q)) < 1e-14


def test_second_kind_column_shapes(rng):
    from conftest import random_sequence

    seq, _ = random_sequence(rng, 2, 2)
    hank = build_hankels(seq)
    q, s, a, b = seq.q, seq.s, seq.a, seq.b
    for j in range(1, 3):
        for family in ("H1", "H2", "K1", "K2"):
            assert hank.second_kind(family, j).shape == ((j + 1) * q, q)
        assert hank.cross("H1", j).shape == (j * q, q)
        assert hank.cross("K1", j).shape == (j * q, q)
    assert np.array_equal(hank.second_kind("K2", 0), -s[0])
    assert np.array_equal(hank.second_kind("H2", 1)[q:], -(-a * b * s[0] + (a + b) * s[1] - s[2]))
    # past the entries, and the H2 head without s_1
    for family in ("H1", "H2", "K1", "K2"):
        with pytest.raises(InsufficientMoments):
            hank.second_kind(family, len(hank.entries[family]) + 1)
    with pytest.raises(InsufficientMoments):
        build_hankels(MomentSequence(0.0, 1.0, (np.eye(2),))).second_kind("H2", 0)


def test_members_are_views_of_one_matrix_per_family(rng, monkeypatch):
    calls = []
    real = moments_module.hankel_from_entries
    monkeypatch.setattr(moments_module, "hankel_from_entries",
                        lambda e, j: calls.append(j) or real(e, j))
    for q, m in ((1, 0), (1, 6), (2, 5), (3, 4)):
        seq = random_measure(rng, q, m // 2 + 2).moments(m)
        calls.clear()
        hank = build_hankels(seq)
        # one assembly per family that has a member, of its largest member
        assert calls == [len(getattr(hank, f)) - 1 for f in ("H1", "H2", "K1", "K2")
                         if len(getattr(hank, f))]
        for family in ("H1", "H2", "K1", "K2"):
            members = getattr(hank, family)
            entries = hankel_entries(family, seq.s, seq.a, seq.b)
            assert len(members) == (len(entries) - 1) // 2 + 1
            for j, member in enumerate(members):
                assert np.shares_memory(member, members[-1])
                assert not member.flags.writeable
                assert _bits(member) == _bits(real(entries, j))


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


def _R_at_a_times(seq, col):
    """R_j(a) col written out: block l is a times block l - 1, plus c_l."""
    q = seq.q
    blocks = [col[:q]]
    for l in range(1, len(col) // q):
        blocks.append(col[l * q:(l + 1) * q] + seq.a * blocks[-1])
    return np.concatenate(blocks, axis=0)


def _symmetric_sequence(q, m):
    """Atoms symmetric about 0 with diagonal weights on [-1, 1]: every odd moment
    and every off-diagonal entry is an exact zero."""
    weights = [np.diag(np.linspace(1.0, 2.0, q)), np.diag(np.linspace(0.5, 0.25, q))]
    measure = DiscreteMeasure(-1.0, 1.0, [-0.75, -0.25, 0.25, 0.75], weights + weights[::-1])
    return measure.moments(m)


@pytest.mark.parametrize("q,m,zeros", [
    pytest.param(q, m, zeros, id=f"{q}-{m}" + ("-zeros" if zeros else ""))
    for q, m, zeros in ((1, 6, False), (1, 7, False), (2, 5, False), (2, 6, False),
                        (3, 5, False), (1, 7, True), (2, 5, True), (3, 6, True))])
def test_entries_and_solves_match_the_written_out_formulas(rng, q, m, zeros):
    from conftest import random_measure

    if zeros:
        seq = _symmetric_sequence(q, m)
        assert not seq.s[1].any() and not seq.s[3].any()
    else:
        seq = random_measure(rng, q, m // 2 + 2, a=-0.3, b=1.7).moments(m)
    hank = build_hankels(seq)
    a, b, s = seq.a, seq.b, seq.s
    zero = np.zeros((q, q), dtype=complex)

    # the stacked moments and columns as they were written out before the
    # family entries gave them
    def y(j, k):
        return np.concatenate(s[j:k + 1], axis=0)

    shat = [-a * b * s[k] + (a + b) * s[k + 1] - s[k + 2] for k in range(seq.m - 1)]

    def yhat(j, k):
        return np.concatenate(shat[j:k + 1], axis=0)

    def v(j):
        return np.concatenate([np.eye(q, dtype=complex)] + [zero] * j, axis=0)

    def pad(j):
        return np.concatenate([zero, y(0, j - 1)], axis=0)

    head2 = -(a + b) * s[0] + s[1]
    second_kind = {
        "H1": lambda j: zero if j == 0 else np.concatenate([zero, -y(0, j - 1)], axis=0),
        "H2": lambda j: head2 if j == 0 else np.concatenate([head2, -yhat(0, j - 1)], axis=0),
        "K1": lambda j: s[0].copy() if j == 0 else y(0, j) - b * pad(j),
        "K2": lambda j: -s[0] if j == 0 else -y(0, j) + a * pad(j),
    }
    cross = {
        "H1": lambda j: y(j, 2 * j - 1),
        "H2": lambda j: yhat(j, 2 * j - 1),
        "K1": lambda j: b * y(j, 2 * j - 1) - y(j + 1, 2 * j),
        "K2": lambda j: -a * y(j, 2 * j - 1) + y(j + 1, 2 * j),
    }
    corner = {
        "H1": lambda j: s[2 * j],
        "H2": lambda j: shat[2 * j],
        "K1": lambda j: b * s[2 * j] - s[2 * j + 1],
        "K2": lambda j: -a * s[2 * j] + s[2 * j + 1],
    }
    column = {
        "H1": v,
        "H2": lambda j: second_kind["H2"](j) + a * (v(j) @ s[0]),
        "K1": v,
        "K2": second_kind["K2"],
    }
    for family in ("H1", "H2", "K1", "K2"):
        members = getattr(hank, family)
        # the second-kind columns, up to the sign of a zero, and nested bit for bit
        last = len(hank.entries[family])
        full = hank.second_kind(family, last)
        for j in range(last + 1):
            got = hank.second_kind(family, j)
            assert np.array_equal(got, second_kind[family](j))
            assert _bits(got) == _bits(full[:(j + 1) * q])
        # every solve goes through the leading block of the largest member's factor
        L = cholesky_pd(members[-1], block=q)
        assert len(L) == len(members[-1])
        lead = lambda j: L[:(j + 1) * q, :(j + 1) * q]
        # one forward solve per family, on the largest column; member j reads
        # its leading (j+1)q rows w_j
        rc_last = _R_at_a_times(seq, hank.column(family, len(members) - 1))
        w = np.linalg.solve(L, rc_last)
        for j in range(len(members)):
            size = (j + 1) * q
            assert _bits(hank.entries[family][2 * j]) == _bits(corner[family](j))
            assert _bits(hank.factor(family, j)) == _bits(lead(j))
            # the columns are nested and R(a) is block lower Toeplitz
            assert np.array_equal(hank.column(family, j), column[family](j))
            assert _bits(_R_at_a_times(seq, hank.column(family, j))) == _bits(rc_last[:size])
            assert _bits(hank.transfer(family, j)) == _bits(
                np.linalg.solve(lead(j).conj().T, w[:size]))
            assert _bits(hank.form(family, j)) == _bits(w[:size].conj().T @ w[:size])
        # the polynomial rows reach one cross column past the last complement
        for j in range(1, len(hank.entries[family]) // 2 + 1):
            y_j = cross[family](j)
            assert _bits(hank.cross(family, j)) == _bits(y_j)
            x = hank.schur_row(family, j)
            assert _bits(x) == _bits(solve_factored(lead(j - 1), y_j))
            assert hank.schur_row(family, j) is x and not x.flags.writeable
        with pytest.raises(InsufficientMoments):
            hank.cross(family, len(hank.entries[family]) // 2 + 1)


def _count_factorizations(monkeypatch):
    calls = []
    monkeypatch.setattr(moments_module, "cholesky_pd",
                        lambda a, **kw: calls.append(a) or cholesky_pd(a, **kw))
    return calls


def test_hankel_solve_is_solve_pd_through_one_factor(rng, monkeypatch):
    from conftest import random_sequence

    seq, _ = random_sequence(rng, 2, 2)
    hank = build_hankels(seq)
    calls = _count_factorizations(monkeypatch)
    for family in ("H1", "H2", "K1", "K2"):
        members = getattr(hank, family)
        L = cholesky_pd(members[-1], block=seq.q)
        for j, member in enumerate(members):
            size = (member.shape[0], 2)
            rhs = rng.normal(size=size) + 1j * rng.normal(size=size)
            for _ in range(2):
                got = hank.solve(family, j, rhs)
                assert np.array_equal(got, solve_factored(L[:size[0], :size[0]], rhs))
            # the largest member is factored as solve_pd factors it
            if j == len(members) - 1:
                assert np.array_equal(got, solve_pd(member, rhs, family, j))
        # once per family, on its largest member only
        assert [a is members[-1] for a in calls] == [True]
        calls.clear()
    with pytest.raises(InsufficientMoments):
        hank.solve("H1", len(hank.H1), np.eye(2))


def test_schur_solve_goes_through_the_diagonal_block(rng, monkeypatch):
    from conftest import random_sequence

    seq, _ = random_sequence(rng, 2, 2)
    hank = build_hankels(seq)
    calls = _count_factorizations(monkeypatch)
    q = seq.q
    for family in ("H1", "H2", "K1", "K2"):
        L = hank.factor(family, len(getattr(hank, family)) - 1)
        for j, complement in enumerate(hank.complements(family)):
            block = L[j * q:(j + 1) * q, j * q:(j + 1) * q]
            # the complement F[j] / F[j-1] is L_jj L_jj^H
            assert rel(block @ block.conj().T, complement) < 1e-12
            rhs = rng.normal(size=(q, 3)) + 1j * rng.normal(size=(q, 3))
            assert np.array_equal(hank.schur_solve(family, j, rhs), solve_factored(block, rhs))
    # the complements are never factored: the only factorization of each family
    # is the one of its largest member
    largest = [getattr(hank, family)[-1] for family in ("H1", "H2", "K1", "K2")]
    assert len(calls) == 4 and all(a is b for a, b in zip(calls, largest))


# (input, SingularPivot of build_family, of compute_first), as the per-call
# factorizations raised them
DEGENERATE = {
    "atom_at_b": (([0.5, 1.0], [np.eye(1), np.eye(1)], 5), ("K1", 1), ("H1", 2)),
    "atom_at_a": (([0.0, 0.5], [np.eye(1), np.eye(1)], 6), ("H1", 2), ("H1", 2)),
    "rank_one_atom": (([0.3, 0.7], [np.diag([1.0, 0.0]), np.eye(2)], 5), ("H1", 1), ("H1", 1)),
    "single_atom": (([0.5], [np.eye(1)], 4), ("H1", 1), ("H1", 1)),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_member_raises_at_the_same_point(name):
    (points, weights, m), family_pivot, first_pivot = DEGENERATE[name]
    seq = DiscreteMeasure(0.0, 1.0, points, weights).moments(m)
    hank = build_hankels(seq)
    assert classify(hank).kind == "Degenerate"
    # the classification's kept factors (a None among them) do not move the failure
    for source in (seq, hank):
        with pytest.raises(SingularPivot) as err:
            build_family(source)
        assert (err.value.family, err.value.index) == family_pivot
    with pytest.raises(SingularPivot) as err:
        compute_first(seq)
    assert (err.value.family, err.value.index) == first_pivot


# (b, m): (classification witness, SingularPivot of build_family) for the
# Lebesgue measure on [0, b].  Each member's pivots are tested against that
# member's norm; tested only against the norm of their own block's member,
# all three would pass as PositiveDefinite.
SCALED_LEBESGUE = {
    (100.0, 9): (("K1", 4), ("H1", 4)),
    (300.0, 7): (("K1", 3), ("H1", 3)),
    (300.0, 9): (("K1", 4), ("H1", 3)),
}


@pytest.mark.parametrize("b,m", sorted(SCALED_LEBESGUE))
def test_scaled_lebesgue_fails_at_the_same_member(b, m):
    witness, pivot = SCALED_LEBESGUE[(b, m)]
    seq = MomentSequence(0.0, b, tuple(np.array([[b ** (j + 1) / (j + 1)]]) for j in range(m + 1)))
    cls = classify(seq)
    assert cls.kind == "Degenerate"
    assert (cls.witness.family, cls.witness.index) == witness
    with pytest.raises(SingularPivot) as err:
        build_family(seq)
    assert (err.value.family, err.value.index) == pivot


def test_classify_keeps_the_factors_of_a_prebuilt_set(monkeypatch):
    hank = build_hankels(lebesgue(5))
    calls = _count_factorizations(monkeypatch)
    assert classify(hank).kind == "PositiveDefinite"
    assert [a is b for a, b in zip(calls, (hank.K1[2], hank.K2[2]))] == [True, True]
    L = hank.factor("K1", 2)
    assert np.array_equal(L, cholesky_pd(hank.K1[2])) and not L.flags.writeable
    # the smaller members' factors are views of the kept one
    assert np.shares_memory(hank.factor("K1", 1), L)
    assert np.array_equal(hank.factor("K1", 1), L[:2, :2])
    compute_second(build_family(hank))   # reads every member of all four families
    assert sum(a is hank.K1[2] for a in calls) == 1
    assert len(calls) == 4 and {id(a) for a in calls} == {
        id(getattr(hank, family)[-1]) for family in ("H1", "H2", "K1", "K2")}


@pytest.mark.parametrize("a, b, message", [
    (1.0, 0.0, "need a < b"),
    (0.5, 0.5, "need a < b"),
    (-np.inf, 1.0, "need a finite interval"),
    (0.0, np.inf, "need a finite interval"),
])
def test_discrete_measure_checks_its_interval_as_a_moment_sequence_does(a, b, message):
    with pytest.raises(InvalidMomentSequence, match=message):
        DiscreteMeasure(a=a, b=b, points=(0.5,), weights=(np.eye(1),))
    with pytest.raises(InvalidMomentSequence, match=message):
        MomentSequence(a=a, b=b, s=(np.eye(1),))


def test_discrete_measure_reads_each_weight_once(monkeypatch):
    calls = []
    square = moments_module._square_matrix
    monkeypatch.setattr(moments_module, "_square_matrix",
                        lambda *args, **kw: calls.append(kw["what"]) or square(*args, **kw))
    DiscreteMeasure(a=0.0, b=1.0, points=(0.25, 0.75), weights=(np.eye(2), 2.0 * np.eye(2)))
    assert calls == ["weight_0", "weight_1"]
    with pytest.raises(InvalidMomentSequence, match="weight_1 must be 2x2"):
        DiscreteMeasure(a=0.0, b=1.0, points=(0.25, 0.75), weights=(np.eye(2), np.eye(3)))
