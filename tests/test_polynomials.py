import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thmm import (
    DiscreteMeasure,
    MomentSequence,
    OrderUnavailable,
    SingularPivot,
    adjoint_eval,
    build_family,
    build_hankels,
    eval_poly,
    verify_family_identities,
)
from thmm._linalg import hermitize
from thmm.polynomials import SAMPLE_POINTS, MatrixPoly, _convolve, _schur_row, _split_blocks

from conftest import lebesgue, random_sequence, rel


@pytest.fixture(scope="module")
def leb_family():
    return build_family(lebesgue(5))


def coeffs1d(poly):
    return [c[0, 0] for c in poly.coeffs]


def test_base_cases(leb_family):
    fam = leb_family
    assert coeffs1d(fam.P1(0)) == [1.0]
    assert coeffs1d(fam.P2(0)) == [1.0]
    assert coeffs1d(fam.G1(0)) == [1.0]
    assert coeffs1d(fam.G2(0)) == [1.0]
    assert coeffs1d(fam.Q1(0)) == [0.0]
    assert coeffs1d(fam.T1(0)) == [1.0]
    assert coeffs1d(fam.T2(0)) == [-1.0]
    # Q2[0](z) = -(u2_0 + z s_0) with u2_0 = -(a+b)s_0 + s_1 = -1/2
    np.testing.assert_allclose(coeffs1d(fam.Q2(0)), [0.5, -1.0], atol=1e-15)


def test_lebesgue_degree_one_values(leb_family):
    fam = leb_family
    np.testing.assert_allclose(coeffs1d(fam.P1(1)), [-0.5, 1.0], atol=1e-14)
    np.testing.assert_allclose(coeffs1d(fam.G1(1)), [-1.0 / 3.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(coeffs1d(fam.T1(1)), [-5.0 / 6.0, 1.0], atol=1e-14)


def test_lebesgue_q21(leb_family):
    # Q2[1](z) = -(z^2 - z + 1/12)
    np.testing.assert_allclose(
        coeffs1d(leb_family.Q2(1)), [-1.0 / 12.0, 1.0, -1.0], atol=1e-13
    )
    assert abs(eval_poly(leb_family.Q2(1), 0.0)[0, 0] + 1.0 / 12.0) < 1e-13


def test_monic_leading_coefficients(rng):
    for q, n in ((1, 3), (2, 2), (3, 1)):
        seq, _ = random_sequence(rng, q, n)
        fam = build_family(seq)
        eye = np.eye(q)
        for store in (fam.p1, fam.p2, fam.g1, fam.g2):
            for poly in store:
                assert len(poly.coeffs) - 1 == poly.index
                assert rel(poly.coeffs[-1], eye) < 1e-14


def test_degrees(rng):
    seq, _ = random_sequence(rng, 2, 2)
    fam = build_family(seq)
    for j, poly in enumerate(fam.q1):
        assert len(poly.coeffs) - 1 <= max(j - 1, 0)
    for j, poly in enumerate(fam.q2):
        assert len(poly.coeffs) - 1 == j + 1
    for j, poly in enumerate(fam.t1):
        assert len(poly.coeffs) - 1 <= j


def test_order_unavailable(leb_family):
    with pytest.raises(OrderUnavailable):
        leb_family.P1(4)
    with pytest.raises(OrderUnavailable):
        leb_family.Q2(3)


def test_eval_constant_and_real():
    eye_poly = MatrixPoly((np.eye(2, dtype=complex),), "P1", 0)
    z = 2.3 - 0.7j
    assert rel(eval_poly(eye_poly, z), np.eye(2)) == 0.0
    p = MatrixPoly((np.array([[1.0]]), np.array([[2.0]])), "G1", 1)
    for x in (-1.5, 0.25, 3.0):
        assert rel(adjoint_eval(p, x), eval_poly(p, x)) < 1e-15


def test_adjoint_eval_single_coefficient():
    a1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    p = MatrixPoly((np.zeros((2, 2), dtype=complex), a1), "Q1", 1)
    got = adjoint_eval(p, 1j)
    expected = np.array([[0.0, 0.0], [1j, 0.0]])
    assert rel(got, expected) < 1e-15


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
)
def test_adjoint_eval_two_characterizations(seed, z):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 4))
    deg = int(rng.integers(0, 4))
    coeffs = tuple(
        rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)) for _ in range(deg + 1)
    )
    p = MatrixPoly(coeffs, "P1", deg)
    direct = adjoint_eval(p, z)
    via_conj = eval_poly(p, np.conj(z)).conj().T
    explicit = sum(c.conj().T * z ** k for k, c in enumerate(coeffs))
    assert rel(direct, via_conj) < 1e-12
    assert rel(direct, explicit) < 1e-12


def test_identity_report_lebesgue(leb_family):
    report = verify_family_identities(leb_family)
    assert report.max_residual < 1e-12
    names = report.names()
    for expected in ("hhat1_product", "hhat2_product", "khat1_product",
                     "khat2_product", "ratio_g2_t2", "ratio_q1_p1",
                     "endpoint_q1_q2", "endpoint_g1_g2"):
        assert expected in names


def test_khat1_product_value(leb_family):
    # khat1[1] = G1[1](a) Q2[1]^*(a) = (-1/3)(-1/12) = 1/36
    fam = leb_family
    value = eval_poly(fam.G1(1), 0.0) @ adjoint_eval(fam.Q2(1), 0.0)
    assert abs(value[0, 0] - 1.0 / 36.0) < 1e-14
    assert rel(value, fam.hankels.complements("K1")[1]) < 1e-12


def test_hhat1_base_product(leb_family):
    # j = 0: -P1[0](a) T2[0]^*(a) = -I (-s_0)^* = s_0
    fam = leb_family
    value = -eval_poly(fam.P1(0), 0.0) @ adjoint_eval(fam.T2(0), 0.0)
    assert abs(value[0, 0] - 1.0) < 1e-15


def test_identities_with_measure(rng):
    for q, n in ((2, 2), (3, 1)):
        seq, measure = random_sequence(rng, q, n)
        fam = build_family(seq)
        report = verify_family_identities(fam, measure=measure)
        assert report.residual_for("orthogonality") < 1e-9
        assert report.max_residual < 1e-9


def test_orthogonality_off_diagonal_zero(rng):
    seq, measure = random_sequence(rng, 2, 1)
    fam = build_family(seq)
    vals = {}
    for j in (0, 1):
        vals[j] = [eval_poly(fam.P1(j), x) for x in measure.points]
    gram = sum(
        vals[0][i] @ w @ vals[1][i].conj().T for i, w in enumerate(measure.weights)
    )
    assert np.linalg.norm(gram) < 1e-10


def dense_R(q, j, z):
    """R_j(z) block by block: the dense reference of HankelSet.R_many."""
    out = np.zeros(((j + 1) * q, (j + 1) * q), dtype=complex)
    z = complex(z)
    power = 1.0 + 0.0j
    for d in range(j + 1):
        block = power * np.eye(q)
        for l in range(d, j + 1):
            k = l - d
            out[l * q:(l + 1) * q, k * q:(k + 1) * q] = block
        power *= z
    return out


def norm_rel(x, y):
    return float(np.linalg.norm(x - y) / max(1.0, np.linalg.norm(x), np.linalg.norm(y)))


def ratio_entries_per_point(fam, zs):
    """The two ratio identities one point at a time, with the per-point formulas."""
    seq, hank, a, q = fam.seq, fam.hankels, fam.seq.a, fam.seq.q

    def transfer_solve(family, column, j):
        """F[j]^{-1} R_j(a) c_j: a back solve of the leading rows of one forward solve."""
        last = len(getattr(hank, family)) - 1
        w = np.linalg.solve(hank.factor(family, last), dense_R(q, last, a) @ column(last))
        return np.linalg.solve(hank.factor(family, j).conj().T, w[:(j + 1) * q])

    out = []
    for j in range(min(len(fam.g2), len(fam.t2), len(hank.H1))):
        t2a_inv = np.linalg.inv(adjoint_eval(fam.t2[j], a))
        solved = transfer_solve("H1", hank.v, j)
        for z in zs:
            lhs = adjoint_eval(fam.g2[j], z) @ t2a_inv
            rhs = -(dense_R(q, j, np.conj(z)) @ hank.v(j)).conj().T @ solved
            out.append(("ratio_g2_t2", f"j={j},z={z:.3g}", norm_rel(lhs, rhs)))
    for j in range(min(max(len(fam.q1) - 1, 0), max(len(fam.p1) - 1, 0), len(hank.K2))):
        p1a_inv = np.linalg.inv(adjoint_eval(fam.p1[j + 1], a))
        ut = hank.second_kind("K2", j)
        solved = transfer_solve("K2", lambda j: hank.second_kind("K2", j), j)
        for z in zs:
            lhs = adjoint_eval(fam.q1[j + 1], z) @ p1a_inv
            rhs = -(dense_R(q, j, np.conj(z)) @ ut).conj().T @ solved
            out.append(("ratio_q1_p1", f"j={j},z={z:.3g}", norm_rel(lhs, rhs)))
    return out


@pytest.mark.parametrize("zs", [None, [0.3 - 1.1j], []], ids=["default", "one", "none"])
def test_stacked_ratio_checks_equal_per_point_reference(rng, zs):
    seqs = [lebesgue(5), lebesgue(6)] + [random_sequence(rng, q, n)[0]
                                         for q, n in ((1, 3), (2, 2), (3, 3), (4, 1))]
    for seq in seqs:
        fam = build_family(seq)
        report = verify_family_identities(fam, zs=zs)
        stacked = [(e.name, e.where, e.residual) for e in report.entries
                   if e.name.startswith("ratio_")]
        reference = ratio_entries_per_point(fam, SAMPLE_POINTS if zs is None else zs)
        assert stacked == reference
        assert len(reference) == (len(fam.g2) + len(fam.q1) - 1) * len(
            SAMPLE_POINTS if zs is None else zs)


def test_sample_points_are_the_seeded_draw_bit_for_bit():
    draw = np.random.default_rng(314159).uniform(-3.0, 3.0, (10, 2))
    written = np.array([[z.real, z.imag] for z in SAMPLE_POINTS])
    assert all(type(z) is complex for z in SAMPLE_POINTS)
    assert written.tobytes() == draw.tobytes()


@pytest.mark.parametrize("q", [1, 2])
def test_R_many_is_the_dense_R_bit_for_bit(q):
    seq, _ = random_sequence(np.random.default_rng(5), q, 3)
    hank = build_hankels(seq)
    points = [0.0, -0.0, 0.5, -1.0, complex(-0.0, 1.0), complex(0.0, -0.0), -1.2 + 0.7j,
              1e200 + 1e200j, *SAMPLE_POINTS]
    for j in range(4):
        with np.errstate(invalid="ignore", over="ignore"):   # inf * 0 at 1e200
            many = hank.R_many(j, points)
            wants = [dense_R(seq.q, j, z) for z in points]
            ones = [hank.R_many(j, [z])[0] for z in points]
        assert many.flags.c_contiguous
        for got, want, one in zip(many, wants, ones):
            for x in (got, one):
                assert np.array_equal(x, want, equal_nan=True)
                assert np.array_equal(np.signbit(x.real), np.signbit(want.real))
                assert np.array_equal(np.signbit(x.imag), np.signbit(want.imag))
        assert hank.R_many(j, []).shape == (0, (j + 1) * seq.q, (j + 1) * seq.q)


@pytest.mark.parametrize("q,a", [(1, 0.0), (2, 0.0), (2, -0.5)])
def test_R_at_a_times_is_the_dense_R_product(q, a):
    rng = np.random.default_rng(7)
    seq, _ = random_sequence(rng, q, 3, a=a)
    hank = build_hankels(seq)
    for j in range(4):
        size = ((j + 1) * q, q)
        col = rng.normal(size=size) + 1j * rng.normal(size=size)
        before = col.copy()
        got = hank.R_at_a_times(col)
        assert np.array_equal(col, before)
        assert rel(got, dense_R(q, j, a) @ col) < 1e-15
        if a == 0.0:
            assert np.array_equal(got, col)


def test_values_at_a_are_cached_read_only(leb_family):
    fam = leb_family
    for p in (*fam.p1, *fam.q2, *fam.t2):
        value = fam.at_a(p)
        assert fam.at_a(p) is value and not value.flags.writeable
        assert np.array_equal(value, eval_poly(p, fam.seq.a))
        adjoint = fam.adjoint_at_a(p)
        assert fam.adjoint_at_a(p) is adjoint and not adjoint.flags.writeable
        assert np.array_equal(adjoint, adjoint_eval(p, fam.seq.a))


COMPLEMENTS = (("hhat1", "H1"), ("hhat2", "H2"), ("khat1", "K1"), ("khat2", "K2"))


def _eager_members(seq):
    """Every complement, then every polynomial, made in order as build_family once made them.

    A singular Hankel member raises the SingularPivot of the first Schur
    step it stops.  Returns {(store name, j): member}.
    """
    hank = build_hankels(seq)
    q, m = seq.q, seq.m
    out = {}
    for name, family in COMPLEMENTS:
        corners = hank.entries[family]
        for j in range(len(getattr(hank, family))):
            if j == 0:
                out[name, j] = corners[0]
            else:
                y = hank.cross(family, j)
                out[name, j] = hermitize(corners[2 * j] - y.conj().T @ hank.schur_row(family, j))

    def make(name, family, column, j, shift=None, sign=1.0):
        row = _schur_row(hank, family, j, q)
        coeffs = _convolve(row, _split_blocks(column, j, q), shift, sign)
        out[name, j] = MatrixPoly(coeffs, name.upper(), j)

    for j in range((m + 1) // 2 + 1):
        make("p1", "H1", hank.v(j), j)
        make("q1", "H1", hank.second_kind("H1", j), j, sign=-1.0)
    for j in range((m - 1) // 2 + 1):
        make("p2", "H2", hank.v(j), j)
        make("q2", "H2", hank.second_kind("H2", j), j, seq.s[0], -1.0)
    for j in range(m // 2 + 1):
        make("g1", "K1", hank.v(j), j)
        make("t1", "K1", hank.second_kind("K1", j), j)
        make("g2", "K2", hank.v(j), j)
        make("t2", "K2", hank.second_kind("K2", j), j)
    return out


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize("q,m", [(1, 0), (1, 1), (1, 6), (2, 4), (2, 5), (3, 3), (3, 7)])
def test_members_made_on_read_equal_the_eager_build_in_any_order(q, m):
    rng = np.random.default_rng(1000 * q + m)
    seq, _ = random_sequence(rng, q, m // 2 + 1)
    seq = MomentSequence(seq.a, seq.b, seq.s[:m + 1])
    eager = _eager_members(seq)
    for _ in range(3):
        fam = build_family(seq)
        stores = {name: getattr(fam, name) for name in ("p1", "p2", "q1", "q2",
                                                         "g1", "g2", "t1", "t2")}
        stores.update((name, fam.hankels.complements(family)) for name, family in COMPLEMENTS)
        assert {name: len(store) for name, store in stores.items()} == {
            name: sum(key[0] == name for key in eager) for name in stores}
        keys = list(eager)
        for i in rng.permutation(len(keys)):
            name, j = keys[i]
            got, want = stores[name][j], eager[name, j]
            if name.endswith(("hat1", "hat2")):
                assert _bits(got) == _bits(want)
            else:
                assert (got.family, got.index) == (want.family, want.index)
                assert [_bits(c) for c in got.coeffs] == [_bits(c) for c in want.coeffs]
            assert stores[name][j] is got   # kept
            assert stores[name][j - len(stores[name])] is got


def _pivot(build, seq):
    try:
        build(seq)
    except SingularPivot as exc:
        return exc.family, exc.index
    return None


def _singular_inputs():
    """Degenerate and indefinite sequences, by name."""
    rng = np.random.default_rng(4243)
    cases = {}
    for m in range(8):
        for name, points, weights in (
            ("atom_at_b", [0.5, 1.0], [np.eye(1), np.eye(1)]),
            ("atom_at_a", [0.0, 0.5], [np.eye(1), np.eye(1)]),
            ("single_atom", [0.5], [np.eye(1)]),
            ("rank_one", [0.3, 0.7], [np.diag([1.0, 0.0]), np.eye(2)]),
            ("two_at_ends", [0.0, 1.0], [np.eye(2), np.eye(2)]),
        ):
            cases[f"{name}_m{m}"] = DiscreteMeasure(0.0, 1.0, points, weights).moments(m)
        for q in (1, 2):
            seq, _ = random_sequence(rng, q, 4)
            for k in range(m + 1):
                for shift in (-0.3, 0.3, -3.0):
                    s = list(seq.s[:m + 1])
                    s[k] = s[k] + shift * np.eye(q) / (k + 1) ** 2
                    cases[f"perturbed_q{q}_m{m}_s{k}_{shift}"] = MomentSequence(0.0, 1.0, tuple(s))
    for b, m in ((100.0, 9), (300.0, 7), (300.0, 9)):
        cases[f"scaled_lebesgue_{b}_{m}"] = MomentSequence(
            0.0, b, tuple(np.array([[b ** (j + 1) / (j + 1)]]) for j in range(m + 1)))
    return cases


def test_build_family_raises_the_pivot_of_the_eager_order():
    outcomes = {}
    for name, seq in _singular_inputs().items():
        want = _pivot(_eager_members, seq)
        assert _pivot(build_family, seq) == want, name
        outcomes.setdefault(want, name)
    # every family fails somewhere, and some inputs build
    assert {pivot[0] for pivot in outcomes if pivot} == {"H1", "H2", "K1", "K2"}
    assert None in outcomes


def test_quotient_is_kept_read_only_and_is_the_solve(rng):
    seq, _ = random_sequence(rng, 2, 3)
    fam = build_family(seq)
    pairs = [(fam.g1[j], fam.t1[j]) for j in range(len(fam.g1))]
    pairs += [(fam.q2[j], fam.p2[j]) for j in range(len(fam.q2))]
    pairs += [(fam.t2[0], fam.p1[0]), (fam.p1[1], fam.t2[0])]
    for x, y in pairs:
        value = fam.quotient(x, y)
        assert fam.quotient(x, y) is value and not value.flags.writeable
        assert value.tobytes() == np.linalg.solve(fam.at_a(x), fam.at_a(y)).tobytes()
