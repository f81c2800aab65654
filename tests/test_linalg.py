import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thmm import SingularDenominator, SingularPivot
from thmm import _linalg
from thmm._linalg import (
    COND_LIMIT,
    PIVOT_RTOL,
    PointPrefix,
    cholesky_pd,
    frobs,
    hermitize,
    inv_pd,
    rel_residual,
    rel_residuals,
    right_quotient,
    scaled_cond,
    solve_factored,
    solve_pd,
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_cholesky_matches_numpy_on_pd(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    a = g @ g.conj().T + 0.2 * np.eye(k)
    ours = cholesky_pd(a)
    assert ours is not None
    assert rel_residual(ours, np.linalg.cholesky(a)) < 1e-10
    assert rel_residual(ours @ ours.conj().T, a) < 1e-12


def test_cholesky_rejects_indefinite_and_singular():
    assert cholesky_pd(np.array([[1.0, 2.0], [2.0, 1.0]])) is None
    assert cholesky_pd(np.array([[1.0, 1.0], [1.0, 1.0]])) is None
    assert cholesky_pd(hermitize(np.zeros((2, 2)))) is None
    # a NaN pivot or threshold compares False, so it must fail the test too
    assert cholesky_pd(hermitize(np.array([[np.nan]]))) is None
    assert cholesky_pd(np.array([[np.inf]])) is None
    assert cholesky_pd(np.array([[1.0, np.nan], [np.nan, 1.0]])) is None


def test_cholesky_in_blocks_tests_each_leading_block_against_its_own_norm():
    # pivots 1, 5e-12 and 100: a[:2, :2] passes, but 5e-12 is not above
    # 1e-12 * ||a||_F, so a itself fails although each pivot clears the
    # threshold of the first leading block that holds it
    a = np.diag([1.0, 5e-12, 100.0]).astype(complex)
    assert cholesky_pd(a) is None and cholesky_pd(a[:2, :2]) is not None
    L = cholesky_pd(a, block=1)
    assert np.array_equal(L, cholesky_pd(a[:2, :2]))
    assert cholesky_pd(np.diag([0.0, 1.0]), block=1) is None


@np.errstate(invalid="ignore")   # inf - inf past an infinite entry
def _column_loop_size(a, block=None, pivot_rtol=1e-12):
    """Size of the factor of the column-by-column Cholesky loop cholesky_pd once ran.

    Each pivot d_k = a_kk - |L[k, :k]|^2 must exceed the threshold of its
    block, and so must every pivot before it; the loop stops at the first
    that does not and keeps the passing blocks before it.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    block = block or max(n, 1)
    thresholds = [pivot_rtol * np.linalg.norm(a[:p, :p]) for p in range(block, n + 1, block)]
    L = np.zeros_like(a)
    smallest = np.inf
    for k in range(n):
        d = a[k, k].real - np.vdot(L[k, :k], L[k, :k]).real
        threshold = thresholds[k // block]
        if not (d > threshold and smallest > threshold):
            return k - k % block
        smallest = min(smallest, d)
        L[k, k] = np.sqrt(d)
        if k + 1 < n:
            L[k + 1:, k] = (a[k + 1:, k] - L[k + 1:, :k] @ L[k, :k].conj()) / L[k, k]
    return n


def _with_pivot(rng, n, k, pivot):
    """A Hermitian matrix whose pivot k is `pivot` and whose pivots before it are 1.

    It is L0 L0^H for a random lower L0 with unit diagonal but L0_kk = 0,
    plus pivot at (k, k).
    """
    L0 = np.tril(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), -1) + np.eye(n)
    L0[k, k] = 0.0
    a = L0 @ L0.conj().T
    a[k, k] += pivot
    return a


@pytest.mark.parametrize("q,blocks", [(1, 4), (2, 3), (3, 2)])
def test_cholesky_decision_is_the_column_loops(rng, q, blocks):
    n = q * blocks
    cases = []
    for k in range(n):
        # a pivot just below and just above the threshold of its own block
        p = (k // q + 1) * q
        lead = _with_pivot(np.random.default_rng(k), n, k, 0.0)[:p, :p]
        for factor in (0.99, 1.01):
            pivot = factor * PIVOT_RTOL * np.linalg.norm(lead)
            cases.append(_with_pivot(np.random.default_rng(k), n, k, pivot))
    # a zero or negative pivot in the last block only, which LAPACK refuses
    for pivot in (0.0, -1.0, -1e-3):
        cases.append(_with_pivot(rng, n, n - 1, pivot))
    # a NaN or infinite entry, on and off the diagonal, in the first and the last block
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((n - 1, n - 1), (n - 1, 0), (0, 0)):
            a = _with_pivot(rng, n, 0, 1.0)
            a[i, j] = a[j, i] = bad
            cases.append(a)
    sizes = set()
    for a in cases:
        for block in (None, q):
            L = cholesky_pd(a, block=block)
            size = 0 if L is None else len(L)
            assert size == _column_loop_size(a, block), (block, np.diag(a))
            sizes.add(size)
    assert sizes == set(range(0, n + 1, q))   # every outcome is reached


def test_scaled_cond_ignores_a_diagonal_scaling(rng):
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a = g @ g.conj().T + np.eye(5)
    d = np.array([1.0, 1e3, 1e-2, 1e5, 7.0])
    scaled = a * d[:, None] * d[None, :]
    assert np.linalg.cond(scaled) > 1e9 * np.linalg.cond(a)
    assert scaled_cond(scaled) == pytest.approx(scaled_cond(a), rel=1e-10)
    unit = np.diag(np.diag(a).real ** -0.5)
    assert scaled_cond(a) == pytest.approx(np.linalg.cond(unit @ a @ unit), rel=1e-12)


def test_cholesky_in_blocks_is_the_leading_factor(rng):
    for q, k in ((1, 4), (2, 3), (3, 2)):
        g = rng.normal(size=(q * k, q * k)) + 1j * rng.normal(size=(q * k, q * k))
        a = g @ g.conj().T + 1e-3 * np.eye(q * k)
        L = cholesky_pd(a, block=q)
        assert np.array_equal(L, cholesky_pd(a))
        for p in range(q, q * k, q):
            lead = cholesky_pd(a[:p, :p])
            assert rel_residual(L[:p, :p], lead) < 1e-14
        # a trailing block that repeats the one before it stops the factor there
        b = a.copy()
        b[-q:, :] = b[-2 * q:-q, :]
        b[:, -q:] = b[:, -2 * q:-q]
        assert len(cholesky_pd(b, block=q)) == q * (k - 1)


def test_solve_pd_and_inverse():
    a = np.array([[4.0, 1.0j], [-1.0j, 3.0]])
    rhs = np.array([[1.0], [2.0]], dtype=complex)
    x = solve_pd(a, rhs)
    assert rel_residual(a @ x, rhs) < 1e-13
    assert rel_residual(a @ inv_pd(a), np.eye(2)) < 1e-13


def test_solve_pd_raises_named_pivot():
    with pytest.raises(SingularPivot) as err:
        solve_pd(np.array([[0.0]]), np.eye(1), "K1", 3)
    assert err.value.family == "K1" and err.value.index == 3
    # a zero pivot past the first row fails the same way
    with pytest.raises(SingularPivot) as err:
        solve_pd(np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                 np.ones(3), "hhat2", 1)
    assert err.value.family == "hhat2" and err.value.index == 1


def test_solve_factored_residual_within_backward_error_bound(rng):
    # a backward stable solve leaves ||a x - b|| / ||b|| <= c N eps cond(a)
    eps = np.finfo(float).eps
    for n in range(1, 41):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        unitary = np.linalg.qr(g)[0]
        for decades in (0, 4, 8):
            a = (unitary * np.logspace(0, -decades, n)) @ unitary.conj().T
            a = 0.5 * (a + a.conj().T)
            L = cholesky_pd(a)
            for shape in ((n,), (n, 1), (n, 2), (n, 4)):
                b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                x = solve_factored(L, b)
                assert x.shape == shape
                res = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
                assert res <= 8 * n * eps * np.linalg.cond(a), (n, decades, shape)


def test_solve_factored_is_exact_for_a_diagonal_factor(rng):
    # powers of two divide exactly, so x is b / d^2 to the last bit
    d = 2.0 ** rng.integers(-4, 5, size=7)
    b = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    L = np.diag(d).astype(complex)
    assert np.array_equal(solve_factored(L, b), b / (d ** 2)[:, None])
    assert np.array_equal(solve_factored(L, b[:, 0]), b[:, 0] / d ** 2)


def test_right_divide():
    rng = np.random.default_rng(5)
    num = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    den = rng.normal(size=(2, 2)) + np.eye(2) * 3
    assert rel_residual(right_quotient(num, den), num @ np.linalg.inv(den)) < 1e-13
    # a stack of K = 5 pairs divides pair by pair
    nums = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    dens = rng.normal(size=(5, 3, 3)) + np.eye(3) * 4
    got = right_quotient(nums, dens)
    assert got.shape == (5, 3, 3)
    for k in range(5):
        assert rel_residual(got[k], nums[k] @ np.linalg.inv(dens[k])) < 1e-13
    # the guard sits exactly at COND_LIMIT: just below passes, just past raises
    eye = np.eye(2)
    right_quotient(eye, np.diag([1.0, 1.0 / (0.99 * COND_LIMIT)]))
    with pytest.raises(SingularDenominator) as err:
        right_quotient(eye, np.diag([1.0, 1.0 / (1.01 * COND_LIMIT)]))
    assert err.value.cond == pytest.approx(1.01 * COND_LIMIT)
    with pytest.raises(SingularDenominator):
        right_quotient(np.stack([eye, eye]), np.stack([eye, np.diag([1.0, 1.0 / (1.01 * COND_LIMIT)])]))


def test_point_prefix_keeps_loop_error_order():
    # a per-point stage failing at index 2 is recorded, and a later stage
    # failing at index 1 (within the remaining prefix) takes precedence
    pts = PointPrefix([0.0, 1.0, 2.0, 3.0])
    pts.fail(np.array([False, False, True, True]), lambda i: ValueError(f"stage 1 at {i}"))
    assert len(pts) == 2
    pts.shared_stage()  # the first point is still alive
    pts.fail(np.array([False, True]), lambda i: KeyError(f"stage 2 at {i}"))
    with pytest.raises(KeyError, match="stage 2 at 1"):
        pts.finish()
    # once the first point has failed, a z-independent stage is never reached
    pts = PointPrefix([0.0, 1.0])
    pts.fail(np.array([True, False]), lambda i: ValueError(f"at {i}"))
    with pytest.raises(ValueError, match="at 0"):
        pts.shared_stage()


def test_right_quotient_records_first_failing_point():
    eye = np.eye(2)
    bad = np.diag([1.0, 0.0])
    # per point: sK's denominator, then sF's; the first bad point is 1
    den = np.stack([np.stack([eye, eye]), np.stack([eye, bad]), np.stack([bad, eye])])
    pts = PointPrefix([0.0, 1.0, 2.0])
    out = right_quotient(np.ones_like(den), den, points=pts)
    assert out.shape == (1, 2, 2, 2) and len(pts) == 1
    with pytest.raises(SingularDenominator):
        pts.finish()
    # a non-finite denominator fails, as a singular one does
    inf_den = np.stack([eye, np.full((2, 2), np.inf)])
    pts = PointPrefix([0.0, 1.0])
    right_quotient(np.stack([eye, eye]), inf_den, points=pts)
    assert len(pts) == 1 and pts.error is not None


def test_right_quotient_svd_failure_is_singular_denominator():
    eye = np.eye(2)
    # np.linalg.cond raises LinAlgError on a NaN matrix; the guard fails it as cond ~ nan
    # without taking its SVD
    den = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cond(den)
    with pytest.raises(SingularDenominator) as err:
        right_quotient(eye, den)
    assert np.isnan(err.value.cond)
    pts = PointPrefix([0.0, 1.0, 2.0])
    out = right_quotient(np.stack([eye] * 3), np.stack([eye, den, eye]), points=pts)
    assert out.shape == (1, 2, 2) and len(pts) == 1
    with pytest.raises(SingularDenominator) as err:
        pts.finish()
    assert np.isnan(err.value.cond)


def test_non_finite_matrices_get_no_svd(monkeypatch):
    seen = []
    real_cond = np.linalg.cond
    monkeypatch.setattr(_linalg.np.linalg, "cond",
                        lambda x: seen.append(np.isfinite(x).all()) or real_cond(x))
    eye = np.eye(2)
    for bad in (np.full((2, 2), np.inf), np.array([[1.0, 0.0], [0.0, -np.inf]]),
                np.array([[np.nan, 0.0], [0.0, 1.0]])):
        with pytest.raises(SingularDenominator) as err:
            right_quotient(eye, bad)
        assert np.isnan(err.value.cond)
        pts = PointPrefix([0.0, 1.0, 2.0])
        right_quotient(np.stack([eye] * 3), np.stack([eye, bad, eye]), points=pts)
        assert len(pts) == 1 and np.isnan(pts.error.cond)
    assert seen and all(seen)


def test_rel_residual_sums_as_np_linalg_norm(rng):
    def reference(x, y):
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        return float(np.linalg.norm(x - y) / max(1.0, np.linalg.norm(x), np.linalg.norm(y)))

    for shape in ((1, 1), (3, 3), (8, 2), (40, 40)):
        for scale in (1e-3, 1.0, 1e8):
            x = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            y = x + 1e-9 * rng.normal(size=shape)
            for a, b in ((x, y), (x.T, y.T), (x.real, y), (x[::2], y[::2])):
                assert rel_residual(a, b) == reference(a, b)
            stack = np.stack([x, y, 2 * x])
            assert rel_residuals(stack, stack[::-1]).tolist() == [
                reference(u, v) for u, v in zip(stack, stack[::-1])]
    assert frobs(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)
    assert rel_residuals(np.zeros((0, 2, 2)), np.zeros((0, 2, 2))).shape == (0,)


def test_solve_factored_is_solve_pd(rng):
    for q in (1, 2, 5):
        g = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        a = g @ g.conj().T + np.eye(q)
        rhs = rng.normal(size=(q, 3)) + 1j * rng.normal(size=(q, 3))
        assert np.array_equal(solve_factored(cholesky_pd(a), rhs), solve_pd(a, rhs))
