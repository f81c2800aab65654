import math
import sys
import warnings
from pathlib import Path

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
    adjoint,
    cholesky,
    cholesky_pd,
    cond,
    frob,
    frobs,
    guard_cond,
    hermitize,
    inv,
    point_prefix,
    rel_residual,
    rel_residuals,
    right_quotient,
    scaled_cond,
    solve,
    solve_factored,
    solve_pd,
)
from thmm.cli import main

from conftest import random_z_points, spy_lapack

GOLDEN = Path(__file__).parent / "golden"


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


def outcome(f, *operands):
    """f(*operands) as (type, dtype, shape, bytes), or the LinAlgError it raises; no warning escapes."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            x = f(*operands)
        except np.linalg.LinAlgError as exc:
            result = ("LinAlgError", str(exc))
        else:
            result = (type(x), x.dtype, x.shape, x.tobytes())
    assert not caught, [str(w.message) for w in caught]
    return result


def matrices(rng, q, stack):
    """Operands for the LAPACK entry points: name -> a (*stack, q, q) array.

    Complex and real (a strided view) positive definite matrices, the
    adjoint view of their Cholesky factors that solve_factored passes,
    copies with a NaN or an infinite entry in the last matrix, an exactly
    singular one, a zero one and a negative definite one.
    """
    shape = (*stack, q, q)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    pd = g @ adjoint(g) + q * np.eye(q)
    mats = {"complex": pd, "real": pd.real, "adjoint": adjoint(np.linalg.cholesky(pd)),
            "singular": pd.copy(), "zero": np.zeros_like(pd), "negative": -pd}
    mats["singular"][..., :, 0] = 0.0
    for name, value in (("nan", np.nan), ("inf", np.inf)):
        mats[name] = pd.copy()
        mats[name].reshape(-1, q, q)[-1, q - 1, 0] = value
    return mats


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("stack", [(), (1,), (7,), (64,)], ids=["one", "K1", "K7", "K64"])
def test_lapack_entry_points_are_np_linalg_to_the_bit(rng, q, stack):
    for name, a in matrices(rng, q, stack).items():
        assert outcome(inv, a) == outcome(np.linalg.inv, a), name
        assert outcome(cholesky, a) == outcome(np.linalg.cholesky, a), name
        assert outcome(cond, a) == outcome(np.linalg.cond, a), name
        for shape in ((q,), (q, 1), (q, 3), (*stack, q, 2)):
            b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for rhs in (b, b.real):
                assert outcome(solve, a, rhs) == outcome(np.linalg.solve, a, rhs), (name, shape)
    a = matrices(rng, q, stack)
    assert outcome(solve, a["singular"], np.ones(q)) == ("LinAlgError", "Singular matrix")
    assert outcome(inv, a["singular"]) == ("LinAlgError", "Singular matrix")
    assert outcome(cholesky, a["negative"]) == ("LinAlgError", "Matrix is not positive definite")
    # an exactly singular or zero matrix has cond inf; a NaN entry fails the SVD
    for name in ("singular", "zero"):
        assert np.isinf(cond(a[name])).all()
    assert outcome(cond, a["nan"]) == ("LinAlgError", "SVD did not converge")


def test_lapack_entry_points_enter_an_errstate_made_once(rng):
    # each errstate is made at import and bound to its function; a call
    # enters it without constructing one
    g = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    a = g @ adjoint(g) + np.eye(2)
    L = cholesky(a)
    built = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is np.errstate.__init__.__code__:
            built.append(frame.f_back.f_code.co_name)

    sys.setprofile(hook)
    try:
        solve(a, a[:, :, :1])
        inv(a)
        cholesky(a)
        solve_factored(L, a)
        cond(a)
    finally:
        sys.setprofile(None)
    assert built == []


def test_solve_pd_and_inverse():
    a = np.array([[4.0, 1.0j], [-1.0j, 3.0]])
    rhs = np.array([[1.0], [2.0]], dtype=complex)
    x = solve_pd(a, rhs, "matrix", 0)
    assert rel_residual(a @ x, rhs) < 1e-13
    assert rel_residual(a @ solve_pd(a, np.eye(2, dtype=complex), "matrix", 0), np.eye(2)) < 1e-13


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


def divide(num, den):
    """right_quotient of stacks over points, raising the first failure as a loop over them would."""
    pts = PointPrefix(np.zeros(len(den)))
    out = right_quotient(num, den, pts)
    pts.finish()
    return out


def test_right_divide():
    rng = np.random.default_rng(5)
    num = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    den = rng.normal(size=(2, 2)) + np.eye(2) * 3
    assert rel_residual(divide(num[None], den[None])[0], num @ np.linalg.inv(den)) < 1e-13
    # a stack of K = 5 pairs divides pair by pair
    nums = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    dens = rng.normal(size=(5, 3, 3)) + np.eye(3) * 4
    got = divide(nums, dens)
    assert got.shape == (5, 3, 3)
    for k in range(5):
        assert rel_residual(got[k], nums[k] @ np.linalg.inv(dens[k])) < 1e-13
    # the guard sits exactly at COND_LIMIT: just below passes, just past raises
    eye = np.eye(2)
    divide(eye[None], np.diag([1.0, 1.0 / (0.99 * COND_LIMIT)])[None])
    with pytest.raises(SingularDenominator) as err:
        divide(eye[None], np.diag([1.0, 1.0 / (1.01 * COND_LIMIT)])[None])
    assert err.value.cond == pytest.approx(1.01 * COND_LIMIT)
    with pytest.raises(SingularDenominator):
        divide(np.stack([eye, eye]), np.stack([eye, np.diag([1.0, 1.0 / (1.01 * COND_LIMIT)])]))


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


def test_point_prefix_owner_raises_and_sharer_records():
    seen = []

    @point_prefix
    def stage(source, pts, bad_from):
        """A per-point stage failing from index bad_from on."""
        seen.append(pts)
        pts.fail(np.arange(len(pts)) >= bad_from, lambda i: ValueError(f"{source} at {i}"))
        return pts.zs

    assert stage.__name__ == "stage" and stage.__doc__.startswith("A per-point")
    # an owned prefix is made from the points and raises its first failure
    assert np.array_equal(stage("a", [0.0, 1.0], 5), [0.0, 1.0])
    with pytest.raises(ValueError, match="b at 1"):
        stage("b", [0.0, 1.0, 2.0], bad_from=1)
    # a shared one records it for its owner, and passes through unchanged
    pts = PointPrefix([0.0, 1.0, 2.0])
    assert np.array_equal(stage("c", pts, 2), [0.0, 1.0]) and seen[-1] is pts
    assert str(pts.error) == "c at 2"
    # once its first point has failed, the next stacked call raises at once
    pts.fail(np.array([True]), lambda i: KeyError("first"))
    count = len(seen)
    with pytest.raises(KeyError):
        stage("d", pts, 0)
    assert len(seen) == count


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
        divide(eye[None], den[None])
    assert np.isnan(err.value.cond)
    pts = PointPrefix([0.0, 1.0, 2.0])
    out = right_quotient(np.stack([eye] * 3), np.stack([eye, den, eye]), points=pts)
    assert out.shape == (1, 2, 2) and len(pts) == 1
    with pytest.raises(SingularDenominator) as err:
        pts.finish()
    assert np.isnan(err.value.cond)


def test_non_finite_matrices_get_no_svd(monkeypatch):
    kernel_calls = spy_lapack(monkeypatch)
    eye = np.eye(2)
    # a finite matrix with cond 2e12 ahead of the bad one still gets its SVD
    ill = np.diag([1.0, 1.0 / (2 * COND_LIMIT)])
    for bad in (np.full((2, 2), np.inf), np.array([[1.0, 0.0], [0.0, -np.inf]]),
                np.array([[np.nan, 0.0], [0.0, 1.0]])):
        with pytest.raises(SingularDenominator) as err:
            divide(eye[None], bad[None])
        assert np.isnan(err.value.cond)
        pts = PointPrefix([0.0, 1.0, 2.0])
        right_quotient(np.stack([eye] * 3), np.stack([eye, bad, eye]), points=pts)
        assert len(pts) == 1 and np.isnan(pts.error.cond)
        pts = PointPrefix([0.0, 1.0, 2.0])
        right_quotient(np.stack([eye] * 3), np.stack([ill, bad, eye]), points=pts)
        assert len(pts) == 0 and pts.error.cond == pytest.approx(2 * COND_LIMIT)
    seen = [np.isfinite(ops[0]).all() for name, ops in kernel_calls if name == "svd"]
    assert seen and all(seen)


_CONDS = (1.0, 1e6, 0.4e12, 0.5e12, 0.99e12, 1.01e12, 2e12, 1e16)
_SCALES = (1e-300, 1e-150, 1e-50, 1.0, 1e50, 1e150, 1e300)


def _conditioned(rng, q, cond, scale):
    """U diag(sigma) V^H, sigma spaced geometrically from scale down to scale / cond."""
    u, v = (np.linalg.qr(rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)))[0]
            for _ in range(2))
    return (u * (scale * np.geomspace(1.0, 1.0 / cond, q))) @ v.conj().T


def _guard_cases(rng, q):
    """Matrices at every cond and scale, exactly singular ones, and NaN or infinite entries."""
    cases = [_conditioned(rng, q, cond, scale) for cond in _CONDS for scale in _SCALES]
    singular = np.eye(q, dtype=complex)
    singular[q - 1] = 2.0 * singular[0] if q > 1 else 0.0   # LU meets an exact zero pivot
    cases += [scale * singular for scale in _SCALES] + [np.zeros((q, q), dtype=complex)]
    for bad in (np.nan, np.inf, -np.inf):
        for part in (1.0, 1j):
            mat = _conditioned(rng, q, 10.0, 1.0)
            mat[q - 1, 0] += bad * part
            cases.append(mat)
    return cases


def _first_failure(flat, cond_limit):
    """(index, cond) of the first matrix failing np.linalg.cond one by one, else None.

    A matrix with a NaN or infinite entry fails with cond nan and no SVD.
    """
    for i, mat in enumerate(flat):
        cond = float(np.linalg.cond(mat)) if np.isfinite(mat).all() else np.nan
        if not math.isfinite(cond) or cond > cond_limit:
            return i, cond
    return None


def _check_guard(mats):
    """guard_cond on mats, over one point per leading entry, against _first_failure."""
    flat = mats.reshape(-1, *mats.shape[-2:])
    expected = _first_failure(flat, COND_LIMIT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = PointPrefix(np.arange(len(mats)))
        inv = guard_cond(mats, SingularDenominator, pts)
    cut = len(mats) if expected is None else expected[0] // (len(flat) // len(mats))
    assert len(pts) == cut and np.array_equal(inv, np.linalg.inv(mats[:cut]), equal_nan=True)
    if expected is None:
        assert pts.error is None
    else:
        assert type(pts.error) is SingularDenominator
        assert pts.error.cond.hex() == expected[1].hex()


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_guard_cond_decides_as_np_linalg_cond(rng, q):
    cases = _guard_cases(rng, q)
    eye = np.eye(q, dtype=complex)
    for mat in cases:
        _check_guard(mat[None])
        _check_guard(np.stack([np.stack([eye, eye]), np.stack([eye, mat]), np.stack([mat, eye])]))
    # stacks of 5 points with 2 matrices each, mostly well-conditioned ones
    good = [i for i, mat in enumerate(cases) if _first_failure(mat[None], COND_LIMIT) is None]
    for _ in range(60):
        picks = np.where(rng.random((5, 2)) < 0.9, rng.choice(good, (5, 2)),
                         rng.integers(len(cases), size=(5, 2)))
        _check_guard(np.array([[cases[i] for i in row] for row in picks]))


def test_guard_cond_on_an_empty_prefix_records_nothing():
    # every point failed an earlier stage: the stack has no matrix left to check
    pts = PointPrefix([])
    inv = guard_cond(np.empty((0, 2, 3, 3), dtype=complex), SingularDenominator, pts)
    assert inv.shape == (0, 2, 3, 3) and pts.error is None


def test_guard_cond_takes_no_svd_on_golden_extremal_at_64_points(monkeypatch, tmp_path):
    svd = []
    real_cond = _linalg.cond

    def spy(x):
        if sys._getframe(1).f_code.co_name == "guard_cond":
            svd.append(len(x))
        return real_cond(x)

    monkeypatch.setattr(_linalg, "cond", spy)
    rng = np.random.default_rng(64)
    # half on Stieltjes-inversion lines near [a, b] = [-0.5, 1.5], half away from it
    zs = [complex(x, eps) for x, eps in zip(rng.uniform(-0.7, 1.7, 32),
                                             rng.choice([0.1, 0.01], 32))]
    zs += random_z_points(rng, 32, -0.5, 1.5)
    for which in ("krein", "friedrichs"):
        for parity in ("even", "odd"):
            argv = ["extremal", "--input", str(GOLDEN / "moments_q2.json"), "--which", which,
                    "--parity", parity, "--output", str(tmp_path / "out.json")]
            assert main(argv + [f"--z={z.real!r}{z.imag:+}i" for z in zs]) == 0
    assert svd == []


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e-300])
def test_norms_of_huge_and_tiny_matrices_match_a_scaled_reference(rng, scale):
    def reference_norm(x):
        s = np.abs(x).max()
        return float(s * np.linalg.norm(x / s)) if s else 0.0

    def reference_residual(x, y):
        return reference_norm(x - y) / max(1.0, reference_norm(x), reference_norm(y))

    eps = np.finfo(float).eps
    for shape in ((1, 1), (3, 3), (4, 2)):
        x = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        y = x * (1.0 + 1e-6 * rng.normal(size=shape))
        stack = np.stack([x, y, 2 * x])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norms = frobs(stack).tolist()
            residuals = rel_residuals(stack, stack[::-1]).tolist()
        # frob's dot still warns when its sum overflows
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            norms += [frob(m) for m in stack]
            residuals += [rel_residual(u, v) for u, v in zip(stack, stack[::-1])]
        references = [reference_norm(m) for m in stack] * 2
        if scale > 1.0:
            for got, want in zip(norms, references):
                assert abs(got - want) <= 8 * eps * want
        else:
            # the squares underflow, so the norms keep np.linalg.norm's bits
            assert norms == [float(np.linalg.norm(m)) for m in stack] * 2
        for got, want in zip(residuals, [reference_residual(u, v)
                                         for u, v in zip(stack, stack[::-1])] * 2):
            assert abs(got - want) <= 8 * eps * max(1.0, want)
    # a norm with a non-finite entry stays inf or nan
    for bad in (np.inf, np.nan):
        mat = np.array([[bad, 1.0]], dtype=complex)
        assert [frob(mat).hex()] == [x.hex() for x in frobs(mat[None]).tolist()]
        assert frob(mat).hex() == ("nan" if np.isnan(bad) else "inf")


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
        assert np.array_equal(solve_factored(cholesky_pd(a), rhs), solve_pd(a, rhs, "matrix", 0))
