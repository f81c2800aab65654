import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thmm import SingularDenominator
from thmm import _linalg
from thmm.errors import PreconditionFailure
from thmm._linalg import (
    COND_LIMIT,
    PIVOT_RTOL,
    adjoint,
    cholesky,
    cholesky_pd,
    cond,
    frobs,
    guard_cond,
    hermitize,
    in_loop_order,
    inv,
    refuse_first,
    rel_residuals,
    right_quotient,
    scaled_cond,
    solve,
    solve_factored,
)
from thmm.cli import main

from conftest import moment_file_at_parity, random_z_points, rel, spy_lapack

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
    assert rel(ours, np.linalg.cholesky(a)) < 1e-10
    assert rel(ours @ ours.conj().T, a) < 1e-12


def test_cholesky_rejects_indefinite_and_singular():
    assert cholesky_pd(np.array([[1.0, 2.0], [2.0, 1.0]])) is None
    assert cholesky_pd(np.array([[1.0, 1.0], [1.0, 1.0]])) is None
    assert cholesky_pd(hermitize(np.zeros((2, 2)))) is None
    # a NaN pivot or threshold compares False, so it must fail the test too
    assert cholesky_pd(hermitize(np.array([[np.nan]]))) is None
    assert cholesky_pd(np.array([[np.inf]])) is None
    assert cholesky_pd(np.array([[1.0, np.nan], [np.nan, 1.0]])) is None


@np.errstate(invalid="ignore")   # inf - inf past an infinite entry
def _column_loop_size(a, block=None, pivot_rtol=1e-12):
    """Size of the factor of a column-by-column Cholesky loop, the reference for cholesky_pd.

    Each pivot d_k = a_kk - |L[k, :k]|^2 must exceed pivot_rtol * a_kk; the
    loop stops at the first that does not and keeps the passing blocks
    before it.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    block = block or max(n, 1)
    L = np.zeros_like(a)
    for k in range(n):
        d = a[k, k].real - np.vdot(L[k, :k], L[k, :k]).real
        if not d > pivot_rtol * a[k, k].real:
            return k - k % block
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


def _pivot_cases(rng, n):
    """Hermitian n x n matrices that stop a Cholesky factorization at each pivot, or at none."""
    cases = []
    for k in range(n):
        # a pivot just below and just above the threshold of its own diagonal entry
        base = _with_pivot(np.random.default_rng(k), n, k, 0.0)[k, k].real
        for factor in (0.99, 1.01):
            pivot = factor * PIVOT_RTOL * base
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
    return cases


@pytest.mark.parametrize("q,blocks", [(1, 4), (2, 3), (3, 2)])
def test_cholesky_decision_is_the_column_loops(rng, q, blocks):
    n = q * blocks
    sizes = set()
    for a in _pivot_cases(rng, n):
        for block in (None, q):
            L = cholesky_pd(a, block=block)
            size = 0 if L is None else len(L)
            assert size == _column_loop_size(a, block), (block, np.diag(a))
            sizes.add(size)
    assert sizes == set(range(0, n + 1, q))   # every outcome is reached


@pytest.mark.parametrize("q,blocks", [(1, 4), (2, 3), (3, 2)])
def test_cholesky_pd_of_d_a_d_is_d_times_the_factor_of_a(rng, q, blocks):
    # a power-of-two diagonal scaling is exact in binary floating point, and
    # each pivot over its own diagonal entry does not move under it
    n = q * blocks
    sizes = set()
    for a in [a for a in _pivot_cases(rng, n) if np.isfinite(a).all()]:
        d = 2.0 ** rng.choice([-30.0, -14.0, 0.0, 14.0, 30.0], size=n)
        for block in (None, q):
            L = cholesky_pd(a, block=block)
            scaled = cholesky_pd(d[:, None] * a * d[None, :], block=block)
            assert (scaled is None) == (L is None)
            if L is not None:
                assert np.array_equal(scaled, d[:len(L), None] * L)
                sizes.add(len(L))
    assert sizes == set(range(q, n + 1, q))


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
            assert rel(L[:p, :p], lead) < 1e-14
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
    assert rel(right_quotient(num[None], den[None])[0], num @ np.linalg.inv(den)) < 1e-13
    # a stack of K = 5 pairs divides pair by pair
    nums = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    dens = rng.normal(size=(5, 3, 3)) + np.eye(3) * 4
    got = right_quotient(nums, dens)
    assert got.shape == (5, 3, 3)
    for k in range(5):
        assert rel(got[k], nums[k] @ np.linalg.inv(dens[k])) < 1e-13
    # the guard sits exactly at COND_LIMIT: just below passes, just past raises
    eye = np.eye(2)
    right_quotient(eye[None], np.diag([1.0, 1.0 / (0.99 * COND_LIMIT)])[None])
    with pytest.raises(SingularDenominator) as err:
        right_quotient(eye[None], np.diag([1.0, 1.0 / (1.01 * COND_LIMIT)])[None])
    assert err.value.cond == pytest.approx(1.01 * COND_LIMIT)
    with pytest.raises(SingularDenominator):
        right_quotient(np.stack([eye, eye]),
                       np.stack([eye, np.diag([1.0, 1.0 / (1.01 * COND_LIMIT)])]))


def _staged(stages):
    """A stacked evaluation over the points 0, 1, .. that runs stages in order, and its calls.

    Stage s (from 1) is the set of points it refuses, with "stage s at k",
    or None for a z-independent stage, which refuses with "stage s".  calls
    gets the number of points of each call.
    """
    calls = []

    @in_loop_order
    def evaluate(source, zs):
        """Run the stages at zs."""
        calls.append(len(zs))
        for s, bad in enumerate(stages, 1):
            if bad is None:
                raise PreconditionFailure(f"stage {s}")
            refuse_first(np.isin(zs.real, sorted(bad)),
                         lambda i, s=s: PreconditionFailure(f"stage {s} at {i}"))
        return zs

    return evaluate, calls


def _loop_error(stages, count):
    """The message of the error a loop over the points 0..count-1 raises first, or None."""
    for k in range(count):
        for s, bad in enumerate(stages, 1):
            if bad is None:
                return f"stage {s}"
            if k in bad:
                return f"stage {s} at {k}"
    return None


def test_in_loop_order_keeps_loop_error_order():
    # stage 1 refuses point 2, and stage 2 point 1, which a loop reaches first
    evaluate, calls = _staged([{2, 3}, {1}])
    with pytest.raises(PreconditionFailure, match="^stage 2 at 1$") as err:
        evaluate(None, [0.0, 1.0, 2.0, 3.0])
    assert err.value.point == 1 and calls == [4, 2, 1]
    assert evaluate.__name__ == "evaluate" and evaluate.__doc__ == "Run the stages at zs."
    # random stages over 1 to 6 points, against a loop over them: one call
    # when nothing fails, at most one more per stage when something does
    rng = np.random.default_rng(33)
    for _ in range(300):
        count = int(rng.integers(1, 7))
        stages = [None if rng.random() < 0.15 else set(np.flatnonzero(rng.random(count) < 0.2))
                  for _ in range(int(rng.integers(1, 5)))]
        evaluate, calls = _staged(stages)
        expected = _loop_error(stages, count)
        try:
            assert np.array_equal(evaluate(None, np.arange(count)), np.arange(count))
        except PreconditionFailure as error:
            assert str(error) == expected and len(calls) <= 1 + len(stages)
        else:
            assert expected is None and calls == [count]


def test_in_loop_order_reaches_a_z_independent_stage_only_past_the_first_point():
    # the first point fails stage 1: the z-independent stage 2 is never reached
    evaluate, calls = _staged([{0, 1}, None])
    with pytest.raises(PreconditionFailure, match="^stage 1 at 0$") as err:
        evaluate(None, [0.0, 1.0, 2.0])
    assert err.value.point == 0 and calls == [3]
    # the first point passes stage 1 and reaches it, and its error has no point
    evaluate, calls = _staged([{1}, None])
    with pytest.raises(PreconditionFailure, match="^stage 2$") as err:
        evaluate(None, [0.0, 1.0, 2.0])
    assert err.value.point is None and calls == [3, 1]
    # a refusal that does not depend on z stands at once
    evaluate, calls = _staged([None, {0}])
    with pytest.raises(PreconditionFailure, match="^stage 1$"):
        evaluate(None, [0.0, 1.0])
    assert calls == [2]


def test_right_quotient_records_first_failing_point():
    eye = np.eye(2)
    bad = np.diag([1.0, 0.0])
    # one denominator per point; the first bad point is 1
    den = np.stack([eye, bad, bad])
    with pytest.raises(SingularDenominator) as err:
        right_quotient(np.ones_like(den), den)
    assert err.value.point == 1
    # a non-finite denominator fails, as a singular one does
    inf_den = np.stack([eye, np.full((2, 2), np.inf)])
    with pytest.raises(SingularDenominator) as err:
        right_quotient(np.stack([eye, eye]), inf_den)
    assert err.value.point == 1


def test_right_quotient_svd_failure_is_singular_denominator():
    eye = np.eye(2)
    # np.linalg.cond raises LinAlgError on a NaN matrix; the guard fails it as cond ~ nan
    # without taking its SVD
    den = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cond(den)
    with pytest.raises(SingularDenominator) as err:
        right_quotient(eye[None], den[None])
    assert np.isnan(err.value.cond)
    with pytest.raises(SingularDenominator) as err:
        right_quotient(np.stack([eye] * 3), np.stack([eye, den, eye]))
    assert err.value.point == 1 and np.isnan(err.value.cond)


def test_non_finite_matrices_get_no_svd(monkeypatch):
    kernel_calls = spy_lapack(monkeypatch)
    eye = np.eye(2)
    # a finite matrix with cond 2e12 ahead of the bad one still gets its SVD
    ill = np.diag([1.0, 1.0 / (2 * COND_LIMIT)])
    for bad in (np.full((2, 2), np.inf), np.array([[1.0, 0.0], [0.0, -np.inf]]),
                np.array([[np.nan, 0.0], [0.0, 1.0]])):
        with pytest.raises(SingularDenominator) as err:
            right_quotient(eye[None], bad[None])
        assert np.isnan(err.value.cond)
        with pytest.raises(SingularDenominator) as err:
            right_quotient(np.stack([eye] * 3), np.stack([eye, bad, eye]))
        assert err.value.point == 1 and np.isnan(err.value.cond)
        with pytest.raises(SingularDenominator) as err:
            right_quotient(np.stack([eye] * 3), np.stack([ill, bad, eye]))
        assert err.value.point == 0 and err.value.cond == pytest.approx(2 * COND_LIMIT)
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
    """guard_cond on mats, over one point per matrix, against _first_failure."""
    expected = _first_failure(mats, COND_LIMIT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            inv = guard_cond(mats, SingularDenominator)
        except SingularDenominator as error:
            refused = error
        else:
            refused = None
    if expected is None:
        assert refused is None and np.array_equal(inv, np.linalg.inv(mats), equal_nan=True)
    else:
        assert type(refused) is SingularDenominator and refused.point == expected[0]
        assert refused.cond.hex() == expected[1].hex()


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_guard_cond_decides_as_np_linalg_cond(rng, q):
    cases = _guard_cases(rng, q)
    eye = np.eye(q, dtype=complex)
    for mat in cases:
        _check_guard(mat[None])
        _check_guard(np.stack([eye, eye, eye, mat, mat, eye]))
    # stacks of 10 points, mostly well-conditioned ones
    good = [i for i, mat in enumerate(cases) if _first_failure(mat[None], COND_LIMIT) is None]
    for _ in range(60):
        picks = np.where(rng.random(10) < 0.9, rng.choice(good, 10),
                         rng.integers(len(cases), size=10))
        _check_guard(np.array([cases[i] for i in picks]))


def test_guard_cond_on_an_empty_prefix_records_nothing():
    # an evaluation at no point: the stack has no matrix to check or refuse
    inv = guard_cond(np.empty((0, 3, 3), dtype=complex), SingularDenominator)
    assert inv.shape == (0, 3, 3)


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
            inp = moment_file_at_parity(GOLDEN / "moments_q2.json", parity, tmp_path)
            argv = ["extremal", "--input", inp, "--which", which,
                    "--output", str(tmp_path / "out.json")]
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
        references = [reference_norm(m) for m in stack]
        if scale > 1.0:
            for got, want in zip(norms, references):
                assert abs(got - want) <= 8 * eps * want
        else:
            # the squares underflow, so the norms keep np.linalg.norm's bits
            assert norms == [float(np.linalg.norm(m)) for m in stack]
        for got, want in zip(residuals, [reference_residual(u, v)
                                         for u, v in zip(stack, stack[::-1])]):
            assert abs(got - want) <= 8 * eps * max(1.0, want)
    # a norm with a non-finite entry stays inf or nan
    for bad in (np.inf, np.nan):
        mat = np.array([[bad, 1.0]], dtype=complex)
        assert [x.hex() for x in frobs(mat[None]).tolist()] == ["nan" if np.isnan(bad) else "inf"]


def test_rel_residuals_sum_as_np_linalg_norm(rng):
    def reference(x, y):
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        return float(np.linalg.norm(x - y) / max(1.0, np.linalg.norm(x), np.linalg.norm(y)))

    for shape in ((1, 1), (3, 3), (8, 2), (40, 40)):
        for scale in (1e-3, 1.0, 1e8):
            x = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            y = x + 1e-9 * rng.normal(size=shape)
            for a, b in ((x, y), (x.T, y.T), (x.real, y), (x[::2], y[::2])):
                assert rel_residuals(a[None], b[None]).tolist() == [reference(a, b)]
            stack = np.stack([x, y, 2 * x])
            assert rel_residuals(stack, stack[::-1]).tolist() == [
                reference(u, v) for u, v in zip(stack, stack[::-1])]
    assert frobs(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)
    assert rel_residuals(np.zeros((0, 2, 2)), np.zeros((0, 2, 2))).shape == (0,)
