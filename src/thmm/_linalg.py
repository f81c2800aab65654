"""Dense helpers for small complex Hermitian systems.

Positive definiteness is always decided by an attempted Cholesky
factorization with a relative pivot threshold, never by eigenvalue
iterations, so the decision is deterministic.  Eigenvalues are computed
only to report witnesses for failed classifications.

cholesky_pd is the one Cholesky factorization.  Run in blocks of q on
the largest member of a block Hankel family, it decides every member at
once: the factor of each member is a leading block of the one factor, and
its diagonal blocks factor the Schur complements.  HankelSet keeps one
such factor per family; solve_pd factors its matrix and drops the factor.

solve, inv, cholesky and cond are the package's one way to NumPy's LAPACK
kernels.  Each is np.linalg.solve, inv, cholesky or cond (p=None) to the
bit: one call of the same gufunc of numpy.linalg._umath_linalg, with the
same signature, under the same errstate, only without np.linalg's per-call
conversions and checks, which cost two to three times the kernel at q <= 4.
Each errstate is made once, when the module is imported, and bound to its
function by numpy's decorator form, so a call enters it without building
it.  Their operands are float64 or complex128 arrays.  eigvalsh, det and
norm, which are rare or off the hot path, stay np.linalg's.
"""

import functools
import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import SingularDenominator, SingularPivot

PIVOT_RTOL = 1e-12
COND_LIMIT = 1e12


def _lapack(message):
    """The errstate np.linalg calls its gufuncs in: a failed kernel raises LinAlgError(message)."""
    def failed(err, flag):
        raise LinAlgError(message)
    return np.errstate(call=failed, invalid="call", over="ignore", divide="ignore", under="ignore")


@_lapack("Singular matrix")
def solve(a, b):
    """np.linalg.solve(a, b): a @ x = b for one matrix a or a stack, b 1-D or not."""
    kernel = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    return kernel(a, b, signature="DD->D" if "c" in (a.dtype.kind, b.dtype.kind) else "dd->d")


@_lapack("Singular matrix")
def inv(a):
    """np.linalg.inv(a), of one matrix or of each matrix of a stack."""
    return _umath_linalg.inv(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


@_lapack("Matrix is not positive definite")
def cholesky(a):
    """np.linalg.cholesky(a), the lower factor of one matrix or of each matrix of a stack."""
    return _umath_linalg.cholesky_lo(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


@_lapack("SVD did not converge")
def _singular_values(a):
    """np.linalg.svd(a, compute_uv=False), largest first."""
    return _umath_linalg.svd(a, signature="D->d" if a.dtype.kind == "c" else "d->d")


@np.errstate(all="ignore")
def cond(a):
    """np.linalg.cond(a) of one matrix or a stack; inf, not NaN, where a has no NaN entry."""
    s = _singular_values(a)
    r = s[..., 0] / s[..., -1]
    if np.isnan(r).any():   # 0 / 0: an exactly singular a, unless a has a NaN entry
        r = np.where(np.isnan(r) & ~np.isnan(a).any(axis=(-2, -1)), np.inf, r)[()]
    return r


def frob(a):
    """np.linalg.norm(a), summed as it sums a complex array, without its dispatch.

    The entries are taken in memory order and the sum is re.re + im.im.
    When that sum overflows while every entry is finite, the norm is
    _scaled_frob's instead.  numpy's overflow warning of the sum still
    shows: suppressing it would cost each call more than the sum, so a
    caller that meets huge entries (cholesky_pd's pivot thresholds)
    suppresses it around its own calls.
    """
    flat = np.asarray(a, dtype=complex).ravel(order="K")
    re, im = flat.real, flat.imag
    norm = math.sqrt(re.dot(re) + im.dot(im))
    if norm == math.inf and np.isfinite(flat).all():
        return _scaled_frob(flat)
    return norm


@np.errstate(over="ignore")
def frobs(x):
    """frob of each matrix of a (K, m, n) stack, summed as np.linalg.norm sums one.

    That sum runs over the entries in memory order, so a stack of
    column-major matrices is summed column by column.  A matrix whose sum
    overflows while its entries are finite gets _scaled_frob's norm.
    """
    x = np.asarray(x, dtype=complex)
    if x.strides[-1] > x.strides[-2]:
        x = np.swapaxes(x, -1, -2)
    flat = x.reshape(len(x), x.shape[-2] * x.shape[-1])
    norms = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    if not math.isfinite(np.add.reduce(norms)):   # a norm is inf or nan, or their sum overflows
        redo = ~np.isfinite(norms) & np.isfinite(flat).all(axis=1)
        norms[redo] = [_scaled_frob(row) for row in flat[redo]]
    return norms


def _scaled_frob(flat):
    """Frobenius norm of finite entries whose squares overflow.

    The entries are divided by s, the largest |re| or |im| among them,
    before they are squared, and the norm of the quotients is multiplied
    by s.  It is inf only when the norm itself exceeds the largest float.
    """
    s = float(max(np.abs(flat.real).max(), np.abs(flat.imag).max()))
    re, im = flat.real / s, flat.imag / s
    return s * math.sqrt(re.dot(re) + im.dot(im))


def scalars(f, z):
    """f at each point of the array z, in Python complex arithmetic.

    NumPy's complex multiply and divide round differently from Python's
    (fused multiply-add, scaling by a reciprocal).  Scalar factors made
    this way equal those of a loop over z in Python to the last bit.
    """
    return np.array([f(x) for x in z.tolist()], dtype=complex)


def rel_residual(x, y):
    """Frobenius distance between x and y scaled by the larger norm (floor 1)."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return frob(x - y) / max(1.0, frob(x), frob(y))


def rel_residuals(x, y):
    """rel_residual of each pair of matrices of two (K, m, n) stacks."""
    return frobs(x - y) / np.maximum(1.0, np.maximum(frobs(x), frobs(y)))


def skew_norms(stack):
    """||x - x^*||_F and ||x||_F of each matrix x of a (K, m, m) stack, from one frobs call."""
    return frobs(np.concatenate([stack - adjoint(stack), stack])).reshape(2, len(stack))


def adjoint(x):
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def hermitize(a):
    """The Hermitian part (a + a^*) / 2 of a matrix, or of each matrix of a stack."""
    return 0.5 * (a + adjoint(a))


def scaled_cond(a):
    """2-norm condition number of a positive definite a scaled to unit diagonal.

    This one, not cond(a), governs the error of a Cholesky solve with a: the
    factor commutes with a diagonal scaling, and unit diagonal is within a
    factor n of the best scaling (van der Sluis), so a badly scaled but
    otherwise well-conditioned a loses no digits.
    """
    d = 1.0 / np.sqrt(a.diagonal().real)
    return float(cond(a * d[:, None] * d[None, :]))


@np.errstate(over="ignore")   # frob rescales a sum that overflows
def cholesky_pd(a, block=None):
    """Lower Cholesky factor of a Hermitian matrix, or None.

    a[:p, :p] counts as positive definite when each of its p pivots
    diag(L)**2 is above PIVOT_RTOL * ||a[:p, :p]||_F, the package-wide
    test; a NaN pivot or threshold fails it.  Without block this is the
    factor of a, or None.  With block it is the factor of the largest
    passing a[:p, :p], p a multiple of block, or None if none passes.
    The factor is one LAPACK Cholesky (cholesky); where LAPACK refuses a,
    which only happens when a is not positive definite, the next smaller
    leading block is tried.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    block = block or max(n, 1)
    thresholds = [PIVOT_RTOL * frob(a[:p, :p]) for p in range(block, n + 1, block)]
    for p in range(n, 0, -block):
        try:
            L = cholesky(a[:p, :p])
        except LinAlgError:
            continue
        # a block's threshold tests all pivots before it too; NaN propagates
        smallest = np.minimum.accumulate(L.diagonal().real ** 2)[block - 1::block]
        passed = smallest > thresholds[:len(smallest)]
        p = block * (len(passed) if passed.all() else int(np.argmin(passed)))
        return L[:p, :p] if p else None
    return None


def solve_pd(a, rhs, family, index):
    """Solve a @ x = rhs for Hermitian positive definite a, via Cholesky.

    SingularPivot(family, index) names a when it is not positive definite.
    """
    L = cholesky_pd(a)
    if L is None:
        raise SingularPivot(family, index)
    return solve_factored(L, rhs)


@_lapack("Singular matrix")
def solve_factored(L, rhs):
    """Solve L L^H x = rhs for a lower Cholesky factor L from cholesky_pd, or for a stack of them.

    Two backward stable LAPACK solves, solve's kernel on L and then on
    L^H, under solve's errstate, entered once; no inverse of the factor is formed.
    """
    return solve.__wrapped__(adjoint(L), solve.__wrapped__(L, rhs))


def min_eigenvalue(a):
    """Smallest eigenvalue of the Hermitian part; used only for witnesses."""
    return float(np.linalg.eigvalsh(hermitize(np.asarray(a, dtype=complex)))[0])


class PointPrefix:
    """The points a loop over z finishes before it raises, for stacked evaluation.

    A loop ``for z in zs: stage_1(z); ..; stage_s(z)`` raises at the first z
    that fails a stage, with the first stage that z fails.  Stacked code
    keeps that error by running each stage on ``zs``, the points before the
    first failure recorded so far: ``fail`` records a stage's first failure
    among them and drops that point and every later one.  A z-independent
    stage runs only if the first point reaches it, so ``shared_stage``
    precedes it.  ``finish`` raises the recorded error, if any.
    """

    def __init__(self, zs):
        self.zs = np.asarray(zs, dtype=complex).reshape(-1)
        self.error = None

    def __len__(self):
        return len(self.zs)

    def fail(self, bad, error):
        """Record error(i) for the first i with bad[i] and keep only zs[:i]."""
        hits = np.flatnonzero(np.asarray(bad)[:len(self.zs)])
        if hits.size:
            i = int(hits[0])
            self.error = error(i)
            self.zs = self.zs[:i]

    def shared_stage(self):
        """Raise the recorded error if the first point has failed already."""
        if self.error is not None and not len(self.zs):
            raise self.error

    def finish(self):
        if self.error is not None:
            raise self.error


def point_prefix(evaluate):
    """Call evaluate(source, pts, ...) as f(source, zs, ...), pts the PointPrefix of zs.

    zs may be a PointPrefix shared with other stacked calls: the call then
    records its first failing point there, for the owner's finish() to raise
    what a loop over z raises.  Otherwise the call owns a new prefix, and
    raises the error of the first failing point itself.
    """
    @functools.wraps(evaluate)
    def stacked(source, zs, *args, **kwargs):
        pts = zs if isinstance(zs, PointPrefix) else PointPrefix(zs)
        pts.shared_stage()
        value = evaluate(source, pts, *args, **kwargs)
        if pts is not zs:
            pts.finish()
        return value

    return stacked


def guard_cond(mats, error, points):
    """Check every matrix of a (K, ..., q, q) stack as np.linalg.cond would one by one.

    The leading axis runs over points.zs.  A matrix fails with error(cond)
    when its 2-norm condition number is not finite or exceeds COND_LIMIT;
    a matrix with a NaN or infinite entry (an overflowed one) fails with
    error(nan), without an SVD.  The first failing point is recorded in
    points (none when no point is left), and the inverses of the points
    that remain are returned.

    The inverses (inv) come first, and they decide most matrices
    without an SVD: kappa_2(A) <= ||A||_F ||A^-1||_F <= q max|a_ij| q max|x_ij|
    for X = A^-1, and A passes at once when that bound, taken with the
    computed X, is at most COND_LIMIT / 2.  For kappa_2(A) <= 1e12 the
    computed X is off by at most about q eps kappa relative (4e-4 at q = 4),
    so half the limit leaves room.  A matrix above the limit cannot pass
    either: the LU inverse has AX = I + R with ||R|| <= c q eps rho ||A|| ||X||
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 14.3),
    rho the growth factor of partial pivoting (at most 2^(q-1), in practice
    below 10).  ||A|| ||X|| <= COND_LIMIT / 2 = 5e11 keeps ||R|| below 1/2,
    so ||A^-1|| = ||X (I + R)^-1|| <= 2 ||X|| and kappa_2(A) <= COND_LIMIT.
    A matrix whose bound is larger or not finite, and every matrix of a
    stack that inv refuses, gets cond; so every failure and every cond it
    carries come from that SVD.
    """
    flat = mats.reshape(-1, *mats.shape[-2:])
    q = flat.shape[-1]
    # A stacked SVD fails as a whole on one non-finite matrix, and LAPACK
    # prints to stdout about one, so only the matrices before the first
    # such one are inverted or get a condition number; that one always
    # fails, which makes the later ones irrelevant.
    finite = np.isfinite(flat).all(axis=(1, 2))
    stop = len(flat) if finite.all() else int(np.argmin(finite))
    kappa = np.full(len(flat), np.nan)
    try:
        inverses = inv(flat[:stop])
    except LinAlgError:   # an exactly singular matrix
        inverses = None
        svd = np.arange(stop)
    else:
        with np.errstate(over="ignore"):
            kappa[:stop] = (q * np.abs(flat[:stop]).max(axis=(1, 2))) * (
                q * np.abs(inverses).max(axis=(1, 2)))
        svd = np.flatnonzero(~(kappa[:stop] <= COND_LIMIT / 2))
    if svd.size:
        kappa[svd] = cond(flat[svd])
    bad = ~np.isfinite(kappa) | (kappa > COND_LIMIT)
    rows = bad.reshape(len(points), math.prod(mats.shape[1:-2]))
    points.fail(rows.any(axis=1),
                lambda i: error(kappa[i * rows.shape[1] + int(np.argmax(rows[i]))]))
    shape = (len(points),) + mats.shape[1:]
    keep = math.prod(shape[:-2])
    if inverses is None:
        inverses = inv(flat[:keep])
    return inverses[:keep].reshape(shape)


def right_quotient(num, den, points):
    """num @ inv(den) for (K, ..., q, q) stacks of matrices, by a solve with den.

    The leading axis runs over points.zs.  Each denominator is checked by
    guard_cond first and a failure is SingularDenominator; the inverses
    guard_cond forms go unused, since a product with them would round
    differently.  The quotients of the points that remain are returned.
    """
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    guard_cond(den, SingularDenominator, points)
    num, den = num[:len(points)], den[:len(points)]
    return np.swapaxes(solve(np.swapaxes(den, -1, -2), np.swapaxes(num, -1, -2)), -1, -2)
