"""Dense helpers for small complex Hermitian systems.

Positive definiteness is always decided by an attempted Cholesky
factorization and one pivot rule (pivots_pass): LAPACK factors a and each
pivot has L_ii^2 > PIVOT_RTOL a_ii.  That ratio is the pivot of a scaled to
unit diagonal, so a diagonal scaling of a does not move the decision.
Eigenvalues only label a refused member (classify: Indefinite or Degenerate)
and test a weight for semidefiniteness (DiscreteMeasure), which no pivot can.

cholesky_pd factors one matrix, cholesky_pd_stack a parameter chain in
one call.  Run in blocks of q on the largest member of a block Hankel
family, cholesky_pd decides every member at once: the factor of each member
is a leading block of the one factor, and its diagonal blocks factor the
Schur complements.  HankelSet keeps one such factor per family, and
solve_factored solves against a factor.

solve, inv, cholesky and cond are the package's one way to NumPy's LAPACK
kernels.  Each is np.linalg.solve, inv, cholesky or cond (p=None) to the
bit: one call of the same gufunc of numpy.linalg._umath_linalg, with the
same signature, under the same errstate, only without np.linalg's per-call
conversions and checks, which cost two to three times the kernel at q <= 4.
Each errstate is made once, when the module is imported, and bound to its
function by numpy's decorator form, so a call enters it without building
it.  Their operands are float64 or complex128 arrays.  eigvalsh and det,
which are rare or off the hot path, stay np.linalg's.  frobs is the one
Frobenius norm, of each matrix of a stack, summed as np.linalg.norm sums
one, and rel_residuals the one relative residual.

A stacked evaluation at many z refuses the first point a check fails
(refuse_first), and in_loop_order makes its error the one a loop over z
raises first.
"""

import functools
import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import PreconditionFailure, SingularDenominator, ThmmError

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


@np.errstate(over="ignore")
def frobs(x):
    """Frobenius norm of each matrix of a (K, m, n) stack, summed as np.linalg.norm sums one.

    That sum runs over the entries in memory order, re.re + im.im, so a
    stack of column-major matrices is summed column by column.  A matrix
    whose sum overflows while its entries are finite gets _scaled_frob's norm.
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


def rel_residuals(x, y):
    """||x - y||_F / max(1, ||x||_F, ||y||_F) of each pair of matrices of two (K, m, n) stacks."""
    return frobs(x - y) / np.maximum(1.0, np.maximum(frobs(x), frobs(y)))


def skew_norms(stack):
    """||x - x^*||_F and ||x||_F of each matrix x of a (K, m, m) stack, from one frobs call."""
    return frobs(np.concatenate([stack - adjoint(stack), stack])).reshape(2, len(stack))


def adjoint(x):
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def hermitize(a):
    """The Hermitian part (a + a^*) / 2 of a matrix, or of each matrix of a stack.

    a is halved first, so the part of a finite a is finite.
    """
    h = 0.5 * a
    return h + adjoint(h)


def scaled_cond(a):
    """2-norm condition number of a positive definite a scaled to unit diagonal.

    This one, not cond(a), governs the error of a Cholesky solve with a: the
    factor commutes with a diagonal scaling, and unit diagonal is within a
    factor n of the best scaling (van der Sluis), so a badly scaled but
    otherwise well-conditioned a loses no digits.
    """
    d = 1.0 / np.sqrt(a.diagonal().real)
    return float(cond(a * d[:, None] * d[None, :]))


def pivots_pass(a, L):
    """L_ii^2 > PIVOT_RTOL a_ii for each pivot of L, the Cholesky factor of a (or of a stack); NaN fails."""
    return L.diagonal(axis1=-2, axis2=-1).real ** 2 > PIVOT_RTOL * a.diagonal(axis1=-2, axis2=-1).real


def cholesky_pd(a, block=None):
    """Lower Cholesky factor of a Hermitian matrix, or None.

    a[:p, :p] counts as positive definite when LAPACK factors it and each
    of its p pivots passes pivots_pass, diag(L)**2 > PIVOT_RTOL *
    diag(a[:p, :p]).  Without block this is the factor of a, or None.  With
    block it is the factor of the largest passing a[:p, :p], p a multiple
    of block, or None if none passes: p is the first failing pivot rounded
    down to a multiple of block.  The factor is one LAPACK Cholesky
    (cholesky); where LAPACK refuses a, which only happens when a is not
    positive definite, the next smaller leading block is tried.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    block = block or max(n, 1)
    for p in range(n, 0, -block):
        try:
            L = cholesky(a[:p, :p])
        except LinAlgError:
            continue
        passed = pivots_pass(a[:p, :p], L)
        p = p if passed.all() else int(np.argmin(passed)) // block * block
        return L[:p, :p] if p else None
    return None


@np.errstate(all="ignore")   # a matrix LAPACK refuses gets a NaN factor, which fails the rule
def cholesky_pd_stack(stack):
    """cholesky of each matrix of a (K, q, q) stack, in one call, and whether each passes pivots_pass."""
    L = cholesky.__wrapped__(stack)
    return L, pivots_pass(stack, L).all(axis=-1)


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


def refuse_first(bad, error):
    """Raise error(i), its point set to i, for the first i with bad[i]; nothing if none is bad."""
    hits = np.flatnonzero(bad)
    if hits.size:
        exc = error(i := int(hits[0]))
        exc.point = i
        raise exc


def in_loop_order(evaluate):
    """evaluate(source, zs, ...) at the points zs, raising what a loop over zs raises first.

    A loop ``for z in zs: stage_1(z); ..; stage_s(z)`` raises at the first z
    that fails a stage, with the first stage that z fails.  A stacked
    evaluation runs each stage on every point and raises at the first point
    it refuses (refuse_first), so an error at point i > 0 is the loop's
    unless a point before i fails a later stage.  Those points passed every
    stage up to the failing one, so evaluate is run again on zs[:i]: if that
    passes, the error stands, and if not, it fails at a later stage and its
    error is decided the same way.  A failing call thus reruns evaluate at
    most once per stage.  A z-independent stage raises with point None,
    which stands: the first point has reached it.
    """
    @functools.wraps(evaluate)
    def stacked(source, zs, *args, **kwargs):
        zs = np.asarray(zs, dtype=complex).reshape(-1)
        try:
            return evaluate(source, zs, *args, **kwargs)
        except ThmmError as error:
            if error.point:
                stacked(source, zs[:error.point], *args, **kwargs)
            raise

    return stacked


def finite_values(zs, values, what):
    """The (K, r, c) values at the points zs; PreconditionFailure names the first not finite."""
    refuse_first(~np.isfinite(values).all(axis=(1, 2)), lambda i: PreconditionFailure(
        f"{what} value at z={complex(zs[i])} is not finite"))
    return values


def guard_cond(mats, error):
    """Check every matrix of a (K, q, q) stack as np.linalg.cond would one by one.

    Matrix k belongs to point k.  A matrix fails with error(cond) when its
    2-norm condition number is not finite or exceeds COND_LIMIT; a matrix
    with a NaN or infinite entry (an overflowed one) fails with error(nan),
    without an SVD.  The first failing matrix is refused (refuse_first);
    if none fails, the inverses of all of them are returned.

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
    q = mats.shape[-1]
    # A stacked SVD fails as a whole on one non-finite matrix, and LAPACK
    # prints to stdout about one, so only the matrices before the first
    # such one are inverted or get a condition number; that one always
    # fails, which makes the later ones irrelevant.
    finite = np.isfinite(mats).all(axis=(1, 2))
    stop = len(mats) if finite.all() else int(np.argmin(finite))
    kappa = np.full(len(mats), np.nan)
    try:
        inverses = inv(mats[:stop])
    except LinAlgError:   # an exactly singular matrix, which its cond fails
        inverses = None
        svd = np.arange(stop)
    else:
        with np.errstate(over="ignore"):
            kappa[:stop] = (q * np.abs(mats[:stop]).max(axis=(1, 2))) * (
                q * np.abs(inverses).max(axis=(1, 2)))
        svd = np.flatnonzero(~(kappa[:stop] <= COND_LIMIT / 2))
    if svd.size:
        kappa[svd] = cond(mats[svd])
    refuse_first(~np.isfinite(kappa) | (kappa > COND_LIMIT), lambda i: error(kappa[i]))
    return inverses


def right_quotient(num, den):
    """num @ inv(den) for (K, q, q) stacks of matrices, by a solve with den.

    Matrix k belongs to point k.  Each denominator is checked by guard_cond
    first and a failure is SingularDenominator; the inverses guard_cond
    forms go unused, since a product with them would round differently.
    """
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    guard_cond(den, SingularDenominator)
    return np.swapaxes(solve(np.swapaxes(den, -1, -2), np.swapaxes(num, -1, -2)), -1, -2)
