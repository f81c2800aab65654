"""Dyukarev-Stieltjes matrix parameter chains.

Second-type parameters (rhat_j, that_j, lhat_j, mhat_j) depend on both
interval endpoints; first-type parameters (M_j, L_j) depend on the left
endpoint only.  Every second-type parameter is computed by two
independent routes that must agree:

  quadratic forms      that_j = v^* R^*(a) K1[j]^{-1} R(a) v,
                       QF_j   = (u2 + a v s0)^* R^*(a) H2[j]^{-1} R(a) (u2 + a v s0),
                       mhat_j = that_j - that_{j-1},   lhat_j = QF_j - QF_{j-1},
                       rhat_j = s0 + QF_{j-1},         rhat_0 = s0, lhat_{-1} = s0;

  polynomial values    mhat_j = G1[j](a)^* khat1[j]^{-1} G1[j](a),
                       lhat_j = Q2[j](a)^* hhat2[j]^{-1} Q2[j](a),
                       rhat_j = G1[j](a)^{-1} T1[j](a),
                       that_j = Q2[j](a)^{-1} P2[j](a),

the last two the family's kept quotients (PolynomialFamily.quotient),
the first two solved against the complements khat1[j] and hhat2[j].

Agreement does not bound the forward error, so compute_second also
refuses a chain whose Hankel members are too ill-conditioned for
ACCURACY_RTOL.

The chains telescope (rhat_{j+1} - rhat_j = lhat_j and
that_j - that_{j-1} = mhat_j) and all members with index >= 0 are
positive definite for Hausdorff positive definite input.

rungs(chain, parity) is the one reading order of a chain: mhat_0, lhat_0,
mhat_1, .. or M_0, L_0, M_1, .., cut by parity.  resolvent_factors and
the continued fractions both read it.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

import numpy as np

from ._linalg import (
    PIVOT_RTOL,
    adjoint,
    cholesky,
    cholesky_pd,
    frobs,
    hermitize,
    inv,
    rel_residual,
    scaled_cond,
    skew_norms,
    solve,
    solve_factored,
    solve_pd,
)
from .errors import (
    IllConditioned,
    InconsistentLengths,
    NonPositiveParameter,
    PreconditionFailure,
    RouteMismatch,
    SingularPivot,
    WrongMatrixSize,
)
from .moments import (
    Kept,
    MomentSequence,
    build_hankels,
    finite_interval,
    hankel_entries,
    hankel_from_entries,
)
from .polynomials import build_family
from .reporting import IdentityChecks

ROUTE_RTOL = 1e-10

# compute_second refuses a chain whose largest K1 or H2 member a has
# eps * scaled_cond(a) above ACCURACY_RTOL.  Both routes read one Cholesky
# factor per family, so their agreement does not bound the forward error;
# that product estimates it (on s_j = W / (j + 1) the error was 0.01 to 6
# times it).
ACCURACY_RTOL = 1e-8

# recover_moments' Hermitian test of a parameter x: ||x - x^*||_F <= it * (1 + ||x||_F)
PARAM_HERMITIAN_RTOL = 1e-10

# the two printed variants of the P2 partial-sum identity, both in product_identities
P2_VARIANTS = ("p2_sum_through_current", "p2_sum_through_previous")


@dataclasses.dataclass(frozen=True, eq=False)
class DsmSecond:
    """Second-type parameter chains; ``lhat`` starts at index -1 (= s_0)."""

    q: int
    a: float
    b: float
    rhat: tuple
    that: tuple
    mhat: tuple
    lhat: tuple

    @property
    def lhat_from_zero(self):
        return self.lhat[1:]

    @property
    def s0(self):
        return self.lhat[0]


@dataclasses.dataclass(frozen=True, eq=False)
class DsmFirst:
    """First-type parameter chains M_j, L_j (left endpoint only)."""

    q: int
    a: float
    M: tuple
    L: tuple


def _forms(hank, family):
    """The Hermitian forms of the members of a family, and their increments (form_0 first), as stacks."""
    count, q = len(getattr(hank, family)), hank.seq.q
    forms = hermitize(np.array([hank.form(family, j) for j in range(count)],
                               dtype=complex).reshape(count, q, q))
    return forms, np.concatenate([forms[:1], forms[1:] - forms[:-1]])


def rungs(chain, parity):
    """The interleaved parameters of a DSM chain in reading order.

    mhat_0, lhat_0, mhat_1, .. for a DsmSecond and M_0, L_0, M_1, .. for a
    DsmFirst, read as far as the chain goes and cut to end on lhat or M at
    even parity, on mhat or L at odd parity.
    """
    second = isinstance(chain, DsmSecond)
    pair = (chain.mhat, chain.lhat_from_zero) if second else (chain.M, chain.L)
    count = min(2 * len(pair[0]), 2 * len(pair[1]) + 1)
    count -= count % 2 != ((parity == "odd") == second)   # an odd count ends on mhat or M
    return [pair[i % 2][i // 2] for i in range(count)]


def _agree(name, xs, ys):
    """RouteMismatch(name, j) at the first j where xs[j] and ys[j] differ beyond ROUTE_RTOL."""
    for j, (x, y) in enumerate(zip(xs, ys)):
        res = rel_residual(x, y)
        if res > ROUTE_RTOL:
            raise RouteMismatch(name, f"j={j}", res)


def compute_second(fam):
    """Second-type parameters of a PolynomialFamily, by both routes.

    Raises SingularPivot when the largest K1 or H2 member read is not
    positive definite, IllConditioned when it is too ill-conditioned for
    ACCURACY_RTOL, both before either route runs, and RouteMismatch when
    the routes disagree by more than ROUTE_RTOL.
    """
    seq = fam.seq
    hank = fam.hankels
    s0 = seq.s[0]

    # a singular largest member first, as the forms of the routes would raise it
    largest = [(family, len(getattr(hank, family)) - 1) for family in ("K1", "H2")
               if getattr(hank, family)]
    for family, j in largest:
        if hank.factor(family, j) is None:
            raise SingularPivot(family, j)
    for family, j in largest:
        cond = scaled_cond(hank.member(family, j))
        if np.finfo(float).eps * cond > ACCURACY_RTOL:
            raise IllConditioned(family, j, cond, ACCURACY_RTOL)

    that_qf, mhat_qf = _forms(hank, "K1")
    qf, lhat_qf = _forms(hank, "H2")
    rhat_qf = np.concatenate([s0[None], s0 + qf])

    # polynomial route, solved against the complements e_2j - Y_j^* x_j
    # themselves: through the family factor, whose diagonal blocks also give
    # the quadratic forms, the routes would agree far closer than either is right
    def solved(family, polys, count):
        """val_j^* C_j^{-1} val_j for j < count, val_j = polys[j](a) and C_j complement j, stacked."""
        vals = np.array([fam.at_a(polys[j]) for j in range(count)], dtype=complex)
        mats = np.array([hank.complements(family)[j] for j in range(count)], dtype=complex)
        shape = (count, seq.q, seq.q)
        return adjoint(vals.reshape(shape)) @ solve(mats.reshape(shape), vals.reshape(shape))

    mhat_poly = solved("K1", fam.g1, len(that_qf))
    lhat_poly = solved("H2", fam.q2, len(qf))
    rhat_poly = [fam.quotient(fam.g1[j], fam.t1[j])
                 for j in range(min(len(qf) + 1, len(fam.g1), len(fam.t1)))]
    that_poly = [fam.quotient(fam.q2[j], fam.p2[j])
                 for j in range(min(len(that_qf), len(fam.q2), len(fam.p2)))]

    with np.errstate(over="ignore"):   # frob rescales a sum that overflows
        _agree("mhat", mhat_qf, mhat_poly)
        _agree("lhat", lhat_qf, lhat_poly)
        _agree("rhat", rhat_qf, rhat_poly)
        _agree("that", that_qf, that_poly)

    return DsmSecond(
        q=seq.q, a=seq.a, b=seq.b,
        rhat=tuple(hermitize(rhat_qf)),
        that=tuple(that_qf),
        mhat=tuple(mhat_qf),
        lhat=(np.array(s0),) + tuple(lhat_qf),
    )


def compute_first(fam):
    """First-type parameters M_j (H1 forms) and L_j (K2 forms) of a PolynomialFamily."""
    hank = fam.hankels
    M, L = _forms(hank, "H1")[1], _forms(hank, "K2")[1]
    return DsmFirst(q=fam.seq.q, a=fam.seq.a, M=tuple(M), L=tuple(L))


def _ladder(inv_m, inv_l, q):
    """W_j = prod_{k<j} mhat_k^{-1} lhat_k^{-1}, X_j = W_j mhat_j^{-1}, and the
    Schur complements the parameters predict, khat1_j = X_j W_j^* and
    hhat2_j = X_j lhat_j^{-1} X_j^*, as stacks, from the stacks of the inverses of the parameters.
    """
    W = [np.eye(q, dtype=complex)]
    for k in range(min(len(inv_m), len(inv_l))):
        W.append(W[-1] @ inv_m[k] @ inv_l[k])
    W = np.array(W)
    X = W[:len(inv_m)] @ inv_m[:len(W)]
    khat1 = X @ adjoint(W[:len(X)])
    hhat2 = X[:len(inv_l)] @ inv_l[:len(X)] @ adjoint(X[:len(inv_l)])
    return W, X, khat1, hhat2


def product_identities(fam, dsm, first):
    """Residual report for the parameter/polynomial/Schur product identities.

    Two printed variants of the P2 partial-sum identity circulate; both are
    checked and the notes record which one the numerics support.
    """
    q = fam.seq.q
    hank = fam.hankels
    hhat1, hhat2, khat1, khat2 = map(hank.complements, ("H1", "H2", "K1", "K2"))
    at_a = fam.at_a
    eye = np.eye(q, dtype=complex)
    mh = dsm.mhat
    lh = dsm.lhat_from_zero
    s0 = dsm.s0
    # sum(mh[:j]) and sum(lh[:j]) at each j, added in the order sum() adds them
    mh_sums, lh_sums = (list(itertools.accumulate(chain, initial=0)) for chain in (mh, lh))

    inv_m, inv_l = (solve_factored(_chain_factors(chain, q, name, SingularPivot)[1], eye)
                    for name, chain in (("mhat", mh), ("lhat", lh)))
    W, X, khat1_pred, hhat2_pred = _ladder(inv_m, inv_l, q)
    # each complement inverted once, on its first read
    inv_hhat1, inv_hhat2, inv_khat1, inv_khat2 = (
        Kept(len(c), lambda j, c=c: inv(c[j])) for c in (hhat1, hhat2, khat1, khat2))

    checks = IdentityChecks()
    add = checks.add

    for j in range(min(len(fam.q2), len(X))):
        add("q2_alternating_product", j, at_a(fam.q2[j]), (-1.0) ** j * X[j])
    for j in range(1, min(len(fam.g1), len(W))):
        add("g1_alternating_product", j, at_a(fam.g1[j]), (-1.0) ** j * W[j])
    for j in range(1, min(len(fam.t1), len(W))):
        add("t1_alternating_product", j, at_a(fam.t1[j]), (-1.0) ** j * W[j] @ (s0 + lh_sums[j]))

    for j in range(1, min(len(fam.p2), len(fam.q2), len(mh))):
        p2a = at_a(fam.p2[j])
        q2a = at_a(fam.q2[j])
        add("p2_sum_through_current", j, p2a, q2a @ mh_sums[j + 1])
        add("p2_sum_through_previous", j, p2a, q2a @ mh_sums[j])

    for j in range(min(len(fam.q2), len(fam.g1), len(inv_m))):
        add("q2_from_g1", j, at_a(fam.q2[j]), at_a(fam.g1[j]) @ inv_m[j])
    for j in range(1, min(len(fam.g1), len(fam.q2) + 1, len(inv_l) + 1)):
        add("g1_from_q2", j, at_a(fam.g1[j]), -at_a(fam.q2[j - 1]) @ inv_l[j - 1])
    for j in range(1, min(len(fam.t1), len(fam.g1))):
        add("t1_from_g1", j, at_a(fam.t1[j]), at_a(fam.g1[j]) @ (s0 + lh_sums[j]))

    # Schur complements rebuilt from the parameters
    for j in range(min(len(khat1), len(khat1_pred))):
        add("khat1_from_params", j, khat1[j], khat1_pred[j])
    for j in range(min(len(hhat2), len(hhat2_pred))):
        add("hhat2_from_params", j, hhat2[j], hhat2_pred[j])

    # and the inverse direction: parameters rebuilt from Schur complements
    ws = [eye]
    for k in range(min(len(hhat2), len(khat1))):
        ws.append(hhat2[k] @ inv_khat1[k] @ ws[k])
    for j in range(min(len(mh), len(khat1), len(ws))):
        rebuilt = ws[j].conj().T @ hank.schur_solve("K1", j, ws[j])
        add("mhat_from_schur", j, mh[j], rebuilt)
    for j in range(min(len(lh), len(hhat2), len(khat1), len(ws))):
        core = khat1[j] @ hank.schur_solve("H2", j, khat1[j])
        wj_inv = inv(ws[j])
        add("lhat_from_schur", j, lh[j], wj_inv @ core @ wj_inv.conj().T)

    # alternating Schur products for the polynomial endpoint values
    def alternating(head, left, right, j):
        """head left[j-1] right[j-1] ... left[0] right[0], multiplied from the left."""
        return functools.reduce(
            np.matmul, (f for k in range(j - 1, -1, -1) for f in (left[k], right[k])), head)

    for j in range(1, min(len(fam.p1), len(khat2) + 1, len(hhat1) + 1)):
        prod = alternating(eye, khat2, inv_hhat1, j)
        add("p1_from_schur", j, at_a(fam.p1[j]), (-1.0) ** j * prod)
    for j in range(1, min(len(fam.g1), len(hhat2) + 1, len(khat1) + 1)):
        prod = alternating(eye, hhat2, inv_khat1, j)
        add("g1_from_schur", j, at_a(fam.g1[j]), (-1.0) ** j * prod)
    for j in range(min(len(fam.q2), len(khat1), len(hhat2) + 1)):
        prod = alternating(khat1[j], inv_hhat2, khat1, j)
        add("q2_from_schur", j, at_a(fam.q2[j]), (-1.0) ** j * prod)
    for j in range(min(len(fam.t2), len(hhat1), len(khat2) + 1)):
        prod = alternating(hhat1[j], inv_khat2, hhat1, j)
        add("t2_from_schur", j, at_a(fam.t2[j]), (-1.0) ** (j + 1) * prod)

    # first-type parameters from polynomial endpoint values
    for j in range(min(len(first.M), len(fam.t2), len(fam.p1))):
        add("m_first_from_polys", j, first.M[j], -fam.quotient(fam.t2[j], fam.p1[j]))
    for j in range(min(len(first.L), len(fam.p1) - 1, len(fam.t2))):
        add("l_first_from_polys", j, first.L[j], fam.quotient(fam.p1[j + 1], fam.t2[j]))

    report = checks.report()
    if P2_VARIANTS[0] not in report.maxima:
        return report
    cur, prev = (report.maxima[name] for name in P2_VARIANTS)
    return dataclasses.replace(report, notes=(
        f"P2 partial-sum identity: numerics support {p2_supported(report)} "
        f"(max residuals {cur:.3e} vs {prev:.3e})",))


def p2_supported(report):
    """The P2 variant a product_identities report supports: the smaller largest residual, current on a tie."""
    cur, prev = (report.maxima.get(name, 0.0) for name in P2_VARIANTS)
    return P2_VARIANTS[cur > prev]


def _chain_factors(chain, q, name, error, hermitian_rtol=None):
    """The q x q parameters of a chain as one stack, and the stack of their Cholesky factors.

    Each parameter must pass cholesky_pd's test of positive definiteness;
    with hermitian_rtol it must first be Hermitian within it,
    ||x - x^*||_F <= hermitian_rtol (1 + ||x||_F), and the stack returned is
    symmetrized.  error(name, j) names the first parameter that fails.  The
    chain is tested and factored as one stack (frobs, one cholesky);
    only a chain that this refuses is factored again matrix by matrix by
    cholesky_pd, to find that j.
    """
    if not len(chain):
        empty = np.empty((0, q, q), dtype=complex)
        return empty, empty
    stack = np.array(chain, dtype=complex)
    skew = np.zeros(len(stack), dtype=bool)
    if hermitian_rtol is not None:
        skew, size = skew_norms(stack)
        skew = skew > hermitian_rtol * (1.0 + size)
        stack = hermitize(stack)
    try:
        factors = cholesky(stack)
        smallest = (factors.diagonal(axis1=-2, axis2=-1).real ** 2).min(axis=-1)
        refused = not (smallest > PIVOT_RTOL * frobs(stack)).all()
    except np.linalg.LinAlgError:   # some parameter is not positive definite
        refused = True
    if refused or skew.any():
        factors = []
        for j, x in enumerate(stack):
            factors.append(None if skew[j] else cholesky_pd(x))
            if factors[-1] is None:
                raise error(name, j)
        factors = np.stack(factors)
    return stack, factors


def recover_moments(s0, mhat, lhat, a, b):
    """Rebuild the longest moment sequence the parameter chains support.

    The corner of each K1/H2 Hankel extension is the cross quadratic form
    plus the Schur complement predicted by the parameters, so moments
    unwind in the order s_1 (from mhat_0), s_2 (from lhat_0), s_3
    (from mhat_1), s_4 (from lhat_1), and so on.  The result classifies
    PositiveDefinite by construction.  Each chain is tested, factored and
    inverted as one stack; a parameter that is not Hermitian within
    PARAM_HERMITIAN_RTOL or not positive definite raises
    NonPositiveParameter, s_0 first, then the mhat and then the lhat chain.
    """
    a, b = finite_interval(a, b)
    s0 = _chain_factors([s0], None, "s0", NonPositiveParameter, PARAM_HERMITIAN_RTOL)[0][0]
    # the inverses of mhat_j and lhat_j, each through its Cholesky factor
    q = len(s0)
    eye = np.eye(q, dtype=complex)
    inv_m, inv_l = (
        solve_factored(_chain_factors(chain, q, name, NonPositiveParameter,
                                      PARAM_HERMITIAN_RTOL)[1], eye)
        for name, chain in (("mhat", mhat), ("lhat", lhat)))
    if not len(inv_l) <= len(inv_m) <= len(inv_l) + 1:
        raise InconsistentLengths(
            f"need as many mhat as lhat parameters, or one more; got {len(inv_m)} and {len(inv_l)}"
        )
    _, _, khat1, hhat2 = _ladder(inv_m, inv_l, q)

    def corner(family, complement, j):
        """e_{2j} of family from its complement: complement + Y_j^* F[j-1]^{-1} Y_j."""
        if j == 0:
            return complement
        entries = hankel_entries(family, s, a, b)
        y = np.concatenate(entries[j:2 * j], axis=0)
        prev = hankel_from_entries(entries, j - 1)
        return complement + y.conj().T @ solve_pd(prev, y, family, j - 1)

    s = [s0]
    for j, khat in enumerate(khat1):
        # s_{2j+1} from the corner e_{2j} = b s_{2j} - s_{2j+1} of K1[j]
        s.append(hermitize(b * s[2 * j] - corner("K1", khat, j)))
        if j < len(hhat2):
            # s_{2j+2} from the corner e_{2j} = -ab s_{2j} + (a+b) s_{2j+1} - s_{2j+2} of H2[j]
            s.append(hermitize(-a * b * s[2 * j] + (a + b) * s[2 * j + 1] - corner("H2", hhat2[j], j)))

    return MomentSequence(a=a, b=b, s=tuple(s))


def scalar_determinant_params(seq):
    """Determinant formulas for the scalar (q = 1) second-type parameters.

    mtilde_j = det(D3_j)^2 / (det K1[j] det K1[j-1]) where D3_j carries j
    Hankel rows of b s_k - s_{k+1} over the monomial row (1, a, .., a^j);
    ltilde_j = det(E2_j)^2 / (det H2[j] det H2[j-1]) with Hankel rows of
    shat over the row -(u2^* + a v^* s_0) R^*(a).  Index -1 determinants
    are 1, which reproduces the closed base cases.  The matrix-route
    parameters, which a caller checks them against, are returned with
    them: (mtilde, ltilde, dsm), dsm the DsmSecond of the sequence.
    """
    if seq.q != 1:
        raise WrongMatrixSize(f"scalar determinant route needs q = 1, got q = {seq.q}")
    fam = build_family(build_hankels(seq))
    hank = fam.hankels

    def det(mat):
        # an overflow shows as the PreconditionFailure of ratio, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return complex(np.linalg.det(mat))

    def ratio(family, j, last_row):
        """det(D)^2 / (det F[j] det F[j-1]), D the j Hankel rows of F over last_row(j).

        PreconditionFailure naming F and j where det(D)^2 overflows or the
        denominator underflows to 0.
        """
        if hank.factor(family, j) is None:   # det F[j] may be 0: raise before dividing
            raise SingularPivot(family, j)
        e = [complex(x[0, 0]) for x in hank.entries[family]]
        rows = [[e[i + k] for k in range(j + 1)] for i in range(j)] + [last_row(j)]
        member = getattr(hank, family)
        denom = det(member[j]) * (det(member[j - 1]) if j >= 1 else 1.0)
        try:
            return float((det(np.array(rows, dtype=complex)) ** 2 / denom).real)
        except (OverflowError, ZeroDivisionError):
            raise PreconditionFailure(
                f"determinant formula of {family} at j={j} leaves the float range") from None

    mtilde = [ratio("K1", j, lambda j: [seq.a ** k for k in range(j + 1)])
              for j in range(len(hank.K1))]
    ltilde = [ratio("H2", j, lambda j: list(-hank.R_at_a_times(hank.column("H2", j)).conj().T[0]))
              for j in range(len(hank.H2))]

    return tuple(mtilde), tuple(ltilde), compute_second(fam)
