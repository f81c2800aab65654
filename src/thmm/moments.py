"""Moment sequences and their block Hankel families.

A finite sequence of Hermitian q x q matrices s_0..s_m on an interval
[a, b] generates four block Hankel families
{e_{l+k}}_{l,k=0..j} from four entry sequences e.  A MomentSequence checks
and symmetrizes its moments as one read-only (m+1, q, q) stack, and its s
holds views of that stack.  The families are:

    H1[j]:  e_k = s_k,                    available for 2j     <= m,
    H2[j]:  e_k = shat_k,                 available for 2j + 2 <= m,
    K1[j]:  e_k = b s_k - s_{k+1},        available for 2j + 1 <= m,
    K2[j]:  e_k = -a s_k + s_{k+1},       same range as K1,

where shat_k = -ab s_k + (a+b) s_{k+1} - s_{k+2}.  The sequence is
Hausdorff positive definite when (H1[n], H2[n-1]) for m = 2n, or
(K1[n], K2[n]) for m = 2n + 1, are positive definite; everything
downstream of :func:`classify` requires that property.

A HankelSet is the one object of a sequence's block structure.  Each
family is one matrix, its largest member; the smaller members are its
leading blocks.  The corner Schur complements e_{2j} - Y_j^* F[j-1]^{-1} Y_j
and the second-kind columns (head; -e_0; ...; -e_{j-1}) are read from the
family entries.  Each family is also factored once: cholesky_pd runs on
its largest member on first use, the leading (j+1)q block of that factor
L is the factor of F[j], and its diagonal block j is the factor of the
Schur complement F[j] / F[j-1], so every solve against a member or a
complement reads L.  The Schur step of each member, and the transfer forms
and solves of each family, which all come from one forward solve on L,
are made once and kept.
"""

from __future__ import annotations

import collections.abc
import dataclasses

import numpy as np

from ._linalg import (
    PIVOT_RTOL,
    adjoint,
    cholesky_pd,
    frob,
    hermitize,
    min_eigenvalue,
    skew_norms,
    solve,
    solve_factored,
)
from .errors import (
    EmptyMeasure,
    InsufficientMoments,
    InvalidMomentSequence,
    PointOutsideInterval,
    PreconditionFailure,
    SingularPivot,
)

DEFAULT_HERMITIAN_RTOL = 1e-12


def _square_matrix(x, q=None, what="matrix"):
    m = np.array(x, dtype=complex)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidMomentSequence(f"{what} must be square, got shape {m.shape}")
    if q is not None and m.shape[0] != q:
        raise InvalidMomentSequence(f"{what} must be {q}x{q}, got shape {m.shape}")
    finite = np.isfinite(m)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise InvalidMomentSequence(f"{what}[{i}][{j}] is not finite: {m[i, j]}")
    return m


def _skew(stack):
    """Whether each matrix of a stack is less Hermitian than DEFAULT_HERMITIAN_RTOL allows."""
    skew, size = skew_norms(stack)
    return skew > DEFAULT_HERMITIAN_RTOL * (1.0 + size)


def _each_moment(s):
    """The moments s as one stack, each checked on its own as MomentSequence describes."""
    q = _square_matrix(s[0], what="s_0").shape[0]
    mats = []
    for j, x in enumerate(s):
        mat = _square_matrix(x, q, what=f"s_{j}")
        if _skew(mat[None])[0]:
            raise InvalidMomentSequence(f"s_{j} is not Hermitian within tolerance "
                                        f"(defect {frob(mat - adjoint(mat)):.3e})")
        mats.append(mat)
    return np.array(mats)


def finite_interval(a, b):
    """(a, b) as floats; InvalidMomentSequence unless a < b and both are finite."""
    a, b = float(a), float(b)
    if not a < b:
        raise InvalidMomentSequence(f"need a < b, got a={a}, b={b}")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InvalidMomentSequence(f"need a finite interval, got a={a}, b={b}")
    return a, b


@dataclasses.dataclass(frozen=True, eq=False)
class MomentSequence:
    """Hermitian q x q moments s_0..s_m attached to an interval [a, b].

    Inputs must be Hermitian within DEFAULT_HERMITIAN_RTOL relative to their
    size, ||s_j - s_j^*||_F <= DEFAULT_HERMITIAN_RTOL (1 + ||s_j||_F); they are
    stored symmetrized, so downstream code can rely on exact Hermiticity.
    The moments are checked and symmetrized as one read-only (m+1, q, q)
    stack, and s holds its matrices, views of it.  Only moments that fail
    are checked again one by one, so that the error names the first failing
    moment and test as that loop meets them: the shape of s_j, then its
    finiteness, then its Hermiticity, then s_{j+1}.  Instances are
    immutable and safe to share.
    """

    a: float
    b: float
    s: tuple
    q: int = dataclasses.field(init=False)

    @np.errstate(over="ignore", invalid="ignore")   # classify or render_json refuses an overflow
    def __post_init__(self):
        a, b = finite_interval(self.a, self.b)
        if not len(self.s):
            raise InvalidMomentSequence("need at least one moment (m >= 0)")
        try:
            stack = np.array(self.s, dtype=complex)
        except (TypeError, ValueError):   # moments of different shapes
            stack = None
        if not (stack is not None and stack.ndim == 3 and stack.shape[1] == stack.shape[2]
                and np.isfinite(stack).all() and not _skew(stack).any()):
            stack = _each_moment(self.s)
        stack = hermitize(stack)
        stack.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "s", tuple(stack))
        object.__setattr__(self, "q", stack.shape[1])

    @property
    def m(self):
        """Highest moment index."""
        return len(self.s) - 1


# The entries e_0, e_1, ... of each Hankel family as one stack, from the stack s
# of the moments on [a, b], and the head block of the family's second-kind
# column: the one definition of each family.
_ENTRIES = {
    "H1": (lambda s, a, b: s, lambda s, a, b: np.zeros_like(s[0])),
    "H2": (lambda s, a, b: -a * b * s[:-2] + (a + b) * s[1:-1] - s[2:],
           lambda s, a, b: -(a + b) * s[0] + s[1]),
    "K1": (lambda s, a, b: b * s[:-1] - s[1:], lambda s, a, b: s[0]),
    "K2": (lambda s, a, b: -a * s[:-1] + s[1:], lambda s, a, b: -s[0]),
}


def hankel_entries(family, s, a, b):
    """The entries e_0, e_1, ... of a Hankel family that the moments s on [a, b] give, stacked."""
    return _ENTRIES[family][0](np.asarray(s), a, b)


def hankel_from_entries(entries, j):
    """Block Hankel {e_{l+k}}_{l,k=0..j} assembled from a flat entry list."""
    e = np.asarray(entries[:2 * j + 1], dtype=complex)
    q = e.shape[-1]
    index = np.arange(j + 1)
    blocks = e[index[:, None] + index]   # block (l, k) is e_{l+k}
    return blocks.transpose(0, 2, 1, 3).reshape((j + 1) * q, (j + 1) * q)


class Kept(collections.abc.Sequence):
    """The items make(0), ..., make(count - 1), each made on its first read and kept.

    Indexing, len and iteration work as on the tuple of all the items,
    which is never built.
    """

    def __init__(self, count, make):
        self._items = [None] * count
        self._make = make

    def __len__(self):
        return len(self._items)

    def __getitem__(self, j):
        item = self._items[j]   # IndexError past the end; a negative j counts from it
        if item is None:
            j %= len(self._items)
            item = self._items[j] = self._make(j)
        return item


@dataclasses.dataclass(frozen=True, eq=False)
class HankelSet:
    """The four block Hankel families of a moment sequence, their factors and solves.

    A family F is "H1", "H2", "K1" or "K2"; entries[F] is its entry sequence
    e_0, e_1, ... and member F[j] is {e_{l+k}}_{l,k=0..j}.  The largest
    member is one read-only matrix and F[j] is its leading (j+1)q block, a
    view.  factor(F, j) and solve(F, j, rhs) work on F[j] through the leading
    block of the one factor of the family, and schur_solve(F, j, rhs) on the
    Schur complement F[j] / F[j-1] through its diagonal block j.  What the
    rest of the package reads is made once, on first use, and kept
    read-only:

      schur_row(F, j)  the Schur step x_j = F[j-1]^{-1} Y_j on the cross
                       column Y_j = (e_j; ...; e_{2j-1}).  It gives the Schur
                       complement e_{2j} - Y_j^* x_j and the Schur row
                       (-x_j^*, I_q) of the monic polynomial.
      complements(F)   the Schur complements e_{2j} - Y_j^* x_j, e_0 at j = 0.
      form(F, j)       the quadratic form c_j^* R_j(a)^* F[j]^{-1} R_j(a) c_j
                       on the transfer column c_j of the family (column).
                       It is w_j^* w_j, for w_j = L_j^{-1} R_j(a) c_j the
                       leading (j+1)q rows of one forward solve per
                       family, L^{-1} R_N(a) c_N on the family's factor.
      transfer(F, j)   F[j]^{-1} R_j(a) c_j, the back solve L_j^{-H} w_j.

    The polynomials pair the unit column v_j with the second-kind column
    second_kind(F, j) = (head; -e_0; ...; -e_{j-1}) of each family through
    the shift resolvent R_j(z) = (I - z T_j)^{-1} of the block lower shift
    T_j (R_many, R_at_a_times).
    """

    seq: MomentSequence
    entries: dict
    H1: tuple
    H2: tuple
    K1: tuple
    K2: tuple
    _kept: dict = dataclasses.field(default_factory=dict, init=False, repr=False)

    def member(self, family, j):
        if j < 0 or j >= len(getattr(self, family)):
            raise InsufficientMoments(
                f"{family}[{j}] needs moments beyond the supplied m={self.seq.m}"
            )
        return getattr(self, family)[j]

    def factor(self, family, j):
        """Lower Cholesky factor of F[j], or None if F[j] is not positive definite.

        It is the leading (j+1)q block of the family's one factor.
        """
        self.member(family, j)
        L = self._factor(family)
        size = (j + 1) * self.seq.q
        return L[:size, :size] if L is not None and len(L) >= size else None

    def keep(self, key, make):
        """make(), called on the first use of key only; an array is kept read-only."""
        if key not in self._kept:
            value = make()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            self._kept[key] = value
        return self._kept[key]

    def _factor(self, family):
        """cholesky_pd of the largest member in blocks of q, run on first use."""
        return self.keep(("factor", family),
                         lambda: cholesky_pd(getattr(self, family)[-1], block=self.seq.q))

    def solve(self, family, j, rhs):
        """F[j]^{-1} rhs through its factor; SingularPivot(family, j) if there is none."""
        L = self.factor(family, j)
        if L is None:
            raise SingularPivot(family, j)
        return solve_factored(L, rhs)

    def schur_solve(self, family, j, rhs):
        """(F[j] / F[j-1])^{-1} rhs through diagonal block j of the factor of F[j].

        The Schur complement F[j] / F[j-1] is L_jj L_jj^H.  SingularPivot(family, j)
        if F[j] is not positive definite.
        """
        L = self.factor(family, j)
        if L is None:
            raise SingularPivot(family, j)
        corner = j * self.seq.q
        return solve_factored(L[corner:, corner:], rhs)

    def cross(self, family, j):
        """Y_j = (e_j; ...; e_{2j-1}), the column bordering F[j-1] in F[j], for j >= 1."""
        entries = self.entries[family]
        if j < 1 or 2 * j > len(entries):
            raise InsufficientMoments(
                f"cross column {j} of {family} needs moments beyond the supplied m={self.seq.m}"
            )
        return np.concatenate(entries[j:2 * j], axis=0)

    def complements(self, family):
        """The Schur complements F[j] / F[j-1] of the family, each made on its first read.

        Member j is e_{2j} - Y_j^* x_j on the kept Schur step x_j, and e_0 at
        j = 0; making one factors nothing.  For a positive definite family
        each is a positive definite q x q matrix and the determinants
        telescope: det F[j] = prod_{i <= j} det of complement i.  They are
        more accurate than the product L_jj L_jj^H of diagonal block j of
        the family's factor, through which schur_solve solves against them.
        """
        corners = self.entries[family]

        def complement(j):
            if j == 0:
                return corners[0]
            y = self.cross(family, j)
            return hermitize(corners[2 * j] - y.conj().T @ self.schur_row(family, j))

        return self.keep(("complements", family),
                         lambda: Kept(len(getattr(self, family)), complement))

    def v(self, j):
        """The unit column (I_q; 0; ...; 0) of j + 1 blocks."""
        q = self.seq.q
        out = np.zeros(((j + 1) * q, q), dtype=complex)
        out[:q, :] = np.eye(q)
        return out

    def second_kind(self, family, j):
        """(head; -e_0; ...; -e_{j-1}), the second-kind column of the family.

        The head is 0 for H1, -(a+b) s_0 + s_1 for H2, s_0 for K1 and -s_0
        for K2.  The columns of one family are nested.
        """
        seq = self.seq
        entries = self.entries[family]
        if j > len(entries) or (family == "H2" and seq.m < 1):   # the H2 head reads s_1
            raise InsufficientMoments(
                f"second-kind column {j} of {family} needs moments beyond the supplied m={seq.m}"
            )
        head = _ENTRIES[family][1](seq.s, seq.a, seq.b)
        return np.concatenate([head] + [-e for e in entries[:j]], axis=0)

    def column(self, family, j):
        """The transfer column c_j: v_j for H1 and K1, u2_j + a v_j s_0 for H2, ut2_j for K2.

        u2_j and ut2_j are the second-kind columns of H2 and K2.
        """
        if family == "H2":
            return self.second_kind("H2", j) + self.seq.a * (self.v(j) @ self.seq.s[0])
        if family == "K2":
            return self.second_kind("K2", j)
        return self.v(j)

    def R_at_a_times(self, col):
        """R_j(a) col for a column of j + 1 blocks, by y_0 = c_0, y_l = a y_{l-1} + c_l."""
        q = self.seq.q
        out = np.array(col, dtype=complex)
        for l in range(q, len(out), q):
            out[l:l + q] += self.seq.a * out[l - q:l]
        return out

    def R_many(self, j, zs):
        """The (K, (j+1)q, (j+1)q) stack of R_j(z) over the points zs.

        R_j(z) = (I - z T_j)^{-1} is block lower Toeplitz with z^{l-k} I at
        block (l, k).  The powers of each z are Python complex products, so
        every block equals that of a loop over z to the last bit.
        """
        q = self.seq.q
        rows = []
        for z in np.asarray(zs, dtype=complex).reshape(-1).tolist():
            row = []
            power = 1.0 + 0.0j
            for _ in range(j + 1):
                row.append(power)
                power *= z
            row.append(0j)   # above the diagonal
            rows.append(row)
        # the scalar Toeplitz matrices, z^(l-k) at (l, k) for l >= k, times I_q
        # entry by entry, in C order: a later matmul's rounding can depend on
        # the layout
        lag = np.subtract.outer(np.arange(j + 1), np.arange(j + 1))
        lag[lag < 0] = j + 1
        toeplitz = np.array(rows, dtype=complex).reshape(len(rows), j + 2)[:, lag]
        blocks = np.multiply(toeplitz[:, :, None, :, None], np.eye(q)[:, None, :], order="C")
        n = (j + 1) * q
        return blocks.reshape(len(rows), n, n)

    def schur_row(self, family, j):
        """x_j = F[j-1]^{-1} Y_j for j >= 1, solved once and kept read-only."""
        return self.keep(("schur_row", family, j),
                         lambda: self.solve(family, j - 1, self.cross(family, j)))

    def transfer(self, family, j):
        """F[j]^{-1} R_j(a) c_j = L_j^{-H} w_j, solved once and kept read-only."""
        def back_solve():
            w = self._forward(family, j)
            return solve(self.factor(family, j).conj().T, w)
        return self.keep(("transfer", family, j), back_solve)

    def form(self, family, j):
        """c_j^* R_j(a)^* F[j]^{-1} R_j(a) c_j = w_j^* w_j, kept read-only."""
        def gram():
            w = self._forward(family, j)
            return w.conj().T @ w
        return self.keep(("form", family, j), gram)

    def _forward(self, family, j):
        """w_j = L_j^{-1} R_j(a) c_j: the leading (j+1)q rows of one forward solve.

        The columns c_j are nested and R_j(a) is block lower Toeplitz, so
        R_j(a) c_j is the leading (j+1)q rows of R_N(a) c_N for any N >= j,
        and L_j^{-1} of it the leading rows of L^{-1} R_N(a) c_N.  That one
        solve, on the family's factor L, is made on first use.
        """
        if self.factor(family, j) is None:
            raise SingularPivot(family, j)
        L = self._factor(family)
        w = self.keep(("forward", family), lambda: solve(
            L, self.R_at_a_times(self.column(family, len(L) // self.seq.q - 1))))
        return w[:(j + 1) * self.seq.q]


@np.errstate(over="ignore", invalid="ignore")   # classify refuses an entry that overflows
def build_hankels(seq):
    """The four families of the moments: each its largest member and that member's leading blocks."""
    entries, members = {}, {}
    s = np.array(seq.s)
    s.flags.writeable = False   # the H1 entries are its matrices
    for family in _ENTRIES:
        e = hankel_entries(family, s, seq.a, seq.b)
        entries[family] = tuple(e)
        if not len(e):
            members[family] = ()
            continue
        largest = hankel_from_entries(e, (len(e) - 1) // 2)
        largest.flags.writeable = False
        sizes = range(seq.q, len(largest), seq.q)
        members[family] = tuple(largest[:size, :size] for size in sizes) + (largest,)
    return HankelSet(seq=seq, entries=entries, **members)


@dataclasses.dataclass(frozen=True)
class Witness:
    family: str
    index: int
    min_eigenvalue: float


@dataclasses.dataclass(frozen=True)
class Classification:
    kind: str  # "PositiveDefinite" | "Degenerate" | "Indefinite"
    witness: Witness | None = None

    @property
    def is_positive_definite(self):
        return self.kind == "PositiveDefinite"


def classify(hank):
    """Hausdorff positive definiteness of the moments of a HankelSet.

    Decided by attempted Cholesky factorization of the defining Hankel
    pair, the largest members of their families; the set keeps those
    factors.  On failure the offending matrix and its smallest eigenvalue
    are reported; an eigenvalue below the negative pivot threshold means
    Indefinite, otherwise Degenerate.  A failing matrix that overflowed
    from finite moments has no eigenvalues: PreconditionFailure names it.
    """
    m = hank.seq.m
    if m % 2 == 0:
        n = m // 2
        checks = [("H1", n)]
        if n >= 1:
            checks.append(("H2", n - 1))
    else:
        n = (m - 1) // 2
        checks = [("K1", n), ("K2", n)]
    for family, j in checks:
        if hank.factor(family, j) is None:
            mat = hank.member(family, j)
            if not np.isfinite(mat).all():
                raise PreconditionFailure(
                    f"{family}[{j}] leaves the float range: classify cannot decide it")
            lam = min_eigenvalue(mat)
            scale = PIVOT_RTOL * (1.0 + frob(mat))
            kind = "Indefinite" if lam < -scale else "Degenerate"
            return Classification(kind, Witness(family, j, lam))
    return Classification("PositiveDefinite")


@dataclasses.dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported nonnegative Hermitian matrix measure on [a, b]."""

    a: float
    b: float
    points: tuple
    weights: tuple

    def __post_init__(self):
        pts = tuple(float(x) for x in self.points)
        if not pts:
            raise EmptyMeasure("a discrete measure needs at least one atom")
        if len(self.weights) != len(pts):
            raise InvalidMomentSequence("points and weights must have equal lengths")
        q = None   # the size of weight_0, which every later weight must have
        stored = []
        for i, raw in enumerate(self.weights):
            w = _square_matrix(raw, q, what=f"weight_{i}")
            q = w.shape[0]
            if np.linalg.norm(w - w.conj().T) > DEFAULT_HERMITIAN_RTOL * (1.0 + np.linalg.norm(w)):
                raise InvalidMomentSequence(f"weight_{i} is not Hermitian")
            w = hermitize(w)
            if min_eigenvalue(w) < -PIVOT_RTOL * (1.0 + frob(w)):
                raise InvalidMomentSequence(f"weight_{i} is not positive semidefinite")
            w.flags.writeable = False
            stored.append(w)
        a, b = finite_interval(self.a, self.b)
        for x in pts:
            if not np.isfinite(x):
                raise InvalidMomentSequence(f"atom at {x} is not finite")
            if x < a or x > b:
                raise PointOutsideInterval(f"atom at {x} lies outside [{a}, {b}]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", tuple(stored))

    def moments(self, count):
        """MomentSequence s_j = sum_k x_k^j w_k, j = 0..count.

        It is PositiveDefinite up to m = 2n + 1 if n+1 atoms have positive definite weight.
        """
        if count < 0:
            raise InvalidMomentSequence("moment count must be >= 0")
        s = []
        powers = np.ones(len(self.points), dtype=float)
        xs = np.asarray(self.points, dtype=float)
        for _ in range(count + 1):
            s.append(sum(p * w for p, w in zip(powers, self.weights)))
            powers = powers * xs
        return MomentSequence(a=self.a, b=self.b, s=tuple(s))

