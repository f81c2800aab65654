"""Orthogonal matrix polynomial families and their second-kind companions.

Eight families are attached to one moment sequence, two to each Hankel
family F.  Writing row_j(F) = (-Y_j^* F[j-1]^{-1}, I_q) for the Schur row
of F (Y_j its cross column, HankelSet.schur_row), R_j(z) for the shift
resolvent, v_j for the unit column and u_j(F) = (head_F; -e_0; ...; -e_{j-1})
for the second-kind column of F (HankelSet.second_kind, e the entries of F):

    P1[j](z) = row_j(H1)   R_j(z) v_j          monic, degree j
    Q1[j](z) = -row_j(H1)  R_j(z) u_j(H1)      degree j - 1
    P2[j](z) = row_j(H2)   R_j(z) v_j          monic, degree j
    Q2[j](z) = -row_j(H2)  R_j(z) (u_j(H2) + z v_j s_0)
    G1[j](z) = row_j(K1)   R_j(z) v_j          monic, degree j
    T1[j](z) = row_j(K1)   R_j(z) u_j(K1)
    G2[j](z) = row_j(K2)   R_j(z) v_j          monic, degree j
    T2[j](z) = row_j(K2)   R_j(z) u_j(K2)

The heads are 0, -(a+b) s_0 + s_1, s_0 and -s_0 for H1, H2, K1 and K2, so
the j = 0 members degenerate to P1 = P2 = G1 = G2 = I, Q1 = 0,
Q2(z) = (a+b) s_0 - s_1 - z s_0, T1 = s_0, T2 = -s_0.  Since R_j(z) v_j
is the column of powers (I; z I; ...; z^j I), the z^p coefficient of a
monic member is block p of its Schur row, (-x_j^*, I_q), plus 0.0, which
turns a -0.0 entry into +0.0 as the sum row[p] I + 0.0 does.  Only
the second-kind families Q1, Q2, T1 and T2 are extracted by block
convolution against R_j.  Each member is made on its first read and kept,
so a command makes only the members it reads.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from ._linalg import adjoint, inv, solve
from .errors import SingularNormalization, SingularPivot
from .moments import HankelSet, Kept, MomentSequence
from .reporting import IdentityChecks


@dataclasses.dataclass(frozen=True, eq=False)
class MatrixPoly:
    """Matrix polynomial sum_k coeffs[k] z^k with a family tag."""

    coeffs: tuple
    family: str
    index: int


def eval_poly(p, z):
    """Horner evaluation sum_k A_k z^k."""
    z = complex(z)
    acc = np.array(p.coeffs[-1], dtype=complex)
    for c in reversed(p.coeffs[:-1]):
        acc = acc * z + c
    return acc


def adjoint_eval(p, z):
    """sum_k A_k^* z^k, which equals eval_poly(p, conj(z)) conjugate-transposed.

    z is one point, giving a q x q value, or an array of K points, giving
    the (K, q, q) stack of values.
    """
    acc = np.array(p.coeffs[-1].conj().T, dtype=complex)
    if np.ndim(z):
        z = np.asarray(z, dtype=complex)[:, None, None]
        acc = np.repeat(acc[None], len(z), axis=0)
    else:
        z = complex(z)
    for c in reversed(p.coeffs[:-1]):
        acc = acc * z + c.conj().T
    return acc


def _adjoint_inverse(p, a):
    """adjoint_eval(p, a)^{-1}; SingularNormalization where it cannot be inverted."""
    try:
        return inv(adjoint_eval(p, a))
    except np.linalg.LinAlgError as exc:
        raise SingularNormalization(f"{p.family}[{p.index}]^*(a) is numerically singular") from exc


def _schur_row(hank, family, j, q):
    """Blocks of the Schur row (-x_j^*, I_q) of family; the bare (I_q,) when j = 0."""
    eye = np.eye(q, dtype=complex)
    if j == 0:
        return [eye]
    x = hank.schur_row(family, j)
    blocks = [-x[k * q:(k + 1) * q, :].conj().T for k in range(j)]
    blocks.append(eye)
    return blocks


def _split_blocks(col, j, q):
    return [col[k * q:(k + 1) * q, :] for k in range(j + 1)]


def _convolve(row, col, shift=None, sign=1.0):
    """Coefficients of row . R_j(z) . (col + z shift_column), for the second-kind families.

    R_j(z) carries z^{l-k} I at block (l, k), so the z^p coefficient is
    sum_k row[k+p] col[k]; an optional rank-one-in-z shift through the
    first block column adds row[p] shift at power p + 1.  On the unit column
    v_j this is row[p] + 0.0 for finite rows, which is how build_family
    makes the monic members without calling it.

    Each sum starts at +0.0 (the first product plus 0.0), and a sum that
    starts at +0.0 never holds -0.0, so adding it to a zero coefficient, or
    multiplying it by 1.0 while it is finite, would change no bit: neither
    is done.
    """
    j = len(row) - 1
    coeffs = []
    for p in range(j + 1):
        acc = row[p] @ col[0] + 0.0
        for k in range(1, j - p + 1):
            acc = acc + row[k + p] @ col[k]
        coeffs.append(acc)
    if shift is not None:
        for p in range(j):
            coeffs[p + 1] += row[p] @ shift
        coeffs.append(row[j] @ shift + 0.0)
    if sign != 1.0:
        coeffs = [sign * c for c in coeffs]
    while len(coeffs) > 1 and not coeffs[-1].any():
        coeffs.pop()
    return tuple(coeffs)


@dataclasses.dataclass(frozen=True, eq=False)
class PolynomialFamily:
    """All eight families of one moment sequence.

    Each member of p1 .. t2 is made on its first read and kept.  Retains
    the source Hankel set, with its factors, solves and Schur complements,
    so downstream constructions reuse them without rebuilding, and keeps
    each value at a once it has been asked for (at_a, adjoint_at_a,
    normalizer, quotient) in the same store, HankelSet.keep.
    """

    seq: MomentSequence
    hankels: HankelSet
    p1: Kept
    p2: Kept
    q1: Kept
    q2: Kept
    g1: Kept
    g2: Kept
    t1: Kept
    t2: Kept

    def at_a(self, p):
        """eval_poly(p, a) for a polynomial p of this family, as a read-only array."""
        return self._value_at_a(p, eval_poly)

    def adjoint_at_a(self, p):
        """adjoint_eval(p, a) for a polynomial p of this family, as a read-only array."""
        return self._value_at_a(p, adjoint_eval)

    def normalizer(self, p):
        """The normalizer X^*(a)^{-1} for the polynomial X = p, as a read-only array."""
        return self._value_at_a(p, _adjoint_inverse)

    def quotient(self, x, y):
        """The left quotient X(a)^{-1} Y(a) for the polynomials X = x and Y = y, as a read-only array."""
        return self.hankels.keep(("quotient", x.family, x.index, y.family, y.index),
                                 lambda: solve(self.at_a(x), self.at_a(y)))

    def _value_at_a(self, p, evaluate):
        return self.hankels.keep((evaluate.__name__, p.family, p.index),
                                 lambda: evaluate(p, self.seq.a))


def build_family(hank):
    """The eight polynomial families of the moments of a HankelSet, each member made on first read.

    The set's factors are reused.  Family ranges: P1/Q1 up to
    j = (m+1)//2, P2/Q2 up to j = (m-1)//2, G1/T1/G2/T2 up to j = m//2.
    Member j reads the Schur step x_j = F[j-1]^{-1} Y_j of its Hankel
    family, so every F[j-1] it can read has to be positive definite; that
    is decided here, before any member is made, from the family factors
    alone.
    """
    seq = hank.seq
    q = seq.q
    m = seq.m
    top = {"H1": (m + 1) // 2, "H2": (m - 1) // 2, "K1": m // 2, "K2": m // 2}
    # Raise the SingularPivot of the first singular F[j - 1] in one fixed
    # order, whatever is read later: the Schur chain's steps family by
    # family, then the polynomials' up to the top index of each family.
    # Factors nest, so no F[j - 1] is singular unless F[j_max - 1] is.
    for last in ({family: len(getattr(hank, family)) - 1 for family in top}, top):
        for family, j_max in last.items():
            if j_max >= 1 and hank.factor(family, j_max - 1) is None:
                raise SingularPivot(family, next(j for j in range(j_max)
                                                 if hank.factor(family, j) is None))

    row = functools.cache(lambda family, j: _schur_row(hank, family, j, q))

    def monic(tag, family):
        """Family tag of F: member j has the blocks of row_j(F) as its coefficients.

        row_j(F) R_j(z) v_j has z^p coefficient row[p] @ I + 0.0, a C-ordered
        array; adding 0.0 in C order turns a -0.0 into +0.0 as that sum did.
        """
        return Kept(top[family] + 1, lambda j: MatrixPoly(
            tuple(np.add(block, 0.0, order="C") for block in row(family, j)), tag, j))

    def second_kind(tag, family, shift=None, sign=1.0):
        """Family tag of F on F's second-kind column."""
        def make(j):
            col = _split_blocks(hank.second_kind(family, j), j, q)
            return MatrixPoly(_convolve(row(family, j), col, shift, sign), tag, j)
        return Kept(top[family] + 1, make)

    return PolynomialFamily(
        seq=seq, hankels=hank,
        p1=monic("P1", "H1"), q1=second_kind("Q1", "H1", sign=-1.0),
        p2=monic("P2", "H2"), q2=second_kind("Q2", "H2", shift=seq.s[0], sign=-1.0),
        g1=monic("G1", "K1"), t1=second_kind("T1", "K1"),
        g2=monic("G2", "K2"), t2=second_kind("T2", "K2"),
    )


# the points of the resolvent-quotient identities, the rows (re, im) of
# numpy.random.default_rng(314159).uniform(-3.0, 3.0, (10, 2)): import loads no numpy.random
SAMPLE_POINTS = (
    2.4693156716215174-1.1173871812856402j, 0.9026433866483399+1.8765331306920512j,
    -2.3732150572003956+0.05902146842679734j, -0.27049184920425917-2.267115614734089j,
    -0.8334317391886712+0.5786037329786842j, 1.2255730170895447+1.016482002419198j,
    2.232421665293483+0.1259033652213386j, -2.387415735518468+0.3837122375547377j,
    1.8827035242353665-1.3873185978043863j, -2.4876453977431825-0.9945408629990444j,
)


def verify_family_identities(fam):
    """Residual report for the polynomial-level identities.

    Covers the four Schur-complement product identities at z = a, the
    two resolvent-quotient identities at SAMPLE_POINTS, and the two
    endpoint linear relations.  All residuals are relative Frobenius
    norms.
    """
    seq = fam.seq
    a, b = seq.a, seq.b
    hank = fam.hankels
    hhat1, hhat2, khat1, khat2 = map(hank.complements, ("H1", "H2", "K1", "K2"))
    checks = IdentityChecks()
    add = checks.add

    at_a, adjoint_at_a = fam.at_a, fam.adjoint_at_a

    for j in range(min(len(fam.p1), len(fam.t2), len(hhat1))):
        add("hhat1_product", j, hhat1[j], -at_a(fam.p1[j]) @ adjoint_at_a(fam.t2[j]))
    for j in range(min(len(hhat2), len(fam.q2), max(len(fam.g1) - 1, 0))):
        add("hhat2_product", j, hhat2[j], -at_a(fam.q2[j]) @ adjoint_at_a(fam.g1[j + 1]))
    for j in range(min(len(khat1), len(fam.g1), len(fam.q2))):
        add("khat1_product", j, khat1[j], at_a(fam.g1[j]) @ adjoint_at_a(fam.q2[j]))
    for j in range(min(len(khat2), len(fam.t2), max(len(fam.p1) - 1, 0))):
        add("khat2_product", j, khat2[j], at_a(fam.t2[j]) @ adjoint_at_a(fam.p1[j + 1]))

    # the ratio identities run over all the points at once, one check per point
    points = np.array(SAMPLE_POINTS)
    g2_count = min(len(fam.g2), len(fam.t2), len(hank.H1))
    q1_count = min(max(len(fam.q1) - 1, 0), max(len(fam.p1) - 1, 0), len(hank.K2))
    # R_j(conj z) over the points: the leading block of the largest, built
    # once, in the C order R_many builds (a matmul's rounding can depend on it)
    r_top = hank.R_many(max(g2_count, q1_count) - 1, points.conj())

    def r_points(j):
        return np.ascontiguousarray(r_top[:, :(j + 1) * seq.q, :(j + 1) * seq.q])

    # a product that leaves the float range gives a residual the report refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(g2_count):
            lhs = adjoint_eval(fam.g2[j], points) @ fam.normalizer(fam.t2[j])
            rhs = -adjoint(r_points(j) @ hank.column("H1", j)) @ hank.transfer("H1", j)
            checks.add_stack("ratio_g2_t2", j, lhs, rhs)
        for j in range(q1_count):
            lhs = adjoint_eval(fam.q1[j + 1], points) @ fam.normalizer(fam.p1[j + 1])
            rhs = -adjoint(r_points(j) @ hank.column("K2", j)) @ hank.transfer("K2", j)
            checks.add_stack("ratio_q1_p1", j, lhs, rhs)

    for j in range(min(max(len(fam.q1) - 1, 0), len(fam.q2), len(fam.g1), len(fam.t1),
                       max(len(fam.p1) - 1, 0))):
        lhs = (b - a) * at_a(fam.q1[j + 1]) - at_a(fam.q2[j])
        corr = at_a(fam.p1[j + 1]) @ fam.quotient(fam.g1[j], fam.t1[j])
        add("endpoint_q1_q2", j, lhs + corr, np.zeros_like(lhs))
    jmax_g = min(len(fam.g1) - 1, len(fam.g2) - 1, len(fam.t2) - 1,
                 len(fam.q2), len(fam.p2))
    for j in range(1, jmax_g + 1):
        lhs = at_a(fam.g1[j]) - at_a(fam.g2[j])
        corr = (b - a) * at_a(fam.t2[j]) @ fam.quotient(fam.q2[j - 1], fam.p2[j - 1])
        add("endpoint_g1_g2", j, lhs - corr, np.zeros_like(lhs))

    return checks.report()
