"""Linear fractional transforms, extremal solutions, matrix continued fractions.

A 2q x 2q matrix acts on q x q matrices through the right-quotient Moebius
transform (A X + B Y)(C X + D Y)^{-1}.  The constant pairs (I, 0) and
(0, I) applied to the resolvent give the Krein and Friedrichs extremal
solutions; the same values arise as block quotients of polynomial values
and as finite matrix continued fractions driven by the parameter chains:

  friedrichs / even   s0/(b-z) + 1/(-(z-a)(b-z) mhat_0 + 1/(lhat_0/(b-z) + ..
                      .. + 1/(lhat_{n-1}/(b-z))))
  krein / odd         the same chain extended by a final -(z-a)(b-z) mhat_n
  krein / even        1/(-(z-a) M_0 + 1/(L_0 + .. + 1/(-(z-a) M_n)))
  friedrichs / odd    the same first-type chain extended by a final L_n

where 1/X means the matrix inverse and levels are summed in the printed
order.  The levels are the rungs of the chain (dsm.rungs), one per rung.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ._linalg import guard_cond, point_prefix, rel_residuals, right_quotient, scalars
from .dsm import DsmFirst, DsmSecond, compute_first, compute_second, rungs
from .errors import (
    PointOnInterval,
    SingularDenominator,
    SingularLevel,
    WrongChainKind,
)
from .polynomials import adjoint_eval, ensure_family
from .resolvent import ResolventValue, _check_parity, _order, resolvent_direct_many


def _as_square(x, q=None):
    m = np.asarray(x, dtype=complex)
    if q is not None and m.shape != (q, q):
        raise ValueError(f"expected a {q}x{q} matrix, got shape {m.shape}")
    return m


def _mobius_terms(full, x, y):
    """A X + B Y and C X + D Y for a (stack of) 2q x 2q block transform(s)."""
    q = full.shape[-1] // 2
    a, b = full[..., :q, :q], full[..., :q, q:]
    c, d = full[..., q:, :q], full[..., q:, q:]
    return a @ x + b @ y, c @ x + d @ y


def mobius_apply(transform, x, y):
    """(A X + B Y)(C X + D Y)^{-1} for the 2q x 2q block transform."""
    full = transform.full if isinstance(transform, ResolventValue) else np.asarray(
        transform, dtype=complex
    )
    q = full.shape[0] // 2
    x = _as_square(x, q)
    y = _as_square(y, q)
    return right_quotient(*_mobius_terms(full, x, y))


def mobius_chain_apply(factors, x, y):
    """Apply the transform factor by factor, rightmost first.

    Column pairs propagate with per-step rescaling; the value is read off
    by one final right quotient.  Matches applying the full product at
    once whenever the final denominator is invertible.
    """
    q = np.asarray(x).shape[0]
    col_x = _as_square(x, q)
    col_y = _as_square(y, q)
    for f in reversed(list(factors)):
        f = np.asarray(f, dtype=complex)
        new_x = f[:q, :q] @ col_x + f[:q, q:] @ col_y
        new_y = f[q:, :q] @ col_x + f[q:, q:] @ col_y
        scale = max(np.linalg.norm(new_x), np.linalg.norm(new_y))
        if scale == 0.0:
            raise SingularDenominator(np.inf)
        col_x, col_y = new_x / scale, new_y / scale
    return right_quotient(col_x, col_y)


@dataclasses.dataclass(frozen=True, eq=False)
class ContinuedFractionChain:
    """head + inv(levels[0] + inv(levels[1] + .. + inv(levels[-1]) ..)).

    Tags name the parameter each level consumes.  Depth equals the number
    of parameters; evaluation requires every intermediate sum to be
    invertible.
    """

    head: np.ndarray | None
    levels: tuple
    tags: tuple

    @property
    def depth(self):
        return len(self.levels)


@point_prefix
def _evaluate(chain, pts):
    """Bottom-up evaluation of a continued fraction stacked over the points zs.

    Head and levels are (K, q, q) stacks; a level sum that is not
    invertible at a point fails that point with SingularLevel.  Each
    level's inverse is the one guard_cond formed to check it.
    """
    if chain.depth == 0:
        if chain.head is None:
            raise SingularLevel(0)
        return np.array(chain.head)
    w = 0.0
    for depth in range(chain.depth, 0, -1):
        term = chain.levels[depth - 1][:len(pts)] + w
        w = guard_cond(term, lambda cond, depth=depth: SingularLevel(depth), pts)
    return w if chain.head is None else chain.head[:len(pts)] + w


def evaluate_chain(chain):
    """Bottom-up evaluation of a finite matrix continued fraction."""
    stacked = ContinuedFractionChain(
        head=None if chain.head is None else np.asarray(chain.head)[None],
        levels=tuple(np.asarray(level)[None] for level in chain.levels),
        tags=chain.tags,
    )
    return _evaluate(stacked, [0.0])[0]


def _chain_params(source, parity, which):
    """The DSM chain of one extremal solution; source may be the chain itself.

    which and parity are checked first, whatever the source.
    """
    if which not in ("krein", "friedrichs"):
        raise ValueError(f"which must be 'krein' or 'friedrichs', got {which!r}")
    _check_parity(parity)
    expected = DsmSecond if (which == "friedrichs") == (parity == "even") else DsmFirst
    if isinstance(source, (DsmSecond, DsmFirst)):
        if not isinstance(source, expected):
            raise WrongChainKind(which, parity, expected.__name__, type(source).__name__)
        return source
    fam = ensure_family(source)
    chain = compute_second(fam) if expected is DsmSecond else compute_first(fam)
    _order(fam.seq, parity)   # odd parity needs s_1
    return chain


def _chain(z, parity, params):
    """The chain at z: one point, or an array of K points giving (K, q, q) levels.

    Rung mhat_k is the level -(z-a)(b-z) mhat_k and lhat_k is lhat_k / (b-z),
    under the head s_0 / (b-z); M_k is -(z-a) M_k and L_k is L_k, with no head.
    """

    def at(f):
        return f(z) if np.isscalar(z) else scalars(f, z)[:, None, None]

    a = params.a
    if isinstance(params, DsmSecond):
        b = params.b
        b_z, scale = at(lambda x: b - x), at(lambda x: -(x - a) * (b - x))
        head = params.s0 / b_z
        level = (lambda p: scale * p, lambda p: p / b_z)
    else:
        scale = at(lambda x: -(x - a))
        head = None
        level = (lambda p: scale * p,
                 lambda p: np.broadcast_to(p, np.shape(z) + p.shape).astype(complex))
    rs = rungs(params, parity)
    levels = tuple(level[i % 2](p) for i, (_, p) in enumerate(rs))
    return ContinuedFractionChain(head=head, levels=levels, tags=tuple(tag for tag, _ in rs))


def extremal_chain(source, z, parity, which):
    """Build the continued-fraction chain for one extremal solution.

    friedrichs/even and krein/odd consume the second-type parameters,
    krein/even and friedrichs/odd the first-type ones.
    """
    z = complex(z)
    return _chain(z, parity, _chain_params(source, parity, which))


@point_prefix
def extremal_cf_many(source, pts, parity, which):
    """Extremal solution values via the continued fraction, at K points at once.

    Returns the (K, q, q) stack of values at the points zs.  The parameter
    chain is built once and the fraction is evaluated level by level over
    the whole stack.  Failures are as point_prefix describes.
    """
    chain = _chain(pts.zs, parity, _chain_params(source, parity, which))
    return _evaluate(chain, pts)


def extremal_cf(source, z, parity, which):
    """Extremal solution value via the continued fraction of a DSM chain or of its moments."""
    return extremal_cf_many(source, [complex(z)], parity, which)[0]


@dataclasses.dataclass(frozen=True, eq=False)
class ExtremalSet:
    """Krein and Friedrichs extremal values at one point.

    From extremal_quotient_many every field but parity is stacked over the
    K points: sK and sF are (K, q, q), z and cross_residual have length K.
    """

    sK: np.ndarray
    sF: np.ndarray
    parity: str
    z: complex
    cross_residual: float


@point_prefix
def extremal_quotient_many(source, pts, parity):
    """Extremal solutions as block quotients of polynomial values, at K points at once.

    Even parity: sK = T2[n]^*(zbar) / ((z-a) G2[n]^*(zbar)),
                 sF = T1[n]^*(zbar) / ((b-z) G1[n]^*(zbar)).
    Odd parity:  sK = -Q2[n]^*(zbar) / ((z-a)(b-z) P2[n]^*(zbar)),
                 sF = -Q1[n+1]^*(zbar) / P1[n+1]^*(zbar).
    Cross-checked against the Moebius route through the resolvent at the
    constant pairs (I, 0) and (0, I); the largest deviation is reported.

    Returns an ExtremalSet stacked over the points zs.  Failures are as
    point_prefix describes.
    """
    fam = ensure_family(source)
    seq = fam.seq
    a, b = seq.a, seq.b
    z = pts.zs
    pts.fail((z.imag == 0.0) & (a <= z.real) & (z.real <= b),
             lambda i: PointOnInterval(f"z = {complex(z[i])} lies on [{a}, {b}]"))
    pts.shared_stage()
    n = _order(seq, parity)
    z = pts.zs
    zc = z[:, None, None]
    # sK and sF side by side, so that at each point sK's denominator is checked first
    if parity == "even":
        num = [adjoint_eval(fam.T2(n), z), adjoint_eval(fam.T1(n), z)]
        den = [(zc - a) * adjoint_eval(fam.G2(n), z), (b - zc) * adjoint_eval(fam.G1(n), z)]
        pair = right_quotient(np.stack(num, axis=1), np.stack(den, axis=1), points=pts)
    else:
        num = [adjoint_eval(fam.Q2(n), z), adjoint_eval(fam.Q1(n + 1), z)]
        scale = scalars(lambda x: (x - a) * (b - x), z)[:, None, None]
        den = [scale * adjoint_eval(fam.P2(n), z), adjoint_eval(fam.P1(n + 1), z)]
        pair = -right_quotient(np.stack(num, axis=1), np.stack(den, axis=1), points=pts)
    u = resolvent_direct_many(fam, pts, parity)
    eye = np.eye(seq.q, dtype=complex)
    zero = np.zeros((seq.q, seq.q), dtype=complex)
    moebius = right_quotient(
        *_mobius_terms(u[:, None], np.stack([eye, zero]), np.stack([zero, eye])), points=pts
    )
    sk, sf = pair[:len(pts), 0], pair[:len(pts), 1]
    cross = np.maximum(rel_residuals(sk, moebius[:, 0]), rel_residuals(sf, moebius[:, 1]))
    return ExtremalSet(sK=sk, sF=sf, parity=parity, z=pts.zs, cross_residual=cross)


def extremal_quotient(source, z, parity):
    """extremal_quotient_many at the single point z."""
    z = complex(z)
    ext = extremal_quotient_many(source, [z], parity)
    return ExtremalSet(sK=ext.sK[0], sF=ext.sF[0], parity=parity, z=z,
                       cross_residual=float(ext.cross_residual[0]))
