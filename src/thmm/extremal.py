"""Extremal solutions as block quotients and as matrix continued fractions.

The Krein and Friedrichs extremal solutions are the right-quotient Moebius
transform (A X + B Y)(C X + D Y)^{-1}, by the q x q blocks [[A, B], [C, D]]
of the resolvent, at the constant pairs (X, Y) = (I, 0) and (0, I).
extremal_quotient_many evaluates them as block quotients of polynomial
values, and extremal_cf_many as finite matrix continued fractions driven by
the parameter chains:

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

from ._linalg import guard_cond, point_prefix, right_quotient, scalars
from .dsm import DsmSecond, compute_first, compute_second, rungs
from .errors import PointOnInterval, SingularLevel
from .polynomials import adjoint_eval
from .resolvent import _check_parity, _order


@dataclasses.dataclass(frozen=True, eq=False)
class ContinuedFractionChain:
    """head + inv(levels[0] + inv(levels[1] + .. + inv(levels[-1]) ..)).

    Depth equals the number of parameters; evaluation requires every
    intermediate sum to be invertible.
    """

    head: np.ndarray | None
    levels: tuple

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


def _chain_params(fam, parity, which):
    """The DSM chain of one extremal solution, which and parity checked first."""
    if which not in ("krein", "friedrichs"):
        raise ValueError(f"which must be 'krein' or 'friedrichs', got {which!r}")
    _check_parity(parity)
    second = (which == "friedrichs") == (parity == "even")
    chain = compute_second(fam) if second else compute_first(fam)
    _order(fam.seq, parity)   # odd parity needs s_1
    return chain


def _chain(z, parity, params):
    """The chain at the array of K points z, with (K, q, q) levels.

    Rung mhat_k is the level -(z-a)(b-z) mhat_k and lhat_k is lhat_k / (b-z),
    under the head s_0 / (b-z); M_k is -(z-a) M_k and L_k is L_k, with no head.
    """

    def at(f):
        return scalars(f, z)[:, None, None]

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
                 lambda p: np.broadcast_to(p, z.shape + p.shape).astype(complex))
    levels = tuple(level[i % 2](p) for i, p in enumerate(rungs(params, parity)))
    return ContinuedFractionChain(head=head, levels=levels)


@point_prefix
def extremal_cf_many(fam, pts, parity, which):
    """Extremal solution values via the continued fraction, at K points at once.

    Returns the (K, q, q) stack of values at the points zs.  The parameter
    chain is built once and the fraction is evaluated level by level over
    the whole stack.  Failures are as point_prefix describes.
    """
    chain = _chain(pts.zs, parity, _chain_params(fam, parity, which))
    return _evaluate(chain, pts)


@dataclasses.dataclass(frozen=True, eq=False)
class ExtremalSet:
    """Krein and Friedrichs extremal values at K points.

    sK and sF are (K, q, q) stacks.
    """

    sK: np.ndarray
    sF: np.ndarray


@point_prefix
def extremal_quotient_many(fam, pts, parity):
    """Extremal solutions as block quotients of polynomial values, at K points at once.

    Even parity: sK = T2[n]^*(zbar) / ((z-a) G2[n]^*(zbar)),
                 sF = T1[n]^*(zbar) / ((b-z) G1[n]^*(zbar)).
    Odd parity:  sK = -Q2[n]^*(zbar) / ((z-a)(b-z) P2[n]^*(zbar)),
                 sF = -Q1[n+1]^*(zbar) / P1[n+1]^*(zbar).

    Returns an ExtremalSet stacked over the points zs.  Failures are as
    point_prefix describes.
    """
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
        num = [adjoint_eval(fam.t2[n], z), adjoint_eval(fam.t1[n], z)]
        den = [(zc - a) * adjoint_eval(fam.g2[n], z), (b - zc) * adjoint_eval(fam.g1[n], z)]
        pair = right_quotient(np.stack(num, axis=1), np.stack(den, axis=1), pts)
    else:
        num = [adjoint_eval(fam.q2[n], z), adjoint_eval(fam.q1[n + 1], z)]
        scale = scalars(lambda x: (x - a) * (b - x), z)[:, None, None]
        den = [scale * adjoint_eval(fam.p2[n], z), adjoint_eval(fam.p1[n + 1], z)]
        pair = -right_quotient(np.stack(num, axis=1), np.stack(den, axis=1), pts)
    return ExtremalSet(sK=pair[:, 0], sF=pair[:, 1])

