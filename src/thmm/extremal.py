"""Extremal solutions as block quotients and as matrix continued fractions.

The Krein and Friedrichs extremal solutions are the right-quotient Moebius
transform (A X + B Y)(C X + D Y)^{-1}, by the q x q blocks [[A, B], [C, D]]
of the resolvent, at the constant pairs (X, Y) = (I, 0) and (0, I).
extremal_quotient_many evaluates one of them as a block quotient of
polynomial values, and extremal_cf_many as a finite matrix continued
fraction driven by a parameter chain:

  friedrichs / even   s0/(b-z) + 1/(-(z-a)(b-z) mhat_0 + 1/(lhat_0/(b-z) + ..
                      .. + 1/(lhat_{n-1}/(b-z))))
  krein / odd         the same chain extended by a final -(z-a)(b-z) mhat_n
  krein / even        1/(-(z-a) M_0 + 1/(L_0 + .. + 1/(-(z-a) M_n)))
  friedrichs / odd    the same first-type chain extended by a final L_n

where 1/X means the matrix inverse and levels are summed in the printed
order.  The levels are the rungs of the chain (dsm.rungs), one per rung,
and m decides the parity: even for m = 2n, odd for m = 2n + 1.  Both
functions take the solution (which) and return the (K, q, q) stack of its
values at the K points.
"""

from __future__ import annotations

import numpy as np

from ._linalg import finite_values, guard_cond, in_loop_order, refuse_first, right_quotient, scalars
from .dsm import DsmSecond, compute_first, compute_second, rungs
from .errors import PointOnInterval, SingularLevel
from .polynomials import adjoint_eval


def _reads_second(fam, which):
    """Whether solution which reads the second-type chain: friedrichs at even m, krein at odd."""
    if which not in ("krein", "friedrichs"):
        raise ValueError(f"which must be 'krein' or 'friedrichs', got {which!r}")
    return (which == "friedrichs") == (fam.seq.parity == "even")


def _fraction(chain, z, a, b):
    """The continued fraction a DSM chain drives on [a, b], at the points z.

    Rung mhat_k is the level -(z-a)(b-z) mhat_k and lhat_k is lhat_k / (b-z),
    under the head s_0 / (b-z); M_k is -(z-a) M_k and L_k is L_k, with no head.
    The levels are (K, q, q) stacks, evaluated bottom-up; a level sum that
    is not invertible at a point refuses that point with SingularLevel(depth).
    Each level's inverse is the one guard_cond formed to check it.
    """
    def at(f):
        return scalars(f, z)[:, None, None]

    if isinstance(chain, DsmSecond):
        b_z, scale = at(lambda x: b - x), at(lambda x: -(x - a) * (b - x))
        head = chain.s0 / b_z
        level = (lambda p: scale * p, lambda p: p / b_z)
    else:
        scale = at(lambda x: -(x - a))
        head = None
        level = (lambda p: scale * p,
                 lambda p: np.broadcast_to(p, z.shape + p.shape).astype(complex))
    levels = [level[i % 2](p) for i, p in enumerate(rungs(chain))]
    if not levels:   # a second-type chain of m = 0; a first-type one has M_0
        return np.array(head)
    w = 0.0
    for depth in range(len(levels), 0, -1):
        w = guard_cond(levels[depth - 1] + w, lambda cond, depth=depth: SingularLevel(depth))
    return w if head is None else head + w


@in_loop_order
def extremal_cf_many(fam, z, which):
    """Extremal solution values via the continued fraction, at K points at once.

    Returns the (K, q, q) stack of values at the points z.  The parameter
    chain is built once and the fraction is evaluated level by level over
    the whole stack.  A failure is the one in_loop_order describes; a value
    that is not finite fails its point.
    """
    chain = (compute_second if _reads_second(fam, which) else compute_first)(fam)
    return finite_values(z, _fraction(chain, z, fam.seq.a, fam.seq.b),
                         f"{which} continued-fraction")


@in_loop_order
def extremal_quotient_many(fam, z, which):
    """Extremal solution values as block quotients of polynomial values, at K points at once.

    Even parity: sK = T2[n]^*(zbar) / ((z-a) G2[n]^*(zbar)),
                 sF = T1[n]^*(zbar) / ((b-z) G1[n]^*(zbar)).
    Odd parity:  sK = -Q2[n]^*(zbar) / ((z-a)(b-z) P2[n]^*(zbar)),
                 sF = -Q1[n+1]^*(zbar) / P1[n+1]^*(zbar).

    Returns the (K, q, q) stack of the values of solution which at the
    points z.  A failure is the one in_loop_order describes; a value that
    is not finite fails its point.
    """
    seq = fam.seq
    a, b = seq.a, seq.b
    refuse_first((z.imag == 0.0) & (a <= z.real) & (z.real <= b),
                 lambda i: PointOnInterval(f"z = {complex(z[i])} lies on [{a}, {b}]"))
    second = _reads_second(fam, which)   # friedrichs at even, krein at odd
    n = seq.m // 2
    zc = z[:, None, None]
    if seq.parity == "even" and second:
        values = right_quotient(adjoint_eval(fam.t1[n], z),
                                (b - zc) * adjoint_eval(fam.g1[n], z))
    elif seq.parity == "even":
        values = right_quotient(adjoint_eval(fam.t2[n], z),
                                (zc - a) * adjoint_eval(fam.g2[n], z))
    elif second:
        scale = scalars(lambda x: (x - a) * (b - x), z)[:, None, None]
        values = -right_quotient(adjoint_eval(fam.q2[n], z),
                                 scale * adjoint_eval(fam.p2[n], z))
    else:
        values = -right_quotient(adjoint_eval(fam.q1[n + 1], z),
                                 adjoint_eval(fam.p1[n + 1], z))
    return finite_values(z, values, f"{which} quotient")
