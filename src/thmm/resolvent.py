"""Resolvent matrices and their multiplicative factorizations.

The 2q x 2q resolvent U of order m = 2n or m = 2n + 1 parameterizes the
solution set of the truncated Hausdorff matrix moment problem through a
linear fractional transformation.  It is computed here by three routes:

  direct  block quotients of polynomial values (normalized at z = a),
  second  a left-to-right product of affine triangular factors built
          from the second-type Dyukarev-Stieltjes parameters,
  first   the analogous product over the first-type parameters.

resolvent_factors gives the factor list of either product; the
factorized resolvent multiplies it out.  Both products map the rung list
of a chain (dsm.rungs) to their up/low factors in one place, _rung_factors.
"""

from __future__ import annotations

import functools

import numpy as np

from ._linalg import point_prefix, scalars
from .dsm import DsmSecond, compute_first, compute_second, rungs
from .errors import InsufficientMoments, PoleAtZ, SingularNormalization
from .polynomials import adjoint_eval, ensure_family


def _eye(q):
    return np.eye(q, dtype=complex)


def _up(x):
    """[[I, x], [0, I]], stacked like x."""
    q = x.shape[-1]
    out = np.zeros(x.shape[:-2] + (2 * q, 2 * q), dtype=complex)
    out[..., :q, :q] = _eye(q)
    out[..., q:, q:] = _eye(q)
    out[..., :q, q:] = x
    return out


def _low(y):
    """[[I, 0], [y, I]], stacked like y."""
    q = y.shape[-1]
    out = np.zeros(y.shape[:-2] + (2 * q, 2 * q), dtype=complex)
    out[..., :q, :q] = _eye(q)
    out[..., q:, q:] = _eye(q)
    out[..., q:, :q] = y
    return out


def _diag(c_top, c_bottom, q):
    """diag(c_top I, c_bottom I) for scalars, stacked over arrays of K scalars."""
    c_top = np.asarray(c_top, dtype=complex)[..., None, None]
    c_bottom = np.asarray(c_bottom, dtype=complex)[..., None, None]
    shape = np.broadcast_shapes(c_top.shape, c_bottom.shape)[:-2]
    out = np.zeros(shape + (2 * q, 2 * q), dtype=complex)
    out[..., :q, :q] = c_top * _eye(q)
    out[..., q:, q:] = c_bottom * _eye(q)
    return out


def _check_parity(parity):
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def _order(seq, parity):
    _check_parity(parity)
    if parity == "even":
        return seq.m // 2
    if seq.m < 1:
        raise InsufficientMoments("odd parity needs at least s_0, s_1")
    return (seq.m - 1) // 2


def _finite(pts, full):
    """The values of the points of pts, recording the first one that is not finite."""
    z = pts.zs
    pts.fail(~np.isfinite(full).all(axis=(1, 2)), lambda i: SingularNormalization(
        f"resolvent value at z={complex(z[i])} is not finite"))
    return full[:len(pts)]


@point_prefix
def resolvent_direct_many(source, pts, parity):
    """Resolvent by block quotients of polynomial values, at K points at once.

    Even parity (m = 2n) uses the interval families:
        alpha = T2[n]^*(zbar) T2[n]^{*-1}(a)
        beta  = T1[n]^*(zbar) G1[n]^{*-1}(a) / (b - a)
        gamma = (z - a) G2[n]^*(zbar) T2[n]^{*-1}(a)
        delta = (b - z)/(b - a) G1[n]^*(zbar) G1[n]^{*-1}(a)
    Odd parity (m = 2n + 1):
        alpha = Q2[n]^*(zbar) Q2[n]^{*-1}(a)
        beta  = -Q1[n+1]^*(zbar) P1[n+1]^{*-1}(a)
        gamma = -(z - a)(b - z) P2[n]^*(zbar) Q2[n]^{*-1}(a)
        delta = P1[n+1]^*(zbar) P1[n+1]^{*-1}(a)

    Returns the (K, 2q, 2q) stack of values at the points zs; the
    normalizer inverses at a are the family's.  Failures are as point_prefix
    describes.
    """
    fam = ensure_family(source)
    seq = fam.seq
    a, b = seq.a, seq.b
    n = _order(seq, parity)
    z = pts.zs
    zc = z[:, None, None]
    if parity == "even":
        inv_t2a = fam.normalizer(fam.T2(n))
        inv_g1a = fam.normalizer(fam.G1(n))
        alpha = adjoint_eval(fam.T2(n), z) @ inv_t2a
        beta = adjoint_eval(fam.T1(n), z) @ inv_g1a / (b - a)
        gamma = (zc - a) * adjoint_eval(fam.G2(n), z) @ inv_t2a
        scale = scalars(lambda x: (b - x) / (b - a), z)[:, None, None]
        delta = scale * adjoint_eval(fam.G1(n), z) @ inv_g1a
    else:
        inv_q2a = fam.normalizer(fam.Q2(n))
        inv_p1a = fam.normalizer(fam.P1(n + 1))
        alpha = adjoint_eval(fam.Q2(n), z) @ inv_q2a
        beta = -adjoint_eval(fam.Q1(n + 1), z) @ inv_p1a
        scale = scalars(lambda x: -(x - a) * (b - x), z)[:, None, None]
        gamma = scale * adjoint_eval(fam.P2(n), z) @ inv_q2a
        delta = adjoint_eval(fam.P1(n + 1), z) @ inv_p1a
    return _finite(pts, np.block([[alpha, beta], [gamma, delta]]))


def _tail_second_even(fam, n):
    """that_{n-1} + T2[n](a)^{-1} G2[n](a) / (b - a), with that_{-1} = 0."""
    g = fam.quotient(fam.Q2(n - 1), fam.P2(n - 1)) if n else 0.0
    return g + fam.quotient(fam.T2(n), fam.G2(n)) / (fam.seq.b - fam.seq.a)


def _tail_second_odd(fam, n):
    t = -fam.quotient(fam.G1(n), fam.T1(n))
    return t - (fam.seq.b - fam.seq.a) * fam.quotient(fam.P1(n + 1), fam.Q1(n + 1))


def _tail_first_even(fam, n):
    adj, inv = fam.adjoint_at_a, fam.normalizer
    g = adj(fam.Q1(n)) @ inv(fam.P1(n))
    return g + adj(fam.T1(n)) @ inv(fam.G1(n)) / (fam.seq.b - fam.seq.a)


def _tail_first_odd(fam, n):
    adj, inv = fam.adjoint_at_a, fam.normalizer
    t = -adj(fam.G2(n)) @ inv(fam.T2(n))
    return t - (fam.seq.b - fam.seq.a) * adj(fam.P2(n)) @ inv(fam.Q2(n))


def _poles(pts, hit, route):
    """Record the first point of pts where a factorized route has a pole."""
    z = pts.zs
    pts.fail(hit, lambda i: PoleAtZ(f"{route} route has a pole at z = {complex(z[i])}"))
    pts.shared_stage()


def _rung_factors(chain, parity, zc, tail):
    """The up/low factors of the rungs of a chain, left to right, then its boundary factor.

    mhat and M give low(-x), lhat and L up(x), and zc = z - a, a (K, 1, 1)
    column, scales the kind the rung list ends on.  A second-type
    chain leads with its lhat_{-1} = s_0.  The boundary factor, of the other
    kind, carries tail.
    """
    mats = [x for _, x in rungs(chain, parity)]
    start = 0
    if isinstance(chain, DsmSecond):
        mats, start = [chain.s0] + mats, -1
    last = start + len(mats) - 1
    factors = []
    for i, x in enumerate(mats, start):
        scaled = (last - i) % 2 == 0
        if i % 2:
            factors.append(_up(zc * x if scaled else x))
        else:
            factors.append(_low(-zc * x if scaled else -x))
    factors.append(_low(tail) if last % 2 else _up(tail))
    return factors


@point_prefix
def resolvent_factors(source, pts, parity, route):
    """The affine factors whose left-to-right product is the resolvent at K points.

    route = "second" uses the second-type parameter chains (poles of the
    scalar prefactors at z = a, b for even parity and z = b for odd):
      even:  diag(1/((b-z)(z-a)), 1) [up((z-a) lhat_{k-1}) low(-mhat_k)]_{k<n}
             up((z-a) lhat_{n-1}) low(tail) diag((b-a)(z-a), (b-z)/(b-a)),
      odd:   diag(1/(b-z), 1) [up(lhat_{k-1}) low(-(z-a) mhat_k)]_{k<=n}
             up(tail) diag(b-z, 1);
    route = "first" uses the first-type chains (no pole for even parity,
    z = a excluded for odd):
      even:  [low(-(z-a) M_k) up(L_k)]_{k<n} low(-(z-a) M_n) up(tail),
      odd:   diag(1/(z-a), 1) [low(-M_k) up((z-a) L_k)]_{k<=n} low(tail) diag(z-a, 1).
    lhat_{-1} = s_0, so at n = 0 the even second-type product has four factors.

    Each factor is a (K, 2q, 2q) stack over the points zs, or one 2q x 2q
    matrix where it does not depend on z.  The parameter chain of the
    source and the boundary factor are built once; _rung_factors maps the
    chain's rungs to the up/low factors.  Failures are as point_prefix
    describes.
    """
    fam = ensure_family(source)
    seq = fam.seq
    a, b = seq.a, seq.b
    n = _order(seq, parity)
    q = seq.q

    if route == "second":
        dsm = compute_second(fam)
        if parity == "even":
            _poles(pts, (pts.zs == a) | (pts.zs == b), "second-type even")
            tail = _tail_second_even(fam, n)
            z = pts.zs
            return [
                _diag(scalars(lambda x: 1.0 / ((b - x) * (x - a)), z), 1.0, q),
                *_rung_factors(dsm, parity, z[:, None, None] - a, tail),
                _diag(scalars(lambda x: (b - a) * (x - a), z),
                      scalars(lambda x: (b - x) / (b - a), z), q),
            ]
        _poles(pts, pts.zs == b, "second-type odd")
        tail = _tail_second_odd(fam, n)
        z = pts.zs
        return [_diag(scalars(lambda x: 1.0 / (b - x), z), 1.0, q),
                *_rung_factors(dsm, parity, z[:, None, None] - a, tail), _diag(b - z, 1.0, q)]
    if route == "first":
        first = compute_first(fam)
        if parity == "even":
            tail = _tail_first_even(fam, n)
            return _rung_factors(first, parity, pts.zs[:, None, None] - a, tail)
        _poles(pts, pts.zs == a, "first-type odd")
        tail = _tail_first_odd(fam, n)
        z = pts.zs
        return [_diag(scalars(lambda x: 1.0 / (x - a), z), 1.0, q),
                *_rung_factors(first, parity, z[:, None, None] - a, tail), _diag(z - a, 1.0, q)]
    raise ValueError(f"route must be 'second' or 'first', got {route!r}")


@point_prefix
def resolvent_factorized_many(source, pts, parity, route):
    """Resolvent as the printed left-to-right product of resolvent_factors, at K points.

    Returns the (K, 2q, 2q) stack of values at the points zs.  Failures are
    as point_prefix describes.
    """
    factors = resolvent_factors(source, pts, parity, route)
    return _finite(pts, functools.reduce(np.matmul, factors))

