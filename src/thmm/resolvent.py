"""Resolvent matrices, auxiliary matrices, and their multiplicative factorizations.

The 2q x 2q resolvent U of order m = 2n or m = 2n + 1 parameterizes the
solution set of the truncated Hausdorff matrix moment problem through a
linear fractional transformation.  It is computed here by three routes:

  direct  block quotients of polynomial values (normalized at z = a),
  second  a left-to-right product of affine triangular factors built
          from the second-type Dyukarev-Stieltjes parameters,
  first   the analogous product over the first-type parameters.

resolvent_factors gives the factor list of either product; the
factorized resolvent multiplies it out.  Both products, and the telescoped
form of the auxiliary products, map the rung list of a chain (dsm.rungs)
to their up/low factors in one place, _rung_factors.

The auxiliary matrices tie the routes together: the odd-kind auxiliary
matrix is the product of the odd Blaschke-Potapov factors, the even-kind
(hat) auxiliary matrix the product of the even ones, and sandwiching by
diagonal scalings and one boundary factor recovers U itself.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from ._linalg import point_prefix, rel_residual, scalars
from .dsm import DsmSecond, compute_first, compute_second, rungs
from .errors import (
    InsufficientMoments,
    PoleAtZ,
    RouteMismatch,
    SingularNormalization,
)
from .polynomials import adjoint_eval, ensure_family

SHEAR_RTOL = 1e-12
BP_FACTOR_RTOL = 1e-12
AUX_PRODUCT_RTOL = 1e-10


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


def _assemble(alpha, beta, gamma, delta):
    return np.block([[alpha, beta], [gamma, delta]])


@dataclasses.dataclass(frozen=True, eq=False)
class ResolventValue:
    """Value of the 2q x 2q resolvent at one point z."""

    full: np.ndarray
    q: int
    parity: str
    z: complex

    def __post_init__(self):
        if not np.all(np.isfinite(self.full)):
            raise _not_finite(self.z)

    @property
    def alpha(self):
        return self.full[:self.q, :self.q]

    @property
    def beta(self):
        return self.full[:self.q, self.q:]

    @property
    def gamma(self):
        return self.full[self.q:, :self.q]

    @property
    def delta(self):
        return self.full[self.q:, self.q:]


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


def _not_finite(z):
    return SingularNormalization(f"resolvent value at z={z} is not finite")


def _finite(pts, full):
    """The values of the points of pts, recording the first one that is not finite."""
    z = pts.zs
    pts.fail(~np.isfinite(full).all(axis=(1, 2)), lambda i: _not_finite(complex(z[i])))
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
    return _finite(pts, _assemble(alpha, beta, gamma, delta))


def _at_point(many, source, z, parity, *route):
    """many at the single point z, as a ResolventValue."""
    fam = ensure_family(source)
    z = complex(z)
    return ResolventValue(full=many(fam, [z], parity, *route)[0], q=fam.seq.q, parity=parity, z=z)


def resolvent_direct(source, z, parity):
    """resolvent_direct_many at the single point z, as a ResolventValue."""
    return _at_point(resolvent_direct_many, source, z, parity)


@dataclasses.dataclass(frozen=True, eq=False)
class AuxMatrixValue:
    kind: str
    order: int
    z: complex
    value: np.ndarray


def _aux_blocks(fam, j, z, kind):
    """The four transfer quadratic-form blocks of one auxiliary matrix."""
    seq = fam.seq
    hank = fam.hankels
    a = seq.a
    z = complex(z)
    q = seq.q
    v = hank.v(j)
    eye = _eye(q)
    fam_name = {"tilde-odd": "K1", "tilde-even": "H2", "hat-even": "H2"}.get(kind)
    if fam_name is None:
        raise ValueError(f"unknown auxiliary kind {kind!r}")
    hank.member(fam_name, j)   # a missing member fails before any column is built
    left_col = right_col = hank.second_kind(fam_name, j)
    extra = None
    if kind == "hat-even":
        left_col = left_col + np.conj(z) * (v @ seq.s[0])
        right_col = hank.column("H2", j)
        extra = seq.s[0]

    rz = hank.R_many(j, [np.conj(z)])[0]
    left = np.hstack([rz @ left_col, rz @ v]).conj().T
    right = hank.solve(fam_name, j, hank.R_at_a_times(np.hstack([v, right_col])))
    pair = left @ right
    p_uv, p_uu = pair[:q, :q], pair[:q, q:]
    p_vv, p_vu = pair[q:, :q], pair[q:, q:]

    alpha = eye - (z - a) * p_uv
    beta = (z - a) * (p_uu if extra is None else extra + p_uu)
    gamma = -(z - a) * p_vv
    delta = eye + (z - a) * p_vu
    return _assemble(alpha, beta, gamma, delta)


def aux_tilde_odd(source, j, z):
    fam = ensure_family(source)
    return AuxMatrixValue("tilde-odd", 2 * j + 1, complex(z),
                          _aux_blocks(fam, j, z, "tilde-odd"))


def aux_tilde_even(source, j, z):
    fam = ensure_family(source)
    return AuxMatrixValue("tilde-even", 2 * j, complex(z),
                          _aux_blocks(fam, j, z, "tilde-even"))


def aux_hat_even(source, j, z):
    fam = ensure_family(source)
    return AuxMatrixValue("hat-even", 2 * j, complex(z),
                          _aux_blocks(fam, j, z, "hat-even"))


@dataclasses.dataclass(frozen=True, eq=False)
class AuxTriple:
    tilde_even: AuxMatrixValue
    tilde_odd: AuxMatrixValue
    hat_even: AuxMatrixValue


def aux_matrices(source, j, z):
    """All three auxiliary matrices of order index j at the point z.

    Also asserts that conjugating the plain even-kind matrix by the
    moment shear [[I, z s0], [0, I]] ... [[I, -a s0], [0, I]] reproduces
    the hat-kind matrix within SHEAR_RTOL, tying the two even-kind definitions.
    """
    fam = ensure_family(source)
    s0 = fam.seq.s[0]
    a = fam.seq.a
    te = aux_tilde_even(fam, j, z)
    to = aux_tilde_odd(fam, j, z)
    he = aux_hat_even(fam, j, z)
    sheared = _up(complex(z) * s0) @ te.value @ _up(-a * s0)
    res = rel_residual(he.value, sheared)
    if res > SHEAR_RTOL:
        raise RouteMismatch("hat-even shear identity", f"j={j}, z={z}", res)
    return AuxTriple(tilde_even=te, tilde_odd=to, hat_even=he)


def bp_factor(fam, k, z):
    """Blaschke-Potapov factor d^(k), affine in z, from polynomial values at a.

    d^(0) is the plain moment shear; even k = 2j + 2 is driven by
    (x, y, complement) = (P2[j], Q2[j], hhat2[j]), odd k = 2j + 1 by
    (G1[j], T1[j], khat1[j]).  With S = complement^{-1} (x(a), y(a)) and w
    = z - a for even k, -(z - a) for odd k, the factor is
        [[I + w y^* S_x, (z - a) y^* S_y], [-(z - a) x^* S_x, I - w x^* S_y]].
    Every factor equals the identity at z = a and has determinant one.
    """
    fam = ensure_family(fam)
    seq = fam.seq
    a = seq.a
    z = complex(z)
    q = seq.q
    eye = _eye(q)
    if k == 0:
        return _up((z - a) * seq.s[0])
    j, even = divmod(k - 1, 2)
    if even:
        x, y, family, w = fam.P2(j), fam.Q2(j), "H2", z - a
    else:
        x, y, family, w = fam.G1(j), fam.T1(j), "K1", -(z - a)   # an exact negation
    x, y = fam.at_a(x), fam.at_a(y)
    solved = fam.hankels.schur_solve(family, j, np.hstack([x, y]))
    sx, sy = solved[:, :q], solved[:, q:]
    x_adj, y_adj = x.conj().T, y.conj().T
    alpha = eye + w * y_adj @ sx
    beta = (z - a) * y_adj @ sy
    gamma = -(z - a) * x_adj @ sx
    delta = eye - w * x_adj @ sy
    return _assemble(alpha, beta, gamma, delta)


def bp_split(dsm, k, z):
    """The same factor as a sandwich of unit triangular matrices.

    Odd k = 2j + 1:  up(rhat_j) low(-(z - a) mhat_j) up(-rhat_j).
    Even k = 2j + 2: low(-that_j) up((z - a) lhat_j) low(that_j).
    k = 0 is the bare shear up((z - a) s_0).
    """
    z = complex(z)
    a = dsm.a
    if k == 0:
        return _up((z - a) * dsm.s0)
    if k % 2 == 1:
        j = (k - 1) // 2
        return _up(dsm.r(j)) @ _low(-(z - a) * dsm.m(j)) @ _up(-dsm.r(j))
    j = (k - 2) // 2
    return _low(-dsm.t(j)) @ _up((z - a) * dsm.l(j)) @ _low(dsm.t(j))


def bp_pair_check(fam, dsm, k, z):
    """Factor route vs parameter-sandwich route for d^(k), within BP_FACTOR_RTOL."""
    fam = ensure_family(fam)
    lhs = bp_factor(fam, k, z)
    rhs = bp_split(dsm, k, z)
    res = rel_residual(lhs, rhs)
    if res > BP_FACTOR_RTOL:
        raise RouteMismatch("Blaschke-Potapov factor", f"k={k}, z={z}", res)
    return lhs


def aux_product(source, order, z, kind):
    """Auxiliary matrix as a product of Blaschke-Potapov factors.

    kind = "tilde-odd" with order 2j + 1 multiplies d^(1) d^(3) .. d^(2j+1);
    kind = "hat-even" with order 2j multiplies d^(0) d^(2) .. d^(2j+2).
    The telescoped parameter form (the _rung_factors of the second-type
    chain's first 2j + 1 rungs with boundary factor -rhat_j for tilde-odd,
    its first 2j + 2 with that_j for hat-even) is evaluated as well; both
    products must match the directly assembled auxiliary matrix within
    AUX_PRODUCT_RTOL.
    """
    fam = ensure_family(source)
    seq = fam.seq
    a = seq.a
    z = complex(z)
    dsm = compute_second(fam)

    orders = {"tilde-odd": ("odd", "an odd order 2j + 1"), "hat-even": ("even", "an even order 2j")}
    if kind not in orders:
        raise ValueError(f"kind must be 'tilde-odd' or 'hat-even', got {kind!r}")
    parity, takes = orders[kind]
    if order % 2 != (parity == "odd"):
        raise ValueError(f"{kind} product takes {takes}")
    j = order // 2
    factors = [bp_factor(fam, k, z) for k in range(order % 2, 2 * j + 3, 2)]
    direct = _aux_blocks(fam, j, z, kind)
    tail = -dsm.r(j) if parity == "odd" else dsm.t(j)
    telescoped = _rung_factors(dsm, parity, z - a, tail, 2 * j + 1 + (parity == "even"))

    product = functools.reduce(np.matmul, factors)
    res_bp = rel_residual(product, direct)
    if res_bp > AUX_PRODUCT_RTOL:
        raise RouteMismatch(f"{kind} factor product", f"order={order}, z={z}", res_bp)
    res_tel = rel_residual(functools.reduce(np.matmul, telescoped), direct)
    if res_tel > AUX_PRODUCT_RTOL:
        raise RouteMismatch(f"{kind} parameter product", f"order={order}, z={z}", res_tel)
    return product


def boundary_n2(fam, j):
    """-(b - a)^{-1} v^* R^*(a) H1[j]^{-1} R(a) v, the even boundary correction."""
    return -fam.hankels.form("H1", j) / (fam.seq.b - fam.seq.a)


def boundary_b2(fam, j):
    """(b - a) ut2^* R^*(a) K2[j]^{-1} R(a) ut2, the odd boundary correction."""
    return (fam.seq.b - fam.seq.a) * fam.hankels.form("K2", j)


def resolvent_from_aux(source, z, parity):
    """Resolvent reassembled from the auxiliary matrix and boundary factors.

    Even parity:  diag(1/((z-a)(b-z)), 1) hat[(2n-2)] low(N2[n])
                  diag((b-a)(z-a), (b-z)/(b-a)),  n >= 1.
    Odd parity:   diag(1/(b-z), 1) tilde[(2n+1)] up(B2[n]) diag(b-z, 1).
    """
    fam = ensure_family(source)
    seq = fam.seq
    a, b = seq.a, seq.b
    z = complex(z)
    n = _order(seq, parity)
    if parity == "even":
        if n < 1:
            raise InsufficientMoments("even-parity reassembly needs n >= 1")
        if z == a or z == b:
            raise PoleAtZ(f"z = {z} hits a scalar pole of the reassembly")
        core = aux_hat_even(fam, n - 1, z).value
        full = (
            _diag(1.0 / ((z - a) * (b - z)), 1.0, seq.q)
            @ core
            @ _low(boundary_n2(fam, n))
            @ _diag((b - a) * (z - a), (b - z) / (b - a), seq.q)
        )
    else:
        if z == b:
            raise PoleAtZ(f"z = {z} hits a scalar pole of the reassembly")
        core = aux_tilde_odd(fam, n, z).value
        full = (
            _diag(1.0 / (b - z), 1.0, seq.q)
            @ core
            @ _up(boundary_b2(fam, n))
            @ _diag(b - z, 1.0, seq.q)
        )
    return ResolventValue(full=full, q=seq.q, parity=parity, z=z)


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


def _rung_factors(chain, parity, zc, tail, count=None):
    """The up/low factors of the rungs of a chain, left to right, then its boundary factor.

    mhat and M give low(-x), lhat and L up(x), and zc = z - a, a scalar or a
    (K, 1, 1) column, scales the kind the rung list ends on.  A second-type
    chain leads with its lhat_{-1} = s_0.  The boundary factor, of the other
    kind, carries tail.  count cuts the rung list.
    """
    mats = [x for _, x in rungs(chain, parity)[:count]]
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


def resolvent_factorized(source, z, parity, route):
    """resolvent_factorized_many at the single point z, as a ResolventValue."""
    return _at_point(resolvent_factorized_many, source, z, parity, route)
