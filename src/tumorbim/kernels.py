"""Nystrom discretization of Laplace and modified-Helmholtz layer potentials.

Self-interaction blocks with a log singularity use Kress's rule for the
log part and the trapezoidal rule for the smooth remainder (R. Kress,
Linear Integral Equations, 3rd ed. 2014, section 12.3).  Both fold into
one weight W = h ln(2|sin((a - a')/2)|) - Q, held with the node pairs.  One
pass over the node pairs i <= j gives the distances and the self gap; a
block is one symmetric bracket of the kernel's smooth factors with h and W
(carrying the double layers' 1/r or 1/r^2), formed in place on the pairs,
expanded once and scaled by the source metric or the double-layer
numerators; the diagonals carry the analytic limits.  A single layer may be
written straight into a block of the caller's system matrix.  The
Helmholtz self blocks take I0, I1 and K0 from one tiled pass of
`bessel.i0_i1_k0` over the pairs and K1 from the Wronskian
I0 K1 + I1 K0 = 1/r.  The Laplace double layer has only a removable
singularity and is integrated by the alternating-point trapezoidal rule.
Cross-boundary blocks are smooth and use the plain trapezoidal rule.  When
the source boundary lies well inside the disc |x| < min |target|, they are
low-rank factors from the kernels' expansions about the origin (Graf's
addition theorem for K0, DLMF 10.44(ii), from K0, K1 on the target radii
and I0 on the source radii; the multipole series of the log kernel), and
a system block is one GEMM of them written into its slice.  The source's
share of the factors is built once per source and order (`CrossSource`).
Otherwise the blocks are dense matrices from K0, K1 on the distances.
Every Bessel value comes from `bessel`, which needs numpy alone.

Fundamental solutions: Phi = (1/2pi) ln(1/r) for Laplace and
G = (1/2pi) K0(r) for the modified Helmholtz operator (Laplacian - 1).
All kernels carry the source metric, so matrices act on plain node values.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# i1 is no longer called here; perfbench's tracer wraps it in this module
from .bessel import i0, i0_i1_k0, i1, k0, k1  # noqa: F401
from .geometry import TWO_PI, PlanarCurveSamples


def kress_weights(m):
    """Quadrature weights q_j for the 2pi-periodic log kernel, j = 0..2m-1.

    q_j = -(pi/m) sum_{k=1}^{m-1} cos(k j pi / m)/k - (-1)^j pi/(2 m^2);
    sum_j q_j = 0 since the log kernel integrates to zero against constants.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    j = np.arange(2 * m)
    ks = np.arange(1, m)
    q = -(np.pi / m) * np.sum(np.cos(np.outer(j, ks) * np.pi / m) / ks, axis=1)
    q -= (-1.0) ** j * np.pi / (2.0 * m * m)
    return q


class _Triangle(NamedTuple):
    """The node pairs i <= j of n nodes, row by row: `flat` their indices
    i n + j, `place` the n x n position in the list of each entry or its
    mirror, `far` true on the pairs `min_self_gap` compares (offset
    min(j - i, n - (j - i)) above max(4, n/16)), `odd` true where j - i is
    odd, and `weight` the Kress-trapezoid weight W on them."""

    flat: np.ndarray
    place: np.ndarray
    far: np.ndarray
    odd: np.ndarray
    weight: np.ndarray


@lru_cache(maxsize=16)
def _triangle(n):
    """The pairs of n = 2m nodes.  W = h L - Q with h = 2pi/n,
    L[i, j] = ln(2 |sin((a_i - a_j)/2)|) with a zero diagonal and
    Q[i, j] = q_{|i-j|}.  Both depend on k = |i - j| only, and the sine is
    taken of pi min(k, n - k)/n, which is exact to rounding near k = n."""
    rows, cols = np.triu_indices(n)
    place = np.empty((n, n), dtype=np.intp)
    place[rows, cols] = place[cols, rows] = np.arange(rows.size)
    flat = rows * n + cols
    offset = np.arange(n)
    with np.errstate(divide="ignore"):
        log_sin = np.log(2.0 * np.sin(np.pi * np.minimum(offset, n - offset) / n))
    log_sin[0] = 0.0
    w = (TWO_PI / n) * log_sin - kress_weights(n // 2)
    k = cols - rows
    far = np.minimum(k, n - k) > max(4, n // 16)
    return _Triangle(flat, place, far, k % 2 == 1, w[k])


class SelfGeometry(NamedTuple):
    """One boundary acting on itself: `r` the distances of the pairs of
    `_triangle(n)` with the self distances set to 1, `dipole` the n x n
    double-layer numerators (x_t - x_s).n_s m_s/2pi, and `gap` the value of
    `min_self_gap`, bit for bit (the same squares and sums)."""

    bnd: PlanarCurveSamples
    r: np.ndarray
    dipole: np.ndarray
    gap: float


def _dipole(dx, dy, src):
    """(x_t - x_s).n_s m_s/2pi from the differences x_t - x_s, in place."""
    metric = src.s_alpha / TWO_PI
    dx *= src.normal_x * metric
    dy *= src.normal_y * metric
    dx += dy
    return dx


def self_geometry(bnd):
    """Geometry of one boundary acting on itself.  r^2 is formed in place,
    one coordinate's pair differences at a time, so beside the n x n
    differences the pass holds at most two pair arrays."""
    tri = _triangle(bnd.n)
    dx = np.subtract.outer(bnd.x, bnd.x)
    r = np.take(dx, tri.flat)
    r *= r
    dy = np.subtract.outer(bnd.y, bnd.y)
    u = np.take(dy, tri.flat)
    u *= u
    r += u
    del u
    gap = float(np.sqrt(np.min(r, where=tri.far, initial=np.inf)))
    r[tri.place.diagonal()] = 1.0
    np.sqrt(r, out=r)
    return SelfGeometry(bnd, r, _dipole(dx, dy, bnd), gap)


# largest rank 2M + 1 of the separable path, as a share of min(N, N0).
# Measured crossover against the dense path (both cross calls plus the
# geometry, 2-core host): between 0.42 and 0.73 at N = 64, 0.63-0.84 at
# N = 128, about 0.8 at N = 256 and above 0.63 at N = 512.
SEPARABLE_RANK_SHARE = 0.5
EPS = np.finfo(float).eps


class Polar(NamedTuple):
    """One boundary's nodes about the origin: `radius` |x|, `phase` the powers
    e^{i m theta} for m = 0..M (one row per order), and `normal` the polar
    components n.r_hat + i n.theta_hat of the unit normal."""

    radius: np.ndarray
    phase: np.ndarray
    normal: np.ndarray


class SourceSide(NamedTuple):
    """The source's part of the order-M expansions that no target changes:
    its `polar` data, the largest node radius `rho_max`, `i0` = I0(rho),
    `ratios` I_m(rho)/I_{m-1}(rho) for m = 1..M+1 and
    `powers` (rho/rho_max)^m for m = 0..M (one row per order)."""

    order: int
    polar: Polar
    rho_max: float
    i0: np.ndarray
    ratios: np.ndarray
    powers: np.ndarray


class CrossSource:
    """A source boundary of cross blocks with its node radii `radius` and
    their extremes, which every target shares, and the `SourceSide` of the
    latest expansion order, rebuilt when the order changes."""

    def __init__(self, bnd):
        self.bnd = bnd
        self.radius = np.hypot(bnd.x, bnd.y)
        self.rho_min, self.rho_max = np.min(self.radius), np.max(self.radius)
        self._side = None

    def side(self, order):
        """The `SourceSide` of order M.  The ratios come from the backward
        recurrence p[m] = rho/(2m + rho p[m+1]), started from zero where the
        bound p <= rho/2m has damped it below eps."""
        if self._side is not None and self._side.order == order:
            return self._side
        rho, rho_max = self.radius, self.rho_max
        top, damp = order + 1, 1.0
        while damp > EPS:
            top += 1
            damp *= min(1.0, rho_max / (2 * top)) ** 2
        ratios = np.empty((order + 1, rho.size))
        last = np.zeros(rho.size)
        for m in range(top, 0, -1):
            last = rho / (2 * m + rho * last)
            if m <= order + 1:
                ratios[m - 1] = last
        powers = np.ones((order + 1, rho.size))
        np.cumprod(np.broadcast_to(rho / rho_max, (order, rho.size)), axis=0,
                   out=powers[1:])
        self._side = SourceSide(order, _polar(self.bnd, rho, order), rho_max,
                                i0(rho), ratios, powers)
        return self._side


class Expansion(NamedTuple):
    """The source's side of truncation order M and the target's polar data
    of a cross pair whose source lies inside the disc of radius min |target|."""

    src: SourceSide
    tgt: Polar


class PairGeometry(NamedTuple):
    """Sources `src` on targets `tgt` of two disjoint boundaries, serving
    both directions: the distances r[i, j] from source node j to target
    node i, the double-layer numerators `dipole` and `dipole_rev` (tgt on
    src, distances r.T), or instead, on a separable pair, its `expansion`.
    """

    src: PlanarCurveSamples
    tgt: PlanarCurveSamples
    r: np.ndarray | None
    dipole: np.ndarray | None
    dipole_rev: np.ndarray | None = None
    expansion: Expansion | None = None


def _polar(bnd, radius, order):
    """Polar data of `bnd` up to order M from its node radii."""
    unit = (bnd.x + 1j * bnd.y) / radius
    phase = np.ones((order + 1, bnd.n), dtype=complex)
    np.cumprod(np.broadcast_to(unit, (order, bnd.n)), axis=0, out=phase[1:])
    return Polar(radius, phase,
                 (bnd.normal_x + 1j * bnd.normal_y) * unit.conjugate())


def _expansion(source, tgt):
    """The pair's expansion about the origin, or None where the dense path
    is cheaper or the series does not converge.  M is the smallest order
    with (rho_max/R_min)^M below machine precision."""
    rad = np.hypot(tgt.x, tgt.y)
    ratio = source.rho_max / np.min(rad)
    if not (source.rho_min > 0.0 and ratio < 1.0):
        return None
    order = max(1, math.floor(math.log(EPS) / math.log(ratio)) + 1)
    if 2 * order + 1 > SEPARABLE_RANK_SHARE * min(source.bnd.n, tgt.n):
        return None
    return Expansion(source.side(order), _polar(tgt, rad, order))


def dense_cross_geometry(src, tgt):
    """Distances and double-layer numerators of two disjoint boundaries."""
    dx, dy = np.subtract.outer(tgt.x, src.x), np.subtract.outer(tgt.y, src.y)
    r = np.sqrt(dx * dx + dy * dy)
    if np.min(r) == 0.0:
        raise ValueError("cross-boundary blocks require disjoint boundaries")
    rev = _dipole(-dx.T, -dy.T, tgt)
    return PairGeometry(src, tgt, r, _dipole(dx, dy, src), rev)


def cross_geometry(source, tgt):
    """Geometry of the `CrossSource` and a disjoint boundary, serving both
    directions: the separable expansion where `_expansion` admits it, else
    the dense one."""
    expansion = _expansion(source, tgt)
    if expansion is None:
        return dense_cross_geometry(source.bnd, tgt)
    return PairGeometry(source.bnd, tgt, None, None, None, expansion)


class DenseBlocks(NamedTuple):
    """Single and double layer of src on tgt, then of tgt on src."""

    single: np.ndarray
    double: np.ndarray
    single_rev: np.ndarray
    double_rev: np.ndarray

    def into(self, out, reverse, single, double):
        """Write single S + double D of one direction into `out`."""
        s, d = self[2:] if reverse else self[:2]
        np.multiply(single, s, out=out)
        out += double * d

    def dot(self, v, reverse, single, double):
        """(single S + double D) v for one direction."""
        s, d = self[2:] if reverse else self[:2]
        return single * (s @ v) + double * (d @ v)


class SeparableBlocks(NamedTuple):
    """Real factors of G = sum_m Re(T_m(x) conj(U_m(y))), a row per term: a
    block of src on tgt is tgt.T @ `single` or `double` (the source values
    or normal derivatives times the quadrature weights), of tgt on src
    src.T @ `single_rev` or `double_rev`."""

    tgt: np.ndarray
    single: np.ndarray
    double: np.ndarray
    src: np.ndarray
    single_rev: np.ndarray
    double_rev: np.ndarray

    def into(self, out, reverse, single, double):
        """Write single S + double D of one direction into `out`: a GEMM."""
        left, s, d = self[3:] if reverse else self[:3]
        np.matmul(left.T, single * s + double * d, out=out)

    def dot(self, v, reverse, single, double):
        """(single S + double D) v for one direction, through the factors."""
        left, s, d = self[3:] if reverse else self[:3]
        return left.T @ ((single * s + double * d) @ v)


def _real(c):
    """Real factor rows [Re c_0..M, Im c_1..M] of order-major c; Im c_0 = 0,
    so that sum_m Re(a_m conj(b_m)) = _real(a).T @ _real(b)."""
    return np.concatenate([c.real, c.imag[1:]])


def _side(pol, value, radial, angular):
    """Real factors of F_m(r) e^{i m theta} and of its normal derivative,
    from F_m, F_m' and m F_m / r (rows m = 0..M)."""
    deriv = pol.normal.real * radial + 1j * pol.normal.imag * angular
    return _real(value * pol.phase), _real(deriv * pol.phase)


def _separable_blocks(geom, tgt_side, src_side):
    """Blocks from the (value, normal derivative) factors of both sides,
    with the source metric times 2pi/n over 2pi as the quadrature weight."""
    src, tgt = geom.src, geom.tgt
    (t, dt), (u, du) = tgt_side, src_side
    w_src, w_tgt = src.s_alpha / src.n, tgt.s_alpha / tgt.n
    return SeparableBlocks(t, u * w_src, du * w_src, u, t * w_tgt, dt * w_tgt)


def _dense_blocks(geom, value, radial):
    """Blocks of a kernel with values `value` and double-layer kernel
    `radial` times the numerators, both on the distances r."""
    src, tgt = geom.src, geom.tgt
    return DenseBlocks(value * (src.s_alpha / src.n),
                       (TWO_PI / src.n) * geom.dipole * radial,
                       np.ascontiguousarray(value.T * (tgt.s_alpha / tgt.n)),
                       np.ascontiguousarray((TWO_PI / tgt.n) * geom.dipole_rev
                                            * radial.T))


def _helmholtz_sides(exp):
    """Sides of K0(|x - y|) = sum_m eps_m I_m(rho) K_m(R) cos m(theta - phi).

    Order m is scaled by a_m = K_m(R_min): the target side carries
    K_m(R)/a_m <= 1 from the forward recurrence seeded with K0, K1, and the
    source side eps_m I_m(rho) a_m ~ (rho/R_min)^m from ratios
    I_m/I_{m-1} of the backward recurrence, so neither overflows.
    """
    order, src, tgt = exp.src.order, exp.src, exp.tgt
    rad = tgt.radius
    k0r, k1r = k0(rad), k1(rad)
    at = np.argmin(rad)
    r_min = rad[at]
    # q[m] = a_{m+1}/a_m for m = 0..M; t[m] = K_m(R)/a_m for m = 0..M+1
    q = [float(k1r[at] / k0r[at])]
    for m in range(1, order + 1):
        q.append(2 * m / r_min + 1.0 / q[-1])
    t = np.empty((order + 2, rad.size))
    t[0], t[1] = k0r / k0r[at], k1r / k1r[at]
    inv_rad = 1.0 / rad
    for m in range(1, order + 1):
        t[m + 1] = t[m - 1] * (1.0 / (q[m - 1] * q[m])) \
            + (2 * m / q[m]) * inv_rad * t[m]
    # v[m] = I_m(rho) a_m for m = 0..M+1
    q = np.array(q)
    qc = q[:, None]
    v = np.empty((order + 2, src.i0.size))
    v[0] = src.i0 * k0r[at]
    np.cumprod(src.ratios * qc, axis=0, out=v[1:])
    v[1:] *= v[0]
    # neighbours Z_{m-1}/a_m and Z_{m+1}/a_m, with Z_{-1} = Z_1
    k_lo = np.concatenate([t[1:2] * q[0], t[:order] / qc[:-1]])
    k_hi = t[1:] * qc
    i_lo = np.concatenate([v[1:2] / q[0], v[:order] * qc[:-1]])
    i_hi = v[1:] / qc
    neumann = np.full((order + 1, 1), 2.0)
    neumann[0] = 1.0
    # Z_m' = (Z_{m-1} + Z_{m+1})/2 and m Z_m/r = (Z_{m-1} - Z_{m+1})/2 for I;
    # both change sign for K
    return (_side(tgt, t[:-1], -0.5 * (k_lo + k_hi), 0.5 * (k_hi - k_lo)),
            _side(src.polar, neumann * v[:-1], neumann * 0.5 * (i_lo + i_hi),
                  neumann * 0.5 * (i_lo - i_hi)))


def _laplace_sides(exp):
    """Sides of -ln|x - y| = -ln R + sum_{m>=1} (rho/R)^m cos m(theta - phi)/m,
    with (rho/R)^m split as (R_min/R)^m (rho/rho_max)^m (rho_max/R_min)^m."""
    order, src, tgt = exp.src.order, exp.src, exp.tgt
    rad, rho_max, powers = tgt.radius, src.rho_max, src.powers
    r_min = np.min(rad)
    m = np.arange(order + 1)[:, None]
    # rows k: (R_min/R)^(k+1)
    tgt_pow = np.cumprod(np.broadcast_to(r_min / rad, (order + 1, rad.size)), axis=0)
    # target: F_0 = -ln R, F_m = (R_min/R)^m, F_m' = -m F_m/R with
    # m F_m/R = m (R_min/R)^{m+1}/R_min
    value = np.vstack([-np.log(rad), tgt_pow[:-1]])
    angular = np.vstack([np.zeros(rad.size), m[1:] * tgt_pow[1:] / r_min])
    radial = np.vstack([-1.0 / rad, -angular[1:]])
    # source: G_0 = 1, G_m = c_m (rho/rho_max)^m/m with c_m = (rho_max/R_min)^m,
    # G_m' = m G_m/rho = c_m (rho/rho_max)^{m-1}/rho_max
    c = (rho_max / r_min) ** m[1:]
    ones = np.ones((1, powers.shape[1]))
    s_val = np.vstack([ones, c / m[1:] * powers[1:]])
    s_ang = np.vstack([0.0 * ones, c / rho_max * powers[:-1]])
    return (_side(tgt, value, radial, angular),
            _side(src.polar, s_val, s_ang, s_ang))


def _expand(pairs, place, factor, out=None):
    """The n x n block of the pair values times `factor` (the source metric
    or the double-layer numerators), into `out` if given.  The gather goes
    to a contiguous array first: `np.take` into a strided `out` would buffer
    one anyway."""
    block = np.take(pairs, place)
    return np.multiply(block, factor, out=block if out is None else out)


def helmholtz_self_blocks(geom, single=None):
    """(single, double) modified-Helmholtz self blocks; the single layer is
    written into `single` if given.

    With m the source metric, P the double-layer numerators and W the
    Kress-trapezoid weight: S = (m/2pi) [h K0 + I0 W] and
    D = P [(h K1 - I1 W)/r], each bracket formed on the pairs i <= j, with
    K1 = (1/r - I1 K0)/I0 from the Wronskian (DLMF 10.28.2).
    The diagonals are q_0 G1 + h G2 of the log split kernel*metric =
    G1 ln(2|sin|) + G2: for the single layer G1 = -m/2pi, and G2 follows from
    r -> m |a - a'| and K0(z) = -(ln(z/2) + C) I0(z) + ...; the double layer
    has G1 = 0 and G2 the limit of P K1(r)/r,
    -(1/4pi)(x_a y_aa - x_aa y_a)/(x_a^2 + y_a^2).
    Both brackets are formed in place, each pair array dropped after its
    last reader, so two of them are left when the blocks are expanded.
    """
    bnd, r = geom.bnd, geom.r
    tri = _triangle(bnd.n)
    w = tri.weight
    h = TWO_PI / bnd.n
    scale = bnd.s_alpha / TWO_PI
    i0r, i1r, k0r = i0_i1_k0(r)
    # I1 K0 < 1/r = I0 K1 + I1 K0: the subtraction loses at most one bit
    inv_r = 1.0 / r
    k1r = i1r * k0r
    np.subtract(inv_r, k1r, out=k1r)
    k1r /= i0r
    # h K0 + I0 W into k0r
    k0r *= h
    i0r *= w
    k0r += i0r
    del i0r
    # (h K1 - I1 W)/r into k1r
    k1r *= h
    i1r *= w
    k1r -= i1r
    del i1r
    k1r *= inv_r
    del inv_r
    single = _expand(k0r, tri.place, scale, single)
    del k0r
    double = _expand(k1r, tri.place, geom.dipole)
    # w[0] = -q_0, as L vanishes on the diagonal
    diag = w[0] - h * (np.euler_gamma + np.log(bnd.s_alpha / 2.0))
    np.fill_diagonal(single, diag * scale)
    np.fill_diagonal(double, -h * (bnd.x_a * bnd.y_aa - bnd.x_aa * bnd.y_a)
                     / (2.0 * TWO_PI * (bnd.x_a ** 2 + bnd.y_a ** 2)))
    return single, double


def helmholtz_cross_blocks(geom):
    """`SeparableBlocks` or `DenseBlocks` of the pair, both directions."""
    if geom.expansion is not None:
        return _separable_blocks(geom, *_helmholtz_sides(geom.expansion))
    k1r = k1(geom.r)
    k1r /= geom.r
    return _dense_blocks(geom, k0(geom.r), k1r)


def laplace_self_blocks(geom, single=None):
    """(single, double) Laplace self blocks; the single layer is written
    into `single` if given.  The single layer is (m/2pi) [W - h ln r], with
    diagonal q_0 G1 + h G2 = -(q_0 + h ln m) m/2pi; the double layer's
    kernel P/r^2 has only a removable singularity: alternating-point rule
    with doubled weights, P [2h/r^2 on odd offsets].  Both brackets are
    formed in turn in one pair array."""
    bnd, r = geom.bnd, geom.r
    n = bnd.n
    tri = _triangle(n)
    w = tri.weight
    h = TWO_PI / n
    scale = bnd.s_alpha / TWO_PI
    bracket = np.log(r)
    bracket *= h
    np.subtract(w, bracket, out=bracket)
    single = _expand(bracket, tri.place, scale, single)
    np.fill_diagonal(single, (w[0] - h * np.log(bnd.s_alpha)) * scale)
    np.multiply(r, r, out=bracket)
    np.divide(2.0 * h, bracket, out=bracket)
    bracket[~tri.odd] = 0.0
    double = _expand(bracket, tri.place, geom.dipole)
    return single, double


def laplace_cross_blocks(geom):
    """`SeparableBlocks` or `DenseBlocks` of the pair, both directions."""
    if geom.expansion is not None:
        return _separable_blocks(geom, *_laplace_sides(geom.expansion))
    return _dense_blocks(geom, -np.log(geom.r), 1.0 / (geom.r * geom.r))
