"""Nystrom discretization of Laplace and modified-Helmholtz layer potentials.

Self-interaction blocks with a log singularity use Kress's rule for the
log part and the trapezoidal rule for the smooth remainder (R. Kress,
Linear Integral Equations, 3rd ed. 2014, section 12.3).  Both fold into
one weight W = h ln(2|sin((a - a')/2)|) - Q, cached per node count, so a
block is the kernel's smooth factors combined with h and W in one pass
over the upper triangle of the symmetric distances; the diagonals carry
the analytic limits.  The Helmholtz self blocks take I0 and I1 from the
power series in `bessel`, K0 from scipy and K1 from the Wronskian
I0 K1 + I1 K0 = 1/r.  The Laplace double layer has only a removable
singularity and is integrated by the alternating-point trapezoidal rule.
Cross-boundary blocks are smooth and use the plain trapezoidal rule.  When
the source boundary lies well inside the disc |x| < min |target|, they are
built as low-rank products from the kernels' expansions about the origin
(Graf's addition theorem for K0, DLMF 10.44(ii), from scipy's K0, K1 on the
target radii and i0e on the source radii; the multipole series of the log
kernel), and otherwise from scipy's K0, K1 on the dense distances.

Fundamental solutions: Phi = (1/2pi) ln(1/r) for Laplace and
G = (1/2pi) K0(r) for the modified Helmholtz operator (Laplacian - 1).
All kernels carry the source metric, so matrices act on plain node values.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bessel import i0, i0e, i1, k0, k1
from .geometry import TWO_PI, PlanarCurveSamples


@lru_cache(maxsize=16)
def kress_weights(m):
    """Quadrature weights q_j for the 2pi-periodic log kernel, j = 0..2m-1.

    q_j = -(pi/m) sum_{k=1}^{m-1} cos(k j pi / m)/k - (-1)^j pi/(2 m^2);
    sum_j q_j = 0 since the log kernel integrates to zero against constants.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    j = np.arange(2 * m)
    ks = np.arange(1, m)
    if ks.size:
        q = -(np.pi / m) * np.sum(np.cos(np.outer(j, ks) * np.pi / m) / ks, axis=1)
    else:
        q = np.zeros(2 * m)
    q -= (-1.0) ** j * np.pi / (2.0 * m * m)
    return q


@lru_cache(maxsize=16)
def _alternating_mask(n):
    """True where the source offset from the target index is odd."""
    i = np.arange(n)
    return ((i[:, None] - i[None, :]) % 2).astype(bool)


@lru_cache(maxsize=16)
def _upper_map(n):
    """Flat indices of an n x n upper triangle (diagonal included), and the
    position in that list of every entry or of its mirror image."""
    rows, cols = np.triu_indices(n)
    place = np.empty((n, n), dtype=np.intp)
    place[rows, cols] = place[cols, rows] = np.arange(rows.size)
    return rows * n + cols, place


@lru_cache(maxsize=16)
def _kress_trapezoid_weight(n):
    """Upper triangle, in `_upper_map` order, of W = h L - Q for n = 2m nodes:
    h = 2pi/n, L[i, j] = ln(2 |sin((a_i - a_j)/2)|) with a zero diagonal and
    Q[i, j] = q_{|i-j|}.  Both depend on k = |i - j| only, and the sine is
    taken of pi min(k, n - k)/n, which is exact to rounding near k = n."""
    offset = np.arange(n)
    with np.errstate(divide="ignore"):
        log_sin = np.log(2.0 * np.sin(np.pi * np.minimum(offset, n - offset) / n))
    log_sin[0] = 0.0
    w = (TWO_PI / n) * log_sin - kress_weights(n // 2)
    rows, cols = np.divmod(_upper_map(n)[0], n)
    return w[cols - rows]


class Polar(NamedTuple):
    """One boundary's nodes about the origin: `radius` |x|, `phase` the powers
    e^{i m theta} for m = 0..M (one row per order), and `normal` the polar
    components n.r_hat + i n.theta_hat of the unit normal."""

    radius: np.ndarray
    phase: np.ndarray
    normal: np.ndarray


class Expansion(NamedTuple):
    """Truncation order M and the polar data of a cross pair whose source
    lies inside the disc of radius min |target|."""

    order: int
    src: Polar
    tgt: Polar


class PairGeometry(NamedTuple):
    """Distances r and dipole factors h of sources `src` on targets `tgt`.

    r[i, j] runs from source node j to target node i, h = (x_t - x_s).n_s
    m_s/(2 pi r), and `safe` is r with zero self distances set to 1.  A self
    r equals r.T bitwise (subtraction and hypot are symmetric); on a cross
    pair `h_rev` holds the factors of tgt on src, whose distances are r.T.
    A separable cross pair carries its `expansion` instead of r, safe, h and
    h_rev, which are then None.
    """

    src: PlanarCurveSamples
    tgt: PlanarCurveSamples
    r: np.ndarray | None
    safe: np.ndarray | None
    h: np.ndarray | None
    h_rev: np.ndarray | None = None
    expansion: Expansion | None = None


def _differences(src, tgt):
    return tgt.x[:, None] - src.x[None, :], tgt.y[:, None] - src.y[None, :]


def _dipole(dx, dy, src, safe):
    return (dx * src.normal_x[None, :] + dy * src.normal_y[None, :]) \
        * src.s_alpha[None, :] / (TWO_PI * safe)


def self_geometry(bnd):
    """Geometry of one boundary acting on itself (zero diagonal distance)."""
    dx, dy = _differences(bnd, bnd)
    r = np.hypot(dx, dy)
    safe = np.where(r == 0.0, 1.0, r)
    return PairGeometry(bnd, bnd, r, safe, _dipole(dx, dy, bnd, safe))


# largest rank 2M + 1 of the separable path, as a share of min(N, N0).
# Measured crossover against the dense path (both cross calls plus the
# geometry, 2-core host): between 0.42 and 0.73 at N = 64, 0.63-0.84 at
# N = 128, about 0.8 at N = 256 and above 0.63 at N = 512.
SEPARABLE_RANK_SHARE = 0.5
EPS = np.finfo(float).eps


def _polar(bnd, radius, order):
    """Polar data of `bnd` up to order M from its node radii."""
    unit = (bnd.x + 1j * bnd.y) / radius
    phase = np.ones((order + 1, bnd.n), dtype=complex)
    np.cumprod(np.broadcast_to(unit, (order, bnd.n)), axis=0, out=phase[1:])
    return Polar(radius, phase,
                 (bnd.normal_x + 1j * bnd.normal_y) * unit.conjugate())


def _expansion(src, tgt):
    """The pair's expansion about the origin, or None where the dense path
    is cheaper or the series does not converge.  M is the smallest order
    with (rho_max/R_min)^M below machine precision."""
    rho, rad = np.hypot(src.x, src.y), np.hypot(tgt.x, tgt.y)
    ratio = np.max(rho) / np.min(rad)
    if not (np.min(rho) > 0.0 and ratio < 1.0):
        return None
    order = max(1, math.floor(math.log(EPS) / math.log(ratio)) + 1)
    if 2 * order + 1 > SEPARABLE_RANK_SHARE * min(src.n, tgt.n):
        return None
    return Expansion(order, _polar(src, rho, order), _polar(tgt, rad, order))


def dense_cross_geometry(src, tgt):
    """Distances and dipole factors of two disjoint boundaries."""
    dx, dy = _differences(src, tgt)
    r = np.hypot(dx, dy)
    if np.min(r) == 0.0:
        raise ValueError("cross-boundary blocks require disjoint boundaries")
    h_rev = _dipole(*_differences(tgt, src), tgt, np.ascontiguousarray(r.T))
    return PairGeometry(src, tgt, r, r, _dipole(dx, dy, src, r), h_rev)


def cross_geometry(src, tgt):
    """Geometry of two disjoint boundaries, serving both directions: the
    separable expansion where `_expansion` admits it, else the dense one."""
    expansion = _expansion(src, tgt)
    if expansion is None:
        return dense_cross_geometry(src, tgt)
    return PairGeometry(src, tgt, None, None, None, None, expansion)


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
    """Blocks of the kernel G = sum_m Re(T_m(x) conj(U_m(y))) from the
    (value, normal derivative) factors of both sides: single w G and
    double w dG/dn_source, src on tgt and then tgt on src, with w the source
    metric times 2pi/n over 2pi.  One GEMM per direction."""
    src, tgt = geom.src, geom.tgt
    (t, dt), (u, du) = tgt_side, src_side
    w_src, w_tgt = src.s_alpha / src.n, tgt.s_alpha / tgt.n
    fwd = t.T @ np.concatenate([u * w_src, du * w_src], axis=1)
    rev = u.T @ np.concatenate([t * w_tgt, dt * w_tgt], axis=1)
    return fwd[:, :src.n], fwd[:, src.n:], rev[:, :tgt.n], rev[:, tgt.n:]


def _helmholtz_sides(exp):
    """Sides of K0(|x - y|) = sum_m eps_m I_m(rho) K_m(R) cos m(theta - phi).

    Order m is scaled by a_m = K_m(R_min): the target side carries
    K_m(R)/a_m <= 1 from the forward recurrence seeded with K0, K1, and the
    source side eps_m I_m(rho) a_m ~ (rho/R_min)^m from ratios
    I_m/I_{m-1} of the backward recurrence, so neither overflows.
    """
    order, src, tgt = exp.order, exp.src, exp.tgt
    rad, rho = tgt.radius, src.radius
    k0r, k1r = k0(rad), k1(rad)
    at = np.argmin(rad)
    r_min, rho_max = rad[at], np.max(rho)
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
    # p[m] = I_m(rho)/I_{m-1}(rho) = rho/(2m + rho p[m+1]) for m = 1..M+1,
    # started from zero where the bound p <= rho/2m has damped it below eps
    top, damp = order + 1, 1.0
    while damp > EPS:
        top += 1
        damp *= min(1.0, rho_max / (2 * top)) ** 2
    p = np.empty((order + 2, rho.size))
    last = np.zeros(rho.size)
    for m in range(top, 0, -1):
        last = rho / (2 * m + rho * last)
        if m <= order + 1:
            p[m] = last
    # v[m] = I_m(rho) a_m for m = 0..M+1
    q = np.array(q)
    qc = q[:, None]
    v = np.empty_like(p)
    v[0] = i0e(rho) * np.exp(rho) * k0r[at]
    np.cumprod(p[1:] * qc, axis=0, out=v[1:])
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
            _side(src, neumann * v[:-1], neumann * 0.5 * (i_lo + i_hi),
                  neumann * 0.5 * (i_lo - i_hi)))


def _laplace_sides(exp):
    """Sides of -ln|x - y| = -ln R + sum_{m>=1} (rho/R)^m cos m(theta - phi)/m,
    with (rho/R)^m split as (R_min/R)^m (rho/rho_max)^m (rho_max/R_min)^m."""
    order, src, tgt = exp.order, exp.src, exp.tgt
    rad, rho = tgt.radius, src.radius
    r_min, rho_max = np.min(rad), np.max(rho)
    m = np.arange(order + 1)[:, None]
    # rows k of the powers: (R_min/R)^(k+1) and (rho/rho_max)^(k+1)
    tgt_pow = np.cumprod(np.broadcast_to(r_min / rad, (order + 1, rad.size)), axis=0)
    src_pow = np.cumprod(np.broadcast_to(rho / rho_max, (order, rho.size)), axis=0)
    # target: F_0 = -ln R, F_m = (R_min/R)^m, F_m' = -m F_m/R with
    # m F_m/R = m (R_min/R)^{m+1}/R_min
    value = np.vstack([-np.log(rad), tgt_pow[:-1]])
    angular = np.vstack([np.zeros(rad.size), m[1:] * tgt_pow[1:] / r_min])
    radial = np.vstack([-1.0 / rad, -angular[1:]])
    # source: G_0 = 1, G_m = c_m (rho/rho_max)^m/m with c_m = (rho_max/R_min)^m,
    # G_m' = m G_m/rho = c_m (rho/rho_max)^{m-1}/rho_max
    c = (rho_max / r_min) ** m[1:]
    ones = np.ones((1, rho.size))
    s_val = np.vstack([ones, c / m[1:] * src_pow])
    s_ang = np.vstack([0.0 * ones, c / rho_max * np.vstack([ones, src_pow[:-1]])])
    return _side(tgt, value, radial, angular), _side(src, s_val, s_ang, s_ang)


def helmholtz_self_blocks(geom):
    """(single, double) modified-Helmholtz self blocks.

    With m the source metric, h_ker the dipole factors and W the Kress-
    trapezoid weight: S = (m/2pi) [h K0 + I0 W] and D = h_ker [h K1 - I1 W],
    each bracket formed on the upper triangle of the symmetric distances,
    with K1 = (1/r - I1 K0)/I0 from the Wronskian (DLMF 10.28.2).
    The diagonals are q_0 G1 + h G2 of the log split kernel*metric =
    G1 ln(2|sin|) + G2: for the single layer G1 = -m/2pi, and G2 follows from
    r -> m |a - a'| and K0(z) = -(ln(z/2) + C) I0(z) + ...; the double layer
    has G1 = 0 and G2 the limit of h_ker K1(r),
    -(1/4pi)(x_a y_aa - x_aa y_a)/(x_a^2 + y_a^2).
    """
    bnd = geom.src
    upper, place = _upper_map(bnd.n)
    safe = geom.safe.ravel()[upper]
    w = _kress_trapezoid_weight(bnd.n)
    h = TWO_PI / bnd.n
    scale = bnd.s_alpha / TWO_PI
    i0r, i1r, k0r = i0(safe), i1(safe), k0(safe)
    # I1 K0 < 1/r = I0 K1 + I1 K0: the subtraction loses at most one bit
    k1r = 1.0 / safe
    k1r -= i1r * k0r
    k1r /= i0r
    single = (h * k0r + i0r * w)[place]
    single *= scale
    double = (h * k1r - i1r * w)[place]
    double *= geom.h
    # w[0] = -q_0, as L vanishes on the diagonal
    diag = w[0] - h * (np.euler_gamma + np.log(bnd.s_alpha / 2.0))
    np.fill_diagonal(single, diag * scale)
    np.fill_diagonal(double, -h * (bnd.x_a * bnd.y_aa - bnd.x_aa * bnd.y_a)
                     / (2.0 * TWO_PI * (bnd.x_a ** 2 + bnd.y_a ** 2)))
    return single, double


def helmholtz_cross_blocks(geom):
    """(single, double) of src on tgt, then (single, double) of tgt on src."""
    if geom.expansion is not None:
        return _separable_blocks(geom, *_helmholtz_sides(geom.expansion))
    src, tgt, r = geom.src, geom.tgt, geom.r
    k0r, k1r = k0(r), k1(r)
    h_src, h_tgt = TWO_PI / src.n, TWO_PI / tgt.n
    return (h_src * k0r * src.s_alpha[None, :] / TWO_PI,
            h_src * geom.h * k1r,
            np.ascontiguousarray(h_tgt * k0r.T * tgt.s_alpha[None, :] / TWO_PI),
            np.ascontiguousarray(h_tgt * geom.h_rev * k1r.T))


def laplace_self_blocks(geom):
    """(single, double) Laplace self blocks.  The single layer is
    (m/2pi) [W - h ln r], formed on the upper triangle, with diagonal
    q_0 G1 + h G2 = -(q_0 + h ln m) m/2pi; the double layer's kernel has only a
    removable singularity: alternating-point rule with doubled weights."""
    bnd = geom.src
    n = bnd.n
    upper, place = _upper_map(n)
    w = _kress_trapezoid_weight(n)
    h = TWO_PI / n
    scale = bnd.s_alpha / TWO_PI
    single = (w - h * np.log(geom.safe.ravel()[upper]))[place]
    single *= scale
    np.fill_diagonal(single, (w[0] - h * np.log(bnd.s_alpha)) * scale)
    double = np.where(_alternating_mask(n), 2.0 * h * geom.h / geom.safe, 0.0)
    return single, double


def laplace_cross_blocks(geom):
    """(single, double) of src on tgt, then (single, double) of tgt on src."""
    if geom.expansion is not None:
        return _separable_blocks(geom, *_laplace_sides(geom.expansion))
    src, tgt, r = geom.src, geom.tgt, geom.r
    log_r = np.log(r)
    h_src, h_tgt = TWO_PI / src.n, TWO_PI / tgt.n
    return (-h_src * log_r * src.s_alpha[None, :] / TWO_PI,
            h_src * geom.h / r,
            np.ascontiguousarray(-h_tgt * log_r.T * tgt.s_alpha[None, :] / TWO_PI),
            np.ascontiguousarray(h_tgt * geom.h_rev / r.T))
