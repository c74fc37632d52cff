"""Nystrom discretization of Laplace and modified-Helmholtz layer potentials.

Self-interaction blocks split the kernel into a log part handled by the
Kress rule and a smooth remainder handled by the trapezoidal rule (with the
analytic diagonal limit), except for the Laplace double layer whose kernel
has only a removable singularity and is integrated by the alternating-point
trapezoidal rule.  Cross-boundary blocks are smooth and use the plain
trapezoidal rule.

Fundamental solutions: Phi = (1/2pi) ln(1/r) for Laplace and
G = (1/2pi) K0(r) for the modified Helmholtz operator (Laplacian - 1).
All kernels carry the source metric, so matrices act on plain node values.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.signal import resample

from .bessel import i0, i1, k0, k1
from .geometry import TWO_PI, PlanarCurveSamples, alpha_grid

LAPLACE = "laplace"
HELMHOLTZ = "modified_helmholtz"
SINGLE = "single"
DOUBLE = "double"


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
def _kress_matrix(n):
    """Q[i, j] = q_{|i-j|} for a grid of n = 2m nodes."""
    q = kress_weights(n // 2)
    i = np.arange(n)
    return q[np.abs(i[:, None] - i[None, :])]


@lru_cache(maxsize=16)
def _log_sin_matrix(n):
    """ln(2 |sin((a_i - a_j)/2)|) with zeros on the diagonal."""
    a = alpha_grid(n)
    d = 0.5 * (a[:, None] - a[None, :])
    with np.errstate(divide="ignore"):
        ls = np.log(2.0 * np.abs(np.sin(d)))
    np.fill_diagonal(ls, 0.0)
    return ls


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


def _symmetric(fn, r):
    """fn(r) for a bitwise symmetric r, evaluated on its upper triangle."""
    upper, place = _upper_map(r.shape[0])
    return fn(r.ravel()[upper])[place]


class PairGeometry(NamedTuple):
    """Distances r and dipole factors h of sources `src` on targets `tgt`.

    r[i, j] runs from source node j to target node i, h = (x_t - x_s).n_s
    m_s/(2 pi r), and `safe` is r with zero self distances set to 1.  A self
    r equals r.T bitwise (subtraction and hypot are symmetric); on a cross
    pair `h_rev` holds the factors of tgt on src, whose distances are r.T.
    """

    src: PlanarCurveSamples
    tgt: PlanarCurveSamples
    r: np.ndarray
    safe: np.ndarray
    h: np.ndarray
    h_rev: np.ndarray | None = None


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


def cross_geometry(src, tgt):
    """Geometry of two disjoint boundaries, serving both directions."""
    dx, dy = _differences(src, tgt)
    r = np.hypot(dx, dy)
    if np.min(r) == 0.0:
        raise ValueError("cross-boundary blocks require disjoint boundaries")
    h_rev = _dipole(*_differences(tgt, src), tgt, np.ascontiguousarray(r.T))
    return PairGeometry(src, tgt, r, r, _dipole(dx, dy, src, r), h_rev)


def _kress_rule(g1, g2):
    """Nystrom matrix of kernel*metric = G1 ln(2|sin|) + G2 on n nodes."""
    n = g2.shape[0]
    return _kress_matrix(n) * g1 + (TWO_PI / n) * g2


def helmholtz_self_split(geom):
    """Smooth factors ((G1, G2) single, (G1, G2) double) of the log split.

    kernel*metric = G1 ln(2|sin|) + G2.  Diagonals carry the analytic
    limits: for the single layer they come from r -> s_alpha |a - a'| and
    the small-argument expansion K0(z) = -(ln(z/2) + C) I0(z) + ...; the
    double layer has G1 = 0 on the diagonal and G2(a, a) equal to the limit
    of h K1(r), which is -(1/4pi)(x_a y_aa - x_aa y_a)/(x_a^2 + y_a^2).
    """
    bnd, r, hker = geom.src, geom.r, geom.h
    ls = _log_sin_matrix(bnd.n)
    m = bnd.s_alpha
    i0r, i1r = _symmetric(i0, r), _symmetric(i1, r)
    k0r, k1r = _symmetric(k0, geom.safe), _symmetric(k1, geom.safe)
    g1 = -i0r * m[None, :] / TWO_PI
    g2 = (k0r + i0r * ls) * m[None, :] / TWO_PI
    np.fill_diagonal(g2, -(np.euler_gamma + np.log(m / 2.0)) * m / TWO_PI)
    g1d = hker * i1r
    np.fill_diagonal(g1d, 0.0)
    g2d = hker * (k1r - i1r * ls)
    np.fill_diagonal(g2d, -(bnd.x_a * bnd.y_aa - bnd.x_aa * bnd.y_a)
                     / (2.0 * TWO_PI * (bnd.x_a ** 2 + bnd.y_a ** 2)))
    return (g1, g2), (g1d, g2d)


def helmholtz_self_blocks(geom):
    """(single, double) modified-Helmholtz self blocks by the Kress rule."""
    return tuple(_kress_rule(*split) for split in helmholtz_self_split(geom))


def helmholtz_cross_blocks(geom):
    """(single, double) of src on tgt, then (single, double) of tgt on src."""
    src, tgt, r = geom.src, geom.tgt, geom.r
    k0r, k1r = k0(r), k1(r)
    h_src, h_tgt = TWO_PI / src.n, TWO_PI / tgt.n
    return (h_src * k0r * src.s_alpha[None, :] / TWO_PI,
            h_src * geom.h * k1r,
            np.ascontiguousarray(h_tgt * k0r.T * tgt.s_alpha[None, :] / TWO_PI),
            np.ascontiguousarray(h_tgt * geom.h_rev * k1r.T))


def laplace_single_split(geom):
    """Smooth factors (G1, G2) of the Laplace single layer's log split."""
    m = geom.src.s_alpha
    g1 = -m[None, :] / TWO_PI
    with np.errstate(divide="ignore", invalid="ignore"):
        g2 = -np.log(geom.safe) * m[None, :] / TWO_PI \
            - g1 * _log_sin_matrix(geom.src.n)
    np.fill_diagonal(g2, -np.log(m) * m / TWO_PI)
    return g1, g2


def laplace_self_blocks(geom):
    """(single, double) Laplace self blocks; the double layer's kernel has only
    a removable singularity: alternating-point rule with doubled weights."""
    n = geom.src.n
    double = np.where(_alternating_mask(n),
                      2.0 * (TWO_PI / n) * geom.h / geom.safe, 0.0)
    return _kress_rule(*laplace_single_split(geom)), double


def laplace_cross_blocks(geom):
    """(single, double) of src on tgt, then (single, double) of tgt on src."""
    src, tgt, r = geom.src, geom.tgt, geom.r
    log_r = np.log(r)
    h_src, h_tgt = TWO_PI / src.n, TWO_PI / tgt.n
    return (-h_src * log_r * src.s_alpha[None, :] / TWO_PI,
            h_src * geom.h / r,
            np.ascontiguousarray(-h_tgt * log_r.T * tgt.s_alpha[None, :] / TWO_PI),
            np.ascontiguousarray(h_tgt * geom.h_rev / r.T))


def eval_at_points(field, layer, source, points, density, upsample=1):
    """Evaluate a layer potential at off-boundary points by plain quadrature.

    For points close to the source curve, `upsample` refines the source
    discretization by Fourier resampling so the nearly singular integrand
    is resolved (trapezoid error decays like exp(-N d) at distance d).
    """
    density = np.asarray(density, dtype=float)
    if upsample > 1:
        nf = source.n * int(upsample)
        xf = resample(source.x, nf)
        yf = resample(source.y, nf)
        df = resample(density, nf)
        source = PlanarCurveSamples.from_xy(xf, yf)
        density = df
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dx = pts[:, 0][:, None] - source.x[None, :]
    dy = pts[:, 1][:, None] - source.y[None, :]
    r = np.hypot(dx, dy)
    h_grid = TWO_PI / source.n
    m = source.s_alpha[None, :]
    if layer == SINGLE:
        if field == LAPLACE:
            ker = -np.log(r) * m / TWO_PI
        else:
            ker = k0(r) * m / TWO_PI
    else:
        hker = (dx * source.normal_x[None, :] + dy * source.normal_y[None, :]) \
            * m / (TWO_PI * r)
        ker = hker / r if field == LAPLACE else hker * k1(r)
    return h_grid * ker @ density
