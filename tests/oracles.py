"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the code paths under test: plain power
series, adaptive quadrature, direct dense solves, brute-force
principal-value sums, layer potentials off the boundary by plain
quadrature, the paper's closed-form benchmark limits, and the trigonometric
interpolant one mode at a time, scipy's periodic cubic spline and the
full node-pair pass of the boundary gap.  The readers of snapshot and record files
live here too, since only the tests read those files back.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.signal import resample
from scipy.special import iv, k0, k1, kv

from tumorbim.driver import RECORD_COLUMNS, RunRecord
from tumorbim.geometry import (InterfaceState, PlanarCurveSamples, area,
                               periodic_antiderivative, spectral_derivative)

TWO_PI = 2.0 * np.pi

LAPLACE = "laplace"
HELMHOLTZ = "modified_helmholtz"
SINGLE = "single"
DOUBLE = "double"


def bessel_i_series(n, x, terms=40):
    """Truncated power series sum_k (x/2)^{2k+n} / (k! (k+n)!)."""
    total = 0.0
    for k in range(terms):
        total += (x / 2.0) ** (2 * k + n) / (math.factorial(k) * math.factorial(k + n))
    return total


def bessel_k0_series(x, terms=40):
    """K0 from the log expansion -(ln(x/2) + gamma) I0(x) + harmonic series."""
    acc = 0.0
    for k in range(1, terms):
        acc += (x * x / 4.0) ** k / math.factorial(k) ** 2 * sum(1.0 / m for m in range(1, k + 1))
    return -(math.log(x / 2.0) + np.euler_gamma) * bessel_i_series(0, x, terms) + acc


def bessel_k1_series(x, terms=40):
    """K1 from 1/x + (ln(x/2) + gamma) I1(x) - correction series."""
    acc = 0.0
    for k in range(0, terms):
        h_k = sum(1.0 / m for m in range(1, k + 1))
        h_k1 = sum(1.0 / m for m in range(1, k + 2))
        acc += (h_k1 + h_k) / (math.factorial(k) * math.factorial(k + 1)) \
            * (x / 2.0) ** (2 * k + 1)
    return 1.0 / x + (math.log(x / 2.0) + np.euler_gamma) * bessel_i_series(1, x, terms) \
        - 0.5 * acc


def bessel_k_recurrence(n, x, terms=60):
    """K_n by stable upward recurrence from the series for K0, K1."""
    k_prev, k_cur = bessel_k0_series(x, terms), bessel_k1_series(x, terms)
    if n == 0:
        return k_prev
    for order in range(1, n):
        k_prev, k_cur = k_cur, k_prev + (2.0 * order / x) * k_cur
    return k_cur


def trig_interp(samples, points):
    """Evaluate the trigonometric interpolant of uniform samples at points,
    one mode at a time."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    coef = np.fft.rfft(samples)
    points = np.atleast_1d(np.asarray(points, dtype=float))
    out = np.full(points.shape, coef[0].real / n)
    for k in range(1, n // 2):
        out += (2.0 / n) * (coef[k].real * np.cos(k * points)
                            - coef[k].imag * np.sin(k * points))
    out += (coef[n // 2].real / n) * np.cos((n // 2) * points)
    return out


def equal_arclength_newton(x, y, tol=1e-12, max_iter=50):
    """Equal-arclength resampling by Newton's method on `trig_interp`, one
    interpolant call per quantity; returns (state, Newton iterates)."""
    n = x.size
    speed = np.hypot(spectral_derivative(x), spectral_derivative(y))
    cum, mean_speed = periodic_antiderivative(speed)
    length = TWO_PI * mean_speed
    targets = length * np.arange(n) / n
    u = TWO_PI * np.arange(n) / n
    for iterates in range(1, max_iter + 1):
        res = trig_interp(cum, u) + mean_speed * u - targets
        if np.max(np.abs(res)) <= tol * max(length, 1.0):
            break
        u = u - res / trig_interp(speed, u)
    else:
        raise RuntimeError("equal-arclength Newton did not converge")
    xr = trig_interp(x, u)
    yr = trig_interp(y, u)
    theta = np.unwrap(np.arctan2(spectral_derivative(yr),
                                 spectral_derivative(xr)))
    return InterfaceState(theta=theta, s_alpha=length / TWO_PI,
                          ref_point=(xr[0], yr[0])), iterates


def periodic_cubic_spline(x, y, points):
    """scipy's periodic cubic spline through (x, y), y[-1] == y[0], at points."""
    return CubicSpline(x, y, bc_type="periodic")(points)


def centroid(samples):
    """Area centroid from the boundary integrals of x dA and y dA."""
    a = area(samples)
    h = TWO_PI / samples.n
    cx = 0.5 * h * float(np.sum(samples.x ** 2 * samples.y_a)) / a
    cy = -0.5 * h * float(np.sum(samples.y ** 2 * samples.x_a)) / a
    return cx, cy


def shape_diagnostics(samples, mode):
    """`geometry.shape_diagnostics` through scipy's spline: (r_eff,
    delta_over_r, ok), NaN and False for a curve that is not star-shaped
    about its centroid."""
    r_eff = np.sqrt(area(samples) / np.pi)
    cx, cy = centroid(samples)
    phi = np.unwrap(np.arctan2(samples.y - cy, samples.x - cx))
    dphi = np.diff(phi)
    if not (np.all(dphi > 0) or np.all(dphi < 0)):
        return r_eff, float("nan"), False
    rad = np.hypot(samples.x - cx, samples.y - cy)
    if dphi[0] < 0:
        phi, rad = phi[::-1], rad[::-1]
    m = max(512, samples.n)
    uniform = phi[0] + TWO_PI * np.arange(m) / m
    values = periodic_cubic_spline(np.append(phi, phi[0] + TWO_PI),
                                   np.append(rad, rad[0]), uniform)
    delta = 2.0 * np.abs(np.fft.rfft(values)[mode]) / m
    return r_eff, delta / r_eff, True


def min_gap_full(a, b):
    """Minimum node distance between two boundaries over all node pairs."""
    dx = np.subtract.outer(a.x, b.x)
    dy = np.subtract.outer(a.y, b.y)
    return float(np.sqrt(np.min(dx * dx + dy * dy)))


def read_snapshot(path):
    """Inverse of `geometry.write_snapshot`; returns (x, y, time, s_alpha)."""
    with open(path) as fh:
        head = fh.readline().split()
        n, t, s = int(head[0]), float(head[1]), float(head[2])
        data = np.loadtxt(fh, ndmin=2)
    if data.shape != (n, 2):
        raise ValueError(f"snapshot {path} is corrupted: expected {n} rows")
    return data[:, 0].copy(), data[:, 1].copy(), t, s


def read_record(path):
    """Inverse of `driver.RunRecord.write`."""
    rec = RunRecord()
    with open(path) as fh:
        header = fh.readline().split()
        if tuple(header) != RECORD_COLUMNS:
            raise ValueError(f"unrecognized record header in {path}")
        for line in fh:
            rec.rows.append(tuple(float(v) for v in line.split()))
    return rec


def polar_curvature(r_func, dr, ddr, theta):
    """kappa(theta) = (r^2 + 2 r'^2 - r r'') / (r^2 + r'^2)^{3/2}."""
    r, rp, rpp = r_func(theta), dr(theta), ddr(theta)
    return (r * r + 2 * rp * rp - r * rpp) / (r * r + rp * rp) ** 1.5


def polar_arclength(r_func, dr):
    """Adaptive-quadrature perimeter of r(theta)."""
    val, _ = quad(lambda t: np.hypot(r_func(t), dr(t)), 0.0, 2.0 * np.pi,
                  limit=200, epsabs=1e-13, epsrel=1e-13)
    return val


def polar_area(r_func):
    val, _ = quad(lambda t: 0.5 * r_func(t) ** 2, 0.0, 2.0 * np.pi,
                  limit=200, epsabs=1e-13, epsrel=1e-13)
    return val


def hilbert_transform_pv(values):
    """Periodic Hilbert transform by the alternating-point rule.

    (1/2pi) PV int f(a') cot((a - a')/2) da' evaluated at the grid points,
    summing only source nodes with odd offset (weight doubled).
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    a = 2.0 * np.pi * np.arange(n) / n
    out = np.empty(n)
    for i in range(n):
        js = np.arange(n)[(np.arange(n) - i) % 2 == 1]
        out[i] = np.sum(values[js] * (1.0 / np.tan((a[i] - a[js]) / 2.0)))
    return out * (2.0 * (2.0 * np.pi / n)) / (2.0 * np.pi)


def annulus_nutrient_coeffs(r0, r, beta, sigma_n):
    """Direct 2x2 solve for the radial nutrient coefficients."""
    mat = np.array([[iv(0, r0), kv(0, r0)],
                    [iv(1, r) + beta * iv(0, r), beta * kv(0, r) - kv(1, r)]])
    return np.linalg.solve(mat, [sigma_n, beta])


def perturbation_coeffs_direct(r0, r, ell, beta, a1, a2):
    """Direct 2x2 solve for the mode-l nutrient perturbation coefficients."""
    mat = np.array([
        [iv(ell, r0), kv(ell, r0)],
        [iv(ell - 1, r) - (ell / r) * iv(ell, r) + beta * iv(ell, r),
         -(kv(ell - 1, r) + (ell / r) * kv(ell, r)) + beta * kv(ell, r)]])
    rhs = np.array([0.0,
                    -(a1 * (iv(0, r) - iv(1, r) / r) + a2 * (kv(0, r) + kv(1, r) / r))
                    - beta * (a1 * iv(1, r) - a2 * kv(1, r))])
    return np.linalg.solve(mat, rhs)


def radial_coeffs_limit_r0(radius, config):
    """Stated limits of (A1, A2) as the inner radius shrinks to zero."""
    p = config.params
    return 1.0 / (iv(0, radius) + iv(1, radius) / p.beta), 0.0


def perturb_coeffs_limit_beta(radius, config):
    """Stated limits of (B1, B2) as the supply rate beta grows unboundedly."""
    p = config.params
    r0, ell, r = config.r0, config.mode, radius
    i1r, k1r = iv(1, r), kv(1, r)
    i00, k00 = iv(0, r0), kv(0, r0)
    common = r * (i00 * kv(0, r) - iv(0, r) * k00) \
        * (iv(ell, r0) * kv(ell, r) - iv(ell, r) * kv(ell, r0))
    core = r * (i1r * k00 + i00 * k1r) - p.sigma_n
    b1 = -kv(ell, r0) * core / common
    b2 = iv(ell, r0) * core / common
    return b1, b2


def pressure_mode_coeffs_direct(r0, r, ell, w_r, w_0):
    """Direct 2x2 solve: D1 r^l + D2 r^-l = w_r; l(D1 r0^{l-1} - D2 r0^{-l-1}) = w_0."""
    mat = np.array([[r ** ell, r ** -ell],
                    [ell * r0 ** (ell - 1), -ell * r0 ** -(ell + 1)]])
    return np.linalg.solve(mat, [w_r, w_0])


def richardson_limit(f_coarse, f_fine, ratio=10.0):
    """Extrapolate f(h) -> f(0) assuming a leading error linear in h."""
    return (ratio * f_fine - f_coarse) / (ratio - 1.0)


def find_root(fn, lo, hi):
    return brentq(fn, lo, hi, xtol=1e-13)


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


def interior_value_nutrient(gamma0, gamma, params, fields, points):
    """Evaluate sigma at interior probe points from the Green representation.

    sigma(x) = D[sigma] - S[d sigma/dn_*] over both boundaries with the
    exterior normal of the annulus.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    robin_flux = params.beta * (1.0 - fields.sigma_gamma)
    val = eval_at_points(HELMHOLTZ, DOUBLE, gamma, pts, fields.sigma_gamma)
    val -= eval_at_points(HELMHOLTZ, SINGLE, gamma, pts, robin_flux)
    # on Gamma0 the exterior normal of the annulus is -n0
    val += eval_at_points(HELMHOLTZ, DOUBLE, gamma0, pts,
                          np.full(gamma0.n, -params.sigma_n))
    val += eval_at_points(HELMHOLTZ, SINGLE, gamma0, pts, fields.dsigma_dn0)
    return -val
