"""Closed-curve geometry in the tangent-angle / arclength representation.

The evolving outer boundary is stored as tangent-angle samples theta(alpha)
on a uniform grid together with a single arclength metric s_alpha (the
parametrization keeps nodes equally spaced in arclength, so s_alpha is the
same at every node).  The static inner boundary is sampled from its radial
rule and keeps a per-node metric.  All differentiation, integration,
filtering and interpolation is spectral; node counts are powers of two.
"""

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


class ReparamError(RuntimeError):
    """Newton iteration for the equal-arclength nodes failed to converge."""


def alpha_grid(n):
    return TWO_PI * np.arange(n) / n


def _require_pow2(n):
    if n < 4 or (n & (n - 1)) != 0:
        raise ValueError(f"node count must be a power of 2 >= 4, got {n}")


# ---------------------------------------------------------------------------
# spectral primitives

def spectral_derivative(f, order=1):
    """Differentiate periodic samples by multiplying modes by (ik)**order.

    The Nyquist mode of odd derivatives is zeroed (it carries no usable
    sign information on the grid).
    """
    f = np.asarray(f, dtype=float)
    n = f.size
    fh = np.fft.rfft(f)
    k = np.arange(n // 2 + 1, dtype=float)
    fh *= (1j * k) ** order
    if order % 2 == 1:
        fh[-1] = 0.0
    return np.fft.irfft(fh, n)


def periodic_antiderivative(f):
    """Return (F, mean) with F the zero-at-origin antiderivative of f - mean.

    F is periodic and satisfies F(0) = 0, so that the running integral of f
    from 0 to alpha equals F(alpha) + mean*alpha.
    """
    f = np.asarray(f, dtype=float)
    n = f.size
    fh = np.fft.rfft(f)
    mean = fh[0].real / n
    fh[0] = 0.0
    k = np.arange(n // 2 + 1, dtype=float)
    k[0] = 1.0
    fh = fh / (1j * k)
    fh[-1] = 0.0  # antiderivative of the Nyquist cosine vanishes on-grid
    big_f = np.fft.irfft(fh, n)
    return big_f - big_f[0], mean


def fourier_filter_coeffs(fh, n):
    """25th-order smoothing of the rfft coefficients `fh` of n samples:
    mode k is damped by exp(-10 (2|k|/N)^25)."""
    k = np.arange(n // 2 + 1, dtype=float)
    return fh * np.exp(-10.0 * (2.0 * k / n) ** 25)


def krasny_filter(f_hat, floor):
    """Zero Fourier coefficients whose magnitude is below the floor."""
    if floor <= 0:
        raise ValueError("krasny floor must be positive")
    f_hat = np.asarray(f_hat)
    out = f_hat.copy()
    out[np.abs(out) < floor] = 0.0
    return out


def trig_table(points, n):
    """cos(k u) for k = 1..n/2 and sin(k u) for k = 1..n/2 - 1 at points u,
    one row per k: what the degree-n/2 interpolants of n samples need."""
    phase = np.outer(np.arange(1, n // 2 + 1, dtype=float), points)
    cos_t = np.cos(phase)
    # sin overwrites the phases cos has read, which saves one table
    return cos_t, np.sin(phase[:-1], out=phase[:-1])


def trig_eval(coef, table):
    """Trigonometric interpolant with rfft coefficients `coef` of n samples
    at the points of `table` (from `trig_table`).

    Term k is (2/n)(a_k cos - b_k sin), added in order of k after the mean
    and before the Nyquist term: a loop over the modes, bit for bit, at two
    or more points.
    """
    cos_t, sin_t = table
    m = len(cos_t)
    n = 2 * m
    terms = coef[1:m].real[:, None] * cos_t[:-1]
    terms -= coef[1:m].imag[:, None] * sin_t
    terms *= 2.0 / n
    terms[0] += coef[0].real / n
    # numpy adds whole rows in sequence over the slow axis of a C-ordered
    # array; it sums pairwise along the fast axis, which the row axis
    # becomes at a single point
    out = np.add.reduce(terms, axis=0)
    out += (coef[m].real / n) * cos_t[-1]
    return out


# ---------------------------------------------------------------------------
# curve containers

@dataclass
class PlanarCurveSamples:
    """Marker-point view of a closed curve with spectral derived quantities."""

    x: np.ndarray
    y: np.ndarray
    x_a: np.ndarray
    y_a: np.ndarray
    x_aa: np.ndarray
    y_aa: np.ndarray
    s_alpha: np.ndarray          # per-node metric |x_alpha|
    normal_x: np.ndarray
    normal_y: np.ndarray
    curvature: np.ndarray
    alpha: np.ndarray = field(repr=False, default=None)

    @property
    def n(self):
        return self.x.size

    @classmethod
    def from_xy(cls, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        _require_pow2(x.size)
        x_a = spectral_derivative(x)
        y_a = spectral_derivative(y)
        x_aa = spectral_derivative(x, 2)
        y_aa = spectral_derivative(y, 2)
        s = np.hypot(x_a, y_a)
        with np.errstate(divide="ignore", invalid="ignore"):
            return cls(x=x, y=y, x_a=x_a, y_a=y_a, x_aa=x_aa, y_aa=y_aa,
                       s_alpha=s, normal_x=y_a / s, normal_y=-x_a / s,
                       curvature=(x_a * y_aa - x_aa * y_a) / s ** 3,
                       alpha=alpha_grid(x.size))


@dataclass
class InterfaceState:
    """Evolving outer boundary: theta(alpha_j), uniform metric, anchor point."""

    theta: np.ndarray
    s_alpha: float
    ref_point: tuple
    time: float = 0.0

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        _require_pow2(self.theta.size)
        if self.s_alpha <= 0:
            raise ValueError("s_alpha must be positive")

    @property
    def n(self):
        return self.theta.size

    def theta_alpha(self):
        phi = self.theta - alpha_grid(self.n)
        return 1.0 + spectral_derivative(phi)

    def samples(self):
        x, y = reconstruct(self)
        n = self.n
        s = self.s_alpha
        cos_t = np.cos(self.theta)
        sin_t = np.sin(self.theta)
        th_a = self.theta_alpha()
        return PlanarCurveSamples(
            x=x, y=y,
            x_a=s * cos_t, y_a=s * sin_t,
            x_aa=-s * th_a * sin_t, y_aa=s * th_a * cos_t,
            s_alpha=np.full(n, s),
            normal_x=sin_t, normal_y=-cos_t,
            curvature=th_a / s,
            alpha=alpha_grid(n))


def _radial_rule(radius, eps, k, n):
    """Nodes x, y of the radial rule r = R + eps cos(k a) on `alpha_grid(n)`."""
    a = alpha_grid(n)
    r = radius + eps * np.cos(k * a)
    if np.min(r) <= 0:
        raise ValueError("radial rule produces a self-intersecting boundary")
    return r * np.cos(a), r * np.sin(a)


def radial_boundary(r0, eps0, k0, n):
    """Static inner boundary sampled from the radial rule r = R0 + eps0 cos(k0 a)."""
    if r0 <= 0:
        raise ValueError("inner radius must be positive")
    if eps0 < 0 or k0 < 0 or int(k0) != k0:
        raise ValueError("radial rule needs eps0 >= 0 and integer k0 >= 0")
    return PlanarCurveSamples.from_xy(*_radial_rule(r0, eps0, k0, n))


def reconstruct(state):
    """Recover markers from (theta, s_alpha, ref_point).

    x(alpha) = x(0) + s_alpha * (int_0^alpha cos(theta) - (alpha/2pi) *
    int_0^{2pi} cos(theta)), and likewise for y with sin; the secular term
    removal keeps the curve closed regardless of the mean tangent.
    """
    fx, _ = periodic_antiderivative(np.cos(state.theta))
    fy, _ = periodic_antiderivative(np.sin(state.theta))
    x0, y0 = state.ref_point
    return x0 + state.s_alpha * fx, y0 + state.s_alpha * fy


def equal_arclength_reparam(x, y, tol=1e-12, max_iter=50):
    """Resample a closed analytic curve at equal-arclength nodes.

    Solves int_0^{u_j} s_v dv = (j/N) L for the source parameters u_j by
    Newton's method with trigonometric interpolation, then builds the
    tangent-angle state of the resampled curve.  Each iterate builds one
    `trig_table`, which serves the arclength, the speed and, at the
    converged iterate, x and y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    _require_pow2(n)
    speed = np.hypot(spectral_derivative(x), spectral_derivative(y))
    cum, mean_speed = periodic_antiderivative(speed)
    length = TWO_PI * mean_speed
    targets = length * np.arange(n) / n
    cum_coef, speed_coef = np.fft.rfft(cum), np.fft.rfft(speed)

    u = alpha_grid(n)
    for _ in range(max_iter):
        table = trig_table(u, n)
        res = trig_eval(cum_coef, table) + mean_speed * u - targets
        if np.max(np.abs(res)) <= tol * max(length, 1.0):
            break
        u = u - res / trig_eval(speed_coef, table)
    else:
        raise ReparamError("equal-arclength Newton did not converge "
                           f"in {max_iter} iterations")

    xr = trig_eval(np.fft.rfft(x), table)
    yr = trig_eval(np.fft.rfft(y), table)
    x_a = spectral_derivative(xr)
    y_a = spectral_derivative(yr)
    theta = np.unwrap(np.arctan2(y_a, x_a))
    return InterfaceState(theta=theta, s_alpha=length / TWO_PI,
                          ref_point=(xr[0], yr[0]))


def initial_interface(r_init, eps_init, k_init, n):
    """Equal-arclength state for the radial rule r = R + eps cos(k alpha)."""
    return equal_arclength_reparam(*_radial_rule(r_init, eps_init, k_init, n))


# ---------------------------------------------------------------------------
# diagnostics

def area(samples):
    """Signed enclosed area, (1/2) oint (x y_a - y x_a) d alpha by trapezoid."""
    n = samples.n
    return 0.5 * (TWO_PI / n) * float(np.sum(samples.x * samples.y_a
                                             - samples.y * samples.x_a))


def _back_substitute(dl, d, du, x):
    """Solve U x = b for `_dgtsv`'s upper factor (diagonal d, superdiagonals
    du and dl), overwriting the list x = b."""
    n = len(d)
    x[-1] /= d[-1]
    if n > 1:
        x[-2] = (x[-2] - du[-1] * x[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - dl[i] * x[i + 2]) / d[i]
    return x


def _dgtsv(dl, d, du, b):
    """The tridiagonal system with sub-, main and superdiagonals dl, d, du
    solved for the two columns of the n x 2 array b: LAPACK's dgtsv,
    operation for operation (LAPACK Users' Guide, 3rd ed., SIAM 1999), so
    the solution is the same float.  The diagonals must be finite and stay
    so under elimination: a NaN pivot over a zero subdiagonal entry, which
    LAPACK carries on as NaN, raises ZeroDivisionError here.

    Gaussian elimination with partial pivoting: row i swaps with row i + 1
    when |d_i| < |dl_i|, and dl_i then holds the second superdiagonal this
    creates.  A zero pivot returns the partly eliminated right-hand sides
    at once, as LAPACK does (with info > 0).
    """
    n = len(d)
    dl, d, du = dl.tolist(), d.tolist(), du.tolist()
    b1, b2 = b.T.tolist()
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                return np.column_stack((b1, b2))
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b1[i + 1] -= fact * b1[i]
            b2[i + 1] -= fact * b2[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b1[i], b1[i + 1] = b1[i + 1], b1[i] - fact * b1[i + 1]
            b2[i], b2[i + 1] = b2[i + 1], b2[i] - fact * b2[i + 1]
    if d[-1] == 0.0:
        return np.column_stack((b1, b2))
    return np.column_stack((_back_substitute(dl, d, du, b1),
                            _back_substitute(dl, d, du, b2)))


def periodic_spline(x, y, points):
    """Periodic cubic spline through the knots (x, y), y[-1] == y[0] and at
    least five knots, at `points`: scipy's CubicSpline(x, y,
    bc_type="periodic")(points), float for float.

    The slopes solve scipy's condensed tridiagonal system (the periodic
    system without its last unknown) for its two right-hand sides by
    `_dgtsv`, and its periodic correction gives the last slope.
    A point maps into [x[0], x[-1]] as in scipy, and its piece sums the power
    terms in PPoly's order: c3 + c2 d, then + c1 d*d, then + c0 (d*d)*d.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # interval k - 1 at position k, cyclically
    dx_prev = np.concatenate((dx[-1:], dx[:-1]))
    slope_prev = np.concatenate((slope[-1:], slope[:-1]))
    m = x.size - 2
    # row i, cyclic: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
    # = 3 (dx[i] slope[i-1] + dx[i-1] slope[i])
    rhs = 3 * (dx * slope_prev + dx_prev * slope)
    b = np.zeros((m, 2))
    b[:, 0] = rhs[:m]
    b[0, 1] = -dx[0]
    b[-1, 1] = -dx[-3]
    sol = _dgtsv(dx[1:m], 2 * (dx_prev[:m] + dx[:m]), dx_prev[:m - 1], b)
    s1, s2 = sol[:, 0], sol[:, 1]
    s_last = ((rhs[m] - dx[-2] * s1[0] - dx[-1] * s1[-1])
              / (2 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]))
    s = np.empty(m + 2)
    s[:m] = s1 + s_last * s2
    s[m] = s_last
    s[-1] = s[0]

    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0 = t / dx
    c1 = (slope - s[:-1]) / dx - t

    u = x[0] + (points - x[0]) % (x[-1] - x[0])
    i = np.searchsorted(x[1:-1], u, side="right")
    d = u - x[i]
    out = y[i] + s[i] * d
    d2 = d * d
    out += c1[i] * d2
    d2 *= d
    out += c0[i] * d2
    return out


def shape_diagnostics(samples, mode):
    """Effective radius and mode amplitude of the radial perturbation.

    Returns (r_eff, delta_over_r, ok).  r_eff = sqrt(|A|/pi), so that either
    orientation gives the same values.  delta is the one-sided amplitude of
    Fourier mode `mode` of the polar radius about the area centroid (the
    boundary integrals of x dA and y dA over the signed area), resampled at
    uniform polar angle through a periodic cubic spline.  ok is False (and
    the amplitudes NaN) when the curve is not star-shaped about its centroid.
    """
    a = area(samples)
    r_eff = np.sqrt(abs(a) / np.pi)
    h = TWO_PI / samples.n
    cx = 0.5 * h * float(np.sum(samples.x ** 2 * samples.y_a)) / a
    cy = -0.5 * h * float(np.sum(samples.y ** 2 * samples.x_a)) / a
    phi = np.unwrap(np.arctan2(samples.y - cy, samples.x - cx))
    dphi = np.diff(phi)
    if not (np.all(dphi > 0) or np.all(dphi < 0)):
        return r_eff, float("nan"), False
    rad = np.hypot(samples.x - cx, samples.y - cy)
    if dphi[0] < 0:
        phi, rad = phi[::-1], rad[::-1]
    phi_ext = np.concatenate([phi, [phi[0] + TWO_PI]])
    rad_ext = np.concatenate([rad, [rad[0]]])
    m = max(512, samples.n)
    uniform = phi[0] + TWO_PI * np.arange(m) / m
    coef = np.fft.rfft(periodic_spline(phi_ext, rad_ext, uniform))
    delta = 2.0 * np.abs(coef[mode]) / m
    return r_eff, delta / r_eff, True


def min_gap_between(a, b):
    """Minimum point-to-point distance between two boundaries.

    A node of b lies at least |x_b| - max |x_a| from every node of a, so only
    the nodes of b whose bound is within a rounding margin (scaled by the
    radii) of one exact node-to-curve distance are paired with all of a.
    Their squared distances are formed as in the full N_a x N_b pass, so
    the minimum is the same float.
    """
    r_a = np.hypot(a.x, a.y).max()
    r_b = np.hypot(b.x, b.y)
    j = r_b.argmin()
    upper = np.hypot(a.x - b.x[j], a.y - b.y[j]).min()
    # 2**-48: sixteen machine epsilons of the radii cover the rounding of
    # the radii, the bound and the squared distances; "not >" keeps every
    # node when a coordinate is NaN, so that NaN propagates
    keep = ~(r_b > r_a + upper + 2.0 ** -48 * (r_a + r_b.max()))
    # one row per kept node of b, so that numpy's inner loops run along a
    dx = a.x - b.x[keep][:, None]
    dy = a.y - b.y[keep][:, None]
    dx *= dx
    dy *= dy
    dx += dy
    return float(np.sqrt(np.min(dx)))


def min_self_gap(samples):
    """Minimum distance between the nodes of one boundary that lie more than
    max(4, N/16) positions apart, so that regular grid spacing does not
    register as a near-touch."""
    dx = samples.x[:, None] - samples.x[None, :]
    dy = samples.y[:, None] - samples.y[None, :]
    d2 = dx * dx + dy * dy
    n = samples.n
    sep = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    d2[np.minimum(sep, n - sep) <= max(4, n // 16)] = np.inf
    return float(np.sqrt(np.min(d2)))


# ---------------------------------------------------------------------------
# snapshot files

def write_snapshot(path, samples_or_state):
    """Plain-text snapshot: header (N, time, s_alpha) then N rows of x y;
    curve samples, which carry no time, are written at time 0."""
    if isinstance(samples_or_state, InterfaceState):
        state = samples_or_state
        x, y = reconstruct(state)
        t = state.time
        s = state.s_alpha
    else:
        smp = samples_or_state
        x, y = smp.x, smp.y
        t = 0.0
        s = float(np.mean(smp.s_alpha))
    with open(path, "w") as fh:
        fh.write(f"{x.size} {t:.17g} {s:.17g}\n")
        for xi, yi in zip(x, y):
            fh.write(f"{xi:.17g} {yi:.17g}\n")

