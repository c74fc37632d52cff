"""Closed-form linear stability of a perturbed circular interface.

For an interface r = R + delta cos(l theta) around a fixed circular inner
boundary of radius R0, the nutrient field separates into modified Bessel
modes and the pressure into harmonic modes.  This module evaluates the
resulting coefficient sets, the radius / shape-factor rate equations with
their named term breakdown, the critical apoptosis curve and the linear
trajectory (R(t), delta/R(t)).

All coefficients come from closed forms; the 2x2 defining systems are kept
only as test oracles.  `coefficients` is the one place that evaluates Bessel
functions, each order once per radius; the rate functions read the
`CoefficientSet` it returns.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_i, bessel_k
from .solver import Params

RATE_NAMES = ("apoptosis", "cell_cell_adhesion", "angiogenesis",
              "chemotaxis", "proliferation")


@dataclass(frozen=True)
class LinearConfig:
    """Inputs of the linear model: inner radius, mode number, constants."""

    r0: float
    mode: int
    params: Params
    r_init: float = 2.5
    delta_init: float = 0.1

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError("inner radius must be positive")
        if self.mode < 2 or int(self.mode) != self.mode:
            raise ValueError("perturbation mode must be an integer >= 2")
        if self.r_init <= self.r0:
            raise ValueError("initial radius must exceed the inner radius")
        if abs(self.delta_init) / self.r_init > 0.2:
            warnings.warn("delta/R above 0.2 is outside the linear regime",
                          RuntimeWarning, stacklevel=3)


@dataclass
class LinearPrediction:
    """Integrated linear trajectories R(t) and delta/R(t)."""

    times: np.ndarray
    radius: np.ndarray
    delta_over_r: np.ndarray
    halted: bool = False


@dataclass
class CoefficientSet:
    """All mode coefficients at one radius, plus the Bessel combinations
    that the rate equations need."""

    radius: float
    a1: float
    a2: float
    b1: float
    b2: float
    c1: float
    c2: float
    d1: float
    d2: float
    sigma0_r: float      # A1 I0(R) + A2 K0(R)
    flux0_r0: float      # A1 I1(R0) - A2 K1(R0)
    flux0_r: float       # A1 I1(R) - A2 K1(R)
    mode_flux: float     # A1 I1(R) - A2 K1(R) + B1 Il(R) + B2 Kl(R)
    inner_mode_flux: float  # B1 I_{l-1}(R0) - B2 K_{l-1}(R0)
    # 1/R + A1 (I1(R) - I0(R)/R) - A2 (K1(R) + K0(R)/R) + B1 Il(R) + B2 Kl(R)
    angiogenesis_sum: float


def coefficients(radius, config):
    """Full coefficient set at one radius.

    I_n and K_n, n in {0, 1, l - 1, l}, are evaluated once each at R and at
    R0.  (A1, A2) solve the radially symmetric nutrient problem, Dirichlet
    at R0 and Robin at R:
    A1 I0(R0) + A2 K0(R0) = sigma_n,
    A1 I1(R) - A2 K1(R) = beta (1 - A1 I0(R) - A2 K0(R)).
    (B1, B2) solve the mode-l perturbation, B1 Il(R0) + B2 Kl(R0) = 0 and
    the linearized Robin condition at R, in the closed form
    B1 = -Kl(R0) Q / Den, B2 = Il(R0) Q / Den.
    (C1, C2) solve the radially symmetric modified-pressure problem (Neumann
    at R0 from the nutrient flux and apoptosis, Dirichlet at R from
    curvature, nutrient and the apoptosis potential); (D1, D2) solve the
    mode-l problem.
    """
    p = config.params
    r0, ell, r = config.r0, config.mode, radius
    if radius <= r0:
        raise ValueError("radius must exceed the inner radius")
    orders = {0, 1, ell - 1, ell}
    i_r = {n: bessel_i(n, r) for n in orders}
    k_r = {n: bessel_k(n, r) for n in orders}
    i_0 = {n: bessel_i(n, r0) for n in orders}
    k_0 = {n: bessel_k(n, r0) for n in orders}
    pa = p.p * p.a

    u = k_r[1] - p.beta * k_r[0]
    v = p.beta * i_r[0] + i_r[1]
    den = k_0[0] * v + i_0[0] * u
    if den == 0 or not np.isfinite(den):
        raise FloatingPointError("radial coefficient denominator degenerate")
    a1 = (p.sigma_n * u + p.beta * k_0[0]) / den
    a2 = (p.sigma_n * v - p.beta * i_0[0]) / den

    br = p.beta * r
    q_num = a1 * ((br - 1.0) * i_r[1] + r * i_r[0]) \
        + a2 * ((1.0 - br) * k_r[1] + r * k_r[0])
    den = i_0[ell] * ((ell - br) * k_r[ell] + r * k_r[ell - 1]) \
        + k_0[ell] * ((br - ell) * i_r[ell] + r * i_r[ell - 1])
    if den == 0 or not np.isfinite(den):
        raise FloatingPointError("perturbation coefficient denominator degenerate")
    b1 = -k_0[ell] * q_num / den
    b2 = i_0[ell] * q_num / den

    flux0 = a1 * i_0[1] - a2 * k_0[1]
    sigma0 = a1 * i_r[0] + a2 * k_r[0]
    flux_r = a1 * i_r[1] - a2 * k_r[1]
    mode_flux = flux_r + b1 * i_r[ell] + b2 * k_r[ell]
    inner_mode = b1 * i_0[ell - 1] - b2 * k_0[ell - 1]
    angiogenesis = 1.0 / r + a1 * (i_r[1] - i_r[0] / r) \
        - a2 * (k_r[1] + k_r[0] / r) + b1 * i_r[ell] + b2 * k_r[ell]

    c2 = p.p * flux0 * r0 - 0.5 * pa * r0 ** 2
    c1 = p.ginv / r - 0.25 * pa * r ** 2 + (p.p - p.chi) * sigma0 \
        - c2 * np.log(r)

    # mode-l right-hand sides of the Dirichlet (at R) and Neumann (at R0) rows
    w_r = (p.p - p.chi) * mode_flux + p.ginv * (ell ** 2 - 1) / r ** 2 \
        - 0.5 * pa * r - c2 / r
    w_0 = p.p * inner_mode
    denom = r ** (2 * ell) + r0 ** (2 * ell)
    d1 = (w_r * r ** ell + r0 ** (ell + 1) * w_0 / ell) / denom
    d2 = (w_r * r ** ell * r0 ** (2 * ell)
          - r ** (2 * ell) * r0 ** (ell + 1) * w_0 / ell) / denom
    return CoefficientSet(radius=r, a1=a1, a2=a2, b1=b1, b2=b2, c1=c1, c2=c2,
                          d1=d1, d2=d2, sigma0_r=sigma0, flux0_r0=flux0,
                          flux0_r=flux_r, mode_flux=mode_flux,
                          inner_mode_flux=inner_mode,
                          angiogenesis_sum=angiogenesis)


def dr_dt(coeffs, config):
    """Rate of change of the unperturbed radius.

    dR/dt = P (A1 I1(R) - A2 K1(R) - (R0/R)(A1 I1(R0) - A2 K1(R0)))
            - (P A / 2)(R^2 - R0^2)/R.
    """
    p = config.params
    r0, r = config.r0, coeffs.radius
    return p.p * (coeffs.flux0_r - (r0 / r) * coeffs.flux0_r0) \
        - 0.5 * p.p * p.a * (r ** 2 - r0 ** 2) / r


def _lam_bracket(radius, config):
    """lam = (R^2l - R0^2l)/(R^2l + R0^2l) and the factor multiplying P*A
    in the apoptosis contribution."""
    r0, ell, r = config.r0, config.mode, radius
    lam = 1.0 - 2.0 * r0 ** (2 * ell) / (r ** (2 * ell) + r0 ** (2 * ell))
    ratio2 = (r0 / r) ** 2
    return lam, (1.0 - ratio2) * lam * ell / 2.0 - ratio2


def shape_rate_terms(coeffs, config):
    """Named contributions to (delta/R)^-1 d(delta/R)/dt.

    Returns a dict over RATE_NAMES; their sum is the shape growth rate.
    The chemotaxis contribution is chi * (mode flux at R) * lam * l / R,
    where the mode flux is the O(delta) radial derivative of the nutrient
    at the outer radius (it does not involve the inner-boundary flux: the
    apoptosis/flux datum at R0 is chi-free, so no (R0/R) flux term enters
    the taxis coupling).
    """
    p = config.params
    r0, ell, r = config.r0, config.mode, coeffs.radius
    lam, bracket = _lam_bracket(r, config)
    cross = r ** ell * r0 ** ell / (r ** (2 * ell) + r0 ** (2 * ell))

    apoptosis = p.p * p.a * bracket
    adhesion = -p.ginv * ell * (ell ** 2 - 1) / r ** 3 * lam
    angiogenesis = -p.p * p.beta * coeffs.angiogenesis_sum
    chemotaxis = p.chi * coeffs.mode_flux * lam * ell / r
    proliferation = p.p * (coeffs.flux0_r0 * (r0 / r ** 2) * (2.0 + ell * lam)
                           - 2.0 * coeffs.inner_mode_flux * cross * (r0 / r)) \
        - p.p * coeffs.mode_flux * lam * ell / r
    return {"apoptosis": apoptosis, "cell_cell_adhesion": adhesion,
            "angiogenesis": angiogenesis, "chemotaxis": chemotaxis,
            "proliferation": proliferation}


def dshape_dt(coeffs, config):
    """(delta/R)^-1 d(delta/R)/dt: sum of the named contributions."""
    return float(sum(shape_rate_terms(coeffs, config).values()))


def critical_apoptosis(coeffs, config):
    """Apoptosis level at which the shape factor is stationary.

    Solves dshape_dt = 0 for A at fixed radius.  Raises ZeroDivisionError
    when the apoptosis bracket vanishes (the curve has a pole there).
    """
    _, bracket = _lam_bracket(coeffs.radius, config)
    if abs(bracket) < 1e-14:
        raise ZeroDivisionError("apoptosis bracket vanishes: pole in the curve")
    terms = shape_rate_terms(coeffs, config)
    rest = sum(v for k, v in terms.items() if k != "apoptosis")
    return -rest / (config.params.p * bracket)


def integrate_linear_odes(config, t_final, dt=1e-3):
    """Advance (R, delta/R) by classical fourth-order Runge-Kutta steps.

    One coefficient set per stage serves both rates.  Integration halts
    early if the radius reaches the inner radius.
    """
    if not (dt > 0 and t_final >= 0):
        raise ValueError("need dt > 0 and t_final >= 0")

    def rates(r, s):
        coeffs = coefficients(r, config)
        return dr_dt(coeffs, config), s * dshape_dt(coeffs, config)

    n_steps = int(round(t_final / dt))
    times = [0.0]
    radius = [config.r_init]
    shape = [config.delta_init / config.r_init]
    halted = False
    r, s = config.r_init, config.delta_init / config.r_init
    for i in range(n_steps):
        try:
            k1r, k1s = rates(r, s)
            k2r, k2s = rates(r + 0.5 * dt * k1r, s + 0.5 * dt * k1s)
            k3r, k3s = rates(r + 0.5 * dt * k2r, s + 0.5 * dt * k2s)
            k4r, k4s = rates(r + dt * k3r, s + dt * k3s)
        except ValueError:
            halted = True
            break
        r = r + dt * (k1r + 2 * k2r + 2 * k3r + k4r) / 6.0
        s = s + dt * (k1s + 2 * k2s + 2 * k3s + k4s) / 6.0
        if r <= config.r0:
            halted = True
            break
        times.append((i + 1) * dt)
        radius.append(r)
        shape.append(s)
    return LinearPrediction(times=np.array(times), radius=np.array(radius),
                            delta_over_r=np.array(shape), halted=halted)


def stability_curve(config, r_values):
    """Critical apoptosis and term breakdown on a radius grid.

    Returns a structured array with columns (radius, a_crit, and the five
    named contributions); pole locations carry NaN in a_crit.
    """
    rows = []
    for r in np.asarray(r_values, dtype=float):
        coeffs = coefficients(r, config)
        terms = shape_rate_terms(coeffs, config)
        try:
            ac = critical_apoptosis(coeffs, config)
        except ZeroDivisionError:
            ac = float("nan")
        rows.append((r, ac) + tuple(terms[k] for k in RATE_NAMES))
    dtype = [("radius", float), ("a_crit", float)] + \
        [(name, float) for name in RATE_NAMES]
    return np.array(rows, dtype=dtype)


def write_stability_curve(path, table):
    """Delimited text output of a stability_curve table."""
    header = "\t".join(table.dtype.names)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in table:
            fh.write("\t".join(f"{v:.17g}" for v in row) + "\n")
