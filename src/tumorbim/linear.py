"""Closed-form linear stability of a perturbed circular interface.

For an interface r = R + delta cos(l theta) around a fixed circular inner
boundary of radius R0, the nutrient field separates into modified Bessel
modes and the pressure into harmonic modes.  This module evaluates the
resulting coefficient sets, the radius / shape-factor rate equations with
their named term breakdown, the critical apoptosis curve and the linear
trajectory (R(t), delta/R(t)).

All coefficients come from closed forms; the 2x2 defining systems are kept
only as test oracles.
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
        if self.delta_init / self.r_init > 0.2:
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
    """All mode coefficients at one radius, plus common building blocks."""

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
    mode_flux: float     # A1 I1(R) - A2 K1(R) + B1 Il(R) + B2 Kl(R)
    inner_mode_flux: float  # B1 I_{l-1}(R0) - B2 K_{l-1}(R0)


def radial_coeffs(radius, config):
    """Coefficients (A1, A2) of the radially symmetric nutrient solution.

    Defined by the Dirichlet level at R0 and the Robin influx at R:
    A1 I0(R0) + A2 K0(R0) = sigma_n,
    A1 I1(R) - A2 K1(R) = beta (1 - A1 I0(R) - A2 K0(R)).
    """
    p = config.params
    r0 = config.r0
    if radius <= r0:
        raise ValueError("radius must exceed the inner radius")
    u = bessel_k(1, radius) - p.beta * bessel_k(0, radius)
    v = p.beta * bessel_i(0, radius) + bessel_i(1, radius)
    i00 = bessel_i(0, r0)
    k00 = bessel_k(0, r0)
    den = k00 * v + i00 * u
    if den == 0 or not np.isfinite(den):
        raise FloatingPointError("radial coefficient denominator degenerate")
    a1 = (p.sigma_n * u + p.beta * k00) / den
    a2 = (p.sigma_n * v - p.beta * i00) / den
    return a1, a2


def perturb_coeffs(radius, config, a1=None, a2=None):
    """Coefficients (B1, B2) of the mode-l nutrient perturbation.

    Defined by B1 Il(R0) + B2 Kl(R0) = 0 and the linearized Robin
    condition at R; closed form B1 = -Kl(R0) Q / Den, B2 = Il(R0) Q / Den.
    """
    p = config.params
    r0, ell, r = config.r0, config.mode, radius
    if a1 is None or a2 is None:
        a1, a2 = radial_coeffs(radius, config)
    br = p.beta * r
    q_num = a1 * ((br - 1.0) * bessel_i(1, r) + r * bessel_i(0, r)) \
        + a2 * ((1.0 - br) * bessel_k(1, r) + r * bessel_k(0, r))
    den = bessel_i(ell, r0) * ((ell - br) * bessel_k(ell, r)
                               + r * bessel_k(ell - 1, r)) \
        + bessel_k(ell, r0) * ((br - ell) * bessel_i(ell, r)
                               + r * bessel_i(ell - 1, r))
    if den == 0 or not np.isfinite(den):
        raise FloatingPointError("perturbation coefficient denominator degenerate")
    b1 = -bessel_k(ell, r0) * q_num / den
    b2 = bessel_i(ell, r0) * q_num / den
    return b1, b2


def coefficients(radius, config):
    """Full coefficient set at one radius.

    (C1, C2) solve the radially symmetric modified-pressure problem (Neumann
    at R0 from the nutrient flux and apoptosis, Dirichlet at R from
    curvature, nutrient and the apoptosis potential); (D1, D2) solve the
    mode-l problem.
    """
    p = config.params
    r0, ell, r = config.r0, config.mode, radius
    pa = p.p * p.a
    a1, a2 = radial_coeffs(radius, config)
    b1, b2 = perturb_coeffs(radius, config, a1, a2)

    flux0 = a1 * bessel_i(1, r0) - a2 * bessel_k(1, r0)
    sigma0 = a1 * bessel_i(0, r) + a2 * bessel_k(0, r)
    mode_flux = a1 * bessel_i(1, r) - a2 * bessel_k(1, r) \
        + b1 * bessel_i(ell, r) + b2 * bessel_k(ell, r)
    inner_mode = b1 * bessel_i(ell - 1, r0) - b2 * bessel_k(ell - 1, r0)

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
    return CoefficientSet(a1=a1, a2=a2, b1=b1, b2=b2, c1=c1, c2=c2, d1=d1,
                          d2=d2, sigma0_r=sigma0, flux0_r0=flux0,
                          mode_flux=mode_flux, inner_mode_flux=inner_mode)


def dr_dt(radius, config, coeffs=None):
    """Rate of change of the unperturbed radius.

    dR/dt = P (A1 I1(R) - A2 K1(R) - (R0/R)(A1 I1(R0) - A2 K1(R0)))
            - (P A / 2)(R^2 - R0^2)/R.
    """
    p = config.params
    r0, r = config.r0, radius
    if coeffs is None:
        a1, a2 = radial_coeffs(radius, config)
    else:
        a1, a2 = coeffs.a1, coeffs.a2
    flux_r = a1 * bessel_i(1, r) - a2 * bessel_k(1, r)
    flux_r0 = a1 * bessel_i(1, r0) - a2 * bessel_k(1, r0)
    return p.p * (flux_r - (r0 / r) * flux_r0) \
        - 0.5 * p.p * p.a * (r ** 2 - r0 ** 2) / r


def shape_rate_terms(radius, config, coeffs=None):
    """Named contributions to (delta/R)^-1 d(delta/R)/dt.

    Returns a dict over RATE_NAMES; their sum is the shape growth rate.
    The chemotaxis contribution is chi * (mode flux at R) * lam * l / R,
    where the mode flux is the O(delta) radial derivative of the nutrient
    at the outer radius (it does not involve the inner-boundary flux: the
    apoptosis/flux datum at R0 is chi-free, so no (R0/R) flux term enters
    the taxis coupling).
    """
    p = config.params
    r0, ell, r = config.r0, config.mode, radius
    if coeffs is None:
        coeffs = coefficients(radius, config)
    lam = 1.0 - 2.0 * r0 ** (2 * ell) / (r ** (2 * ell) + r0 ** (2 * ell))
    ratio2 = (r0 / r) ** 2
    e_flux = coeffs.mode_flux
    f_flux = coeffs.flux0_r0
    g_inner = coeffs.inner_mode_flux
    cross = r ** ell * r0 ** ell / (r ** (2 * ell) + r0 ** (2 * ell))

    apoptosis = p.p * p.a * ((1.0 - ratio2) * lam * ell / 2.0 - ratio2)
    adhesion = -p.ginv * ell * (ell ** 2 - 1) / r ** 3 * lam
    angiogenesis = -p.p * p.beta * (
        1.0 / r
        + coeffs.a1 * (bessel_i(1, r) - bessel_i(0, r) / r)
        - coeffs.a2 * (bessel_k(1, r) + bessel_k(0, r) / r)
        + coeffs.b1 * bessel_i(ell, r) + coeffs.b2 * bessel_k(ell, r))
    chemotaxis = p.chi * e_flux * lam * ell / r
    proliferation = p.p * (f_flux * (r0 / r ** 2) * (2.0 + ell * lam)
                           - 2.0 * g_inner * cross * (r0 / r)) \
        - p.p * e_flux * lam * ell / r
    return {"apoptosis": apoptosis, "cell_cell_adhesion": adhesion,
            "angiogenesis": angiogenesis, "chemotaxis": chemotaxis,
            "proliferation": proliferation}


def dshape_dt(radius, config, coeffs=None):
    """(delta/R)^-1 d(delta/R)/dt: sum of the named contributions."""
    return float(sum(shape_rate_terms(radius, config, coeffs).values()))


def apoptosis_bracket(radius, config):
    """Factor multiplying P*A in the apoptosis contribution."""
    r0, ell, r = config.r0, config.mode, radius
    lam = 1.0 - 2.0 * r0 ** (2 * ell) / (r ** (2 * ell) + r0 ** (2 * ell))
    ratio2 = (r0 / r) ** 2
    return (1.0 - ratio2) * lam * ell / 2.0 - ratio2


def critical_apoptosis(radius, config, terms=None):
    """Apoptosis level at which the shape factor is stationary.

    Solves dshape_dt = 0 for A at fixed radius; `terms` are the radius's
    `shape_rate_terms`, computed here when not given.  Raises
    ZeroDivisionError when the apoptosis bracket vanishes (the curve has a
    pole there).
    """
    bracket = apoptosis_bracket(radius, config)
    if abs(bracket) < 1e-14:
        raise ZeroDivisionError("apoptosis bracket vanishes: pole in the curve")
    if terms is None:
        terms = shape_rate_terms(radius, config)
    rest = sum(v for k, v in terms.items() if k != "apoptosis")
    return -rest / (config.params.p * bracket)


def integrate_linear_odes(config, t_final, dt=1e-3):
    """Advance (R, delta/R) by classical fourth-order Runge-Kutta steps.

    One coefficient set per stage serves both rates.  Integration halts
    early if the radius reaches the inner radius.
    """
    if dt <= 0 or t_final < 0:
        raise ValueError("need dt > 0 and t_final >= 0")

    def rates(r, s):
        coeffs = coefficients(r, config)
        return dr_dt(r, config, coeffs), s * dshape_dt(r, config, coeffs)

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
        terms = shape_rate_terms(r, config)
        try:
            ac = critical_apoptosis(r, config, terms)
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
