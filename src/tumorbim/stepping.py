"""Non-stiff time integration of the interface in the theta-L variables.

The tangent-angle equation theta_t = (theta_a T - V_a)/s_a is split into a
dominant small-scale part with Fourier symbol -|k|^3/s_a^3 (the periodic
Hilbert transform of theta_aaa) and an explicit remainder N.  Modes are
advanced by a second-order integrating-factor Adams-Bashforth scheme; the
metric s_a follows explicit AB2 on its forcing M.  A 25th-order smoothing
filter and Krasny round-off filtering are applied to the updated spectrum.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (InterfaceState, alpha_grid, fourier_filter_coeffs,
                       krasny_filter, periodic_antiderivative, spectral_derivative)

KRASNY_FLOOR = 1e-12   # smallest Fourier mode amplitude kept after each step


@dataclass
class StepperHistory:
    """One prior step of the two-step scheme."""

    m: float                 # arclength forcing M at the previous time
    n_hat: np.ndarray        # rfft of the explicit remainder at the previous time
    v0: float                # normal velocity at alpha = 0
    normal0: np.ndarray      # outward normal at alpha = 0
    s_alpha: float           # metric at the previous time


def tangent_velocity(theta_a, v):
    """Equal-arclength tangent velocity from theta_alpha and V.

    T(alpha) = (alpha/2pi) int_0^{2pi} theta_a' V' da' - int_0^alpha
    theta_a' V' da'; with the running integral split into mean and periodic
    parts this is minus the periodic antiderivative of theta_a V, so T is
    periodic with T(0) = 0.
    """
    big_f, _ = periodic_antiderivative(theta_a * np.asarray(v, dtype=float))
    return -big_f


def smallscale_term(phi_hat, n, s_alpha):
    """(1/s_a^3) H[theta_aaa] from phi_hat = rfft(theta - alpha) of n samples;
    Fourier symbol -|k|^3/s_a^3."""
    k = np.arange(n // 2 + 1, dtype=float)
    return np.fft.irfft(-(k ** 3) * phi_hat, n) / s_alpha ** 3


def nonlinear_term(theta_a, phi_hat, v, t_vel, s_alpha):
    """Explicit remainder N = (theta_a T - V_a)/s_a - (1/s_a^3) H[theta_aaa]."""
    full = (theta_a * t_vel - spectral_derivative(v)) / s_alpha
    return full - smallscale_term(phi_hat, theta_a.size, s_alpha)


def _integrating_factor(k3, integral):
    """e^{-k^3 integral}, one factor per Fourier mode."""
    return np.exp(-k3 * integral)


def first_step(state, v, dt):
    """Starter step: explicit Euler for s_alpha, first-order propagator for theta."""
    return step(state, v, None, dt)


def step(state, v, history, dt):
    """Integrating-factor AB2 update of (theta, s_alpha) plus the anchor point.

    With `history` None this is the starter: explicit Euler for s_alpha and
    the first-order propagator for theta.  s_alpha advances first so the
    integrating factors can use the trapezoidal approximations of the
    integral of 1/s_alpha^3 over (t_n, t_{n+1}) and (t_{n-1}, t_{n+1}).
    M = (1/2pi) int V theta_a d alpha is the rate of change of s_alpha.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    v = np.asarray(v, dtype=float)
    n = state.n
    theta_a = state.theta_alpha()
    phi_hat = np.fft.rfft(state.theta - alpha_grid(n))
    t_vel = tangent_velocity(theta_a, v)
    m = float(np.mean(v * theta_a))
    n_hat = np.fft.rfft(nonlinear_term(theta_a, phi_hat, v, t_vel, state.s_alpha))
    ref = np.asarray(state.ref_point, dtype=float)
    normal0 = np.array([np.sin(state.theta[0]), -np.cos(state.theta[0])])

    if history is None:
        s_new = state.s_alpha + dt * m
    else:
        s_new = state.s_alpha + 0.5 * dt * (3.0 * m - history.m)
    if s_new <= 0:
        raise SolverCollapse(state.time)
    k3 = np.arange(n // 2 + 1, dtype=float) ** 3
    ek1 = _integrating_factor(k3, 0.5 * dt * (state.s_alpha ** -3 + s_new ** -3))
    if history is None:
        phi_hat = ek1 * (phi_hat + dt * n_hat)
        ref_new = ref + dt * v[0] * normal0
    else:
        int_two = dt * (0.5 * history.s_alpha ** -3 + state.s_alpha ** -3
                        + 0.5 * s_new ** -3)
        ek2 = _integrating_factor(k3, int_two)
        phi_hat = ek1 * phi_hat + 0.5 * dt * (3.0 * ek1 * n_hat
                                              - ek2 * history.n_hat)
        ref_new = ref + 0.5 * dt * (3.0 * v[0] * normal0
                                    - history.v0 * history.normal0)

    phi_hat = fourier_filter_coeffs(phi_hat, n)
    # floor scaled to raw rfft coefficients (mode amplitude = 2|c|/n)
    phi_hat = krasny_filter(phi_hat, KRASNY_FLOOR * n / 2.0)
    new_state = InterfaceState(theta=alpha_grid(n) + np.fft.irfft(phi_hat, n),
                               s_alpha=s_new, ref_point=tuple(ref_new),
                               time=state.time + dt)
    return new_state, StepperHistory(m=m, n_hat=n_hat, v0=float(v[0]),
                                     normal0=normal0, s_alpha=state.s_alpha)


class SolverCollapse(RuntimeError):
    """The arclength metric became non-positive (catastrophic collapse)."""

    def __init__(self, time):
        super().__init__(f"arclength metric collapsed at t = {time:.6g}")
        self.time = time
