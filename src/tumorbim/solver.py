"""Boundary-integral solves for the nutrient and modified-pressure fields.

Each time step solves two dense linear systems on the pair of boundaries
(inner static boundary Gamma0, evolving outer boundary Gamma):

* nutrient (modified Helmholtz, Laplacian s = s): unknowns are the flux
  d(sigma)/dn0 on Gamma0 and the trace sigma on Gamma, with a Dirichlet
  level sigma_n on Gamma0 and a Robin influx condition
  d(sigma)/dn = beta (1 - sigma) on Gamma;

* modified pressure (Laplace): unknowns are the trace pbar on Gamma0 and
  the flux d(pbar)/dn on Gamma, with a Neumann datum on Gamma0 and a
  Dirichlet datum on Gamma assembled from the solved nutrient traces.

Systems are solved by restart-free GMRES; iteration counts are recorded
as a conditioning diagnostic.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from . import kernels as ker
from .geometry import TWO_PI, min_gap_between

D_DIM = 2  # all operations are two-dimensional


class SolverFailure(RuntimeError):
    """GMRES did not reach the requested residual."""

    def __init__(self, system, residual, iterations):
        super().__init__(f"{system} system did not converge: relative "
                         f"residual {residual:.3e} after {iterations} iterations")
        self.system = system
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class Params:
    """Dimensionless model constants.

    p       proliferation rate (mitosis relative to taxis)
    a       apoptosis rate (death relative to mitosis)
    chi     chemotaxis coefficient
    beta    angiogenesis factor (nutrient supply rate on the outer boundary)
    sigma_n nutrient level held on the inner boundary, in [0, 1]
    ginv    cell-cell adhesion strength
    """

    p: float
    a: float
    chi: float
    beta: float
    sigma_n: float
    ginv: float

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("proliferation rate must be >= 0")
        if self.beta < 0:
            raise ValueError("angiogenesis factor must be >= 0")
        if not 0.0 <= self.sigma_n <= 1.0:
            raise ValueError("inner nutrient level must lie in [0, 1]")
        if self.ginv < 0:
            raise ValueError("adhesion strength must be >= 0")


@dataclass
class BoundaryFields:
    """Solved boundary traces for one geometry."""

    dsigma_dn0: np.ndarray      # nutrient flux on Gamma0
    sigma_gamma: np.ndarray     # nutrient trace on Gamma
    pbar_gamma0: np.ndarray     # modified pressure on Gamma0
    dpbar_dn: np.ndarray        # modified pressure flux on Gamma
    gmres_iters_nutrient: int
    gmres_iters_pressure: int
    near_contact: bool = False  # the proximity warning fired for this solve


def _solve_gmres(matrix, rhs, tol, maxiter, system):
    """Restart-free GMRES with an inner-iteration count."""
    if not np.any(rhs):
        return np.zeros_like(rhs), 0
    count = [0]

    def tick(_):
        count[0] += 1

    op = LinearOperator(matrix.shape, matvec=lambda v: matrix @ v, dtype=float)
    x, info = gmres(op, rhs, rtol=tol, atol=0.0, restart=maxiter, maxiter=1,
                    callback=tick, callback_type="pr_norm")
    residual = np.linalg.norm(matrix @ x - rhs) / np.linalg.norm(rhs)
    if info != 0 or residual > 10.0 * tol:
        raise SolverFailure(system, residual, count[0])
    return x, count[0]


def proximity_warning(gamma0, gamma):
    """Warn when boundary separation drops below five grid spacings, and
    return whether it did (`warnings` shows it once per process)."""
    spacing = TWO_PI * float(np.mean(gamma.s_alpha)) / gamma.n
    near = min_gap_between(gamma0, gamma) < 5.0 * spacing
    if near:
        warnings.warn("boundary separation is below five grid spacings; "
                      "expect conditioning degradation",
                      RuntimeWarning, stacklevel=3)
    return near


def pair_geometries(gamma0, gamma):
    """The (Gamma-Gamma, Gamma0-Gamma) geometries both fields share in a step."""
    return ker.self_geometry(gamma), ker.cross_geometry(gamma0, gamma)


# ---------------------------------------------------------------------------
# nutrient system

def nutrient_system(params, inner, pairs, out):
    """Assemble the nutrient solve's block matrix into `out`, every entry
    overwritten; returns the right-hand side.

    Block order is (Gamma0 unknowns, Gamma unknowns); `inner` holds the static
    Gamma0 self blocks (S00, D00) and `pairs` the step's `pair_geometries`.
    """
    beta = params.beta
    own, cross = pairs
    n0, n = cross.src.n, cross.tgt.n
    s00, d00 = inner
    s_gg, d_gg = ker.helmholtz_self_blocks(own)
    s_0_to_g, d_0_to_g, s_g_to_0, d_g_to_0 = ker.helmholtz_cross_blocks(cross)

    out[:n0, :n0] = s00
    np.multiply(beta, s_g_to_0, out=out[:n0, n0:])
    out[:n0, n0:] += d_g_to_0
    out[n0:, :n0] = s_0_to_g
    np.multiply(beta, s_gg, out=out[n0:, n0:])
    out[n0:, n0:] += d_gg
    out[n0 + np.arange(n), n0 + np.arange(n)] += 0.5

    ones0 = np.ones(n0)
    ones_g = np.ones(n)
    rhs = np.empty(n0 + n)
    rhs[:n0] = params.sigma_n * (d00 @ ones0 - 0.5) + beta * (s_g_to_0 @ ones_g)
    rhs[n0:] = params.sigma_n * (d_0_to_g @ ones0) + beta * (s_gg @ ones_g)
    return rhs


def solve_nutrient(params, inner, pairs, out, tol=1e-10, maxiter=500):
    """Solve for (d sigma/dn0 on Gamma0, sigma on Gamma); returns them + iters.
    `out` is the (N0 + N)^2 buffer the system is assembled in."""
    rhs = nutrient_system(params, inner, pairs, out)
    x, iters = _solve_gmres(out, rhs, tol, maxiter, "nutrient")
    n0 = pairs[1].src.n
    return x[:n0], x[n0:], iters


# ---------------------------------------------------------------------------
# pressure system

def pressure_rhs(gamma0, gamma, params, dsigma_dn0, sigma_gamma, kappa):
    """Boundary data of the modified-pressure problem.

    Neumann on Gamma0:  P d(sigma)/dn0 - P A (n0 . x)/d;
    Dirichlet on Gamma: Ginv kappa + (P - chi) sigma - P A (x . x)/(2 d).
    """
    pa = params.p * params.a
    n0_dot_x = gamma0.normal_x * gamma0.x + gamma0.normal_y * gamma0.y
    g_neumann = params.p * dsigma_dn0 - pa * n0_dot_x / D_DIM
    xx = gamma.x ** 2 + gamma.y ** 2
    g_dirichlet = params.ginv * kappa + (params.p - params.chi) * sigma_gamma \
        - pa * xx / (2 * D_DIM)
    return g_neumann, g_dirichlet


def pressure_system(inner, pairs, g_neumann, g_dirichlet, out):
    """Block matrix (into `out`) and right-hand side of the pressure solve
    (Laplace `inner` blocks, otherwise as for `nutrient_system`)."""
    own, cross = pairs
    n0, n = cross.src.n, cross.tgt.n
    s00, d00 = inner
    s_gg, d_gg = ker.laplace_self_blocks(own)
    s_0_to_g, d_0_to_g, s_g_to_0, d_g_to_0 = ker.laplace_cross_blocks(cross)

    out[:n0, :n0] = d00
    out[np.arange(n0), np.arange(n0)] -= 0.5
    out[:n0, n0:] = s_g_to_0
    out[n0:, :n0] = d_0_to_g
    out[n0:, n0:] = s_gg

    rhs = np.empty(n0 + n)
    rhs[:n0] = s00 @ g_neumann + d_g_to_0 @ g_dirichlet
    rhs[n0:] = s_0_to_g @ g_neumann + d_gg @ g_dirichlet + 0.5 * g_dirichlet
    return rhs


def solve_pressure(inner, pairs, g_neumann, g_dirichlet, out, tol=1e-10,
                   maxiter=500):
    """Solve for (pbar on Gamma0, d pbar/dn on Gamma); returns them + iters."""
    rhs = pressure_system(inner, pairs, g_neumann, g_dirichlet, out)
    x, iters = _solve_gmres(out, rhs, tol, maxiter, "pressure")
    n0 = pairs[1].src.n
    return x[:n0], x[n0:], iters


# ---------------------------------------------------------------------------
# derived quantities

def hydrostatic_pressure(pbar, sigma, x, y, params):
    """Invert the pressure transform: p = pbar - (P - chi) sigma + P A |x|^2/4."""
    return pbar - (params.p - params.chi) * sigma \
        + params.p * params.a * (x ** 2 + y ** 2) / (2 * D_DIM)


def normal_velocity(fields, gamma, params):
    """V = -d(pbar)/dn - P (A (n . x)/d - beta (1 - sigma)) on Gamma."""
    n_dot_x = gamma.normal_x * gamma.x + gamma.normal_y * gamma.y
    return -fields.dpbar_dn - params.p * (params.a * n_dot_x / D_DIM
                                          - params.beta * (1.0 - fields.sigma_gamma))


def sigma_bounds_violation(fields, params):
    """Amount by which sigma on Gamma leaves [0, 1] (soft diagnostic).

    With the inner level in [0, 1] and unit far-field supply, the maximum
    principle for (Laplacian - 1) keeps the field in [0, 1]; the uptake
    sink may pull the outer trace below the inner level, so the lower
    bound is 0 rather than sigma_n.
    """
    return max(float(np.max(fields.sigma_gamma) - 1.0),
               float(-np.min(fields.sigma_gamma)), 0.0)


class FieldSolver:
    """Per-run solver caching the static inner-boundary self blocks and one
    system buffer, which each solve's two systems fill in turn."""

    def __init__(self, gamma0, params, tol=1e-10, maxiter=500):
        self.gamma0 = gamma0
        self.params = params
        self.tol = tol
        self.maxiter = maxiter
        inner = ker.self_geometry(gamma0)
        self._helm_blocks = ker.helmholtz_self_blocks(inner)
        self._lap_blocks = ker.laplace_self_blocks(inner)
        self._system = np.empty((0, 0))

    def solve(self, gamma):
        size = self.gamma0.n + gamma.n
        if self._system.shape != (size, size):
            self._system = np.empty((size, size))
        near = proximity_warning(self.gamma0, gamma)
        pairs = pair_geometries(self.gamma0, gamma)
        dsig, sig, it_n = solve_nutrient(self.params, self._helm_blocks, pairs,
                                         self._system, tol=self.tol,
                                         maxiter=self.maxiter)
        g_n, g_d = pressure_rhs(self.gamma0, gamma, self.params, dsig, sig,
                                gamma.curvature)
        pbar0, dpdn, it_p = solve_pressure(self._lap_blocks, pairs, g_n, g_d,
                                           self._system, tol=self.tol,
                                           maxiter=self.maxiter)
        return BoundaryFields(dsigma_dn0=dsig, sigma_gamma=sig,
                              pbar_gamma0=pbar0, dpbar_dn=dpdn,
                              gmres_iters_nutrient=it_n,
                              gmres_iters_pressure=it_p, near_contact=near)
