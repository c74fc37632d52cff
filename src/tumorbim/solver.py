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

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from . import kernels as ker
# min_gap_between stays importable for perfbench/tracing.py, which wraps it
from .geometry import TWO_PI, min_gap_between  # noqa: F401

D_DIM = 2  # all operations are two-dimensional
GMRES_TOL = 1e-10      # relative residual every solve must reach
GMRES_MAXITER = 500    # Krylov dimension of the single restart-free cycle


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


def _solve_gmres(matrix, rhs, system):
    """Restart-free GMRES with an inner-iteration count."""
    if not np.any(rhs):
        return np.zeros_like(rhs), 0
    count = [0]

    def tick(_):
        count[0] += 1

    op = LinearOperator(matrix.shape, matvec=lambda v: matrix @ v, dtype=float)
    x, info = gmres(op, rhs, rtol=GMRES_TOL, atol=0.0, restart=GMRES_MAXITER,
                    maxiter=1, callback=tick, callback_type="pr_norm")
    residual = np.linalg.norm(matrix @ x - rhs) / np.linalg.norm(rhs)
    if info != 0 or residual > 10.0 * GMRES_TOL:
        raise SolverFailure(system, residual, count[0])
    return x, count[0]


def proximity_warning(gap, gamma):
    """Whether a Gamma0-Gamma `gap` is below five grid spacings of Gamma,
    where the systems' conditioning degrades."""
    return gap < 5.0 * TWO_PI * float(np.mean(gamma.s_alpha)) / gamma.n


# ---------------------------------------------------------------------------
# nutrient system

def nutrient_system(params, inner, pairs, out):
    """Assemble the nutrient solve's block matrix into `out`, every entry
    overwritten; returns the right-hand side.

    Block order is (Gamma0 unknowns, Gamma unknowns); `inner` holds the static
    Gamma0 self blocks (S00, D00) and `pairs` the step's (Gamma-Gamma
    `SelfGeometry`, Gamma0-Gamma `PairGeometry`).
    """
    beta, sigma_n = params.beta, params.sigma_n
    own, cross = pairs
    n0 = cross.src.n
    s00, d00 = inner
    s_gg, d_gg = ker.helmholtz_self_blocks(own)
    blocks = ker.helmholtz_cross_blocks(cross)

    out[:n0, :n0] = s00
    blocks.into(out[:n0, n0:], reverse=True, single=beta, double=1.0)
    blocks.into(out[n0:, :n0], reverse=False, single=1.0, double=0.0)
    gg = out[n0:, n0:]
    np.multiply(beta, s_gg, out=gg)
    gg += d_gg
    gg[np.diag_indices(own.bnd.n)] += 0.5

    ones0 = np.ones(n0)
    ones_g = np.ones(own.bnd.n)
    rhs = np.empty(out.shape[0])
    rhs[:n0] = sigma_n * (d00 @ ones0 - 0.5) \
        + blocks.dot(ones_g, reverse=True, single=beta, double=0.0)
    rhs[n0:] = blocks.dot(ones0, reverse=False, single=0.0, double=sigma_n) \
        + beta * (s_gg @ ones_g)
    return rhs


def solve_nutrient(params, inner, pairs, out):
    """Solve for (d sigma/dn0 on Gamma0, sigma on Gamma); returns them + iters.
    `out` is the (N0 + N)^2 buffer the system is assembled in."""
    rhs = nutrient_system(params, inner, pairs, out)
    x, iters = _solve_gmres(out, rhs, "nutrient")
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
    n0 = cross.src.n
    s00, d00 = inner
    s_gg, d_gg = ker.laplace_self_blocks(own)
    blocks = ker.laplace_cross_blocks(cross)

    out[:n0, :n0] = d00
    out[np.diag_indices(n0)] -= 0.5
    blocks.into(out[:n0, n0:], reverse=True, single=1.0, double=0.0)
    blocks.into(out[n0:, :n0], reverse=False, single=0.0, double=1.0)
    out[n0:, n0:] = s_gg

    rhs = np.empty(out.shape[0])
    rhs[:n0] = s00 @ g_neumann \
        + blocks.dot(g_dirichlet, reverse=True, single=0.0, double=1.0)
    rhs[n0:] = blocks.dot(g_neumann, reverse=False, single=1.0, double=0.0) \
        + d_gg @ g_dirichlet + 0.5 * g_dirichlet
    return rhs


def solve_pressure(inner, pairs, g_neumann, g_dirichlet, out):
    """Solve for (pbar on Gamma0, d pbar/dn on Gamma); returns them + iters."""
    rhs = pressure_system(inner, pairs, g_neumann, g_dirichlet, out)
    x, iters = _solve_gmres(out, rhs, "pressure")
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
    """Per-run solver caching the static inner-boundary self blocks, one
    system buffer, which each solve's two systems fill in turn, and the
    latest interface's self geometry."""

    def __init__(self, gamma0, params):
        self.gamma0 = gamma0
        self.params = params
        inner = ker.self_geometry(gamma0)
        self._helm_blocks = ker.helmholtz_self_blocks(inner)
        self._lap_blocks = ker.laplace_self_blocks(inner)
        self._system = np.empty((0, 0))
        self._own = None

    def interface_geometry(self, gamma):
        """Gamma's `SelfGeometry`, built once per samples object: a caller
        that reads its gap before `solve(gamma)` shares it with the solve."""
        if self._own is None or self._own.bnd is not gamma:
            self._own = ker.self_geometry(gamma)
        return self._own

    def solve(self, gamma):
        size = self.gamma0.n + gamma.n
        if self._system.shape != (size, size):
            self._system = np.empty((size, size))
        pairs = (self.interface_geometry(gamma),
                 ker.cross_geometry(self.gamma0, gamma))
        dsig, sig, it_n = solve_nutrient(self.params, self._helm_blocks, pairs,
                                         self._system)
        g_n, g_d = pressure_rhs(self.gamma0, gamma, self.params, dsig, sig,
                                gamma.curvature)
        pbar0, dpdn, it_p = solve_pressure(self._lap_blocks, pairs, g_n, g_d,
                                           self._system)
        return BoundaryFields(dsigma_dn0=dsig, sigma_gamma=sig,
                              pbar_gamma0=pbar0, dpbar_dn=dpdn,
                              gmres_iters_nutrient=it_n,
                              gmres_iters_pressure=it_p)
