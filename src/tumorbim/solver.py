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

Both systems are solved by `gmres`, a restart-free GMRES of this module:
classical Gram-Schmidt with one reorthogonalisation (CGS2) builds the
Krylov basis and Givens rotations reduce the Hessenberg matrix.  It stops
on scipy's rules, so the iteration counts, recorded as a conditioning
diagnostic, are those scipy's `gmres` reports.  Every solve is then checked
on its true relative residual, which the solved fields carry.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels as ker
# min_gap_between stays importable for perfbench/tracing.py, which wraps it
from .geometry import TWO_PI, min_gap_between  # noqa: F401

D_DIM = 2  # all operations are two-dimensional
GMRES_TOL = 1e-10      # GMRES stops at this rotated relative residual
GMRES_MAXITER = 500    # Krylov dimension of the single restart-free cycle
# LAPACK's safe range for `_dlartg` and the bounds of its unscaled branch
SAFMIN, SAFMAX = 2.0 ** -1022, 2.0 ** 1022
RTMIN, RTMAX = math.sqrt(SAFMIN), math.sqrt(SAFMAX / 2)


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
    residual_nutrient: float    # true relative residuals of the two solves
    residual_pressure: float


def _dlartg(f, g):
    """(c, s, r) with [c s; -s c] [f; g] = [r; 0]: LAPACK's dlartg (3.10 and
    later, after E. Anderson, "Algorithm 978: Safe Scaling in the Level 1
    BLAS", ACM TOMS 44(1), 2017), operation for operation, so each value is
    the same float.  Pairs inside (RTMIN, RTMAX) go unscaled; the others
    are scaled by max(|f|, |g|) clipped to [SAFMIN, SAFMAX].
    """
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, math.copysign(1.0, g), abs(g)
    f1, g1 = abs(f), abs(g)
    if RTMIN < f1 < RTMAX and RTMIN < g1 < RTMAX:
        d = math.sqrt(f * f + g * g)
        r = math.copysign(d, f)
        return f1 / d, g / r, r
    u = min(SAFMAX, max(SAFMIN, f1, g1))
    fs, gs = f / u, g / u
    d = math.sqrt(fs * fs + gs * gs)
    r = math.copysign(d, f)
    return abs(fs) / d, gs / r, r * u


def gmres(matrix, rhs):
    """Restart-free GMRES from x0 = 0; returns (x, iterations).

    The Krylov dimension is min(GMRES_MAXITER, n).  The iteration stops once
    the rotated residual |g_{j+1}| <= GMRES_TOL ||rhs||, or on a breakdown
    h_{j+1,j} <= eps ||A v_j||, where x is exact: scipy's rules.
    """
    n = rhs.size
    bnorm = math.sqrt(rhs @ rhs)
    if bnorm == 0:
        return np.zeros(n), 0
    eps = np.finfo(float).eps
    # a basis per call: np.empty commits only the rows the iterations write
    basis = np.empty((min(GMRES_MAXITER, n) + 1, n))
    np.multiply(rhs, 1.0 / bnorm, out=basis[0])
    g = [bnorm]             # rotated right-hand side
    rot, r_cols = [], []    # Givens (c, s); columns of the triangular factor
    for j in range(len(basis) - 1):
        w, v = basis[j + 1], basis[:j + 1]
        np.matmul(matrix, basis[j], out=w)
        norm_av = math.sqrt(w @ w)
        h = v @ w
        w -= h @ v
        h2 = v @ w
        w -= h2 @ v
        h_next = math.sqrt(w @ w)
        breakdown = h_next <= eps * norm_av
        if not breakdown:
            w *= 1.0 / h_next
        col = (h + h2).tolist() + [0.0 if breakdown else h_next]
        for k, (c, s) in enumerate(rot):
            col[k], col[k + 1] = c * col[k] + s * col[k + 1], \
                -s * col[k] + c * col[k + 1]
        c, s, col[j] = _dlartg(col[j], col[j + 1])
        rot.append((c, s))
        r_cols.append(col[:j + 1])
        g.append(-s * g[j])
        g[j] *= c
        # "not >" so that a NaN residual stops the iteration too
        if not abs(g[j + 1]) > GMRES_TOL * bnorm or breakdown:
            break
    # back substitution; a zero pivot (breakdown on a singular system)
    # leaves its component at zero, as in scipy
    y = g[:j + 1]
    if r_cols[j][j] == 0:
        y[j] = 0.0
    for k in range(j, -1, -1):
        if y[k] != 0:
            y[k] /= r_cols[k][k]
            for i in range(k):
                y[i] -= y[k] * r_cols[k][i]
    return np.array(y) @ basis[:j + 1], j + 1


def _solve_gmres(matrix, rhs, system):
    """`gmres` checked on the true relative residual, which must be at most
    10 GMRES_TOL (NaN fails); returns (x, iterations, residual)."""
    if not np.any(rhs):
        return np.zeros_like(rhs), 0, 0.0
    x, iterations = gmres(matrix, rhs)
    r = matrix @ x - rhs
    residual = math.sqrt(r @ r) / math.sqrt(rhs @ rhs)
    if not residual <= 10.0 * GMRES_TOL:
        raise SolverFailure(system, residual, iterations)
    return x, iterations, residual


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
    Gamma0 single layer S00 and the row sums D00 1 of its double layer, and
    `pairs` the step's (Gamma-Gamma `SelfGeometry`, Gamma0-Gamma
    `PairGeometry`).
    """
    beta, sigma_n = params.beta, params.sigma_n
    own, cross = pairs
    n0 = cross.src.n
    s00, d00_ones = inner
    # the Gamma-Gamma single layer S goes straight into its system block
    gg = out[n0:, n0:]
    d_gg = ker.helmholtz_self_blocks(own, single=gg)[1]
    blocks = ker.helmholtz_cross_blocks(cross)

    out[:n0, :n0] = s00
    blocks.into(out[:n0, n0:], reverse=True, single=beta, double=1.0)
    blocks.into(out[n0:, :n0], reverse=False, single=1.0, double=0.0)
    ones0 = np.ones(n0)
    ones_g = np.ones(own.bnd.n)
    s_gg_ones = gg @ ones_g
    gg *= beta
    gg += d_gg
    gg[np.diag_indices(own.bnd.n)] += 0.5

    rhs = np.empty(out.shape[0])
    rhs[:n0] = sigma_n * (d00_ones - 0.5) \
        + blocks.dot(ones_g, reverse=True, single=beta, double=0.0)
    rhs[n0:] = blocks.dot(ones0, reverse=False, single=0.0, double=sigma_n) \
        + beta * s_gg_ones
    return rhs


def solve_nutrient(params, inner, pairs, out):
    """Solve for (d sigma/dn0 on Gamma0, sigma on Gamma); returns them, the
    iteration count and the true relative residual.  `out` is the
    (N0 + N)^2 buffer the system is assembled in."""
    rhs = nutrient_system(params, inner, pairs, out)
    x, iters, residual = _solve_gmres(out, rhs, "nutrient")
    n0 = pairs[1].src.n
    return x[:n0], x[n0:], iters, residual


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
    d_gg = ker.laplace_self_blocks(own, single=out[n0:, n0:])[1]
    blocks = ker.laplace_cross_blocks(cross)

    out[:n0, :n0] = d00
    out[np.diag_indices(n0)] -= 0.5
    blocks.into(out[:n0, n0:], reverse=True, single=1.0, double=0.0)
    blocks.into(out[n0:, :n0], reverse=False, single=0.0, double=1.0)

    rhs = np.empty(out.shape[0])
    rhs[:n0] = s00 @ g_neumann \
        + blocks.dot(g_dirichlet, reverse=True, single=0.0, double=1.0)
    rhs[n0:] = blocks.dot(g_neumann, reverse=False, single=1.0, double=0.0) \
        + d_gg @ g_dirichlet + 0.5 * g_dirichlet
    return rhs


def solve_pressure(inner, pairs, g_neumann, g_dirichlet, out):
    """Solve for (pbar on Gamma0, d pbar/dn on Gamma); returns them, the
    iteration count and the true relative residual."""
    rhs = pressure_system(inner, pairs, g_neumann, g_dirichlet, out)
    x, iters, residual = _solve_gmres(out, rhs, "pressure")
    n0 = pairs[1].src.n
    return x[:n0], x[n0:], iters, residual


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
    """Per-run solver caching the static inner-boundary self blocks (of the
    Helmholtz double layer only its row sums), the inner boundary's part of
    the separable cross factors (`kernels.CrossSource`), one system buffer,
    which each solve's two systems fill in turn, and the latest interface's
    self geometry."""

    def __init__(self, gamma0, params):
        self.gamma0 = gamma0
        self.params = params
        inner = ker.self_geometry(gamma0)
        s00, d00 = ker.helmholtz_self_blocks(inner)
        self._helm_blocks = s00, d00 @ np.ones(gamma0.n)
        self._lap_blocks = ker.laplace_self_blocks(inner)
        self._source = ker.CrossSource(gamma0)
        self._system = np.empty((0, 0))
        self._own = None

    def interface_geometry(self, gamma):
        """Gamma's `SelfGeometry`, built once per samples object: a caller
        that reads its gap before `solve(gamma)` shares it with the solve.
        The previous interface's geometry is dropped before the build, so
        the two are never held at once."""
        if self._own is None or self._own.bnd is not gamma:
            self._own = None
            self._own = ker.self_geometry(gamma)
        return self._own

    def solve(self, gamma):
        size = self.gamma0.n + gamma.n
        if self._system.shape != (size, size):
            self._system = np.empty((size, size))
        pairs = (self.interface_geometry(gamma),
                 ker.cross_geometry(self._source, gamma))
        dsig, sig, it_n, res_n = solve_nutrient(self.params, self._helm_blocks,
                                                pairs, self._system)
        g_n, g_d = pressure_rhs(self.gamma0, gamma, self.params, dsig, sig,
                                gamma.curvature)
        pbar0, dpdn, it_p, res_p = solve_pressure(self._lap_blocks, pairs,
                                                  g_n, g_d, self._system)
        return BoundaryFields(dsigma_dn0=dsig, sigma_gamma=sig,
                              pbar_gamma0=pbar0, dpbar_dn=dpdn,
                              gmres_iters_nutrient=it_n,
                              gmres_iters_pressure=it_p,
                              residual_nutrient=res_n, residual_pressure=res_p)
