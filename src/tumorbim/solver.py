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

A `FieldSolver` keeps the solutions of its last two solves.  A warm solve
starts both systems from their linear extrapolation; the others start from
zero, so their iteration counts stay the zero-start conditioning trace.
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


def _rotation(f, g):
    """(c, s, r) with [c s; -s c] [f; g] = [r; 0] and r of the sign of f;
    `math.hypot` forms |r| without overflow or underflow."""
    r = math.copysign(math.hypot(f, g), f)
    if r == 0.0:
        return 1.0, 0.0, 0.0
    return f / r, g / r, r


def gmres(matrix, rhs, start=None):
    """Restart-free GMRES from x0 = `start`, or from zero when it is None;
    returns (x, iterations).

    The Krylov dimension is min(GMRES_MAXITER, n).  The iteration stops once
    the rotated residual |g_{j+1}| <= GMRES_TOL ||rhs||, or on a breakdown
    h_{j+1,j} <= eps ||A v_j||, where x is exact.  A start whose residual is
    already below GMRES_TOL ||rhs|| is returned after no iteration.  These
    are scipy's rules, with its absolute tolerance for a start.
    """
    n = rhs.size
    bnorm = math.sqrt(rhs @ rhs)
    if bnorm == 0:
        return np.zeros(n), 0
    r = rhs if start is None else rhs - matrix @ start
    rnorm = math.sqrt(r @ r)
    if rnorm < GMRES_TOL * bnorm:
        return start.copy(), 0
    eps = np.finfo(float).eps
    # a basis per call: np.empty commits only the rows the iterations write
    basis = np.empty((min(GMRES_MAXITER, n) + 1, n))
    np.multiply(r, 1.0 / rnorm, out=basis[0])
    g = [rnorm]             # rotated right-hand side
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
        c, s, col[j] = _rotation(col[j], col[j + 1])
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
    x = np.array(y) @ basis[:j + 1]
    if start is not None:
        x += start
    return x, j + 1


def _solve_gmres(matrix, rhs, system, start=None):
    """`gmres` from `start` checked on the true relative residual, which
    must be at most 10 GMRES_TOL (NaN fails); returns (x, iterations,
    residual)."""
    x, iterations = gmres(matrix, rhs, start)
    r = matrix @ x - rhs
    bnorm = math.sqrt(rhs @ rhs)
    # a zero rhs has the solution x = 0, and r is zero too
    residual = math.sqrt(r @ r) / bnorm if bnorm else 0.0
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
    `PairGeometry`).  The Gamma-Gamma block is assembled row block by row
    block: each becomes S, gives S's row sums, is scaled by beta and gets D.
    """
    beta, sigma_n = params.beta, params.sigma_n
    own, cross = pairs
    n0, n = cross.src.n, own.bnd.n
    s00, d00_ones = inner
    gg = out[n0:, n0:]
    ones_g = np.ones(n)
    s_gg_ones = np.empty(n)
    for rows, d_rows in ker.self_rows(own, ker.helmholtz_self_blocks(own), gg):
        block = gg[rows]
        np.matmul(block, ones_g, out=s_gg_ones[rows])
        block *= beta
        block += d_rows
    gg[np.diag_indices(n)] += 0.5
    blocks = ker.helmholtz_cross_blocks(cross)

    out[:n0, :n0] = s00
    blocks.into(out[:n0, n0:], reverse=True, single=beta, double=1.0)
    blocks.into(out[n0:, :n0], reverse=False, single=1.0, double=0.0)
    ones0 = np.ones(n0)

    rhs = np.empty(out.shape[0])
    rhs[:n0] = sigma_n * (d00_ones - 0.5) \
        + blocks.dot(ones_g, reverse=True, single=beta, double=0.0)
    rhs[n0:] = blocks.dot(ones0, reverse=False, single=0.0, double=sigma_n) \
        + beta * s_gg_ones
    return rhs


def solve_nutrient(params, inner, pairs, out, start=None):
    """Solve for x = (d sigma/dn0 on Gamma0, sigma on Gamma), from `start`
    or zero; returns x, the iteration count and the true relative residual.
    `out` is the (N0 + N)^2 buffer the system is assembled in."""
    rhs = nutrient_system(params, inner, pairs, out)
    return _solve_gmres(out, rhs, "nutrient", start)


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
    """Block matrix (into `out`) and right-hand side of the pressure solve;
    `inner` holds Gamma0's Laplace single layer S00 and its static block
    D00 - I/2 - v v^T/2, otherwise as for `nutrient_system`.  The Gamma-Gamma
    single layer is written into its block row block by row block, and the
    double layer enters only the right-hand side, as the rows of D g."""
    own, cross = pairs
    n0 = cross.src.n
    s00, d00_half = inner
    d_g = np.empty(own.bnd.n)
    for rows, d_rows in ker.self_rows(own, ker.laplace_self_blocks(own),
                                      out[n0:, n0:]):
        np.matmul(d_rows, g_dirichlet, out=d_g[rows])
    blocks = ker.laplace_cross_blocks(cross)

    out[:n0, :n0] = d00_half
    blocks.into(out[:n0, n0:], reverse=True, single=1.0, double=0.0)
    blocks.into(out[n0:, :n0], reverse=False, single=0.0, double=1.0)

    rhs = np.empty(out.shape[0])
    rhs[:n0] = s00 @ g_neumann \
        + blocks.dot(g_dirichlet, reverse=True, single=0.0, double=1.0)
    rhs[n0:] = blocks.dot(g_neumann, reverse=False, single=1.0, double=0.0) \
        + d_g + 0.5 * g_dirichlet
    return rhs


def solve_pressure(inner, pairs, g_neumann, g_dirichlet, out, start=None):
    """Solve for x = (pbar on Gamma0, d pbar/dn on Gamma), from `start` or
    zero; returns x, the iteration count and the true relative residual."""
    rhs = pressure_system(inner, pairs, g_neumann, g_dirichlet, out)
    return _solve_gmres(out, rhs, "pressure", start)


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


def inner_blocks(gamma0):
    """The static Gamma0 data of both systems, from one self geometry and
    a walk of each kernel's self blocks: (S00, D00 1) of the Helmholtz layers
    for `nutrient_system` and (S00, D00 - I/2 - v v^T/2) of the Laplace ones
    for `pressure_system` (see `FieldSolver`)."""
    n = gamma0.n
    geom = ker.self_geometry(gamma0)
    ones = np.ones(n)
    s_h, d_h_ones = np.empty((n, n)), np.empty(n)
    for rows, d_rows in ker.self_rows(geom, ker.helmholtz_self_blocks(geom), s_h):
        np.matmul(d_rows, ones, out=d_h_ones[rows])
    s_l, d_l = np.empty((n, n)), np.empty((n, n))
    for rows, d_rows in ker.self_rows(geom, ker.laplace_self_blocks(geom), s_l):
        d_l[rows] = d_rows
    d_l[np.diag_indices(n)] -= 0.5
    # - v v^T/2 in place: -(-1)^(i+j) / (2 N0) on the even/odd sub-grids
    half = 0.5 / n
    d_l[::2, ::2] -= half
    d_l[1::2, 1::2] -= half
    d_l[::2, 1::2] += half
    d_l[1::2, ::2] += half
    return (s_h, d_h_ones), (s_l, d_l)


class FieldSolver:
    """Per-run solver caching the static inner-boundary self blocks of
    `inner_blocks` (of the Helmholtz double layer only its row sums, of the
    Laplace one the pressure system's block D00 - I/2 - v v^T/2), the inner
    boundary's part of the separable cross factors (`kernels.CrossSource`),
    one system buffer, which each solve's two systems fill in turn, and the
    latest interface's self geometry.

    v = (-1)^j / sqrt(N0) is the alternating-point rule's odd/even mode on
    Gamma0, a null vector of D00 - I/2 on a circle and near one otherwise,
    and not a field of the annulus problem, which has none.  Subtracting
    v v^T/2 makes the pressure system non-singular; its solution is the
    one without a (-1)^j component on Gamma0.

    `solutions` is the (k <= 2, 2, N0 + N) array of the (nutrient, pressure)
    solution vectors of the last k solves, newest first, as a checkpoint
    stores it (empty before the first solve).  While `warm` is set, `solve`
    starts from them (see `_starts`); otherwise from zero.
    """

    def __init__(self, gamma0, params):
        self.gamma0 = gamma0
        self.params = params
        self._helm_blocks, self._lap_blocks = inner_blocks(gamma0)
        self._source = ker.CrossSource(gamma0)
        self._system = np.empty((0, 0))
        self._own = None
        self.solutions = ()
        self.warm = False

    def interface_geometry(self, gamma):
        """Gamma's `SelfGeometry`, built once per samples object: a caller
        that reads its gap before `solve(gamma)` shares it with the solve.
        The previous interface's geometry is dropped before the build, so
        the two are never held at once."""
        if self._own is None or self._own.bnd is not gamma:
            self._own = None
            self._own = ker.self_geometry(gamma)
        return self._own

    def _starts(self):
        """(nutrient, pressure) starts of a warm solve, None for zero: the
        linear extrapolation 2 x_1 - x_2 of the last two solutions (the last
        one alone after one solve)."""
        if len(self.solutions) == 0:
            return None, None
        if len(self.solutions) == 1:
            return self.solutions[0]
        return 2.0 * self.solutions[0] - self.solutions[1]

    def solve(self, gamma):
        n0 = self.gamma0.n
        size = n0 + gamma.n
        if self._system.shape != (size, size):
            self._system = np.empty((size, size))
        pairs = (self.interface_geometry(gamma),
                 ker.cross_geometry(self._source, gamma))
        start_n, start_p = self._starts() if self.warm else (None, None)
        x_n, it_n, res_n = solve_nutrient(self.params, self._helm_blocks,
                                          pairs, self._system, start_n)
        g_n, g_d = pressure_rhs(self.gamma0, gamma, self.params, x_n[:n0],
                                x_n[n0:], gamma.curvature)
        x_p, it_p, res_p = solve_pressure(self._lap_blocks, pairs, g_n, g_d,
                                          self._system, start_p)
        self.solutions = np.array([(x_n, x_p), *self.solutions[:1]])
        return BoundaryFields(dsigma_dn0=x_n[:n0], sigma_gamma=x_n[n0:],
                              pbar_gamma0=x_p[:n0], dpbar_dn=x_p[n0:],
                              gmres_iters_nutrient=it_n,
                              gmres_iters_pressure=it_p,
                              residual_nutrient=res_n, residual_pressure=res_p)
