from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dlartg
from scipy.sparse.linalg import gmres as scipy_gmres
from scipy.special import i0, i1, iv, k0, k1, kv

from tumorbim import config as cfgmod
from tumorbim import geometry as geo
from tumorbim import kernels as ker
from tumorbim import solver as sol

from conftest import assert_same_floats, pair_array_peak
from oracles import annulus_nutrient_coeffs, interior_value_nutrient

PRESET_DIR = Path(__file__).resolve().parent.parent / "configs"
FIG7 = dict(p=5.0, a=0.25, chi=5.0, beta=0.5, sigma_n=0.2, ginv=1e-3)


def circles(n, r_in=0.1, r_out=2.5):
    g0 = geo.radial_boundary(r_in, 0, 0, n)
    g = geo.radial_boundary(r_out, 0, 0, n)
    return g0, g


def system_buffer(g0, g):
    return np.empty((g0.n + g.n, g0.n + g.n))


def pair_geometries(g0, g):
    """The (Gamma-Gamma, Gamma0-Gamma) geometries of one solve."""
    return ker.self_geometry(g), ker.cross_geometry(ker.CrossSource(g0), g)


def helmholtz_inner(g0):
    """The nutrient system's static Gamma0 data: S00 and D00's row sums."""
    s00, d00 = ker.helmholtz_self_blocks(ker.self_geometry(g0))
    return s00, d00 @ np.ones(g0.n)


def solve_nutrient(g0, g, params):
    """(d sigma/dn0, sigma, iterations) of one nutrient solve."""
    x, iters, _ = sol.solve_nutrient(params, helmholtz_inner(g0),
                                     pair_geometries(g0, g), system_buffer(g0, g))
    return x[:g0.n], x[g0.n:], iters


def solve_pressure(g0, g, g_neumann, g_dirichlet):
    """(pbar on Gamma0, d pbar/dn, iterations) of one pressure solve."""
    s00, d00 = ker.laplace_self_blocks(ker.self_geometry(g0))
    d00[np.diag_indices(g0.n)] -= 0.5
    x, iters, _ = sol.solve_pressure((s00, d00), pair_geometries(g0, g),
                                     g_neumann, g_dirichlet, system_buffer(g0, g))
    return x[:g0.n], x[g0.n:], iters


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            sol.Params(p=-1, a=0, chi=0, beta=1, sigma_n=0.5, ginv=0)
        with pytest.raises(ValueError):
            sol.Params(p=1, a=0, chi=0, beta=-0.5, sigma_n=0.5, ginv=0)
        with pytest.raises(ValueError):
            sol.Params(p=1, a=0, chi=0, beta=1, sigma_n=1.5, ginv=0)
        # beta = 0 is a permitted degenerate case (no nutrient influx)
        sol.Params(p=1, a=0, chi=0, beta=0.0, sigma_n=0.5, ginv=0)


class TestNutrientSolve:
    def test_concentric_annulus_oracle(self):
        n = 256
        g0, g = circles(n)
        params = sol.Params(**FIG7)
        a1, a2 = annulus_nutrient_coeffs(0.1, 2.5, params.beta, params.sigma_n)
        dsig, sig, iters = solve_nutrient(g0, g, params)
        sig_exact = a1 * iv(0, 2.5) + a2 * kv(0, 2.5)
        flux_exact = a1 * iv(1, 0.1) - a2 * kv(1, 0.1)
        assert np.max(np.abs(sig - sig_exact)) / abs(sig_exact) < 1e-8
        assert np.max(np.abs(dsig - flux_exact)) / abs(flux_exact) < 1e-8
        assert iters < 100

    def test_large_beta_approaches_dirichlet(self):
        n = 128
        g0, g = circles(n)
        params = sol.Params(p=1, a=0, chi=0, beta=1e6, sigma_n=0.2, ginv=0)
        _, sig, _ = solve_nutrient(g0, g, params)
        assert np.max(np.abs(sig - 1.0)) < 1e-5

    def test_manufactured_radial_solution(self):
        # pick coefficients, derive matching (sigma_n, beta), recover traces
        n = 128
        r_in, r_out = 0.3, 2.0
        g0, g = circles(n, r_in, r_out)
        c1, c2 = 0.4, 0.05
        sig_fun = lambda r: c1 * i0(r) + c2 * k0(r)
        dsig_fun = lambda r: c1 * i1(r) - c2 * k1(r)
        beta = dsig_fun(r_out) / (1.0 - sig_fun(r_out))
        params = sol.Params(p=0, a=0, chi=0, beta=beta,
                            sigma_n=sig_fun(r_in), ginv=0)
        dsig, sig, _ = solve_nutrient(g0, g, params)
        assert np.max(np.abs(sig - sig_fun(r_out))) < 1e-10
        assert np.max(np.abs(dsig - dsig_fun(r_in))) < 1e-10

    def test_perturbed_geometry_spectral_consistency(self):
        params = sol.Params(**FIG7)
        values = {}
        for n in (128, 256):
            g0 = geo.radial_boundary(0.1, 0, 0, n)
            g = geo.initial_interface(2.5, 0.1, 2, n).samples()
            _, sig, _ = solve_nutrient(g0, g, params)
            values[n] = sig
        assert abs(values[128][0] - values[256][0]) < 1e-8

    def test_maximum_principle_band(self):
        for sigma_n in (0.0, 0.2, 1.0):
            for beta in (0.2, 1.0, 5.0):
                params = sol.Params(p=1, a=0, chi=0, beta=beta,
                                    sigma_n=sigma_n, ginv=0)
                g0 = geo.radial_boundary(0.5, 0.1, 3, 128)
                g = geo.initial_interface(2.5, 0.1, 2, 128).samples()
                dsig, sig, _ = solve_nutrient(g0, g, params)
                fields = sol.BoundaryFields(dsig, sig, None, None, 0, 0, 0.0, 0.0)
                assert sol.sigma_bounds_violation(fields, params) < 1e-8

    def test_interior_green_representation(self):
        n = 256
        g0, g = circles(n)
        params = sol.Params(**FIG7)
        dsig, sig, _ = solve_nutrient(g0, g, params)
        fields = sol.BoundaryFields(dsig, sig, None, None, 0, 0, 0.0, 0.0)
        a1, a2 = annulus_nutrient_coeffs(0.1, 2.5, params.beta, params.sigma_n)
        probes = np.array([[1.0, 0.0], [0.0, -1.7]])
        vals = interior_value_nutrient(g0, g, params, fields, probes)
        exact = a1 * i0(np.hypot(probes[:, 0], probes[:, 1])) \
            + a2 * k0(np.hypot(probes[:, 0], probes[:, 1]))
        assert np.max(np.abs(vals - exact)) < 1e-8

    def test_gmres_iterations_grow_with_shrinking_gap(self):
        params = sol.Params(**FIG7)
        iters = {}
        for r_in, label in ((1.5, "wide"), (2.3, "narrow")):
            g0, g = circles(256, r_in, 2.5)
            # non-circular data via a perturbed outer boundary to avoid the
            # trivially small Krylov space of the concentric case
            g = geo.initial_interface(2.5, 0.05, 3, 256).samples()
            near = sol.proximity_warning(geo.min_gap_between(g0, g), g)
            assert near == (label == "narrow")
            _, _, iters[label] = solve_nutrient(g0, g, params)
        assert iters["narrow"] > iters["wide"]


class TestPressureSolve:
    def test_harmonic_annulus_oracle(self):
        n = 256
        g0, g = circles(n)
        c1, c2 = 0.7, -0.3
        g_neumann = np.full(n, c2 / 0.1)
        g_dirichlet = np.full(n, c1 + c2 * np.log(2.5))
        pbar0, dpdn, _ = solve_pressure(g0, g, g_neumann, g_dirichlet)
        assert np.max(np.abs(pbar0 - (c1 + c2 * np.log(0.1)))) < 1e-8
        assert np.max(np.abs(dpdn - c2 / 2.5)) < 1e-8

    def test_harmonic_polynomial_oracle(self):
        # p = Re((x + iy)^l) on perturbed geometry
        n = 256
        ell = 3
        g0 = geo.radial_boundary(0.5, 0.1, 2, n)
        g = geo.initial_interface(2.5, 0.1, 2, n).samples()

        def trace(b):
            return ((b.x + 1j * b.y) ** ell).real

        def flux(b):
            w = ell * (b.x + 1j * b.y) ** (ell - 1)
            return w.real * b.normal_x - w.imag * b.normal_y

        pbar0, dpdn, _ = solve_pressure(g0, g, flux(g0), trace(g))
        assert np.max(np.abs(pbar0 - trace(g0))) < 1e-8
        assert np.max(np.abs(dpdn - flux(g))) < 1e-8

    def test_zero_data_zero_solution(self):
        n = 64
        g0, g = circles(n)
        pbar0, dpdn, iters = solve_pressure(g0, g, np.zeros(n), np.zeros(n))
        assert np.all(pbar0 == 0) and np.all(dpdn == 0)
        assert iters <= 2

    def test_gmres_failure_raises(self):
        mat = np.zeros((4, 4))
        with pytest.raises(sol.SolverFailure):
            sol._solve_gmres(mat, np.ones(4), "test")


def preset_solve(preset, n):
    """`BoundaryFields` of one solve of a preset's initial interface at
    N = N0 = n."""
    cfg = cfgmod.load_config(PRESET_DIR / f"{preset}.cfg")
    g0 = geo.radial_boundary(cfg.r0, cfg.eps0, cfg.k0, n)
    g = geo.initial_interface(cfg.r_init, cfg.eps_init, cfg.k_init, n).samples()
    return sol.FieldSolver(g0, cfg.params()).solve(g)


def preset_systems(monkeypatch, preset, n=64):
    """Copies of the (matrix, rhs) pairs that `preset_solve` hands to
    `sol.gmres`: nutrient, then pressure."""
    systems, gmres = [], sol.gmres

    def capture(matrix, rhs, start=None):
        systems.append((matrix.copy(), rhs.copy()))
        return gmres(matrix, rhs)

    with monkeypatch.context() as patch:
        patch.setattr(sol, "gmres", capture)
        preset_solve(preset, n)
    return systems


@pytest.mark.parametrize("preset", ["fig7", "fig11"])
def test_gmres_counts_do_not_grow_with_n(preset):
    # the discretised systems are well conditioned: the initial systems'
    # (nutrient, pressure) GMRES counts are the same at N = N0 = 128, 256
    # and 512.  N = 64 is left out, as fig11's pressure count there sits on
    # the stopping line
    counts = []
    for n in (128, 256, 512):
        fields = preset_solve(preset, n)
        counts.append((fields.gmres_iters_nutrient, fields.gmres_iters_pressure))
    assert counts == counts[:1] * 3, counts


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=2000, deadline=None)
@given(f=FINITE, g=FINITE)
# zeros of either sign; subnormals; the edges of the unscaled branch
# (sqrt(SAFMIN) = 2^-511 and sqrt(SAFMAX/2) = 2^510.5) and pairs just
# inside and outside them that the two branches round apart; both near
# overflow
@example(f=0.0, g=0.0)
@example(f=-0.0, g=-0.0)
@example(f=0.0, g=-2.0)
@example(f=-3.0, g=0.0)
@example(f=5e-324, g=-5e-324)
@example(f=-2.0 ** -1022, g=1e-310)
@example(f=2.0 ** -511, g=1.0)
@example(f=1.0, g=float(np.nextafter(2.0 ** -511, 1.0)))
@example(f=sol.RTMAX, g=-1.0)
@example(f=-1.0, g=float(np.nextafter(sol.RTMAX, 0.0)))
@example(f=1.5163218936906134e-154, g=2.7047974563401067e-154)
@example(f=-5.991068068991035e+153, g=-5.270109723503117e+153)
@example(f=1.7e308, g=-1.7e308)
def test_dlartg_matches_lapack(f, g):
    # scipy's LAPACK is the oracle: c, s and r bit for bit
    assert_same_floats(sol._dlartg(f, g), dlartg(f, g))


class TestGmres:
    @pytest.mark.parametrize("preset", ["fig7", "fig11"])
    def test_matches_scipy(self, monkeypatch, preset):
        # scipy's gmres with the solver's settings is the oracle: same
        # iteration counts, and the same solutions up to rounding
        for matrix, rhs in preset_systems(monkeypatch, preset):
            steps = []
            want, _ = scipy_gmres(matrix, rhs, rtol=sol.GMRES_TOL, atol=0.0,
                                  restart=sol.GMRES_MAXITER, maxiter=1,
                                  callback=steps.append,
                                  callback_type="pr_norm")
            x, iterations = sol.gmres(matrix, rhs)
            assert iterations == len(steps)
            assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("preset", ["fig7", "fig11"])
    def test_start_matches_scipy(self, monkeypatch, rng, preset):
        # from a start 1e-6 off the solution, scipy's gmres with x0 is the
        # oracle as above; the solution itself as start already meets the
        # tolerance, so both take no iteration, and the solve reports the
        # start's true residual
        matrix, rhs = preset_systems(monkeypatch, preset)[0]
        solution, _ = sol.gmres(matrix, rhs)
        noise = rng.standard_normal(rhs.size)
        start = solution + 1e-6 * np.linalg.norm(solution) \
            * noise / np.linalg.norm(noise)
        for x0 in (start, solution):
            steps = []
            want, _ = scipy_gmres(matrix, rhs, x0=x0.copy(), rtol=sol.GMRES_TOL,
                                  atol=0.0, restart=sol.GMRES_MAXITER,
                                  maxiter=1, callback=steps.append,
                                  callback_type="pr_norm")
            x, iterations = sol.gmres(matrix, rhs, x0)
            assert iterations == len(steps)
            assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
        assert iterations == 0 and np.array_equal(x, solution)
        _, iterations, residual = sol._solve_gmres(matrix, rhs, "nutrient",
                                                   solution)
        true = np.linalg.norm(matrix @ solution - rhs) / np.linalg.norm(rhs)
        assert iterations == 0
        assert 0.0 < residual == pytest.approx(true, rel=1e-12)

    def test_identity_breaks_down_after_one_iteration(self, rng):
        rhs = rng.standard_normal(50)
        x, iterations = sol.gmres(np.eye(50), rhs)
        assert iterations == 1
        assert np.allclose(x, rhs, rtol=1e-15, atol=0.0)

    def test_zero_rhs_takes_no_iterations(self):
        x, iterations = sol.gmres(np.eye(4), np.zeros(4))
        assert iterations == 0 and x.shape == (4,) and not np.any(x)

    def test_nan_system_stops_after_one_iteration(self):
        matrix, rhs = np.full((256, 256), np.nan), np.ones(256)
        _, iterations = sol.gmres(matrix, rhs)
        assert iterations == 1
        with pytest.raises(sol.SolverFailure) as failure:
            sol._solve_gmres(matrix, rhs, "test")
        assert failure.value.iterations == 1

    @pytest.mark.parametrize("residual, fails",
                             [(5e-10, False), (2e-9, True), (np.nan, True)])
    def test_failure_at_ten_times_the_tolerance(self, monkeypatch, residual,
                                                fails):
        # the true relative residual fails a solve above 10 GMRES_TOL, and
        # a NaN residual fails it too
        rhs = np.ones(4)
        x = rhs.copy()
        x[0] += residual * np.linalg.norm(rhs)
        monkeypatch.setattr(sol, "gmres", lambda matrix, b, start=None: (x, 7))
        if fails:
            with pytest.raises(sol.SolverFailure) as failure:
                sol._solve_gmres(np.eye(4), rhs, "test")
            assert failure.value.iterations == 7
        else:
            _, iterations, got = sol._solve_gmres(np.eye(4), rhs, "test")
            assert iterations == 7 and got == pytest.approx(residual)

    def test_fields_carry_the_true_residuals(self, monkeypatch):
        solves, gmres = [], sol.gmres

        def checked(matrix, rhs, start=None):
            x, iterations = gmres(matrix, rhs)
            solves.append(np.linalg.norm(matrix @ x - rhs) / np.linalg.norm(rhs))
            return x, iterations

        monkeypatch.setattr(sol, "gmres", checked)
        g0 = geo.radial_boundary(0.5, 0.1, 3, 32)
        g = geo.initial_interface(2.5, 0.1, 2, 64).samples()
        fields = sol.FieldSolver(g0, sol.Params(**FIG7)).solve(g)
        assert [fields.residual_nutrient, fields.residual_pressure] == solves
        assert 0.0 < max(solves) <= 10 * sol.GMRES_TOL


class TestRhsAndVelocity:
    def test_pressure_rhs_zero_proliferation(self):
        n = 64
        g0, g = circles(n)
        params = sol.Params(p=0, a=0.3, chi=2.0, beta=0.5, sigma_n=0.2, ginv=1e-3)
        sig = np.full(n, 0.4)
        kappa = np.full(n, 1 / 2.5)
        g_n, g_d = sol.pressure_rhs(g0, g, params, np.ones(n), sig, kappa)
        assert np.all(g_n == 0)
        assert np.max(np.abs(g_d - (1e-3 / 2.5 - 2.0 * 0.4))) < 1e-14

    def test_pressure_rhs_curvature_only(self):
        n = 64
        g0, g = circles(n)
        params = sol.Params(p=3.0, a=0.0, chi=3.0, beta=0.5, sigma_n=0.2, ginv=2.0)
        kappa = np.full(n, 1 / 2.5)
        _, g_d = sol.pressure_rhs(g0, g, params, np.zeros(n), np.full(n, 0.7), kappa)
        assert np.max(np.abs(g_d - 2.0 / 2.5)) < 1e-14

    def test_pressure_rhs_pointwise_formula(self):
        n = 64
        g0 = geo.radial_boundary(0.5, 0.1, 3, n)
        g = geo.initial_interface(2.5, 0.1, 2, n).samples()
        params = sol.Params(**FIG7)
        dsig = np.linspace(-1, 1, n)
        sig = np.linspace(0.2, 0.9, n)
        g_n, g_d = sol.pressure_rhs(g0, g, params, dsig, sig, g.curvature)
        j = 17
        pa = params.p * params.a
        n_dot_x = g0.normal_x[j] * g0.x[j] + g0.normal_y[j] * g0.y[j]
        assert g_n[j] == pytest.approx(params.p * dsig[j] - pa * n_dot_x / 2)
        xx = g.x[j] ** 2 + g.y[j] ** 2
        expected = params.ginv * g.curvature[j] \
            + (params.p - params.chi) * sig[j] - pa * xx / 4
        assert g_d[j] == pytest.approx(expected)

    def test_hydrostatic_identity_cases(self):
        params = sol.Params(p=2.0, a=0.0, chi=2.0, beta=1.0, sigma_n=0.2, ginv=0)
        x = np.array([1.0, 2.0])
        y = np.zeros(2)
        pbar = np.array([0.3, -0.1])
        sig = np.array([0.5, 0.7])
        # P = chi and A = 0: transform is the identity
        assert np.array_equal(
            sol.hydrostatic_pressure(pbar, sig, x, y, params), pbar)
        params2 = sol.Params(p=2.0, a=0.0, chi=5.0, beta=1.0, sigma_n=0.2, ginv=0)
        # sigma = 0 and A = 0: identity again
        assert np.array_equal(
            sol.hydrostatic_pressure(pbar, np.zeros(2), x, y, params2), pbar)

    def test_velocity_zero_for_pure_adhesion_circle(self):
        # P = 0 on a circle: constant Dirichlet datum, zero Neumann datum
        # force a constant pressure, so the interface does not move
        n = 128
        g0, g = circles(n)
        params = sol.Params(p=0, a=0, chi=0, beta=0.5, sigma_n=0.2, ginv=1e-3)
        solver = sol.FieldSolver(g0, params)
        fields = solver.solve(g)
        v = sol.normal_velocity(fields, g, params)
        assert np.max(np.abs(v)) < 1e-10

    def test_velocity_decreases_with_apoptosis(self):
        n = 128
        g0, g = circles(n)
        vs = {}
        for a in (0.1, 0.5):
            params = sol.Params(p=5, a=a, chi=5, beta=0.5, sigma_n=0.2, ginv=1e-3)
            fields = sol.FieldSolver(g0, params).solve(g)
            vs[a] = sol.normal_velocity(fields, g, params)
        assert np.all(vs[0.5] < vs[0.1])


def test_field_solver_caches_match_fresh_solve():
    n = 128
    g0 = geo.radial_boundary(0.5, 0.1, 3, n)
    g = geo.initial_interface(2.5, 0.1, 2, n).samples()
    params = sol.Params(**FIG7)
    solver = sol.FieldSolver(g0, params)
    fields = solver.solve(g)
    dsig, sig, _ = solve_nutrient(g0, g, params)
    assert np.array_equal(fields.dsigma_dn0, dsig)
    assert np.array_equal(fields.sigma_gamma, sig)


def test_solve_reuses_interface_geometry(monkeypatch):
    # a gap read through interface_geometry(g) and the solve of the same
    # samples share one Gamma-Gamma geometry; new samples get their own
    n0, n = 32, 64
    g0 = geo.radial_boundary(0.5, 0.1, 3, n0)
    g = geo.initial_interface(2.5, 0.1, 2, n).samples()
    params = sol.Params(**FIG7)
    fresh = sol.FieldSolver(g0, params).solve(g)
    solver = sol.FieldSolver(g0, params)
    built = []
    self_geometry = ker.self_geometry
    monkeypatch.setattr(ker, "self_geometry",
                        lambda bnd: built.append(bnd) or self_geometry(bnd))
    own = solver.interface_geometry(g)
    fields = solver.solve(g)
    assert len(built) == 1 and built[0] is g
    assert solver.interface_geometry(g) is own
    assert np.array_equal(fields.sigma_gamma, fresh.sigma_gamma)
    assert np.array_equal(fields.dpbar_dn, fresh.dpbar_dn)
    again = geo.initial_interface(2.5, 0.1, 2, n).samples()
    solver.solve(again)
    assert len(built) == 2 and built[1] is again


def test_interface_geometry_peak_memory():
    # the next interface's geometry is built after the previous one is
    # dropped, and its build forms r^2 in place: at most 4 arrays of the
    # n(n + 1)/2 node pairs above what was held before (8.1 when the
    # previous geometry was held through a build of 8 pair arrays)
    n = 512
    g0 = geo.radial_boundary(0.5, 0.1, 3, 16)
    first, second = (geo.initial_interface(r, 0.1, 2, n).samples()
                     for r in (2.5, 2.6))

    def build():
        solver = sol.FieldSolver(g0, sol.Params(**FIG7))
        solver.interface_geometry(first)
        return solver

    own, peak = pair_array_peak(n, build,
                                lambda solver: solver.interface_geometry(second))
    assert own.bnd is second
    assert peak <= 4.0, f"peak holds {peak:.2f} pair arrays"


def test_reused_buffer_keeps_no_stale_entries():
    # geometry A assembled first into a NaN-filled buffer, then geometry B:
    # both systems must equal B assembled into a fresh buffer, bit for bit
    n = 64
    g0 = geo.radial_boundary(0.5, 0.1, 3, n // 2)
    pairs_a = pair_geometries(g0, geo.initial_interface(2.5, 0.1, 2, n).samples())
    g_b = geo.initial_interface(2.2, 0.2, 3, n).samples()
    pairs_b = pair_geometries(g0, g_b)
    params = sol.Params(**FIG7)
    helm = helmholtz_inner(g0)
    lap = ker.laplace_self_blocks(ker.self_geometry(g0))
    g_n, g_d = np.cos(g0.alpha), np.sin(2 * g_b.alpha)
    assemblies = (lambda pairs, out: sol.nutrient_system(params, helm, pairs, out),
                  lambda pairs, out: sol.pressure_system(lap, pairs, g_n, g_d, out))
    for assemble in assemblies:
        reused = np.full((g0.n + n, g0.n + n), np.nan)
        assemble(pairs_a, reused)
        rhs = assemble(pairs_b, reused)
        fresh = system_buffer(g0, g_b)
        assert np.array_equal(rhs, assemble(pairs_b, fresh))
        assert np.array_equal(reused, fresh)


def test_nan_interface_fails_the_solve():
    # NaN distances run through the I0, I1 series and reach the GMRES check
    n0, n = 32, 64
    g0 = geo.radial_boundary(0.5, 0.1, 3, n0)
    g = geo.initial_interface(2.5, 0.1, 2, n).samples()
    x = g.x.copy()
    x[5] = np.nan
    with pytest.raises(sol.SolverFailure):
        sol.FieldSolver(g0, sol.Params(**FIG7)).solve(
            geo.PlanarCurveSamples.from_xy(x, g.y))


@pytest.mark.parametrize("path", ["dense", "separable"])
def test_solve_evaluates_bessel_on_self_upper_triangle(monkeypatch, path):
    # the symmetric Gamma-Gamma pair needs I0, I1, K0 on N(N+1)/2 distances,
    # all three from one i0_i1_k0 pass (K1 follows from the Wronskian); the
    # Gamma0-Gamma pair needs K0, K1 on its N0 N distances, or, when a small
    # core takes the separable path, on the N radii of Gamma and I0 on the
    # N0 radii of Gamma0
    if path == "dense":
        n0, n = 32, 64
        g0 = geo.radial_boundary(0.5, 0.1, 3, n0)
    else:
        n0 = n = 64
        g0 = geo.radial_boundary(0.1, 0.0, 0, n0)
    g = geo.initial_interface(2.5, 0.1, 2, n).samples()
    separable = pair_geometries(g0, g)[1].expansion is not None
    assert separable == (path == "separable")
    solver = sol.FieldSolver(g0, sol.Params(**FIG7))
    counts = dict.fromkeys(("i0_i1_k0", "i0", "i1", "k0", "k1"), 0)

    def counting(name, fn):
        def wrapper(x):
            counts[name] += np.size(x)
            return fn(x)
        return wrapper

    for name in counts:
        monkeypatch.setattr(ker, name, counting(name, getattr(ker, name)))
    solver.solve(g)
    half = n * (n + 1) // 2
    cross = n if separable else n0 * n
    assert counts == dict(i0_i1_k0=half, i0=n0 if separable else 0, i1=0,
                          k0=cross, k1=cross)
