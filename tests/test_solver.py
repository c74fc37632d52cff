import numpy as np
import pytest
from scipy.special import i0, i1, iv, k0, k1, kv

from tumorbim import geometry as geo
from tumorbim import kernels as ker
from tumorbim import solver as sol

from oracles import annulus_nutrient_coeffs, interior_value_nutrient

FIG7 = dict(p=5.0, a=0.25, chi=5.0, beta=0.5, sigma_n=0.2, ginv=1e-3)


def circles(n, r_in=0.1, r_out=2.5):
    g0 = geo.radial_boundary(r_in, 0, 0, n)
    g = geo.radial_boundary(r_out, 0, 0, n)
    return g0, g


def system_buffer(g0, g):
    return np.empty((g0.n + g.n, g0.n + g.n))


def pair_geometries(g0, g):
    """The (Gamma-Gamma, Gamma0-Gamma) geometries of one solve."""
    return ker.self_geometry(g), ker.cross_geometry(g0, g)


def solve_nutrient(g0, g, params):
    inner = ker.helmholtz_self_blocks(ker.self_geometry(g0))
    return sol.solve_nutrient(params, inner, pair_geometries(g0, g),
                              system_buffer(g0, g))


def solve_pressure(g0, g, g_neumann, g_dirichlet):
    inner = ker.laplace_self_blocks(ker.self_geometry(g0))
    return sol.solve_pressure(inner, pair_geometries(g0, g), g_neumann,
                              g_dirichlet, system_buffer(g0, g))


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
                fields = sol.BoundaryFields(dsig, sig, None, None, 0, 0)
                assert sol.sigma_bounds_violation(fields, params) < 1e-8

    def test_interior_green_representation(self):
        n = 256
        g0, g = circles(n)
        params = sol.Params(**FIG7)
        dsig, sig, _ = solve_nutrient(g0, g, params)
        fields = sol.BoundaryFields(dsig, sig, None, None, 0, 0)
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


def test_reused_buffer_keeps_no_stale_entries():
    # geometry A assembled first into a NaN-filled buffer, then geometry B:
    # both systems must equal B assembled into a fresh buffer, bit for bit
    n = 64
    g0 = geo.radial_boundary(0.5, 0.1, 3, n // 2)
    pairs_a = pair_geometries(g0, geo.initial_interface(2.5, 0.1, 2, n).samples())
    g_b = geo.initial_interface(2.2, 0.2, 3, n).samples()
    pairs_b = pair_geometries(g0, g_b)
    params = sol.Params(**FIG7)
    helm = ker.helmholtz_self_blocks(ker.self_geometry(g0))
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


def test_solve_evaluates_bessel_on_self_upper_triangle(monkeypatch):
    # the symmetric Gamma-Gamma pair needs I0, I1, K0 on N(N+1)/2 distances
    # (K1 follows from the Wronskian), the Gamma0-Gamma pair K0, K1 on its
    # N0 N distances
    n0, n = 32, 64
    g0 = geo.radial_boundary(0.5, 0.1, 3, n0)
    g = geo.initial_interface(2.5, 0.1, 2, n).samples()
    solver = sol.FieldSolver(g0, sol.Params(**FIG7))
    counts = dict.fromkeys(("i0", "i1", "k0", "k1"), 0)

    def counting(name, fn):
        def wrapper(x):
            counts[name] += np.size(x)
            return fn(x)
        return wrapper

    for name in counts:
        monkeypatch.setattr(ker, name, counting(name, getattr(ker, name)))
    solver.solve(g)
    half = n * (n + 1) // 2
    assert counts == dict(i0=half, i1=half, k0=half + n0 * n, k1=n0 * n)


def test_separable_solve_evaluates_k_on_target_radii(monkeypatch):
    # a small core takes the separable Gamma0-Gamma path: K0, K1 see the
    # N radii of Gamma instead of the N0 N distances, and I0, I1 and the
    # self K0 are unchanged
    n0 = n = 64
    g0 = geo.radial_boundary(0.1, 0.0, 0, n0)
    g = geo.initial_interface(2.5, 0.1, 2, n).samples()
    assert pair_geometries(g0, g)[1].expansion is not None
    solver = sol.FieldSolver(g0, sol.Params(**FIG7))
    counts = dict.fromkeys(("i0", "i1", "k0", "k1"), 0)

    def counting(name, fn):
        def wrapper(x):
            counts[name] += np.size(x)
            return fn(x)
        return wrapper

    for name in counts:
        monkeypatch.setattr(ker, name, counting(name, getattr(ker, name)))
    solver.solve(g)
    half = n * (n + 1) // 2
    assert counts == dict(i0=half, i1=half, k0=half + n, k1=n)
