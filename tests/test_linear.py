import numpy as np
import pytest

from pathlib import Path

from tumorbim import config as cfgmod
from tumorbim import driver as drv
from tumorbim import geometry as geo
from tumorbim import linear as lin
from tumorbim import solver as sol
from tumorbim.bessel import bessel_i as iv
from tumorbim.bessel import bessel_k as kv

from conftest import record_acceptance
from oracles import (annulus_nutrient_coeffs, find_root,
                     perturb_coeffs_limit_beta, perturbation_coeffs_direct,
                     pressure_mode_coeffs_direct, radial_coeffs_limit_r0)

FIG7 = sol.Params(p=5, a=0.25, chi=5, beta=0.5, sigma_n=0.2, ginv=1e-3)
FIG2 = sol.Params(p=1, a=0.3, chi=0, beta=0.5, sigma_n=0.0, ginv=1e-3)
FIG3 = sol.Params(p=5, a=0.25, chi=5, beta=0.5, sigma_n=0.2, ginv=1e-3)


def cfg(params=FIG7, r0=0.1, mode=2, r_init=2.5, delta_init=0.1):
    return lin.LinearConfig(r0=r0, mode=mode, params=params,
                            r_init=r_init, delta_init=delta_init)


def linear_boundary_traces(radius, delta, theta_polar, config):
    """O(delta)-accurate traces of the four solved boundary quantities.

    Returns a dict with dsigma_dn0 and pbar_gamma0 on the inner boundary
    and sigma_gamma and dpbar_dn on the outer boundary, evaluated on the
    polar-angle grid theta_polar for the interface R + delta cos(l theta).
    """
    r0, ell, r = config.r0, config.mode, radius
    c = lin.coefficients(radius, config)
    wave = delta * np.cos(ell * np.asarray(theta_polar, dtype=float))
    dsigma_dn0 = c.flux0_r0 + wave * c.inner_mode_flux
    sigma_gamma = c.sigma0_r + wave * c.mode_flux
    pbar_gamma0 = c.c1 + c.c2 * np.log(r0) \
        + wave * (c.d1 * r0 ** ell + c.d2 * r0 ** -ell)
    dpbar_dn = c.c2 / r + wave * (-c.c2 / r ** 2
                                  + ell * (c.d1 * r ** (ell - 1)
                                           - c.d2 * r ** -(ell + 1)))
    return {"dsigma_dn0": dsigma_dn0, "sigma_gamma": sigma_gamma,
            "pbar_gamma0": pbar_gamma0, "dpbar_dn": dpbar_dn}


class TestRadialCoeffs:
    def test_direct_solve_oracle(self):
        co = lin.coefficients(2.5, cfg())
        a1, a2 = co.a1, co.a2
        a1_o, a2_o = annulus_nutrient_coeffs(0.1, 2.5, 0.5, 0.2)
        assert a1 == pytest.approx(a1_o, rel=1e-13)
        assert a2 == pytest.approx(a2_o, rel=1e-13)

    def test_defining_residuals(self):
        co = lin.coefficients(2.5, cfg())
        a1, a2 = co.a1, co.a2
        assert a1 * iv(0, 0.1) + a2 * kv(0, 0.1) == pytest.approx(0.2, abs=1e-12)
        robin = a1 * iv(1, 2.5) - a2 * kv(1, 2.5) \
            - 0.5 * (1 - a1 * iv(0, 2.5) - a2 * kv(0, 2.5))
        assert abs(robin) < 1e-12

    def test_inner_level_consistency(self):
        # sigma_n equal to the self-consistent inner value keeps the
        # Dirichlet residual exact (defining equation check only)
        c = cfg(sol.Params(p=1, a=0, chi=0, beta=0.7, sigma_n=0.63, ginv=0))
        co = lin.coefficients(2.0, c)
        a1, a2 = co.a1, co.a2
        assert a1 * iv(0, 0.1) + a2 * kv(0, 0.1) == pytest.approx(0.63, abs=1e-12)

    def test_small_core_limit_trend(self):
        # A2 -> 0 and A1 -> stated closed form; convergence is logarithmic
        # in r0 (rate 1/ln(1/r0)), so successively smaller cores shrink the
        # deviation accordingly
        params = sol.Params(p=1, a=0.3, chi=0, beta=100.0, sigma_n=0.0, ginv=1e-3)
        devs = []
        for r0 in (1e-6, 1e-10, 1e-14):
            c = cfg(params, r0=r0)
            co = lin.coefficients(2.5, c)
            a1, a2 = co.a1, co.a2
            a1_lim, a2_lim = radial_coeffs_limit_r0(2.5, c)
            devs.append(abs(a1 - a1_lim) + abs(a2 - a2_lim))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] / devs[0] == pytest.approx(np.log(1e-6) / np.log(1e-14),
                                                  rel=0.2)


class TestPerturbCoeffs:
    def test_inner_condition_exact(self):
        co = lin.coefficients(2.5, cfg())
        b1, b2 = co.b1, co.b2
        assert b1 * iv(2, 0.1) + b2 * kv(2, 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_direct_solve_oracle(self):
        for params, r0, ell, r in ((FIG3, 0.1, 2, 2.5), (FIG2, 0.1, 2, 1.5),
                                   (FIG7, 1.0, 3, 2.5)):
            c = cfg(params, r0=r0, mode=ell)
            co = lin.coefficients(r, c)
            a1, a2, b1, b2 = co.a1, co.a2, co.b1, co.b2
            b1_o, b2_o = perturbation_coeffs_direct(r0, r, ell, params.beta, a1, a2)
            assert b1 == pytest.approx(b1_o, rel=1e-11)
            assert b2 == pytest.approx(b2_o, rel=1e-11)

    def test_large_beta_limit(self):
        params = sol.Params(p=1, a=0.3, chi=0, beta=1e6, sigma_n=0.2, ginv=1e-3)
        c = cfg(params)
        co = lin.coefficients(2.5, c)
        b1, b2 = co.b1, co.b2
        b1_lim, b2_lim = perturb_coeffs_limit_beta(2.5, c)
        assert b1 == pytest.approx(b1_lim, rel=1e-4)
        assert b2 == pytest.approx(b2_lim, rel=1e-4)


class TestPressureCoeffs:
    def test_defining_residuals_grid(self):
        for beta in (0.5, 1.0, 2.0):
            for r0 in (0.1, 1.0):
                for ell in (2, 3, 5):
                    for r in (1.5, 2.5, 4.0):
                        params = sol.Params(p=5, a=0.25, chi=5, beta=beta,
                                            sigma_n=0.2, ginv=1e-3)
                        c = cfg(params, r0=r0, mode=ell)
                        co = lin.coefficients(r, c)
                        pa = params.p * params.a
                        res_c1 = co.c1 + co.c2 * np.log(r) - (
                            params.ginv / r - pa * r ** 2 / 4
                            + (params.p - params.chi) * co.sigma0_r)
                        res_c2 = co.c2 / r0 - (params.p * co.flux0_r0 - pa * r0 / 2)
                        res_d1 = co.c2 / r + co.d1 * r ** ell + co.d2 * r ** -ell - (
                            params.ginv * (ell ** 2 - 1) / r ** 2 - pa * r / 2
                            + (params.p - params.chi) * co.mode_flux)
                        res_d2 = ell * (co.d1 * r0 ** (ell - 1)
                                        - co.d2 * r0 ** -(ell + 1)) \
                            - params.p * co.inner_mode_flux
                        scale = max(1.0, abs(co.c1), abs(co.c2))
                        assert abs(res_c1) / scale < 1e-10
                        assert abs(res_c2) / scale < 1e-10
                        assert abs(res_d1) / scale < 1e-10
                        assert abs(res_d2) / max(1.0, abs(co.d1)) < 1e-10

    def test_mode_coeffs_direct_solve(self):
        c = cfg(FIG2, mode=2)
        co = lin.coefficients(2.5, c)
        params = FIG2
        pa = params.p * params.a
        w_r = (params.p - params.chi) * co.mode_flux \
            + params.ginv * 3 / 2.5 ** 2 - pa * 2.5 / 2 - co.c2 / 2.5
        w_0 = params.p * co.inner_mode_flux
        d1_o, d2_o = pressure_mode_coeffs_direct(0.1, 2.5, 2, w_r, w_0)
        assert co.d1 == pytest.approx(d1_o, rel=1e-11)
        assert co.d2 == pytest.approx(d2_o, rel=1e-11)

    def test_no_apoptosis_balanced_taxis_c2(self):
        # A = 0 and P = chi: C2 = P flux R0 with no apoptosis correction
        params = sol.Params(p=2, a=0.0, chi=2, beta=0.5, sigma_n=0.2, ginv=1e-3)
        c = cfg(params)
        co = lin.coefficients(2.5, c)
        assert co.c2 == pytest.approx(2 * co.flux0_r0 * 0.1, rel=1e-13)

    def test_small_core_regularity(self):
        # D2 multiplies r^-l: regularity at the origin kills it as r0 -> 0
        c = cfg(FIG7, r0=1e-12)
        co = lin.coefficients(2.5, c)
        assert abs(co.d2) < 1e-20


class TestRates:
    def test_zero_proliferation_is_static_radius(self):
        params = sol.Params(p=0, a=0.3, chi=0, beta=0.5, sigma_n=0.2, ginv=1e-3)
        c = cfg(params)
        assert lin.dr_dt(lin.coefficients(2.5, c), c) == 0.0

    def test_stationary_radius_root(self):
        c = cfg(FIG7)
        def rate(r):
            return lin.dr_dt(lin.coefficients(r, c), c)

        root = find_root(rate, 2.5, 3.0)
        assert rate(root - 0.05) > 0 > rate(root + 0.05)

    def test_term_ledger_sums_to_total(self):
        for r in (1.5, 2.5, 4.0):
            c = cfg(FIG3, mode=3)
            co = lin.coefficients(r, c)
            terms = lin.shape_rate_terms(co, c)
            assert sum(terms.values()) == pytest.approx(lin.dshape_dt(co, c),
                                                        abs=1e-12)

    def test_adhesion_stabilizes(self):
        params = sol.Params(p=5, a=0.25, chi=5, beta=0.5, sigma_n=0.2, ginv=10.0)
        c = cfg(params)
        terms = lin.shape_rate_terms(lin.coefficients(2.5, c), c)
        assert terms["cell_cell_adhesion"] < 0
        # the adhesion contribution scales linearly in ginv
        c7 = cfg(FIG7)
        weak = lin.shape_rate_terms(lin.coefficients(2.5, c7),
                                    c7)["cell_cell_adhesion"]
        assert terms["cell_cell_adhesion"] == pytest.approx(weak * 1e4, rel=1e-12)

    def test_beta_saturation_of_rates(self):
        # rates saturate towards the large-supply regime as beta grows
        params_by_beta = {b: sol.Params(p=1, a=0.3, chi=0, beta=b,
                                        sigma_n=0.0, ginv=1e-3)
                          for b in (100.0, 1000.0, 10000.0)}
        r_grid = np.linspace(0.5, 4.0, 15)
        gaps = []
        for b_lo, b_hi in ((100.0, 1000.0), (1000.0, 10000.0)):
            c_lo = cfg(params_by_beta[b_lo], r0=1e-16)
            c_hi = cfg(params_by_beta[b_hi], r0=1e-16)
            gaps.append(max(abs(lin.dr_dt(lin.coefficients(r, c_lo), c_lo)
                                - lin.dr_dt(lin.coefficients(r, c_hi), c_hi))
                            for r in r_grid))
        assert gaps[1] < 0.15 * gaps[0]  # ~1/beta convergence


class TestCriticalApoptosis:
    def test_root_property(self):
        c = cfg(FIG3)
        for r in (1.5, 2.5, 4.0):
            a_c = lin.critical_apoptosis(lin.coefficients(r, c), c)
            params_at = sol.Params(p=5, a=a_c, chi=5, beta=0.5,
                                   sigma_n=0.2, ginv=1e-3)
            c_at = cfg(params_at)
            assert abs(lin.dshape_dt(lin.coefficients(r, c_at), c_at)) < 1e-10

    def test_beta_ordering_at_large_radius(self):
        a_c = {}
        for beta in (0.5, 2.0):
            params = sol.Params(p=5, a=0.25, chi=5, beta=beta,
                                sigma_n=0.2, ginv=1e-3)
            c = cfg(params)
            a_c[beta] = lin.critical_apoptosis(lin.coefficients(4.0, c), c)
        assert a_c[2.0] > a_c[0.5]

    def test_taxis_lowers_critical_apoptosis(self):
        a_c = {}
        for chi in (0.0, 5.0):
            params = sol.Params(p=5, a=0.25, chi=chi, beta=0.5,
                                sigma_n=0.2, ginv=1e-3)
            c = cfg(params)
            a_c[chi] = lin.critical_apoptosis(lin.coefficients(4.0, c), c)
        assert a_c[5.0] < a_c[0.0]

    def test_stability_curve_table(self):
        c = cfg(FIG3)
        table = lin.stability_curve(c, np.linspace(0.5, 4.0, 20))
        assert table.dtype.names[:2] == ("radius", "a_crit")
        total = sum(table[name] for name in lin.RATE_NAMES)
        # at A = params.a the five terms sum to the rate; a_crit re-零s it
        assert np.all(np.isfinite(table["a_crit"]))

    def test_stability_curve_evaluates_coefficients_once_per_radius(
            self, monkeypatch):
        c = cfg(FIG3)
        radii = np.linspace(0.5, 4.0, 10)
        # the table as built from the per-radius calls, each on a
        # coefficient set of its own
        want = [(r, lin.critical_apoptosis(lin.coefficients(r, c), c))
                + tuple(lin.shape_rate_terms(lin.coefficients(r, c), c)[k]
                        for k in lin.RATE_NAMES)
                for r in radii]
        calls = [0]
        original = lin.coefficients

        def counting(radius, config):
            calls[0] += 1
            return original(radius, config)

        monkeypatch.setattr(lin, "coefficients", counting)
        table = lin.stability_curve(c, radii)
        assert calls[0] == radii.size
        got = [tuple(row) for row in table]
        assert np.array_equal(np.array(got), np.array(want))


class TestLinearTraces:
    def test_unperturbed_traces_radial(self):
        c = cfg(FIG7)
        grid = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        tr = linear_boundary_traces(2.5, 0.0, grid, c)
        co = lin.coefficients(2.5, c)
        a1, a2 = co.a1, co.a2
        assert np.max(np.abs(tr["sigma_gamma"] - (a1 * iv(0, 2.5) + a2 * kv(0, 2.5)))) < 1e-13
        for key in tr:
            assert np.ptp(tr[key]) < 1e-13

    def test_adhesion_term_in_inner_pressure(self):
        # the inner pressure trace carries the Ginv / R Laplace-Young part
        grid = np.zeros(1)
        vals = {}
        for ginv in (1e-3, 2e-3):
            params = sol.Params(p=5, a=0.25, chi=5, beta=0.5, sigma_n=0.2,
                                ginv=ginv)
            tr = linear_boundary_traces(2.5, 0.0, grid, cfg(params))
            vals[ginv] = tr["pbar_gamma0"][0]
        assert vals[2e-3] - vals[1e-3] == pytest.approx(1e-3 / 2.5, rel=1e-10)

    def test_traces_match_bim_to_linear_order(self):
        n = 256
        delta = 0.1
        c = cfg(FIG7)
        g0 = geo.radial_boundary(0.1, 0, 0, n)
        gamma = geo.initial_interface(2.5, delta, 2, n).samples()
        fields = sol.FieldSolver(g0, c.params).solve(gamma)
        polar_inner = np.arctan2(g0.y, g0.x)
        polar_outer = np.arctan2(gamma.y, gamma.x)
        tr_in = linear_boundary_traces(2.5, delta, polar_inner, c)
        tr_out = linear_boundary_traces(2.5, delta, polar_outer, c)
        tol = (delta / 2.5) ** 2 * 10  # O(delta^2) truncation with margin
        assert np.max(np.abs(fields.dsigma_dn0 - tr_in["dsigma_dn0"])) \
            < tol * max(1, np.max(np.abs(fields.dsigma_dn0)))
        assert np.max(np.abs(fields.sigma_gamma - tr_out["sigma_gamma"])) < tol
        assert np.max(np.abs(fields.pbar_gamma0 - tr_in["pbar_gamma0"])) \
            < tol * max(1, np.max(np.abs(fields.pbar_gamma0)))
        assert np.max(np.abs(fields.dpbar_dn - tr_out["dpbar_dn"])) \
            < tol * max(1, np.max(np.abs(fields.dpbar_dn)))

    def test_hydrostatic_inner_trace_against_bim(self):
        # first-order traces: the gap to the full solve shrinks like the
        # square of the perturbation (measured constant ~0.3 relative)
        n = 256
        params = sol.Params(p=1, a=0.35, chi=10, beta=0.5, sigma_n=0.2, ginv=1e-3)
        c = cfg(params, r0=1.0)
        g0 = geo.radial_boundary(1.0, 0, 0, n)

        def gap(delta):
            gamma = geo.initial_interface(2.5, delta, 2, n).samples()
            fields = sol.FieldSolver(g0, params).solve(gamma)
            p_bim = sol.hydrostatic_pressure(fields.pbar_gamma0,
                                             np.full(n, params.sigma_n),
                                             g0.x, g0.y, params)
            tr = linear_boundary_traces(2.5, delta,
                                            np.arctan2(g0.y, g0.x), c)
            p_lin = tr["pbar_gamma0"] - (params.p - params.chi) * params.sigma_n \
                + params.p * params.a * 1.0 / 4
            return np.max(np.abs(p_bim - p_lin))

        g_full, g_half = gap(0.1), gap(0.05)
        assert g_full < 5e-3
        assert g_half == pytest.approx(g_full / 4, rel=0.3)


class TestOdeIntegration:
    def test_frozen_dynamics(self):
        params = sol.Params(p=0, a=0.3, chi=0, beta=0.5, sigma_n=0.2, ginv=0)
        pred = lin.integrate_linear_odes(cfg(params), 0.5, dt=1e-3)
        assert np.ptp(pred.radius) == 0.0
        assert np.ptp(pred.delta_over_r) == 0.0

    def test_monotone_growth_from_fig7_start(self):
        pred = lin.integrate_linear_odes(cfg(FIG7), 2.0, dt=1e-3)
        assert not pred.halted
        assert np.all(np.diff(pred.radius) > 0)

    def test_step_halving_converges(self):
        c = cfg(FIG7)
        coarse = lin.integrate_linear_odes(c, 2.0, dt=2e-3)
        fine = lin.integrate_linear_odes(c, 2.0, dt=1e-3)
        assert abs(coarse.radius[-1] - fine.radius[-1]) < 1e-8

    def test_halts_when_radius_reaches_core(self):
        # dR/dt -> 0 as R -> R0, so the core is only reached by overshoot;
        # a coarse step makes a stage evaluation cross it and trip the halt
        params = sol.Params(p=5, a=5.0, chi=0, beta=0.5, sigma_n=0.2, ginv=0)
        pred = lin.integrate_linear_odes(cfg(params, r0=1.8, r_init=2.0,
                                             delta_init=0.01), 5.0, dt=0.1)
        assert pred.halted


class TestShapeRateAgainstBim:
    def test_growth_rate_matches_measured(self):
        # project the solved normal velocity on the perturbation mode and
        # compare growth rates; the polar measure removes the metric bias
        n = 256
        delta = 5e-4
        c = cfg(FIG7, delta_init=delta)
        g0 = geo.radial_boundary(0.1, 0, 0, n)
        gamma = geo.initial_interface(2.5, delta, 2, n).samples()
        fields = sol.FieldSolver(g0, c.params).solve(gamma)
        v = sol.normal_velocity(fields, gamma, c.params)
        phi = np.unwrap(np.arctan2(gamma.y, gamma.x))
        w = (np.roll(phi, -1) - np.roll(phi, 1)) % (2 * np.pi) / 2
        v2 = np.sum(v * np.cos(2 * phi) * w) / np.pi
        v0 = np.sum(v * w) / (2 * np.pi)
        r_eff, dor, _ = geo.shape_diagnostics(gamma, 2)
        measured = v2 / (dor * r_eff) - v0 / r_eff
        assert measured == pytest.approx(lin.dshape_dt(lin.coefficients(2.5, c), c),
                                         abs=5e-3)


def test_linear_config_validation():
    with pytest.raises(ValueError):
        lin.LinearConfig(r0=-1, mode=2, params=FIG7)
    with pytest.raises(ValueError):
        lin.LinearConfig(r0=0.1, mode=1, params=FIG7)
    with pytest.raises(ValueError):
        lin.LinearConfig(r0=0.5, mode=2, params=FIG7, r_init=0.4)
    with pytest.warns(RuntimeWarning):
        lin.LinearConfig(r0=0.1, mode=2, params=FIG7, r_init=1.0, delta_init=0.5)


def test_linear_config_warns_on_amplitude_magnitude():
    # a negative amplitude is the same perturbation shifted by half a period
    with pytest.warns(RuntimeWarning):
        lin.LinearConfig(r0=0.1, mode=2, params=FIG7, r_init=1.0,
                         delta_init=-0.5)


@pytest.mark.parametrize("mode, per_set", [(2, 12), (3, 16), (6, 16)])
def test_one_bessel_table_per_coefficient_set(monkeypatch, mode, per_set):
    # I_n and K_n, n in {0, 1, l - 1, l}, once each at R and at R0: an RK4
    # step builds four coefficient sets and a stability curve one per
    # radius, and the rates read theirs without calling Bessel functions
    calls = [0]

    def counting(fn):
        def wrapped(n, x):
            calls[0] += 1
            return fn(n, x)
        return wrapped

    monkeypatch.setattr(lin, "bessel_i", counting(lin.bessel_i))
    monkeypatch.setattr(lin, "bessel_k", counting(lin.bessel_k))
    c = cfg(mode=mode)
    pred = lin.integrate_linear_odes(c, 1e-3, dt=1e-3)
    assert pred.times.size == 2
    assert calls[0] == 4 * per_set
    calls[0] = 0
    radii = np.linspace(0.5, 4.0, 5)
    lin.stability_curve(c, radii)
    assert calls[0] == radii.size * per_set


def test_full_run_tracks_linear_trajectory(tmp_path):
    # the paper's first verification claim: at small amplitude the full run
    # follows the linear model's (R, delta/R) trajectory.  fig7 constants,
    # eps_init = 0.01, N = 64, t = 0.2 (2 000 steps); the bounds are twice
    # the measured gaps (1.19e-5 and 3.55e-8), which scale as eps_init^2
    run_cfg = cfgmod.load_config(
        Path(__file__).resolve().parent.parent / "configs" / "fig7.cfg",
        n=64, n0=64, eps_init=0.01, t_final=0.2, record_interval=0.0,
        snapshot_interval=0.0, trace_interval=0.0)
    result = drv.run(run_cfg, out_dir=tmp_path)
    assert result.status == drv.RunStatus.COMPLETE, result.message
    pred = lin.integrate_linear_odes(
        lin.LinearConfig(r0=run_cfg.r0, mode=run_cfg.k_init,
                         params=run_cfg.params(), r_init=run_cfg.r_init,
                         delta_init=run_cfg.eps_init), run_cfg.t_final, dt=1e-3)
    times = result.record.column("time")
    rows = np.searchsorted(times, pred.times - 1e-12)
    assert np.allclose(times[rows], pred.times, rtol=0.0, atol=1e-12)
    gap_r = np.max(np.abs(result.record.column("r_eff")[rows] - pred.radius))
    gap_s = np.max(np.abs(result.record.column("delta_over_r")[rows]
                          - pred.delta_over_r))
    ok = gap_r <= 2.4e-5 and gap_s <= 7.1e-8
    record_acceptance(f"linear vs nonlinear trajectory (fig7, eps 0.01, N = 64, "
                      f"t = 0.2): {'PASS' if ok else 'FAIL'} |dR| {gap_r:.2e} "
                      f"<= 2.4e-05, |d(delta/R)| {gap_s:.2e} <= 7.1e-08")
    assert gap_r <= 2.4e-5
    assert gap_s <= 7.1e-8
