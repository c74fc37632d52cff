from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tumorbim import geometry as geo
from tumorbim.config import load_config

import oracles
from oracles import (equal_arclength_newton, polar_arclength, polar_area,
                     polar_curvature, read_snapshot, trig_interp)

TWO_PI = 2 * np.pi
PRESET_DIR = Path(__file__).resolve().parent.parent / "configs"


def radial_curve(n, r0=2.5, eps=0.1, k=2):
    a = geo.alpha_grid(n)
    r = r0 + eps * np.cos(k * a)
    return r * np.cos(a), r * np.sin(a)


class TestSpectralDerivative:
    def test_band_limited_first_derivative(self):
        a = geo.alpha_grid(64)
        out = geo.spectral_derivative(np.cos(3 * a))
        assert np.max(np.abs(out + 3 * np.sin(3 * a))) < 1e-12

    def test_constant_maps_to_zero(self):
        for order in (1, 2, 3):
            assert np.max(np.abs(geo.spectral_derivative(np.ones(32), order))) == 0.0

    def test_second_derivative_mixture(self):
        a = geo.alpha_grid(128)
        f = np.cos(2 * a) + 0.5 * np.sin(5 * a)
        expected = -4 * np.cos(2 * a) - 12.5 * np.sin(5 * a)
        assert np.max(np.abs(geo.spectral_derivative(f, 2) - expected)) < 1e-11

    @given(k=st.integers(min_value=0, max_value=15),
           phase=st.floats(min_value=0, max_value=6.0))
    @settings(max_examples=40, deadline=None)
    def test_exact_on_band_limited_modes(self, k, phase):
        a = geo.alpha_grid(64)
        f = np.cos(k * a + phase)
        expected = -k * np.sin(k * a + phase)
        assert np.max(np.abs(geo.spectral_derivative(f) - expected)) < 1e-11


class TestCurvature:
    def test_circle(self):
        state = geo.InterfaceState(theta=geo.alpha_grid(64) + np.pi / 2,
                                   s_alpha=2.5, ref_point=(2.5, 0.0))
        kappa = state.theta_alpha() / state.s_alpha
        assert np.max(np.abs(kappa - 1 / 2.5)) < 1e-12

    def test_against_polar_closed_form(self):
        n = 256
        x, y = radial_curve(n)
        smp = geo.PlanarCurveSamples.from_xy(x, y)
        expected = polar_curvature(lambda t: 2.5 + 0.1 * np.cos(2 * t),
                                   lambda t: -0.2 * np.sin(2 * t),
                                   lambda t: -0.4 * np.cos(2 * t),
                                   geo.alpha_grid(n))
        assert np.max(np.abs(smp.curvature - expected)) < 1e-10

    def test_ellipse_extrema(self):
        a = geo.alpha_grid(256)
        smp = geo.PlanarCurveSamples.from_xy(2 * np.cos(a), np.sin(a))
        # analytic: max curvature a/b^2 = 2 at the semi-major ends
        assert np.max(smp.curvature) == pytest.approx(2.0, rel=1e-10)
        assert smp.curvature[0] == pytest.approx(2.0, rel=1e-10)
        assert np.min(smp.curvature) == pytest.approx(2 / 8, rel=1e-10)


class TestEqualArclength:
    def test_circle_is_fixed_point(self):
        n = 64
        a = geo.alpha_grid(n)
        state = geo.equal_arclength_reparam(2.5 * np.cos(a), 2.5 * np.sin(a))
        assert state.s_alpha == pytest.approx(2.5, abs=1e-13)
        x, y = geo.reconstruct(state)
        assert np.max(np.hypot(x - 2.5 * np.cos(a), y - 2.5 * np.sin(a))) < 1e-12

    def test_arclength_against_quadrature(self):
        state = geo.initial_interface(2.5, 0.1, 2, 128)
        oracle = polar_arclength(lambda t: 2.5 + 0.1 * np.cos(2 * t),
                                 lambda t: -0.2 * np.sin(2 * t))
        assert state.s_alpha * TWO_PI == pytest.approx(oracle, rel=1e-10)

    def test_node_spacing_uniform_on_ellipse(self):
        n = 128
        a = geo.alpha_grid(n)
        state = geo.equal_arclength_reparam(2 * np.cos(a), np.sin(a))
        x, y = geo.reconstruct(state)
        # arc spacing = |x_alpha| h: uniform to the Newton tolerance
        smp = geo.PlanarCurveSamples.from_xy(x, y)
        dev = np.max(np.abs(smp.s_alpha - np.mean(smp.s_alpha)))
        assert dev / np.mean(smp.s_alpha) < 1e-10

    def test_metric_uniformity_postcondition(self):
        state = geo.initial_interface(2.5, 0.1, 2, 128)
        x, y = geo.reconstruct(state)
        smp = geo.PlanarCurveSamples.from_xy(x, y)
        dev = np.max(np.abs(smp.s_alpha - np.mean(smp.s_alpha)))
        assert dev / np.mean(smp.s_alpha) < 1e-10

    @pytest.mark.parametrize("n", [4, 64, 512, 1024])
    def test_table_evaluator_matches_mode_loop(self, rng, n):
        # bit for bit against the one-mode-at-a-time reference, at
        # non-uniform points
        samples = rng.standard_normal(n)
        points = np.sort(rng.uniform(-1.0, 2.0 * TWO_PI, n + 3))
        got = geo.trig_eval(np.fft.rfft(samples), geo.trig_table(points, n))
        assert np.array_equal(got, trig_interp(samples, points))

    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("rule", ["fig4", "fig7", "fig11", "grown"])
    def test_initial_interface_matches_reference_newton(self, rule, n):
        if rule == "grown":
            r_init, eps_init, k_init = 5.0, 0.3, 3
        else:
            cfg = load_config(PRESET_DIR / f"{rule}.cfg")
            r_init, eps_init, k_init = cfg.r_init, cfg.eps_init, cfg.k_init
        state = geo.initial_interface(r_init, eps_init, k_init, n)
        want, _ = equal_arclength_newton(*radial_curve(n, r_init, eps_init,
                                                       k_init))
        assert np.array_equal(state.theta, want.theta)
        assert state.s_alpha == want.s_alpha
        assert state.ref_point == want.ref_point

    def test_ellipse_matches_reference_newton(self):
        a = geo.alpha_grid(128)
        x, y = 2 * np.cos(a), np.sin(a)
        state = geo.equal_arclength_reparam(x, y)
        want, _ = equal_arclength_newton(x, y)
        assert np.array_equal(state.theta, want.theta)
        assert (state.s_alpha, state.ref_point) == (want.s_alpha,
                                                    want.ref_point)

    def test_one_table_per_newton_iterate(self, monkeypatch):
        tables, build = [], geo.trig_table

        def counted(points, n):
            tables.append(points)
            return build(points, n)

        monkeypatch.setattr(geo, "trig_table", counted)
        geo.initial_interface(2.5, 0.1, 2, 512)
        _, iterates = equal_arclength_newton(*radial_curve(512))
        assert iterates > 1 and len(tables) == iterates

    def test_newton_failure_raises(self):
        # too few nodes for this sharp shape: interpolation cannot resolve it
        a = geo.alpha_grid(8)
        r = 1 + 0.9 * np.cos(3 * a)
        with pytest.raises((geo.ReparamError, ValueError)):
            state = geo.equal_arclength_reparam(r * np.cos(a), r * np.sin(a),
                                                max_iter=2, tol=1e-15)
            raise ValueError("converged unexpectedly "
                             f"(s_alpha = {state.s_alpha})")


class TestReconstruct:
    def test_unit_circle_through_anchor(self):
        n = 64
        state = geo.InterfaceState(theta=geo.alpha_grid(n) + np.pi / 2,
                                   s_alpha=1.0, ref_point=(1.0, 0.0))
        x, y = geo.reconstruct(state)
        a = geo.alpha_grid(n)
        assert np.max(np.hypot(x - np.cos(a), y - np.sin(a))) < 1e-13

    def test_round_trip(self):
        n = 128
        x0, y0 = radial_curve(n)
        state = geo.equal_arclength_reparam(x0, y0)
        x, y = geo.reconstruct(state)
        r = np.hypot(x, y)
        angle = np.arctan2(y, x)
        assert np.max(np.abs(r - (2.5 + 0.1 * np.cos(2 * angle)))) < 1e-10

    def test_closure_with_mode_two_perturbation(self):
        n = 64
        a = geo.alpha_grid(n)
        state = geo.InterfaceState(theta=a + np.pi / 2 + 0.05 * np.cos(2 * a),
                                   s_alpha=1.3, ref_point=(0.4, -0.2))
        x, y = geo.reconstruct(state)
        # mean tangent removed: trapezoid closure defect is spectrally small
        smp = geo.PlanarCurveSamples.from_xy(x, y)
        assert abs(np.mean(smp.x_a)) < 1e-12
        assert abs(np.mean(smp.y_a)) < 1e-12


def smooth(f):
    """The 25th-order filter applied to samples through their rfft."""
    return np.fft.irfft(geo.fourier_filter_coeffs(np.fft.rfft(f), f.size), f.size)


class TestFilters:
    def test_smoothing_filter_keeps_constant(self):
        f = np.full(64, 3.7)
        assert np.max(np.abs(smooth(f) - f)) < 1e-14

    def test_smoothing_filter_damps_nyquist(self):
        n = 64
        f = np.cos((n // 2) * geo.alpha_grid(n))
        out = smooth(f)
        assert np.max(np.abs(out - np.exp(-10.0) * f)) < 1e-12

    def test_smoothing_filter_quarter_mode_untouched(self):
        n = 64
        f = np.cos((n // 4) * geo.alpha_grid(n))
        out = smooth(f)
        expected = np.exp(-10.0 * 2.0 ** -25)
        assert np.max(np.abs(out - expected * f)) < 1e-12
        assert abs(1.0 - expected) < 3.1e-7

    def test_krasny_keeps_large_coefficients(self):
        c = np.array([1.0, 1e-3, 5e-12, 0.2j])
        out = geo.krasny_filter(c, floor=1e-12)
        assert np.array_equal(out, c)

    def test_krasny_zeroes_subfloor(self):
        c = np.array([1.0, 1e-13, -1e-13j, 2e-12])
        out = geo.krasny_filter(c, floor=1e-12)
        assert out[1] == 0.0 and out[2] == 0.0
        assert out[0] == 1.0 and out[3] == 2e-12

    def test_krasny_energy_change_bound(self, rng):
        n = 64
        c = rng.normal(size=n) * 10.0 ** rng.uniform(-15, 0, size=n)
        floor = 1e-9
        out = geo.krasny_filter(c, floor=floor)
        assert np.sum(np.abs(c - out) ** 2) < n * floor ** 2


class TestAreaAndDiagnostics:
    def test_circle_area(self):
        a = geo.alpha_grid(64)
        smp = geo.PlanarCurveSamples.from_xy(2.5 * np.cos(a), 2.5 * np.sin(a))
        assert geo.area(smp) == pytest.approx(np.pi * 6.25, rel=1e-13)

    def test_polar_area_oracle(self):
        n = 128
        x, y = radial_curve(n)
        smp = geo.PlanarCurveSamples.from_xy(x, y)
        assert geo.area(smp) == pytest.approx(np.pi * (2.5 ** 2 + 0.1 ** 2 / 2), rel=1e-12)
        assert geo.area(smp) == pytest.approx(
            polar_area(lambda t: 2.5 + 0.1 * np.cos(2 * t)), rel=1e-10)

    def test_degenerate_curve(self):
        smp = geo.PlanarCurveSamples.from_xy(np.zeros(16), np.zeros(16))
        assert geo.area(smp) == 0.0

    def test_shape_diagnostics_circle(self):
        a = geo.alpha_grid(128)
        smp = geo.PlanarCurveSamples.from_xy(2.5 * np.cos(a), 2.5 * np.sin(a))
        r_eff, dor, ok = geo.shape_diagnostics(smp, 2)
        assert ok
        assert r_eff == pytest.approx(2.5, rel=1e-12)
        assert abs(dor) < 1e-12

    def test_shape_diagnostics_mode_two(self):
        state = geo.initial_interface(2.5, 0.1, 2, 256)
        r_eff, dor, ok = geo.shape_diagnostics(state.samples(), 2)
        assert ok
        assert dor == pytest.approx(0.04, abs=2e-3)

    def test_shape_diagnostics_orthogonal_mode(self):
        state = geo.initial_interface(2.5, 0.1, 2, 256)
        _, dor3, ok = geo.shape_diagnostics(state.samples(), 3)
        assert ok
        assert abs(dor3) < 1e-6

    @pytest.mark.parametrize("n", [16, 64, 512])
    @pytest.mark.parametrize("mode, r_func, centre", [
        pytest.param(2, lambda a: 2.5 + 0.1 * np.cos(2 * a), (0.3, -0.2),
                     id="off-centre"),
        pytest.param(3, lambda a: (1.0 + 0.2 * np.cos(3 * a + 1.0)
                                   + 0.05 * np.cos(5 * a)), (0.0, 0.0),
                     id="three-fold")])
    def test_shape_diagnostics_clockwise(self, n, mode, r_func, centre):
        # the same nodes in reverse order: a negative signed area, and polar
        # angles that decrease about the same centroid
        a = geo.alpha_grid(n)
        x = centre[0] + r_func(a) * np.cos(a)
        y = centre[1] + r_func(a) * np.sin(a)
        ccw = geo.shape_diagnostics(geo.PlanarCurveSamples.from_xy(x, y), mode)
        cw = geo.shape_diagnostics(
            geo.PlanarCurveSamples.from_xy(x[::-1], y[::-1]), mode)
        assert ccw[2] and cw[2]
        assert cw[0] == pytest.approx(ccw[0], rel=1e-14)
        assert cw[1] == pytest.approx(ccw[1], abs=1e-14)

    def test_non_star_shaped_flagged(self):
        a = geo.alpha_grid(256)
        # a kidney-like curve that is not star-shaped about its centroid
        x = np.cos(a) + 1.2 * np.cos(2 * a)
        y = 2.4 * np.sin(a)
        smp = geo.PlanarCurveSamples.from_xy(x, y)
        r_eff, dor, ok = geo.shape_diagnostics(smp, 2)
        assert not ok
        assert np.isnan(dor)
        assert np.isfinite(r_eff)


@st.composite
def star_rules(draw):
    """(alpha, r) of a random radial rule r = R (1 + sum eps_k cos(k a + c_k))
    with sum |eps_k| <= 0.3 at N nodes, N from 4 to 1024."""
    n = 2 ** draw(st.integers(2, 10))
    radius = draw(st.floats(0.5, 10.0))
    terms = draw(st.lists(st.tuples(st.integers(1, 6), st.floats(-0.1, 0.1),
                                    st.floats(0.0, TWO_PI)), max_size=3))
    a = geo.alpha_grid(n) + draw(st.floats(0.0, TWO_PI))
    r = np.ones(n)
    for k, eps, phase in terms:
        r += eps * np.cos(k * a + phase)
    return a, radius * r


class TestPeriodicSpline:
    @settings(max_examples=60, deadline=None)
    @given(rule=star_rules(), centre=st.tuples(st.floats(-0.05, 0.05),
                                               st.floats(-0.05, 0.05)),
           clockwise=st.booleans(), shift=st.floats(-10.0, 10.0))
    def test_matches_scipy_bitwise(self, rule, centre, clockwise, shift):
        # knots: the polar angles of the nodes about a point near the origin
        # (non-uniform spacing; the curve stays star-shaped about it), in
        # increasing order as shape_diagnostics puts them for a clockwise
        # curve; the points reach past both ends
        a, r = rule
        x = r * np.cos(a) - centre[0] * r.min()
        y = r * np.sin(a) - centre[1] * r.min()
        if clockwise:
            x, y = x[::-1], y[::-1]
        phi, rad = np.unwrap(np.arctan2(y, x)), np.hypot(x, y)
        if clockwise:
            phi, rad = phi[::-1], rad[::-1]
        assert np.all(np.diff(phi) > 0)
        knots = np.append(phi, phi[0] + TWO_PI) + shift
        values = np.append(rad, rad[0])
        m = max(512, a.size)
        points = knots[0] + 3 * TWO_PI * (np.arange(m) / m - 1 / 3)
        points = np.concatenate([points, knots])
        want = oracles.periodic_cubic_spline(knots, values, points)
        got = geo.periodic_spline(knots, values, points)
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(rule=star_rules(), mode=st.integers(2, 5))
    def test_shape_diagnostics_match_scipy_spline(self, rule, mode):
        a, r = rule
        smp = geo.PlanarCurveSamples.from_xy(r * np.cos(a), r * np.sin(a))
        got = geo.shape_diagnostics(smp, mode)
        assert np.array_equal(got, oracles.shape_diagnostics(smp, mode),
                              equal_nan=True)

    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("preset", ["fig4", "fig7", "fig11"])
    def test_shape_diagnostics_on_preset_starts(self, preset, n):
        cfg = load_config(PRESET_DIR / f"{preset}.cfg")
        smp = geo.initial_interface(cfg.r_init, cfg.eps_init, cfg.k_init,
                                    n).samples()
        got = geo.shape_diagnostics(smp, cfg.shape_mode)
        assert got == oracles.shape_diagnostics(smp, cfg.shape_mode)
        assert got[2]


def curve(r, a, centre=(0.0, 0.0)):
    return geo.PlanarCurveSamples.from_xy(centre[0] + r * np.cos(a),
                                          centre[1] + r * np.sin(a))


class TestBoundaryGap:
    """`min_gap_between` against the pass over all node pairs, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(rule=star_rules(), inner=st.tuples(st.integers(2, 9),
                                              st.floats(0.05, 0.95),
                                              st.floats(0.0, 0.3),
                                              st.integers(0, 4)),
           offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    def test_nested_either_way(self, rule, inner, offset):
        a, r = rule
        outer = curve(r, a)
        log_n0, scale, eps0, k0 = inner
        a0 = geo.alpha_grid(2 ** log_n0)
        r0 = scale * 0.7 * r.min() * (1 + eps0 * np.cos(k0 * a0))
        room = 0.7 * r.min() - r0.max()
        core = curve(r0, a0, (offset[0] * room, offset[1] * room))
        for first, second in ((core, outer), (outer, core)):
            assert geo.min_gap_between(first, second) \
                == oracles.min_gap_full(first, second)

    @pytest.mark.parametrize("gap", [1e-9, 1e-6, 1e-3])
    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_near_contact(self, gap, n):
        # the four tips of a four-fold core come within `gap` of a radius-10
        # circle, each on the ray of a circle node: four node pairs tie up to
        # rounding, and their pruning bounds are tight; turning the pair
        # rounds the coordinates off the axes
        for turn in 0.05 * np.arange(11):
            a = geo.alpha_grid(n) + turn
            a0 = geo.alpha_grid(n // 2) + turn
            core = curve((10.0 - gap) * (0.8 + 0.2 * np.cos(4 * (a0 - turn))),
                         a0)
            outer = curve(np.full(n, 10.0), a)
            for first, second in ((core, outer), (outer, core)):
                got = geo.min_gap_between(first, second)
                assert got == oracles.min_gap_full(first, second)
                assert got == pytest.approx(gap, rel=1e-5)

    @pytest.mark.parametrize("turn", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [64, 512])
    def test_tied_node_distances(self, n, turn):
        # concentric circles: every node of the outer circle is the same
        # distance from the core up to rounding, so the pruning bound ties
        # with the exact distances across the whole curve
        a = geo.alpha_grid(n)
        outer = curve(np.full(n, 9.5), a + turn * np.pi / n)
        for r0 in (1.0, 9.0, 9.5 - 1e-9):
            core = curve(np.full(n, r0), a)
            for first, second in ((core, outer), (outer, core)):
                assert geo.min_gap_between(first, second) \
                    == oracles.min_gap_full(first, second)

    def test_nan_propagates(self):
        a = geo.alpha_grid(16)
        outer = curve(np.full(16, 3.0), a)
        outer.x[5] = np.nan
        assert np.isnan(geo.min_gap_between(curve(np.ones(16), a), outer))
        assert np.isnan(geo.min_gap_between(outer, curve(np.ones(16), a)))


class TestSnapshotIO:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        state = geo.initial_interface(2.5, 0.1, 2, 64)
        state.time = 0.123456789012345
        path = tmp_path / "snap.txt"
        geo.write_snapshot(path, state)
        x, y, t, s = read_snapshot(path)
        xs, ys = geo.reconstruct(state)
        assert np.array_equal(x, xs) and np.array_equal(y, ys)
        assert t == state.time and s == state.s_alpha

    def test_corrupt_snapshot_rejected(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("8 0.0 1.0\n0.0 0.0\n")
        with pytest.raises(ValueError):
            read_snapshot(path)


def test_fixed_boundary_radial_rule():
    fb = geo.radial_boundary(1.0, 0.3, 3, 128)
    a = geo.alpha_grid(128)
    r = 1.0 + 0.3 * np.cos(3 * a)
    assert np.max(np.abs(np.hypot(fb.x, fb.y) - r)) < 1e-13
    norms = np.hypot(fb.normal_x, fb.normal_y)
    assert np.max(np.abs(norms - 1)) < 1e-12
    # circular rule: normals equal points / r0
    fb0 = geo.radial_boundary(0.5, 0.0, 0, 64)
    assert np.max(np.abs(fb0.normal_x - fb0.x / 0.5)) < 1e-12


def test_fixed_boundary_validation():
    with pytest.raises(ValueError):
        geo.radial_boundary(-1.0, 0, 0, 64)
    with pytest.raises(ValueError):
        geo.radial_boundary(1.0, 1.5, 2, 64)
    with pytest.raises(ValueError):
        geo.radial_boundary(1.0, -0.1, 2, 64)
    with pytest.raises(ValueError):
        geo.radial_boundary(1.0, 0.1, 1.5, 64)
