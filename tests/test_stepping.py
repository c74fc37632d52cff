import numpy as np
import pytest

from tumorbim import geometry as geo
from tumorbim import solver as sol
from tumorbim import stepping as stp

from oracles import hilbert_transform_pv

TWO_PI = 2 * np.pi


def circle_state(n=64, radius=1.0):
    return geo.InterfaceState(theta=geo.alpha_grid(n) + np.pi / 2,
                              s_alpha=radius, ref_point=(radius, 0.0))


def theta_alpha(theta):
    return 1.0 + geo.spectral_derivative(theta - geo.alpha_grid(theta.size))


def phi_hat(theta):
    return np.fft.rfft(theta - geo.alpha_grid(theta.size))


class TestTangentVelocity:
    def test_circle_constant_velocity(self):
        state = circle_state()
        t_vel = stp.tangent_velocity(state.theta_alpha(), np.full(state.n, 0.7))
        assert np.max(np.abs(t_vel)) < 1e-13

    def test_cosine_velocity_on_circle(self):
        n = 64
        a = geo.alpha_grid(n)
        state = circle_state(n)
        t_vel = stp.tangent_velocity(state.theta_alpha(), np.cos(a))
        # theta_a = 1: T = -int_0^a cos + (a/2pi) * 0 = -sin(a)
        assert np.max(np.abs(t_vel + np.sin(a))) < 1e-13

    def test_quadrature_oracle(self):
        # brute-force running integral of theta_a V on a fine grid
        n = 128
        a = geo.alpha_grid(n)
        theta = a + np.pi / 2 + 0.1 * np.cos(2 * a)
        v = 0.3 + np.sin(3 * a)
        t_vel = stp.tangent_velocity(theta_alpha(theta), v)
        fine = 1 << 14
        af = TWO_PI * np.arange(fine) / fine
        theta_af = 1.0 - 0.2 * np.sin(2 * af)
        vf = 0.3 + np.sin(3 * af)
        f = theta_af * vf
        run = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) / 2)]) * TWO_PI / fine
        mean = run[-1] + (f[0] + f[-1]) / 2 * TWO_PI / fine
        oracle = (a / TWO_PI) * mean - run[:: fine // n][:n] \
            - np.arange(n) / n * (f[0] * 0)  # running integral at the nodes
        assert np.max(np.abs(t_vel - oracle)) < 1e-6

    def test_periodic_with_zero_start(self):
        n = 64
        a = geo.alpha_grid(n)
        theta = a + 0.2 * np.sin(a)
        v = np.cos(2 * a) + 0.5
        t_vel = stp.tangent_velocity(theta_alpha(theta), v)
        assert t_vel[0] == 0.0


class TestNonlinearTerm:
    def test_smallscale_symbol(self):
        # (1/s^3) H[theta_aaa] acts as -|k|^3 / s^3 on mode k
        n = 64
        a = geo.alpha_grid(n)
        s_alpha = 1.7
        for k in (1, 3, 9):
            theta = a + np.cos(k * a)
            out = stp.smallscale_term(phi_hat(theta), n, s_alpha)
            expected = -(k ** 3) * np.cos(k * a) / s_alpha ** 3
            assert np.max(np.abs(out - expected)) < 1e-10

    def test_smallscale_sign_against_pv_quadrature(self):
        # the cotangent-kernel transform of theta_aaa fixes the sign
        n = 128
        a = geo.alpha_grid(n)
        k = 4
        theta_aaa = k ** 3 * np.sin(k * a)  # third derivative of cos(k a)
        direct = hilbert_transform_pv(theta_aaa)
        expected = -(k ** 3) * np.cos(k * a)
        assert np.max(np.abs(direct - expected)) < 1e-10

    def test_circle_constant_velocity_gives_zero(self):
        state = circle_state()
        v = np.full(state.n, 0.4)
        theta_a = state.theta_alpha()
        t_vel = stp.tangent_velocity(theta_a, v)
        n_term = stp.nonlinear_term(theta_a, phi_hat(state.theta), v, t_vel,
                                    state.s_alpha)
        # round-off in theta - alpha is amplified by k^3 in the third derivative
        assert np.max(np.abs(n_term)) < 1e-10

    def test_reconstruction_identity(self):
        # smallscale + N reproduces (theta_a T - V_a)/s exactly
        n = 128
        a = geo.alpha_grid(n)
        theta = a + np.pi / 2 + 0.2 * np.cos(3 * a)
        v = np.sin(2 * a) - 0.3 * np.cos(5 * a)
        s_alpha = 2.2
        theta_a = theta_alpha(theta)
        t_vel = stp.tangent_velocity(theta_a, v)
        n_term = stp.nonlinear_term(theta_a, phi_hat(theta), v, t_vel, s_alpha)
        rhs = (theta_a * t_vel - geo.spectral_derivative(v)) / s_alpha
        total = stp.smallscale_term(phi_hat(theta), n, s_alpha) + n_term
        assert np.max(np.abs(total - rhs)) < 1e-12


class TestSteps:
    def test_stationary_under_zero_velocity(self):
        # with V = 0 the explicit remainder cancels the small-scale term at
        # the PDE level; the scheme damps modes only at O((k^3 dt)^2) per
        # startup, so theta and s_alpha hold still over many steps
        n = 64
        a = geo.alpha_grid(n)
        state = geo.InterfaceState(theta=a + np.pi / 2 + 1e-3 * np.cos(2 * a),
                                   s_alpha=1.0, ref_point=(1.0, 0.0))
        v = np.zeros(n)
        dt = 2.5e-5
        st, hist = stp.first_step(state, v, dt)
        for _ in range(99):
            st, hist = stp.step(st, v, hist, dt)
        assert np.max(np.abs(st.theta - state.theta)) < 1e-10
        assert abs(st.s_alpha - 1.0) < 1e-12

    def test_first_step_zero_velocity_identity(self):
        state = circle_state()
        st, _ = stp.first_step(state, np.zeros(state.n), 1e-3)
        assert np.max(np.abs(st.theta - state.theta)) < 1e-12
        assert st.s_alpha == state.s_alpha

    def test_constant_velocity_grows_metric_exactly(self):
        # M = c on a circle: Euler then AB2 on a constant are exact
        n = 64
        c = 0.25
        state = circle_state(n)
        v = np.full(n, c)
        st, hist = stp.first_step(state, v, 1e-3)
        assert st.s_alpha == pytest.approx(1.0 + c * 1e-3, abs=1e-15)
        st2, _ = stp.step(st, v, hist, 1e-3)
        assert st2.s_alpha == pytest.approx(1.0 + 2 * c * 1e-3, abs=1e-15)
        # radius grows uniformly: curvature stays uniform
        kappa = st2.theta_alpha() / st2.s_alpha
        assert np.max(np.abs(kappa - 1.0 / st2.s_alpha)) < 1e-10

    def test_metric_collapse_raises_on_both_branches(self):
        # on a circle M = V, so V = -2 s/dt takes s_alpha to -s (starter)
        # and to s - 3 s = -2 s after a still first step (AB2)
        state = circle_state()
        dt = 1e-3
        v = np.full(state.n, -2.0 * state.s_alpha / dt)
        with pytest.raises(stp.SolverCollapse):
            stp.step(state, v, None, dt)
        st, hist = stp.first_step(state, np.zeros(state.n), dt)
        with pytest.raises(stp.SolverCollapse):
            stp.step(st, v, hist, dt)

    def test_reference_point_follows_normal(self):
        n = 64
        state = circle_state(n)
        v = np.full(n, 0.5)
        st, _ = stp.first_step(state, v, 1e-3)
        # outward normal at alpha = 0 is (1, 0)
        assert st.ref_point[0] == pytest.approx(1.0 + 0.5e-3, abs=1e-15)
        assert st.ref_point[1] == pytest.approx(0.0, abs=1e-15)


def _curvature_velocity(state):
    """Analytic velocity functional: smooth, geometry dependent."""
    return 1.0 - 0.5 * state.theta_alpha() / state.s_alpha + 0.1 * np.cos(
        2 * geo.alpha_grid(state.n))


def _advance(state, dt, n_steps):
    st, hist = stp.first_step(state, _curvature_velocity(state), dt)
    for _ in range(n_steps - 1):
        st, hist = stp.step(st, _curvature_velocity(st), hist, dt)
    return st


def smooth(f):
    """The 25th-order filter applied to samples through their rfft."""
    return np.fft.irfft(geo.fourier_filter_coeffs(np.fft.rfft(f), f.size), f.size)


class TestAccuracy:
    def test_first_step_local_order(self):
        # one Euler/propagator step has local error O(dt^2); step doubling
        # from the same state reduces the gap ~4x per halving
        state = geo.initial_interface(1.0, 0.05, 3, 64)
        errs = []
        for dt in (2e-4, 1e-4):
            one, _ = stp.first_step(state, _curvature_velocity(state), dt)
            two = _advance(state, dt / 2, 2)
            errs.append(np.max(np.abs(one.theta - two.theta)))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0

    def test_step_doubling_consistency(self):
        # composite startup + AB2 over a fixed horizon: step doubling gap
        # shrinks ~4x per halving (startup truncation dominates)
        base = geo.initial_interface(1.0, 0.05, 3, 64)
        errs = []
        for dt in (2e-4, 1e-4):
            coarse = _advance(base, dt, 2)
            fine = _advance(base, dt / 2, 4)
            errs.append(np.max(np.abs(coarse.theta - fine.theta)))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0

    def test_global_second_order_on_metric(self):
        state = geo.initial_interface(1.0, 0.05, 2, 64)
        t_final = 0.02
        s_vals = {}
        for dt in (4e-4, 2e-4, 1e-4):
            s_vals[dt] = _advance(state, dt, int(round(t_final / dt))).s_alpha
        e1 = abs(s_vals[4e-4] - s_vals[1e-4])
        e2 = abs(s_vals[2e-4] - s_vals[1e-4])
        rate = np.log2(e1 / e2)
        assert 1.5 < rate < 2.8

    def test_equal_arclength_preserved(self):
        state = geo.initial_interface(1.0, 0.08, 3, 128)
        st = _advance(state, 1e-4, 50)
        x, y = geo.reconstruct(st)
        smp = geo.PlanarCurveSamples.from_xy(x, y)
        dev = np.max(np.abs(smp.s_alpha - np.mean(smp.s_alpha)))
        assert dev / np.mean(smp.s_alpha) < 1e-8

    def test_filter_idempotent_on_low_modes(self):
        n = 128
        a = geo.alpha_grid(n)
        f = np.cos((n // 4) * a) + 0.3 * np.sin(3 * a)
        once = smooth(f)
        twice = smooth(once)
        fh_once = np.fft.rfft(once)
        fh_twice = np.fft.rfft(twice)
        low = np.arange(n // 4 + 1)
        rel = np.abs(fh_twice[low] - fh_once[low]) / (np.abs(fh_once[low]) + 1e-30)
        assert np.max(rel[np.abs(fh_once[low]) > 1e-8]) < 1e-6


@pytest.mark.slow
class TestStiffnessRemoval:
    def test_integrating_factors_stabilize_tumor_velocity(self, monkeypatch):
        # real tumor velocity on a curvature-stiff configuration: the
        # adhesion-driven high-mode damping rate is ginv k^3 / s^3, so with
        # ginv = 0.05, s ~ 1, k_max = 128 the explicit scheme (integrating
        # factors forced to 1) sits far outside the AB2 stability interval
        # at dt = 1e-4 while the integrating-factor scheme stays bounded
        n = 256
        dt = 1e-4
        params = sol.Params(p=5, a=0.25, chi=10, beta=0.5, sigma_n=0.2,
                            ginv=0.05)
        g0 = geo.radial_boundary(0.1, 0, 0, n)
        solver = sol.FieldSolver(g0, params)

        def spectrum_growth():
            state = geo.initial_interface(1.0, 0.05, 2, n)
            hist = None
            initial = None
            high = None
            for i in range(200):
                gamma = state.samples()
                try:
                    fields = solver.solve(gamma)
                except sol.SolverFailure:
                    return np.inf
                v = sol.normal_velocity(fields, gamma, params)
                if not np.all(np.isfinite(v)):
                    return np.inf
                if hist is None:
                    state, hist = stp.first_step(state, v, dt)
                else:
                    state, hist = stp.step(state, v, hist, dt)
                high = np.max(np.abs(
                    np.fft.rfft(state.theta - geo.alpha_grid(n)))[n // 4:])
                if initial is None:
                    initial = max(high, 1e-14)
                if not np.isfinite(high) or high / initial > 1e10:
                    return np.inf
            return high / initial

        assert spectrum_growth() < 1e2
        monkeypatch.setattr(stp, "_integrating_factor",
                            lambda k3, integral: np.ones_like(k3))
        assert spectrum_growth() > 1e6
