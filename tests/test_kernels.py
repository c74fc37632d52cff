from pathlib import Path

import numpy as np
import pytest
from scipy.special import i0, i1, k0, k1, kv

from tumorbim import bessel
from tumorbim import config as cfgmod
from tumorbim import geometry as geo
from tumorbim import kernels as ker

from conftest import (assert_same_floats, check_memory_gate, i0_i1_k0_arrays,
                      pair_array_peak)
from oracles import (DOUBLE, HELMHOLTZ, LAPLACE, SINGLE, eval_at_points,
                     richardson_limit)

TWO_PI = 2 * np.pi


def circle(n, radius=1.0):
    a = geo.alpha_grid(n)
    return geo.PlanarCurveSamples.from_xy(radius * np.cos(a), radius * np.sin(a))


def wavy(n, r0=2.5, eps=0.1, k=2):
    a = geo.alpha_grid(n)
    r = r0 + eps * np.cos(k * a)
    return geo.PlanarCurveSamples.from_xy(r * np.cos(a), r * np.sin(a))


# ---------------------------------------------------------------------------
# test-side log split: kernel*metric = G1 ln(2|sin((a - a')/2)|) + G2, with
# Kress's rule Q on the log part and the trapezoid rule h on the rest


def kress_matrix(n):
    """Q[i, j] = q_{|i-j|} from the Kress weights of n = 2m nodes."""
    i = np.arange(n)
    return ker.kress_weights(n // 2)[np.abs(i[:, None] - i[None, :])]


def log_sin_matrix(n):
    """ln(2 |sin((a_i - a_j)/2)|) on the node grid, zero on the diagonal."""
    a = geo.alpha_grid(n)
    with np.errstate(divide="ignore"):
        ls = np.log(2.0 * np.abs(np.sin(0.5 * (a[:, None] - a[None, :]))))
    np.fill_diagonal(ls, 0.0)
    return ls


def kress_reference(g1, g2):
    """The Nystrom matrix Q G1 + h G2 of a split kernel."""
    n = g2.shape[0]
    return kress_matrix(n) * g1 + (TWO_PI / n) * g2


def full_geometry(bnd):
    """(r, h_ker) on every node pair: the distances by hypot and the
    double-layer factors (x_t - x_s).n_s m_s/(2pi r), zero on the diagonal."""
    dx = bnd.x[:, None] - bnd.x[None, :]
    dy = bnd.y[:, None] - bnd.y[None, :]
    r = np.hypot(dx, dy)
    safe = np.where(r == 0.0, 1.0, r)
    h_ker = (dx * bnd.normal_x[None, :] + dy * bnd.normal_y[None, :]) \
        * bnd.s_alpha[None, :] / (TWO_PI * safe)
    return r, h_ker


def helmholtz_split(bnd):
    """((G1, G2) single, (G1, G2) double) of the modified-Helmholtz layers,
    with scipy on every entry of r and the analytic diagonal limits."""
    r, h_ker = full_geometry(bnd)
    ls = log_sin_matrix(bnd.n)
    m = bnd.s_alpha
    safe = np.where(r == 0.0, 1.0, r)
    i0r, i1r, k0r, k1r = i0(r), i1(r), k0(safe), k1(safe)
    g1 = -i0r * m[None, :] / TWO_PI
    g2 = (k0r + i0r * ls) * m[None, :] / TWO_PI
    np.fill_diagonal(g2, -(np.euler_gamma + np.log(m / 2.0)) * m / TWO_PI)
    g1d = h_ker * i1r
    np.fill_diagonal(g1d, 0.0)
    g2d = h_ker * (k1r - i1r * ls)
    np.fill_diagonal(g2d, -(bnd.x_a * bnd.y_aa - bnd.x_aa * bnd.y_a)
                     / (2.0 * TWO_PI * (bnd.x_a ** 2 + bnd.y_a ** 2)))
    return (g1, g2), (g1d, g2d)


def laplace_single_split(bnd):
    """(G1, G2) of the Laplace single layer."""
    m = bnd.s_alpha
    g1 = -m[None, :] / TWO_PI
    r, _ = full_geometry(bnd)
    safe = np.where(r == 0.0, 1.0, r)
    g2 = -np.log(safe) * m[None, :] / TWO_PI - g1 * log_sin_matrix(bnd.n)
    np.fill_diagonal(g2, -np.log(m) * m / TWO_PI)
    return g1, g2


def self_matrices(blocks, geom):
    """The n x n (single, double) self blocks of `blocks(geom)`, from the
    walk of `kernels.self_rows`."""
    n = geom.bnd.n
    single, double = np.empty((n, n)), np.empty((n, n))
    for rows, d_rows in ker.self_rows(geom, blocks(geom), single):
        double[rows] = d_rows
    return single, double


def smooth_part(block, g1):
    """G2 recovered from a block Q G1 + h G2 and its G1."""
    n = block.shape[0]
    return (block - kress_matrix(n) * g1) / (TWO_PI / n)


class TestKressWeights:
    def test_m_one_closed_form(self):
        q = ker.kress_weights(1)
        assert q == pytest.approx([-np.pi / 2, np.pi / 2], abs=1e-15)

    @pytest.mark.parametrize("m", [1, 4, 32, 128, 256])
    def test_weights_sum_to_zero(self, m):
        assert abs(np.sum(ker.kress_weights(m))) < 1e-13

    def test_log_kernel_eigenvalues(self):
        # the log kernel acts as -(pi/|k|) on mode k
        n = 256
        a = geo.alpha_grid(n)
        q_mat = kress_matrix(n)
        for k in (1, 2, 7, 33, 64):
            for f in (np.cos(k * a), np.sin(k * a)):
                err = np.max(np.abs(q_mat @ f + (np.pi / k) * f))
                assert err < 1e-12

    def test_constant_annihilated(self):
        n = 128
        q_mat = kress_matrix(n)
        assert np.max(np.abs(q_mat @ np.ones(n))) < 1e-13


class TestLogSplit:
    # each self block is checked against Q G1 + h G2 of the test-side split

    def test_split_recombines_offdiagonal(self):
        bnd = wavy(64)
        ls = log_sin_matrix(64)
        geom = ker.self_geometry(bnd)
        r, h_ker = full_geometry(bnd)
        safe = np.where(r == 0.0, 1.0, r)
        off = ~np.eye(64, dtype=bool)
        helm_single, helm_double = helmholtz_split(bnd)
        helm = self_matrices(ker.helmholtz_self_blocks, geom)
        cases = [
            (self_matrices(ker.laplace_self_blocks, geom)[0],
             laplace_single_split(bnd),
             -np.log(safe) * bnd.s_alpha[None, :] / TWO_PI),
            (helm[0], helm_single, k0(safe) * bnd.s_alpha[None, :] / TWO_PI),
            (helm[1], helm_double, h_ker * k1(safe)),
        ]
        for block, (g1, g2), direct in cases:
            # the reference split recombines to the kernel off the diagonal,
            # and the block is its Kress-trapezoid matrix
            assert np.max(np.abs((g1 * ls + g2 - direct)[off])) < 1e-13
            assert np.max(np.abs(smooth_part(block, g1) - g2)) < 1e-13

    def test_laplace_single_antipode(self):
        bnd = circle(64)
        s_mat, _ = self_matrices(ker.laplace_self_blocks, ker.self_geometry(bnd))
        # antipodal pair on the unit circle: kernel = -(1/2pi) ln 2, G1 = -1/2pi
        g1 = -1.0 / TWO_PI
        val = g1 * np.log(2.0) + smooth_part(s_mat, g1)[0, 32]
        assert val == pytest.approx(-np.log(2.0) / TWO_PI, abs=1e-14)

    def test_laplace_single_diagonal(self):
        bnd = wavy(64)
        s_mat, _ = self_matrices(ker.laplace_self_blocks, ker.self_geometry(bnd))
        g1 = -bnd.s_alpha / TWO_PI
        expected = -np.log(bnd.s_alpha) * bnd.s_alpha / TWO_PI
        assert np.max(np.abs(np.diag(smooth_part(s_mat, g1)) - expected)) < 1e-14

    def test_helmholtz_single_diagonal_limit(self):
        # G2(a, a) is the r -> 0 limit of (K0 + I0 ln 2|sin|) m/2pi:
        # -(C + ln(s_alpha/2)) m / 2pi from the K0 expansion
        bnd = wavy(128)
        s_mat, _ = self_matrices(ker.helmholtz_self_blocks, ker.self_geometry(bnd))
        g2 = smooth_part(s_mat, -i0(full_geometry(bnd)[0]) * bnd.s_alpha[None, :]
                         / TWO_PI)
        expected = -(np.euler_gamma + np.log(bnd.s_alpha / 2)) * bnd.s_alpha / TWO_PI
        assert np.max(np.abs(np.diag(g2) - expected)) < 1e-13
        # numeric limit along the off-diagonal confirms the closed form
        assert g2[0, 1] == pytest.approx(expected[0], rel=2e-3)

    def test_helmholtz_double_diagonal_is_minus_kss_over_4pi(self):
        # limit of h K1(r): -(1/4pi)(x_a y_aa - x_aa y_a)/s_alpha^2, which is
        # -1/(4pi) on the unit circle (counterclockwise, outward normal)
        bnd = circle(64)
        _, d_mat = self_matrices(ker.helmholtz_self_blocks, ker.self_geometry(bnd))
        r, h_ker = full_geometry(bnd)
        g1 = h_ker * i1(r)
        g2 = smooth_part(d_mat, g1)
        assert np.diag(g2) == pytest.approx(np.full(64, -1.0 / (2 * TWO_PI)), abs=1e-14)
        # confirm against the numeric limit of the full kernel along row 0
        ls = log_sin_matrix(64)
        vals = []
        for j in (1, 2):
            full = h_ker[0, j] * k1(r[0, j])
            vals.append(full - g1[0, j] * ls[0, j])
            assert g2[0, j] == pytest.approx(vals[-1], abs=1e-13)
        # second-order Richardson in the node offset
        extrap = (4 * vals[0] - vals[1]) / 3.0
        assert extrap == pytest.approx(-1.0 / (2 * TWO_PI), rel=1e-3)


class TestGaussAndJumpIdentities:
    def test_double_layer_pv_on_boundary(self):
        for bnd in (circle(256), wavy(256)):
            _, d_mat = self_matrices(ker.laplace_self_blocks, ker.self_geometry(bnd))
            assert np.max(np.abs(d_mat @ np.ones(bnd.n) + 0.5)) < 1e-10

    def test_double_layer_inside_outside(self):
        outer = wavy(128)
        inner = circle(128, radius=0.4)
        # one cross geometry serves both directions
        _, d_in_to_out, _, d_out_to_in = cross_matrices(
            ker.laplace_cross_blocks(
                ker.cross_geometry(ker.CrossSource(inner), outer)), 128, 128)
        inside = d_out_to_in @ np.ones(128)
        outside = d_in_to_out @ np.ones(128)
        assert np.max(np.abs(inside + 1.0)) < 1e-12
        assert np.max(np.abs(outside)) < 1e-12

    def test_jump_relations_by_richardson(self):
        # interior and exterior limits differ by the density; the evaluation
        # at distance d resolves the near-singularity by upsampling the
        # source so that N_fine * d stays >> 1
        bnd = circle(256)
        a = geo.alpha_grid(256)
        density = 1.0 + 0.3 * np.cos(2 * a)
        idx = [0, 40, 133]
        pts_on = np.column_stack([bnd.x[idx], bnd.y[idx]])
        nrm = np.column_stack([bnd.normal_x[idx], bnd.normal_y[idx]])
        jumps = {}
        for h, up in ((1e-4, 1024), (1e-5, 8192)):
            din = eval_at_points(LAPLACE, DOUBLE, bnd,
                                     pts_on - h * nrm, density, upsample=up)
            dout = eval_at_points(LAPLACE, DOUBLE, bnd,
                                      pts_on + h * nrm, density, upsample=up)
            jumps[h] = din - dout
        extrap = richardson_limit(jumps[1e-4], jumps[1e-5])
        assert np.max(np.abs(extrap + density[idx])) < 1e-6

    def test_pv_is_average_of_limits(self):
        bnd = wavy(256)
        a = geo.alpha_grid(256)
        density = 1.0 + 0.3 * np.cos(3 * a)
        d_mat = self_matrices(ker.laplace_self_blocks, ker.self_geometry(bnd))[1]
        d_pv = (d_mat @ density)[:1]
        pts = np.array([[bnd.x[0], bnd.y[0]]])
        nrm = np.array([[bnd.normal_x[0], bnd.normal_y[0]]])
        avg = {}
        for h, up in ((1e-4, 1024), (1e-5, 8192)):
            din = eval_at_points(LAPLACE, DOUBLE, bnd, pts - h * nrm,
                                     density, upsample=up)
            dout = eval_at_points(LAPLACE, DOUBLE, bnd, pts + h * nrm,
                                      density, upsample=up)
            avg[h] = 0.5 * (din + dout)
        extrap = richardson_limit(avg[1e-4], avg[1e-5])
        assert extrap == pytest.approx(d_pv, abs=2e-6)


class TestGreenRepresentation:
    def test_laplace_interior_representation(self):
        # u harmonic inside the curve: D[u] - S[du/dn] = -u at interior points
        bnd = wavy(128)
        u = lambda x, y: (x + 1j * y).real ** 2 - (x + 1j * y).imag ** 2
        du = lambda x, y, nx, ny: 2 * x * nx - 2 * y * ny
        trace = u(bnd.x, bnd.y)
        flux = du(bnd.x, bnd.y, bnd.normal_x, bnd.normal_y)
        pts = np.array([[0.3, -0.2], [1.0, 0.5]])
        val = eval_at_points(LAPLACE, DOUBLE, bnd, pts, trace) \
            - eval_at_points(LAPLACE, SINGLE, bnd, pts, flux)
        assert np.max(np.abs(val + u(pts[:, 0], pts[:, 1]))) < 1e-12

    def test_helmholtz_interior_representation(self):
        # u = I0(|x|) solves (Lap - 1) u = 0 inside the curve
        bnd = wavy(128)
        r_b = np.hypot(bnd.x, bnd.y)
        trace = i0(r_b)
        flux = i1(r_b) * (bnd.x * bnd.normal_x + bnd.y * bnd.normal_y) / r_b
        pts = np.array([[0.5, 0.1], [-0.7, 0.9]])
        val = eval_at_points(HELMHOLTZ, DOUBLE, bnd, pts, trace) \
            - eval_at_points(HELMHOLTZ, SINGLE, bnd, pts, flux)
        r_p = np.hypot(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(val + i0(r_p))) < 1e-12

    def test_helmholtz_single_layer_center_value(self):
        # constant density on a circle: S[1](0) = R K0(R) I0(0)
        for radius in (0.8, 2.5):
            bnd = circle(256, radius=radius)
            val = eval_at_points(HELMHOLTZ, SINGLE, bnd,
                                     np.array([[0.0, 0.0]]), np.ones(256))
            assert val[0] == pytest.approx(radius * k0(radius), rel=1e-13)

    def test_laplace_single_layer_center_of_unit_circle(self):
        bnd = circle(128, radius=1.0)
        val = eval_at_points(LAPLACE, SINGLE, bnd,
                                 np.array([[0.0, 0.0]]), np.ones(128))
        assert abs(val[0]) < 1e-14


class TestSelfMatrices:
    def test_laplace_single_symmetric_up_to_metric(self):
        bnd = wavy(64)
        s_mat, _ = self_matrices(ker.laplace_self_blocks, ker.self_geometry(bnd))
        # kernel symmetric in (i, j): matrix / m_j is symmetric
        sym = s_mat / bnd.s_alpha[None, :]
        assert np.max(np.abs(sym - sym.T)) < 1e-13

    def test_helmholtz_single_spectral_convergence(self):
        # value of S[cos 2a] at node 0 converges spectrally fast in n
        vals = []
        for n in (32, 64, 128):
            bnd = wavy(n)
            a = geo.alpha_grid(n)
            s_mat, _ = self_matrices(ker.helmholtz_self_blocks, ker.self_geometry(bnd))
            vals.append((s_mat @ np.cos(2 * a))[0])
        assert abs(vals[1] - vals[2]) < 1e-10
        assert abs(vals[0] - vals[2]) < 1e-6

    def test_alternating_rule_matches_fine_trapezoid(self):
        # Laplace DLP of a smooth density: alternating rule vs upsampled eval
        bnd = wavy(128)
        a = geo.alpha_grid(128)
        density = np.exp(np.cos(a))
        d_mat = self_matrices(ker.laplace_self_blocks, ker.self_geometry(bnd))[1]
        coarse = d_mat @ density
        pts = np.column_stack([bnd.x[:2], bnd.y[:2]])
        nrm = np.column_stack([bnd.normal_x[:2], bnd.normal_y[:2]])
        vals = {}
        for h, up in ((1e-4, 2048), (1e-5, 16384)):
            din = eval_at_points(LAPLACE, DOUBLE, bnd, pts - h * nrm,
                                     density, upsample=up)
            dout = eval_at_points(LAPLACE, DOUBLE, bnd, pts + h * nrm,
                                      density, upsample=up)
            vals[h] = 0.5 * (din + dout)
        extrap = richardson_limit(vals[1e-4], vals[1e-5])
        assert np.max(np.abs(extrap - coarse[:2])) < 1e-6


def full_distances(bnd):
    """sqrt(dx dx + dy dy) on every node pair, bitwise symmetric, with the
    numerators (x_t - x_s).n_s m_s/2pi, in the builder's operation order."""
    dx = bnd.x[:, None] - bnd.x[None, :]
    dy = bnd.y[:, None] - bnd.y[None, :]
    metric = bnd.s_alpha / TWO_PI
    dipole = dx * (bnd.normal_x * metric) + dy * (bnd.normal_y * metric)
    return np.sqrt(dx * dx + dy * dy), dipole


# bessel.TILE of a walk in one row block of n nodes, and of one in blocks of
# three rows (the last one shorter where 3 does not divide n)
BLOCKS = {"one": lambda n: n * n, "several": lambda n: 3 * n}


def test_self_distances_symmetric_bitwise(monkeypatch):
    # the pairs i <= j, expanded, are the bitwise-symmetric full matrix, and
    # the numerators are the full matrix's, from one row block or several
    bnd = wavy(64, eps=0.3, k=3)
    r, dipole = full_distances(bnd)
    assert np.array_equal(r, r.T)
    for tile in BLOCKS.values():
        monkeypatch.setattr(bessel, "TILE", tile(64))
        geom = ker.self_geometry(bnd)
        expanded = geom.r[ker._triangle(64).place]
        np.fill_diagonal(expanded, 0.0)
        assert np.array_equal(expanded, r)
        assert_same_floats(geom.dipole, dipole)


@pytest.mark.parametrize("bnd", [wavy(64, eps=0.3, k=3), wavy(8), circle(4),
                                 geo.initial_interface(5.0, 0.3, 3, 512).samples()])
def test_self_geometry_gap_is_min_self_gap(bnd):
    # n <= 8 leaves no pair far enough apart: both read inf
    assert ker.self_geometry(bnd).gap == geo.min_self_gap(bnd)


@pytest.mark.parametrize("n", [8, 16, 64, 512])
def test_far_pairs_are_the_triangle_pairs_not_near(n):
    # near: at most max(4, n/16) positions apart around the ring
    idx = np.arange(n)
    sep = np.abs(idx[:, None] - idx[None, :])
    near = np.minimum(sep, n - sep) <= max(4, n // 16)
    tri = ker._triangle(n)
    assert np.array_equal(np.flatnonzero(tri.far),
                          np.flatnonzero(~near.ravel()[tri.flat]))


def expand(pairs, place, factor):
    """The n x n block of the pair values times `factor` (the source metric
    or the double-layer numerators), as the blocks were formed whole."""
    block = np.take(pairs, place)
    return np.multiply(block, factor, out=block)


def expanded_self_blocks(bnd, blocks):
    """The n x n (single, double) blocks of the `SelfBlocks` of `bnd`,
    expanded whole with the numerators of `full_distances`."""
    place = ker._triangle(bnd.n).place
    single = expand(blocks.single, place, bnd.s_alpha / TWO_PI)
    double = expand(blocks.double, place, full_distances(bnd)[1])
    np.fill_diagonal(single, blocks.single_diag)
    np.fill_diagonal(double, blocks.double_diag)
    return single, double


@pytest.mark.parametrize("blocks", BLOCKS)
@pytest.mark.parametrize("n", [8, 64, 512])
@pytest.mark.parametrize("preset", ["fig7", "fig11"])
@pytest.mark.parametrize("kernel", [ker.helmholtz_self_blocks,
                                    ker.laplace_self_blocks])
def test_walk_matches_full_expansion(monkeypatch, kernel, preset, n, blocks):
    # the S rows, D rows and numerator rows of the row-block walk are, bit
    # for bit, the blocks expanded whole from the same brackets
    monkeypatch.setattr(bessel, "TILE", BLOCKS[blocks](n))
    bnd = preset_boundary(preset, n)
    geom = ker.self_geometry(bnd)
    assert_same_floats(geom.dipole, full_distances(bnd)[1])
    pairs = kernel(geom)
    want_single, want_double = expanded_self_blocks(bnd, pairs)
    single = np.full((n, n), np.nan)
    walked = []
    for rows, d_rows in ker.self_rows(geom, pairs, single):
        walked.append((rows.start, rows.stop))
        assert_same_floats(d_rows, want_double[rows])
    step = min(n, max(1, bessel.TILE // n))
    assert walked == [(lo, min(n, lo + step)) for lo in range(0, n, step)]
    assert (len(walked) == 1) == (blocks == "one")
    assert_same_floats(single, want_single)


@pytest.mark.parametrize("kernel", [ker.helmholtz_self_blocks,
                                    ker.laplace_self_blocks])
def test_self_blocks_write_single_into_strided_block(kernel):
    # the single layer the walk writes into a block of a larger buffer is
    # the one it writes into an array of its own, bit for bit; the rest of
    # the buffer is untouched and the double layer's rows are unchanged
    bnd = wavy(64, eps=0.3, k=3)
    geom = ker.self_geometry(bnd)
    single, double = self_matrices(kernel, geom)
    buf = np.zeros((96, 96))
    got_double = np.empty((64, 64))
    for rows, d_rows in ker.self_rows(geom, kernel(geom), buf[32:, 32:]):
        got_double[rows] = d_rows
    assert np.array_equal(buf[32:, 32:], single)
    assert not np.any(buf[:32]) and not np.any(buf[:, :32])
    assert np.array_equal(got_double, double)


def test_helmholtz_self_pass_peak_memory():
    # the brackets are formed tile by tile as the Bessel pass yields them,
    # and the walk writes the single layer into a held n x n block: beside
    # the two bracket pair arrays the pass holds at most 1.5 arrays of the
    # n(n + 1)/2 node pairs at any time (it held 2.5 beside two n x n
    # blocks, and 5 when each bracket allocated its own operands)
    n = 512

    def call(built):
        geom, single = built
        pairs = ker.helmholtz_self_blocks(geom)
        for _ in ker.self_rows(geom, pairs, single):
            pass
        return pairs

    pairs, peak = pair_array_peak(
        n, lambda: (ker.self_geometry(wavy(n)), np.empty((n, n))), call)
    brackets = (pairs.single.nbytes + pairs.double.nbytes) / (4 * n * (n + 1))
    check_memory_gate("Helmholtz self pass beside its brackets (N = 512)",
                      peak - brackets, 1.5)


def full_matrix_self_blocks(bnd):
    """The Helmholtz self blocks' brackets with I0, I1 and K0 from one
    `bessel.i0_i1_k0` pass over every node pair (whose largest distance, and
    so its term count, is the upper triangle's) and the Wronskian
    K1 = (1/r - I1 K0)/I0, with the self distances set to 1, in the
    builders' operation order:
    W = h L - Q with L from the node offsets, (h K0 + I0 W) m/2pi and
    ((h K1 - I1 W)/r) P with P the double-layer numerators, and the
    diagonals q_0 G1 + h G2."""
    r, dipole = full_distances(bnd)
    safe = np.where(r == 0.0, 1.0, r)
    n = bnd.n
    h = TWO_PI / n
    offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    with np.errstate(divide="ignore"):
        ls = np.log(2.0 * np.sin(np.pi * np.minimum(offset, n - offset) / n))
    np.fill_diagonal(ls, 0.0)
    w = h * ls - kress_matrix(n)
    scale = bnd.s_alpha / TWO_PI
    i0s, i1s, k0s = (a.reshape(n, n) for a in i0_i1_k0_arrays(safe.ravel()))
    inv = 1.0 / safe
    k1s = (inv - i1s * k0s) / i0s
    single = (h * k0s + i0s * w) * scale
    double = ((h * k1s - i1s * w) * inv) * dipole
    diag = w[0, 0] - h * (np.euler_gamma + np.log(bnd.s_alpha / 2.0))
    np.fill_diagonal(single, diag * scale)
    np.fill_diagonal(double, -h * (bnd.x_a * bnd.y_aa - bnd.x_aa * bnd.y_a)
                     / (2.0 * TWO_PI * (bnd.x_a ** 2 + bnd.y_a ** 2)))
    return single, double


@pytest.mark.parametrize("bnd", [wavy(64, eps=0.3, k=3), circle(32, radius=0.5)])
def test_upper_triangle_bessel_matches_full_matrix(bnd):
    geom = ker.self_geometry(bnd)
    for block, want in zip(self_matrices(ker.helmholtz_self_blocks, geom),
                           full_matrix_self_blocks(bnd)):
        assert np.array_equal(block, want)


# the static Gamma0 of fig11 (three-fold core) and the fig7 interface
def preset_boundary(preset, n):
    g0, g = preset_pair(preset, n)
    return g0 if preset == "fig11" else g


# largest gaps (S_H, D_H, S_L) to the reference on a grown interface, R = 5:
# twice those of the blocks before the single pair pass
GROWN_BOUNDS = {64: (5.5e-13, 2.6e-12, 5.1e-15), 512: (6.2e-13, 1.8e-11, 2.4e-14)}


@pytest.mark.parametrize("preset", ["fig7", "fig11", "grown"])
@pytest.mark.parametrize("n", [64, 512])
def test_self_blocks_match_kress_reference(preset, n):
    # the one-pass blocks against Q G1 + h G2 of the test-side split, as a
    # relative error scaled by the reference's largest entry
    if preset == "grown":
        bnd = geo.initial_interface(5.0, 0.3, 3, n).samples()
        bounds = GROWN_BOUNDS[n]
    else:
        bnd = preset_boundary(preset, n)
        bounds = (1e-13,) * 3
    geom = ker.self_geometry(bnd)
    helm_single, helm_double = self_matrices(ker.helmholtz_self_blocks, geom)
    lap_single, lap_double = self_matrices(ker.laplace_self_blocks, geom)
    split_single, split_double = helmholtz_split(bnd)
    for block, split, bound in ((helm_single, split_single, bounds[0]),
                                (helm_double, split_double, bounds[1]),
                                (lap_single, laplace_single_split(bnd), bounds[2])):
        assert max_rel_gap(block, kress_reference(*split)) <= bound
    # the double layer keeps the alternating-point rule
    r, h_ker = full_geometry(bnd)
    odd = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) % 2 == 1
    alternating = np.where(odd, 2.0 * (TWO_PI / n) * h_ker / np.where(odd, r, 1.0), 0.0)
    assert max_rel_gap(lap_double, alternating) <= 1e-13


def test_cross_matrix_rejects_touching():
    bnd = wavy(64)
    with pytest.raises(ValueError):
        ker.cross_geometry(ker.CrossSource(bnd), bnd)


def test_cross_blocks_serve_both_directions():
    # the reverse blocks of one dense cross geometry equal, bit for bit, the
    # forward blocks of the swapped pair, and are C-ordered like them
    outer, inner = wavy(64), circle(32, radius=0.5)
    for blocks in (ker.helmholtz_cross_blocks, ker.laplace_cross_blocks):
        both = blocks(ker.dense_cross_geometry(inner, outer))
        swapped = blocks(ker.dense_cross_geometry(outer, inner))
        for rev, fwd in zip(both[2:], swapped[:2]):
            assert rev.shape == (32, 64) and rev.flags.c_contiguous
            assert np.array_equal(rev, fwd)


# ---------------------------------------------------------------------------
# separable cross blocks against the dense ones

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CROSS_BLOCKS = (ker.helmholtz_cross_blocks, ker.laplace_cross_blocks)


def preset_pair(preset, n):
    """(Gamma0, Gamma) of a preset at t = 0 with N = N0 = n."""
    cfg = cfgmod.load_config(CONFIGS / f"{preset}.cfg")
    g0 = geo.radial_boundary(cfg.r0, cfg.eps0, cfg.k0, n)
    g = geo.initial_interface(cfg.r_init, cfg.eps_init, cfg.k_init, n).samples()
    return g0, g


def max_rel_gap(got, want):
    """Largest entry difference over the largest entry of `want`."""
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def cross_matrices(blocks, n_src, n_tgt):
    """[S, D] of src on tgt, then of tgt on src, each written by `into`."""
    out = []
    for reverse, shape in ((False, (n_tgt, n_src)), (True, (n_src, n_tgt))):
        for single, double in ((1.0, 0.0), (0.0, 1.0)):
            block = np.full(shape, np.nan)
            blocks.into(block, reverse=reverse, single=single, double=double)
            out.append(block)
    return out


def assert_blocks_match(separable, dense, tol=1e-13):
    sizes = separable.src.n, separable.tgt.n
    for blocks in CROSS_BLOCKS:
        for got, want in zip(cross_matrices(blocks(separable), *sizes),
                             cross_matrices(blocks(dense), *sizes)):
            assert max_rel_gap(got, want) <= tol


@pytest.mark.parametrize("preset", ["fig7", "fig11"])
@pytest.mark.parametrize("n", [64, 512])
def test_separable_blocks_match_dense(preset, n, monkeypatch):
    # fig11 at N = 64 is past the rank rule, so admit every convergent pair
    monkeypatch.setattr(ker, "SEPARABLE_RANK_SHARE", np.inf)
    g0, g = preset_pair(preset, n)
    separable = ker.cross_geometry(ker.CrossSource(g0), g)
    assert separable.expansion is not None and separable.r is None
    assert_blocks_match(separable, ker.dense_cross_geometry(g0, g))


def test_cross_source_side_follows_the_order():
    # one CrossSource serves targets of different expansion orders: each
    # pair's blocks equal, bit for bit, those of a fresh source, and the
    # source's side is rebuilt only when the order changes
    g0, g = preset_pair("fig7", 64)
    source = ker.CrossSource(g0)
    expansions = []
    for scale in (1.0, 0.7, 0.7, 1.0):
        tgt = geo.PlanarCurveSamples.from_xy(scale * g.x, scale * g.y)
        geom = ker.cross_geometry(source, tgt)
        fresh = ker.cross_geometry(ker.CrossSource(g0), tgt)
        expansions.append(geom.expansion)
        for blocks in CROSS_BLOCKS:
            for got, want in zip(blocks(geom), blocks(fresh)):
                assert np.array_equal(got, want)
    orders = [exp.src.order for exp in expansions]
    assert orders[0] == orders[3] != orders[1] == orders[2]
    assert expansions[2].src is expansions[1].src
    assert expansions[3].src is not expansions[0].src


def test_separable_small_core_at_admission_edge():
    # R0 = 0.1 with the largest rho_max/R_min the rank rule admits at
    # N = N0 = 512: K_M(R_min) itself overflows, the scaled factors do not
    n = 512
    top = int((ker.SEPARABLE_RANK_SHARE * n - 1) // 2)
    ratio = np.finfo(float).eps ** (1.0 / top) * (1.0 - 1e-6)
    g0 = circle(n, radius=0.1)
    a = geo.alpha_grid(n)
    shape = 1.0 + 0.05 * np.cos(3 * a)
    scale = 0.1 / ratio / np.min(shape)
    g = geo.PlanarCurveSamples.from_xy(scale * shape * np.cos(a),
                                       scale * shape * np.sin(a))
    separable = ker.cross_geometry(ker.CrossSource(g0), g)
    exp = separable.expansion
    assert exp is not None and exp.src.order == top
    assert kv(top, 0.1 / ratio) == np.inf
    for sides in (ker._helmholtz_sides(exp), ker._laplace_sides(exp)):
        for factor in (f for side in sides for f in side):
            assert factor.shape == (2 * top + 1, n)
            assert np.all(np.isfinite(factor))
    assert_blocks_match(separable, ker.dense_cross_geometry(g0, g))


def test_separable_path_choice():
    for preset in ("fig7", "fig11"):
        g0, g = preset_pair(preset, 512)
        assert ker.cross_geometry(ker.CrossSource(g0), g).expansion is not None
        # swapped: the source encloses the target
        swapped = ker.cross_geometry(ker.CrossSource(g), g0)
        assert swapped.expansion is None and swapped.r is not None
    # small N: fig11 needs M = 59, far past the rank rule at N = 64
    g0, g = preset_pair("fig11", 64)
    assert ker.cross_geometry(ker.CrossSource(g0), g).expansion is None
    # near contact: a core reaching past the interface's inner radius
    outer = wavy(256)
    near = ker.cross_geometry(ker.CrossSource(circle(256, radius=2.45)), outer)
    assert near.expansion is None and np.min(near.r) > 0.0
    # touching boundaries fall through to the dense path, which rejects them
    with pytest.raises(ValueError):
        ker.cross_geometry(ker.CrossSource(circle(64, radius=2.0)),
                           circle(64, radius=2.0))


def test_separable_blocks_serve_both_directions():
    # the reverse blocks of one separable geometry match the forward blocks
    # of the swapped pair, which takes the dense path
    outer, inner = wavy(128), circle(64, radius=0.2)
    separable = ker.cross_geometry(ker.CrossSource(inner), outer)
    assert separable.expansion is not None
    swapped = ker.cross_geometry(ker.CrossSource(outer), inner)
    assert swapped.expansion is None
    for blocks in CROSS_BLOCKS:
        both = cross_matrices(blocks(separable), 64, 128)
        fwd = cross_matrices(blocks(swapped), 128, 64)
        for got, want in zip(both[2:], fwd[:2]):
            assert max_rel_gap(got, want) <= 1e-13


@pytest.mark.parametrize("radius", [0.2, 2.0], ids=["separable", "dense"])
def test_cross_blocks_combine_and_apply(radius):
    # `into` writes single S + double D of one direction and `dot` applies
    # it to a vector, on both paths
    outer, inner = wavy(128), circle(64, radius=radius)
    geom = ker.cross_geometry(ker.CrossSource(inner), outer)
    assert (geom.expansion is None) == (radius == 2.0)
    vectors = np.cos(inner.alpha), np.sin(2 * outer.alpha)
    for blocks in CROSS_BLOCKS:
        both = blocks(geom)
        s, d, s_rev, d_rev = cross_matrices(both, 64, 128)
        for reverse, want, v in ((False, 0.5 * s + 2.0 * d, vectors[0]),
                                 (True, 0.5 * s_rev + 2.0 * d_rev, vectors[1])):
            got = np.full(want.shape, np.nan)
            both.into(got, reverse=reverse, single=0.5, double=2.0)
            assert max_rel_gap(got, want) <= 1e-14
            # relative to the sum of magnitudes, as the products cancel
            applied = both.dot(v, reverse=reverse, single=0.5, double=2.0)
            scale = np.max(np.abs(want) @ np.abs(v))
            assert np.max(np.abs(applied - want @ v)) <= 1e-14 * scale
