import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from tumorbim import bessel
from tumorbim.bessel import bessel_ik

from conftest import i0_i1_k0_arrays
from oracles import bessel_i_series, bessel_k_recurrence


# the scalar pair's two halves, I_n(x) and K_n(x)

def bessel_i(n, x):
    return bessel_ik(n, x)[0]


def bessel_k(n, x):
    return bessel_ik(n, x)[1]


def test_i_at_origin():
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(1, 0.0) == 0.0
    assert bessel_i(7, 0.0) == 0.0


def test_i_matches_power_series():
    assert bessel_i(0, 1.0) == pytest.approx(1.2660658777520084, rel=1e-13)
    for n in (0, 1, 2, 5):
        for x in (0.3, 1.0, 2.0, 4.5):
            assert bessel_i(n, x) == pytest.approx(bessel_i_series(n, x), rel=1e-12)


def test_k_small_argument_singularities():
    # K1(z) ~ 1/z near zero
    assert bessel_k(1, 1e-6) == pytest.approx(1e6, rel=1e-5)
    # K0(z) ~ -ln(z/2) - gamma near zero
    expected = -np.log(0.5e-6) - np.euler_gamma
    assert bessel_k(0, 1e-6) == pytest.approx(expected, rel=1e-4)


def test_k_against_series_recurrence_oracle():
    assert bessel_k(2, 1.0) == pytest.approx(1.6248388986351774, rel=1e-13)
    for n in (0, 1, 2, 4):
        for x in (0.5, 1.0, 3.0):
            assert bessel_k(n, x) == pytest.approx(bessel_k_recurrence(n, x), rel=1e-11)


def test_twelve_digit_accuracy_window():
    # Wronskian I_n(x) K_{n+1}(x) + I_{n+1}(x) K_n(x) = 1/x pins joint accuracy
    for n in range(0, 17):
        for x in (1e-3, 0.1, 1.0, 5.0, 20.0, 50.0):
            w = bessel_i(n, x) * bessel_k(n + 1, x) + bessel_i(n + 1, x) * bessel_k(n, x)
            assert w == pytest.approx(1.0 / x, rel=1e-12)


def test_wronskian_identity_grid():
    for n in range(0, 9):
        for x in (0.1, 1.0, 5.0, 20.0):
            w = bessel_i(n, x) * bessel_k(n + 1, x) + bessel_i(n + 1, x) * bessel_k(n, x)
            assert w == pytest.approx(1.0 / x, rel=1e-11)


@given(n=st.integers(min_value=0, max_value=10),
       x=st.floats(min_value=0.05, max_value=30.0))
@settings(max_examples=80, deadline=None)
def test_wronskian_property(n, x):
    w = bessel_i(n, x) * bessel_k(n + 1, x) + bessel_i(n + 1, x) * bessel_k(n, x)
    assert w == pytest.approx(1.0 / x, rel=1e-11)


def test_derivative_recurrences_by_central_differences():
    h = 1e-5
    for x in (0.5, 1.5, 4.0, 12.0):
        d_i0 = (bessel_i(0, x + h) - bessel_i(0, x - h)) / (2 * h)
        assert d_i0 == pytest.approx(bessel_i(1, x), rel=1e-9)
        for n in (1, 2, 5):
            d_in = (bessel_i(n, x + h) - bessel_i(n, x - h)) / (2 * h)
            assert d_in == pytest.approx(bessel_i(n - 1, x) - (n / x) * bessel_i(n, x),
                                         rel=1e-9, abs=1e-12)


def test_monotonicity_on_grid():
    x = np.linspace(0.05, 30.0, 200)
    for n in (0, 1, 3, 8):
        iv = np.array([bessel_i(n, xi) for xi in x])
        kv = np.array([bessel_k(n, xi) for xi in x])
        assert np.all(np.diff(iv) > 0)
        assert np.all(np.diff(kv) < 0)


def test_k_decays_exponentially():
    assert bessel_k(0, 50.0) < np.exp(-49)


def test_negative_order_reflection():
    assert bessel_i(-3, 2.0) == bessel_i(3, 2.0)
    assert bessel_k(-2, 2.0) == bessel_k(2, 2.0)


# the kernels' I0, I1 fast paths: the positive power series

SERIES = [(bessel.i0, special.i0), (bessel.i1, special.i1)]


@pytest.mark.parametrize("series, reference", SERIES)
@pytest.mark.parametrize("top", [5.2, 60.0])
def test_series_matches_scipy(series, reference, top):
    # one call per grid, as the largest argument sets the term count; 5.2
    # spans the fig7 interface distances
    x = np.linspace(0.0, top, 6001)[1:]
    want = reference(x)
    assert np.max(np.abs(series(x) - want) / want) <= 4e-15


@pytest.mark.parametrize("kind, n", [("i0", 0), ("i1", 1)])
def test_series_term_count(kind, n):
    # I_n's sum ends with the first term below eps/10 of its first, past the
    # largest (k^2 > max z); S's longer sum (H_k times I0's terms) must not
    # lengthen it, or I0 and I1 would lose the bits of their own pass
    for z_max in np.geomspace(1e-6, 1e4, 2001):
        scale = math.ldexp(1.0, math.frexp(z_max)[1] - 1)
        bound, k = 1.0, 0
        while not (bound < 0.1 * np.finfo(float).eps and k * k > z_max):
            k += 1
            bound *= z_max / (k * (k + n))
        assert len(bessel._coefficients(kind, z_max, scale)) == k + 1, z_max


def test_series_at_origin_and_parity():
    assert bessel.i0(0.0) == 1.0 and bessel.i1(0.0) == 0.0
    x = np.linspace(0.0, 12.0, 97)
    assert np.array_equal(bessel.i0(-x), bessel.i0(x))
    assert np.array_equal(bessel.i1(-x), -bessel.i1(x))


@pytest.mark.parametrize("series, reference", SERIES)
def test_series_shapes(series, reference):
    assert np.ndim(series(np.float64(2.0))) == 0
    assert series(np.float64(2.0)) == pytest.approx(reference(2.0), rel=4e-15)
    assert series(np.empty((0, 3))).shape == (0, 3)
    zeros = series(np.zeros((2, 3)))
    assert zeros.shape == (2, 3)
    assert np.all(zeros == reference(0.0))


def test_series_propagates_nan_and_inf():
    x = np.array([1.5, np.nan, np.inf, -np.inf])
    got0, got1 = bessel.i0(x), bessel.i1(x)
    assert got0[0] == pytest.approx(special.i0(1.5), rel=4e-15)
    assert got1[0] == pytest.approx(special.i1(1.5), rel=4e-15)
    assert np.isnan(got0[1]) and np.isnan(got1[1])
    assert list(got0[2:]) == [np.inf, np.inf]
    assert list(got1[2:]) == [np.inf, -np.inf]
    # no finite entry at all
    for series in (bessel.i0, bessel.i1):
        assert np.isnan(series(np.array([np.nan, np.nan]))).all()
        assert np.isnan(series(np.nan)) and np.isinf(series(np.inf))


@pytest.mark.parametrize("series, reference", SERIES)
def test_series_rejects_overflow(series, reference):
    # I_n(720) overflows, and the term count it sets cannot be summed: the
    # array is refused rather than returned with wrong finite entries
    with pytest.raises(ValueError, match="overflows"):
        series(np.array([1.0, 300.0, 500.0, 700.0, 720.0]))
    # up to 700 the series still holds, to the rounding of z ~ (x/2) eps
    x = np.array([1.0, 300.0, 500.0, 700.0])
    assert np.max(np.abs(series(x) - reference(x)) / reference(x)) <= 1e-13


@pytest.mark.parametrize("series, reference", SERIES)
def test_series_rejects_overflowing_square(series, reference):
    # above x = 2.7e154, z = (x/2)^2 leaves the float range before I_n does:
    # the same error, and no overflow warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            series(np.array([3e154]))


# the array K0, K1: the series up to R_C, the far polynomials above; scipy
# is the oracle.  The near branch's subtraction loses about eps e^{2x}, so
# the error peaks just below R_C: at most 6.3e-15 for K0 and 3.6e-15 for K1
# on a grid of step 2.5e-7 there

K_FUNCTIONS = [(bessel.k0, special.k0), (bessel.k1, special.k1)]
K_BOUND = 8e-15
NEAR_R_C = np.linspace(bessel.R_C - 0.1, bessel.R_C + 0.1, 40001)


@pytest.mark.parametrize("func, reference", K_FUNCTIONS)
def test_k_matches_scipy(func, reference):
    x = np.concatenate([np.geomspace(1e-8, 60.0, 20001), NEAR_R_C,
                        [bessel.R_C, np.nextafter(bessel.R_C, np.inf)]])
    assert np.sum(x <= bessel.R_C) > 1000 and np.sum(x > bessel.R_C) > 1000
    assert np.max(np.abs(func(x) / reference(x) - 1.0)) <= K_BOUND


def test_self_pairs_pass_matches_series_and_scipy():
    # over several tiles and both sides of R_C: I0 and I1 bit for bit the
    # array series, K0 within the array K0's bound
    r = np.random.default_rng(7).uniform(1e-3, 5.2, 3 * bessel.TILE + 11)
    i0r, i1r, k0r = i0_i1_k0_arrays(r)
    assert np.array_equal(i0r, bessel.i0(r)) and np.array_equal(i1r, bessel.i1(r))
    assert np.max(np.abs(k0r / special.k0(r) - 1.0)) <= K_BOUND


def test_k_at_origin_is_inf():
    # ln 0 and 1/0 raise no warning (the suite makes any warning an error),
    # and K1's 1/x - I1 K0 is not left as inf - 0 inf = NaN
    for func, _ in K_FUNCTIONS:
        assert list(func(np.array([0.0, 1.0])) == np.inf) == [True, False]
    assert i0_i1_k0_arrays(np.array([0.0, 1.0]))[2][0] == np.inf
    for n in (0, 1, 7):
        assert bessel_k(n, 0.0) == np.inf


def test_k_propagates_nan_and_inf():
    # NaN stays NaN and K(inf) = 0; the series' term count comes from the
    # finite entries, so its loop ends with them or with none at all
    x = np.array([1.5, np.nan, np.inf, 3.0, np.nan])
    for func, reference in K_FUNCTIONS:
        got = func(x)
        assert np.isnan(got[[1, 4]]).all() and got[2] == 0.0
        assert got[[0, 3]] == pytest.approx(reference(x[[0, 3]]), rel=K_BOUND)
        assert np.isnan(func(np.array([np.nan, np.nan]))).all()
    i0r, i1r, k0r = i0_i1_k0_arrays(x)
    assert np.isnan(k0r[[1, 4]]).all() and k0r[2] == 0.0
    assert (i0r[2], i1r[2]) == (np.inf, np.inf)
    assert k0r[[0, 3]] == pytest.approx(special.k0(x[[0, 3]]), rel=K_BOUND)
    assert all(np.isnan(row).all()
               for row in i0_i1_k0_arrays(np.array([np.nan, np.nan])))
    for n in (0, 1, 4):
        assert all(np.isnan(bessel_ik(n, np.nan)))


@pytest.mark.parametrize("n", range(6))
def test_scalar_pair_matches_scipy(n):
    # measured at most 5.6e-15 (K0 just below R_C)
    x = np.concatenate([np.geomspace(1e-6, 60.0, 401), NEAR_R_C[::100]])
    got = np.array([bessel_ik(n, v) for v in x])
    assert np.max(np.abs(got[:, 0] / special.iv(n, x) - 1.0)) <= 1e-14
    assert np.max(np.abs(got[:, 1] / special.kv(n, x) - 1.0)) <= 1e-14


def test_far_polynomials_match_their_script(capsys):
    # the committed coefficients are those the script writes
    pytest.importorskip("mpmath")
    path = Path(__file__).resolve().parent.parent / "tools" / "make_bessel_coefficients.py"
    spec = importlib.util.spec_from_file_location("make_bessel_coefficients", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main()
    written = {}
    exec(capsys.readouterr().out, written)
    assert script.R_C == bessel.R_C
    assert (written["FAR_K0"], written["FAR_K1"]) == (bessel.FAR_K0, bessel.FAR_K1)
