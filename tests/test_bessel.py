import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from tumorbim import bessel
from tumorbim.bessel import bessel_ik

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
