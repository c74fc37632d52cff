"""Modified Bessel functions of integer order.

The self blocks need I0, I1 and K0 on interface distances (K1 follows from
the Wronskian), the dense cross blocks K0 and K1 on distances, and the
separable cross blocks K0, K1 on boundary radii plus the scaled I0 (i0e)
to seed their recurrences; the stability formulas additionally need
I_l, K_l for small integer l.  The array fast paths `i0` and `i1` sum the
power series I_n(x) = (x/2)^n sum_k z^k/(k! (k+n)!), z = x^2/4 (DLMF
10.25.2), by Horner's rule.  Every term is positive, so only the rounding
of z, worth about (x/2) eps, grows with x: they agree with scipy to 4e-15
up to x = 60.  Their cost grows with the largest argument, which interface
diameters keep small.  Everything else is delegated to scipy.special,
which implements the standard series / asymptotic / recurrence strategy in
C at full double precision.  This module adds the integer-order domain
contract (order validation, argument validation, I(-n) = I(n),
K(-n) = K(n)).
"""

import math

import numpy as np
from scipy import special

__all__ = ["bessel_i", "bessel_k", "i0", "i0e", "i1", "k0", "k1"]

# Array fast paths used by the kernel assembly (no validation overhead).
i0e = special.i0e
k0 = special.k0
k1 = special.k1


def _i_series(n, x):
    """I_n(x), n = 0 or 1, from its power series in z = x^2/4.

    Horner's rule runs in w = z/s, with s the largest power of two not above
    max z, so w is exact and the coefficients t_k = s^k/(k! (k+n)!) stay below
    I_n(max |x|) instead of underflowing like 1/(k! (k+n)!).  The sum ends
    with the first term that, at max z, is below eps/10 of the first and past
    the largest (k^2 > max z).  NaN and inf entries propagate; the finite ones
    set the term count.  A finite max |x| whose I_n overflows (above about
    713.9) raises ValueError: no entry of the array could be trusted.
    """
    u = 0.5 * np.asarray(x, dtype=float)
    w = u * u
    z_max = float(np.max(w, initial=0.0))
    if not math.isfinite(z_max):
        z_max = float(np.max(w, where=np.isfinite(w), initial=0.0))
    scale = math.ldexp(1.0, math.frexp(z_max)[1] - 1)
    w *= 1.0 / scale
    # t_0 = 1/n! is 1 for n = 0, 1
    coef, bound, k = [1.0], 1.0, 0
    tol = 0.1 * np.finfo(float).eps
    # t_1 is always kept, so NaN and inf reach the result; an infinite
    # bound means that I_n(max |x|) overflows
    while not ((bound < tol and k * k > z_max) or math.isinf(bound)):
        k += 1
        bound *= z_max / (k * (k + n))
        coef.append(coef[-1] * scale / (k * (k + n)))
    # I_n at max z; an infinite bound means that it overflows too
    peak = 0.0
    for t in reversed(coef):
        peak = peak * (z_max / scale) + t
    if n:
        peak *= math.sqrt(z_max)
    if math.isinf(bound) or math.isinf(peak):
        raise ValueError(f"I{n}({2.0 * math.sqrt(z_max):.6g}) overflows")
    out = coef[-1] * w
    for t in reversed(coef[1:-1]):
        out += t
        out *= w
    out += coef[0]
    if n:
        out *= u
    return out


def i0(x):
    """I0 on an array: the positive power series."""
    return _i_series(0, x)


def i1(x):
    """I1 on an array: the positive power series."""
    return _i_series(1, x)


def _check_order(n):
    if int(n) != n:
        raise ValueError(f"Bessel order must be an integer, got {n!r}")
    return abs(int(n))


def bessel_i(n, x):
    """Modified Bessel function of the first kind, I_n(x).

    Parameters
    ----------
    n : int
        Order; negative orders map to I_{|n|}.
    x : float or ndarray
        Argument, must be finite and >= 0.
    """
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ValueError("bessel_i requires finite x >= 0")
    if n == 0:
        out = special.i0(x)
    elif n == 1:
        out = special.i1(x)
    else:
        out = special.iv(n, x)
    return out if out.ndim else float(out)


def bessel_k(n, x):
    """Modified Bessel function of the second kind, K_n(x).

    Parameters
    ----------
    n : int
        Order; negative orders map to K_{|n|}.
    x : float or ndarray
        Argument, must be finite and > 0 (K_n diverges at 0).
    """
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x <= 0):
        raise ValueError("bessel_k requires finite x > 0")
    if n == 0:
        out = special.k0(x)
    elif n == 1:
        out = special.k1(x)
    else:
        out = special.kv(n, x)
    return out if out.ndim else float(out)
