"""Modified Bessel functions of integer order.

The kernels need I0, I1, K0, K1 evaluated on dense distance matrices,
and K0, K1 on boundary radii plus the scaled I0 (i0e) to seed the
recurrences of the separable cross blocks; the stability formulas
additionally need I_l, K_l for small integer l.  Evaluation is delegated
to scipy.special, which implements the standard series / asymptotic /
recurrence strategy in C at full double precision.  This module adds the
integer-order domain contract (order validation, argument validation,
I(-n) = I(n), K(-n) = K(n)).
"""

import numpy as np
from scipy import special

__all__ = ["bessel_i", "bessel_k", "i0", "i0e", "i1", "k0", "k1"]

# Array fast paths used by the kernel assembly (no validation overhead).
i0 = special.i0
i0e = special.i0e
i1 = special.i1
k0 = special.k0
k1 = special.k1


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
