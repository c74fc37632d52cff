"""The far-branch polynomials of e^x sqrt(x) K_nu(x), nu = 0, 1, x >= R_C.

Usage (from the repository root, with mpmath installed):

    python3 tools/make_bessel_coefficients.py

prints the `FAR_K0` and `FAR_K1` tuples that `src/tumorbim/bessel.py`
holds.  With t = 2 R_C/x - 1, which maps [R_C, inf) onto (-1, 1], the
function f(t) = e^x sqrt(x) K_nu(x) is interpolated at M Chebyshev points
of the first kind from 40-digit values of mpmath's besselk, and its
Chebyshev coefficients c_k (f = sum_k c_k T_k(t)) are kept while
|c_k| >= 1e-17.  They decay about threefold per term, so the first dropped
coefficient bounds the truncation error; raising M leaves the kept ones
unchanged (their aliasing error is below 1e-39).  The kept series is
printed in powers of t, converted exactly, so that Horner's rule takes two
operations per term where Clenshaw's takes three; the powers' absolute
values sum to 1.25 for K0 and 1.47 for K1, about f itself, so the power
form loses no accuracy on [-1, 1].
"""

import mpmath as mp

R_C = 2        # the K series' cutoff in tumorbim.bessel
M = 64         # interpolation points
CUT = 1e-17    # smallest coefficient kept


def coefficients(nu):
    """c_0..c_{M-1} of f on the M Chebyshev points, as mpf numbers."""
    theta = [mp.pi * (j + mp.mpf(1) / 2) / M for j in range(M)]
    values = []
    for angle in theta:
        x = 2 * R_C / (1 + mp.cos(angle))
        values.append(mp.exp(x) * mp.sqrt(x) * mp.besselk(nu, x))
    c = [2 * mp.fsum(f * mp.cos(k * a) for f, a in zip(values, theta)) / M
         for k in range(M)]
    c[0] /= 2
    return c


def powers(c):
    """The coefficients in powers of t of sum_k c_k T_k(t)."""
    out = [mp.mpf(0)] * len(c)
    low, high = [1], [0, 1]     # T_0, T_1 as integer power coefficients
    for k, ck in enumerate(c):
        if k:
            low, high = high, [2 * a - b for a, b in
                               zip([0] + high, low + [0, 0])]
        for j, a in enumerate(low):
            out[j] += ck * a
    return out


def main():
    mp.mp.dps = 40
    for nu in (0, 1):
        c = coefficients(nu)
        kept = len(c)
        while abs(c[kept - 1]) < CUT:
            kept -= 1
        print(f"FAR_K{nu} = (")
        for value in powers(c[:kept]):
            print(f"    {float(value)!r},")
        print(")")


if __name__ == "__main__":
    main()
