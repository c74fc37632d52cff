"""Modified Bessel functions of integer order, in numpy and `math` alone.

The array functions sum power series by Horner's rule in w = z/s, with
z = x^2/4 and s the largest power of two not above max z, so that w is
exact and the coefficients t_k = c_k s^k stay in range:
- I_n(x) = (x/2)^n sum_k z^k/(k! (k+n)!), n = 0, 1 (DLMF 10.25.2).  Every
  term is positive, so only the rounding of z, worth about (x/2) eps, grows
  with x: `i0` and `i1` agree with scipy to 4e-15 up to x = 60.  Their cost
  grows with the largest argument, which interface diameters keep small.
- K0(x) = S(z) - (ln(x/2) + gamma) I0(x) with S = sum_{k>=1} H_k z^k/(k!)^2
  (DLMF 10.31.2), and K1 = (1/x - I1 K0)/I0 from the Wronskian (10.28.2),
  up to R_C.  The subtraction loses about eps e^{2x}, so above R_C both are
  e^{-x} x^{-1/2} p_nu(2 R_C/x - 1), with p_nu the Chebyshev interpolant of
  e^x sqrt(x) K_nu(x) (DLMF 10.40.2) that
  `tools/make_bessel_coefficients.py` writes in powers of its variable.
  K0 and K1 agree with scipy to 7e-15 on [1e-8, 60], worst just below R_C.
`i0_i1_k0` yields the self pairs' I0, I1 and K0 tile by tile from one pass
in which the I0, I1 and S series share w, so I0, I1 keep the bits of `i0`,
`i1` and S is summed only on the pairs up to R_C.  `bessel_ik` hands the
linear model one scalar I_n, K_n pair: I_n from its series, K_n by the
upward recurrence from K0, K1.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

__all__ = ["bessel_ik", "i0", "i0_i1_k0", "i1", "k0", "k1"]

# the K0, K1 series hold up to R_C, the far polynomials from R_C on
R_C = 2.0
# elements per tile of the series and the K branches: a few tiles' work
# arrays stay in the L2 cache
TILE = 16384
EPS = np.finfo(float).eps

FAR_K0 = (
    1.2185953385133905,
    -0.03107146182488952,
    0.0030328918102753206,
    -0.0004797690567662314,
    9.95605474202942e-05,
    -2.4735204561466906e-05,
    7.002245645755651e-06,
    -2.191177788015528e-06,
    7.427801232190096e-07,
    -2.6890662472901614e-07,
    1.02954317593912e-07,
    -4.133923052104385e-08,
    1.7047535884249698e-08,
    -7.286380907337665e-09,
    3.808399859919043e-09,
    -1.9309444875845705e-09,
    4.757544705776374e-11,
    1.7887095838476482e-10,
    8.133913205464114e-10,
    -5.541051446065683e-10,
    -3.119936129682105e-10,
    2.213758097591008e-10,
    1.0926983537268735e-10,
    -6.910453875670571e-11,
)
FAR_K1 = (
    1.363151890371342,
    0.10334973775386523,
    -0.005566729880074588,
    0.0007357241549081501,
    -0.00013959021956272223,
    3.284386555825453e-05,
    -8.961207387750025e-06,
    2.730041433569803e-06,
    -9.067087633371393e-07,
    3.2298119177151824e-07,
    -1.2203186351938403e-07,
    4.8461952200091865e-08,
    -1.9817577141591116e-08,
    8.40938756536177e-09,
    -4.331939985658629e-09,
    2.1757782025837176e-09,
    -8.336227195991456e-11,
    -1.7982138496175016e-10,
    -8.908596710923906e-10,
    6.042482293782838e-10,
    3.3867804167808003e-10,
    -2.399376595899464e-10,
    -1.1931668393112158e-10,
    7.52479548635394e-11,
)
# the far polynomials of K0 and K1 as `_horner` takes them
FAR = (list(map(np.array, FAR_K0)), list(map(np.array, FAR_K1)))


def _scale(x):
    """(z_max, s) of a flat array: z_max = max (x/2)^2 over the finite
    entries, s the largest power of two not above it.  A finite x whose
    square overflows raises ValueError: no entry of the array could be
    trusted.  The extremes give the max without a pass over w; the square
    is monotone, so it is the max of the entries' own squares."""
    top = max(float(np.max(x, initial=0.0)), -float(np.min(x, initial=0.0)))
    if not math.isfinite(top):
        top = float(np.max(np.abs(x), where=np.isfinite(x), initial=0.0))
    z_max = (0.5 * top) * (0.5 * top)
    if math.isinf(z_max):
        raise ValueError(f"I0({top:.6g}) overflows")
    return z_max, math.ldexp(1.0, math.frexp(z_max)[1] - 1)


def _coefficients(kind, z_max, scale):
    """Horner coefficients t_0..t_K in w, as 0-d arrays, of I0 ("i0"),
    I1/(x/2) ("i1") or S ("s").  The sum ends with the first term that, at
    max z, is below eps/10 of I_n's first and past the largest
    (k^2 > max z); S's terms are H_k times I0's, so its bound carries H_k.
    t_1 is always kept, so NaN and inf reach the result.  An I_n that
    overflows at max z (above about 713.9) raises ValueError."""
    n = 1 if kind == "i1" else 0
    bound, k, harmonic = 1.0, 0, 0.0
    tol = 0.1 * EPS
    # an infinite bound means that I_n(max |x|) overflows
    while not ((bound * max(harmonic, 1.0) < tol and k * k > z_max)
               or math.isinf(bound)):
        k += 1
        bound *= z_max / (k * (k + n))
        if kind == "s":
            harmonic += 1.0 / k
    coef, terms = _terms(kind, scale, k)
    # I_n < e^x cannot overflow below x = 709, z = 1.2e5; above, sum I_n at
    # max z, which overflows where the bound does or where the terms add up
    # past the float range
    if kind != "s" and (math.isinf(bound) or z_max > 1.2e5):
        peak = 0.0
        for t in reversed(coef):
            peak = peak * (z_max / scale) + t
        if math.isinf(bound) or math.isinf(peak * math.sqrt(z_max) ** n):
            raise ValueError(f"I{n}({2.0 * math.sqrt(z_max):.6g}) overflows")
    return terms


@lru_cache(maxsize=64)
def _terms(kind, scale, count):
    """(floats, 0-d arrays) of t_0..t_count, which depend on the scale s
    and the count alone: t_k = t_{k-1} s/(k (k+n)), times H_k for S."""
    n = 1 if kind == "i1" else 0
    coef = [1.0]
    for k in range(1, count + 1):
        coef.append(coef[-1] * scale / (k * (k + n)))
    if kind == "s":
        harmonic = itertools.accumulate(1.0 / j for j in range(1, count + 1))
        coef = [0.0] + [h * t for h, t in zip(harmonic, coef[1:])]
    terms = tuple(map(np.array, coef))
    for t in terms:
        # every caller shares them
        t.flags.writeable = False
    return tuple(coef), terms


def _horner(coef, w, out=None):
    """sum_k coef[k] w^k, into `out` if given, highest power first.  The
    coefficients are 0-d arrays, which numpy adds to an array faster than
    floats."""
    out = np.multiply(coef[-1], w, out=out)
    for t in reversed(coef[1:-1]):
        out += t
        out *= w
    out += coef[0]
    return out


def _tiles(x, scale):
    """(slice, x/2, w = (x/2)^2/s) of each tile of a flat array."""
    for lo in range(0, x.size, TILE):
        u = 0.5 * x[lo:lo + TILE]
        w = u * u
        w *= 1.0 / scale
        yield slice(lo, lo + TILE), u, w


def _series(x, kinds):
    """The series `kinds` (see `_coefficients`; "i1" gives I1 itself) on
    the array x, as a list of arrays of its shape, from one pass over tiles
    of x: each tile's w is formed once and each series summed on it by its
    own Horner loop, so every one keeps the bits of a pass of its own."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    z_max, scale = _scale(flat)
    rows = [_coefficients(kind, z_max, scale) for kind in kinds]
    out = [np.empty(flat.size) for _ in kinds]
    for tile, u, w in _tiles(flat, scale):
        for coef, row in zip(rows, out):
            _horner(coef, w, row[tile])
        if "i1" in kinds:
            out[kinds.index("i1")][tile] *= u
    return [row.reshape(x.shape) for row in out]


def i0(x):
    """I0 on an array: the positive power series."""
    return _series(x, ("i0",))[0]


def i1(x):
    """I1 on an array: the positive power series."""
    return _series(x, ("i1",))[0]


def _k0_near(x, i0x, s):
    """K0 = S - (ln(x/2) + gamma) I0 from the series, into s.  K0(0) is inf
    and a negative x gives NaN, both without a warning."""
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.log(0.5 * x)
    g += np.euler_gamma
    g *= i0x
    s -= g
    return s


def _k_far(x, order):
    """e^{-x} x^{-1/2} p(2 R_C/x - 1) by Horner's rule, with p the far
    polynomial of K0 or K1 (`order`); x = inf gives 0 and NaN stays NaN."""
    t = (2.0 * R_C) / x
    t -= 1.0
    acc = _horner(FAR[order], t)
    acc *= np.exp(-x)
    acc /= np.sqrt(x)
    return acc


def _k(x, order):
    """K0 or K1 on an array, each entry from the branch of its side of R_C."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    near = x <= R_C
    xn = x[near]
    if xn.size:
        rows = _series(xn, ("i0", "s", "i1") if order else ("i0", "s"))
        kx = _k0_near(xn, rows[0], rows[1])
        if order:
            with np.errstate(divide="ignore", invalid="ignore"):
                kx = (1.0 / xn - rows[2] * kx) / rows[0]
            # 1/x - I1 K0 is inf - 0 inf at the origin
            kx[xn == 0.0] = np.inf
        out[near] = kx
    far = ~near
    out[far] = _k_far(x[far], order)
    return out


def k0(x):
    """K0 on an array."""
    return _k(x, 0)


def k1(x):
    """K1 on an array."""
    return _k(x, 1)


def i0_i1_k0(r):
    """(tile, I0, I1, K0) for each tile of a flat array of distances, from
    one pass: `tile` is the tile's slice of r and the three arrays its
    values, in buffers that the next tile reuses, so the caller consumes
    (and may overwrite) them before it asks for the next.  I0 and I1 are
    summed on every pair, bit for bit the `i0`, `i1` of r.  K0 is `_k0_near`
    up to R_C, with S summed on those pairs alone but with the coefficients
    of the whole array, so each of them gets the bits of a pass over all
    pairs, and `_k_far` above.  The pass holds a few tiles."""
    z_max, scale = _scale(r)
    c0, c1, cs = (_coefficients(kind, z_max, scale) for kind in ("i0", "i1", "s"))
    buffers = np.empty((3, min(TILE, r.size)))
    for tile, u, w in _tiles(r, scale):
        x = r[tile]
        i0x, i1x, k = buffers[:, :x.size]
        _horner(c0, w, i0x)
        _horner(c1, w, i1x)
        i1x *= u
        near = x <= R_C
        k[near] = _k0_near(x[near], i0x[near], _horner(cs, w[near]))
        far = ~near
        k[far] = _k_far(x[far], 0)
        yield tile, i0x, i1x, k


def _i_scalar(n, x):
    """I_n(x) for n >= 0 and a float x from its power series, summed from
    its smallest term; NaN stays NaN and an overflow gives inf."""
    u = 0.5 * x
    z = u * u
    term = 1.0
    for j in range(1, n + 1):
        term *= u / j
    terms, total, k = [term], term, 0
    while (term > 0.1 * EPS * total or k * k <= z) and math.isfinite(total):
        k += 1
        term *= z / (k * (k + n))
        terms.append(term)
        total += term
    return sum(reversed(terms))


def _k_scalar(x):
    """(K0(x), K1(x)) of a float, from the branch of its side of R_C, as in
    `_k0_near` and `_k_far`; K0(0) = K1(0) = inf, and NaN or x < 0 give
    NaN."""
    if x > R_C:
        t = 2.0 * R_C / x - 1.0
        a = b = 0.0
        for p, q in zip(FAR_K0[::-1], FAR_K1[::-1]):
            a = a * t + p
            b = b * t + q
        scale = math.exp(-x) / math.sqrt(x)
        return a * scale, b * scale
    if not x > 0.0:
        return (math.inf, math.inf) if x == 0.0 else (math.nan, math.nan)
    # S = sum_k H_k z^k/(k!)^2, to eps/10 of its first term; S and I_n are
    # summed from their smallest terms, which keeps the subtraction's error
    # to that of the array branch
    z = 0.25 * x * x
    term, harmonic, terms, k = z, 1.0, [z], 1
    while term * harmonic > 0.1 * EPS * z:
        k += 1
        term *= z / (k * k)
        harmonic += 1.0 / k
        terms.append(harmonic * term)
    i0x, i1x = _i_scalar(0, x), _i_scalar(1, x)
    k0x = sum(reversed(terms)) - (math.log(0.5 * x) + np.euler_gamma) * i0x
    return k0x, (1.0 / x - i1x * k0x) / i0x


def bessel_ik(n, x):
    """(I_n(x), K_n(x)) as floats for an integer order n and a scalar x.

    No argument is checked: a negative n gives I_|n|, K_|n|, and x is the
    caller's to keep finite and positive.  K_n comes from K0, K1 by the
    upward recurrence K_{m+1} = K_{m-1} + (2m/x) K_m, which is stable for K.
    """
    n, x = abs(n), float(x)
    k_lo, k_hi = _k_scalar(x)
    # K_n(0) is inf for every n, where the recurrence would divide by zero
    for m in range(1, n if x > 0.0 else 1):
        k_lo, k_hi = k_hi, k_lo + (2 * m / x) * k_hi
    return _i_scalar(n, x), (k_hi if n else k_lo)
