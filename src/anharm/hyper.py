"""Stable evaluation of the hyperbolic shape factors behind the trial-oscillator
kernel integrals.

Every time integral over the classical bridge L(t) and the fluctuation width
K(t) factorizes into an endpoint polynomial times a function of z = omega*beta
alone.  The nine z-functions evaluated here combine coth(z) and powers of
1/sinh(z) in ways whose leading small-z orders cancel, so a naive evaluation
loses roughly half the mantissa as z -> 0.  We therefore split:

* |z| <  0.5: Maclaurin series (coefficients below, full double precision),
* |z| >= 0.5: closed hyperbolic forms, written so that nothing overflows for
  arbitrarily large z (only coth(z) -> 1 and exp(-z) -> 0 appear).

Every function here takes a real z (``math``), a complex z (``cmath``: the
real-time amplitudes are the imaginary-time ones at beta = i*T, so they live
at z = i*omega*T) or an array of real z (``numpy``: the batched gap solve of
the trace), and dispatches on that type.  The shape-factor names encode which
integral and which endpoint monomial they multiply:

    int K dt        =  k1(z) / (2 w^2)
    int L^2 dt      = [(xa^2+xb^2) l2_sum(z)/2 + xa xb l2_cross(z)] / w
    int L^4 dt      = [(xa^4+xb^4) l4_sum + 4 xa xb (xa^2+xb^2) l4_cross
                                          + 6 (xa xb)^2 l4_sq] / w
    int L^2 K dt    = [(xa^2+xb^2) l2k_sum + 2 xa xb l2k_cross] / w^2
    int K^2 dt      =  k2(z) / w^3
"""

import cmath
import math
from collections import namedtuple

import numpy as np

ShapeFactors = namedtuple(
    "ShapeFactors",
    ["l2_sum", "l2_cross", "k1", "l4_sum", "l4_cross", "l4_sq",
     "l2k_sum", "l2k_cross", "k2"],
)

Z_SWITCH = 0.5
_LN2 = math.log(2.0)

# Maclaurin coefficients (coefficient of z^k at index k).  Regenerated and
# checked against sympy by tests/test_hyper.py.
_SERIES = {
    # k1 = z*coth(z) - 1
    "k1": [0.0, 0.0, 0.3333333333333333, 0.0, -0.022222222222222223, 0.0,
           0.0021164021164021165, 0.0, -0.00021164021164021165, 0.0,
           2.1377799155576935e-05, 0.0, -2.1644042808063972e-06, 0.0,
           2.1925947851873778e-07, 0.0, -2.2214608789979678e-08, 0.0,
           2.2507846516808994e-09, 0.0, -2.2805151204592183e-10, 0.0,
           2.3106432599002624e-11, 0.0, -2.3411706819824882e-12, 0.0,
           2.3721017400233653e-13, 0.0],
    # l2_sum = coth(z) - z/sinh(z)^2
    "l2_sum": [0.0, 0.6666666666666666, 0.0, -0.08888888888888889, 0.0,
               0.012698412698412698, 0.0, -0.0016931216931216932, 0.0,
               0.00021377799155576933, 0.0, -2.5972851369676765e-05, 0.0,
               3.069632699262329e-06, 0.0, -3.5543374063967485e-07, 0.0,
               4.0514123730256185e-08, 0.0, -4.561030240918436e-09, 0.0,
               5.083415171780577e-10, 0.0, -5.6188096367579724e-11, 0.0,
               6.16746452406075e-12, 0.0, -6.729636293326158e-13],
    # l2_cross = (z*coth(z) - 1)/sinh(z)
    "l2_cross": [0.0, 0.3333333333333333, 0.0, -0.07777777777777778, 0.0,
                 0.012301587301587301, 0.0, -0.00167989417989418, 0.0,
                 0.00021336045641601198, 0.0, -2.5960169313343916e-05, 0.0,
                 3.06925798823947e-06, 0.0, -3.554228936627266e-07, 0.0,
                 4.051381463202216e-08, 0.0, -4.561021541443643e-09, 0.0,
                 5.083412747819333e-10, 0.0, -5.618808966943667e-11, 0.0,
                 6.167464340255984e-12, 0.0, -6.72963624318646e-13],
    # l4_sum = coth^3/4 - 5 coth/(8 sinh^2) + 3 z/(8 sinh^4)
    "l4_sum": [0.0, 0.2, 0.0, -0.0380952380952381, 0.0, 0.007619047619047619,
               0.0, -0.0013852813852813853, 0.0, 0.0002320078510554701, 0.0,
               -3.64221316602269e-05, 0.0, 5.4324760207113145e-06, 0.0,
               -7.775985385742739e-07, 0.0, 1.0762055233219563e-07, 0.0,
               -1.4484222386153624e-08, 0.0, 1.9040339269192233e-09, 0.0,
               -2.4532694374417306e-10, 0.0, 3.106814536798371e-11, 0.0,
               -3.875825908276322e-12],
    # l4_cross = (1/sinh - 3 (z coth - 1)/sinh^3)/8
    "l4_cross": [0.0, 0.05, 0.0, -0.02023809523809524, 0.0,
                 0.005178571428571428, 0.0, -0.0010651154401154401, 0.0,
                 0.00019181119255524018, 0.0, -3.154777596741883e-05, 0.0,
                 4.856754103588254e-06, 0.0, -7.109487795982971e-07, 0.0,
                 1.0002394886285923e-07, 0.0, -1.3629022309365977e-08, 0.0,
                 1.8087196654698055e-09, 0.0, -2.347916683639392e-10, 0.0,
                 2.9911745538246595e-11, 0.0, -3.749645220557168e-12],
    # l4_sq = 3 z/(8 sinh^4) + z/(4 sinh^2) - 3 coth/(8 sinh^2)
    "l4_sq": [0.0, 0.03333333333333333, 0.0, -0.015873015873015872, 0.0,
              0.0044444444444444444, 0.0, -0.000962000962000962, 0.0,
              0.00017856335316652778, 0.0, -2.9928918817807705e-05, 0.0,
              4.665067845895733e-06, 0.0, -6.887401034143551e-07, 0.0,
              9.749202139963158e-08, 0.0, -1.3343964825924015e-08, 0.0,
              1.7769485476247088e-09, 0.0, -2.3127991965227812e-10, 0.0,
              2.9526279236968515e-11, 0.0, -3.707585000943168e-12],
    # l2k_sum = (1 - 3 (z coth - 1)/sinh^2)/8
    "l2k_sum": [0.0, 0.0, 0.05, 0.0, -0.011904761904761904, 0.0,
                0.0022222222222222222, 0.0, -0.00036075036075036075, 0.0,
                5.356900594995833e-05, 0.0, -7.482229704451926e-06, 0.0,
                9.996573955490856e-07, 0.0, -1.291387693901916e-07, 0.0,
                1.624867023327193e-08, 0.0, -2.0015947238886024e-09, 0.0,
                2.4231116558518756e-10, 0.0, -2.8909989956534765e-11, 0.0,
                3.4068783734963674e-12, 0.0],
    # l2k_cross = 3 z/(8 sinh^3) + z/(4 sinh) - 3 coth/(8 sinh)
    "l2k_cross": [0.0, 0.0, 0.03333333333333333, 0.0, -0.010317460317460317,
                  0.0, 0.002076719576719577, 0.0, -0.00034692159692159693,
                  0.0, 5.220934635617175e-05, 0.0, -7.346107131160041e-06,
                  0.0, 9.859248438360638e-07, 0.0, -1.277494134612006e-07,
                  0.0, 1.6107966273920678e-08, 0.0, -1.9873405771368508e-09,
                  0.0, 2.4086698535063336e-10, 0.0, -2.87636659447691e-11,
                  0.0, 3.3920527126798377e-12, 0.0],
    # k2 = z/4 + 3 z/(8 sinh^2) - 3 coth/8
    "k2": [0.0, 0.0, 0.0, 0.03333333333333333, 0.0, -0.004761904761904762,
           0.0, 0.0006349206349206349, 0.0, -8.01667468334135e-05, 0.0,
           9.739819263628788e-06, 0.0, -1.1511122622233733e-06, 0.0,
           1.3328765273987807e-07, 0.0, -1.519279639884607e-08, 0.0,
           1.7103863403444138e-09, 0.0, -1.9062806894177164e-10, 0.0,
           2.1070536137842396e-11, 0.0, -2.3127991965227814e-12, 0.0,
           2.5236136099973093e-13, 0.0],
}

_NAMES = ShapeFactors._fields
_COEF = [_SERIES[name] for name in _NAMES]
_DCOEF = [[k * c[k] for k in range(1, len(c))] for c in _COEF]

# log(sinh(z)/z) as a series in w = z^2 (used by the smeared-potential route,
# where w = beta^2 * omega^2 / 4 may be negative for unstable curvature).
LOG_SINH_RATIO_W = [
    0.16666666666666666, -0.005555555555555556, 0.0003527336860670194,
    -2.6455026455026456e-05, 2.1377799155576935e-06, -1.803670234005331e-07,
    1.5661391322766983e-08, -1.3884130493737299e-09, 1.2504359176004997e-10,
    -1.1402575602296091e-11, 1.0502923908637557e-12, -9.754877841593701e-14,
    9.123468230859098e-15, -8.5837197618956095e-16,
]

# k1(z)/z^2 as a series in w = z^2 (same negative-curvature continuation).
K1_OVER_Z2_W = [c for c in _SERIES["k1"][2::2]]


def horner_w(coef, w):
    """Evaluate the series sum_k coef[k] w^k (w may be negative or complex)."""
    r = 0.0
    for c in reversed(coef):
        r = r * w + c
    return r


def _closed_d(z, m):
    """Closed forms together with their z-derivatives (m: math, cmath or numpy)."""
    q = m.exp(-z)
    q2 = q * q
    den = 1.0 - q2
    u = 2.0 * q / den          # 1/sinh(z), exact and overflow-free
    ch = (1.0 + q2) / den      # coth(z)
    u2 = u * u
    u3 = u2 * u
    u4 = u2 * u2
    ch2 = ch * ch
    k1 = z * ch - 1.0
    l2_sum = ch - z * u2
    zchu = z * ch * u
    val = ShapeFactors(
        l2_sum,
        k1 * u,
        k1,
        ch2 * ch / 4.0 - 0.625 * ch * u2 + 0.375 * z * u4,
        (u - 3.0 * k1 * u3) / 8.0,
        0.375 * z * u4 + 0.25 * z * u2 - 0.375 * ch * u2,
        (1.0 - 3.0 * k1 * u2) / 8.0,
        0.375 * z * u3 + 0.25 * z * u - 0.375 * ch * u,
        0.25 * z + 0.375 * z * u2 - 0.375 * ch,
    )
    der = ShapeFactors(
        2.0 * u2 * k1,
        u * (l2_sum - ch * k1),
        l2_sum,
        0.5 * ch2 * u2 + u4 - 1.5 * z * ch * u4,
        (-ch * u - 3.0 * l2_sum * u3 + 9.0 * k1 * ch * u3) / 8.0,
        0.75 * u4 - 1.5 * z * ch * u4 + 0.25 * u2 - 0.5 * z * ch * u2
        + 0.75 * ch2 * u2,
        -0.375 * u2 * (l2_sum - 2.0 * ch * k1),
        0.75 * u3 - 1.125 * zchu * u2 + 0.25 * u - 0.25 * zchu
        + 0.375 * ch2 * u,
        0.25 + 0.75 * u2 - 0.75 * z * ch * u2,
    )
    return val, der


def _lib(z):
    """The module that evaluates z: numpy for arrays, cmath for complex, math for real."""
    if isinstance(z, np.ndarray):
        return np
    return cmath if isinstance(z, complex) else math


def shape_factors_d(z):
    """Shape factors and their z-derivatives at z = omega*beta (or z = i*omega*T),
    as a pair of tuples (of arrays, for an array z)."""
    m = _lib(z)
    if m is np:
        return shape_factors_d_grid(z)
    if (abs(z) if m is cmath else z) < Z_SWITCH:
        return (ShapeFactors(*(horner_w(c, z) for c in _COEF)),
                ShapeFactors(*(horner_w(c, z) for c in _DCOEF)))
    return _closed_d(z, m)


def shape_factors(z):
    """The nine kernel shape factors at z = omega*beta (or z = i*omega*T)."""
    return shape_factors_d(z)[0]


# Both coefficient tables as one (18 x powers) matrix, zero-padded to a
# common length, so the series branch of the grid evaluation is a product.
_SERIES_LEN = max(len(c) for c in _COEF + _DCOEF)
_SERIES_MATRIX = np.array([c + [0.0] * (_SERIES_LEN - len(c)) for c in _COEF + _DCOEF])
# columns per product: OpenBLAS splits products above 2^18 multiply-adds
# across threads, whose wake-up and spinning cost more than these short
# products take (4096 columns: 16 ms threaded, 0.2 ms in blocks of 448)
_PRODUCT_COLUMNS = 448


def shape_factors_d_grid(z):
    """Vectorized shape_factors_d over an array of positive z.

    The series runs only on the entries below Z_SWITCH, as a product of the
    coefficient tables with their power matrix; the closed forms run only on
    the rest.
    """
    z = np.asarray(z, dtype=float)
    flat = z.reshape(-1)
    series = flat < Z_SWITCH
    n_series = np.count_nonzero(series)
    out = np.empty((2 * len(_NAMES), flat.size))
    if n_series:
        idx = slice(None) if n_series == flat.size else np.flatnonzero(series)
        zs = flat[idx]
        powers = np.empty((_SERIES_LEN, zs.size))
        powers[0] = 1.0
        np.cumprod(np.broadcast_to(zs, (_SERIES_LEN - 1, zs.size)), axis=0, out=powers[1:])
        values = np.empty((2 * len(_NAMES), zs.size))
        for start in range(0, zs.size, _PRODUCT_COLUMNS):
            cols = slice(start, start + _PRODUCT_COLUMNS)
            np.matmul(_SERIES_MATRIX, powers[:, cols], out=values[:, cols])
        out[:, idx] = values
    if n_series < flat.size:
        idx = slice(None) if not n_series else np.flatnonzero(~series)
        val, der = _closed_d(flat[idx], np)
        out[:len(_NAMES), idx] = val
        out[len(_NAMES):, idx] = der
    out = out.reshape((2 * len(_NAMES),) + z.shape)
    return ShapeFactors(*out[:len(_NAMES)]), ShapeFactors(*out[len(_NAMES):])


def coth(z):
    return 1.0 / _lib(z).tanh(z)


def inv_sinh(z):
    """1/sinh(z) without overflow for large real z (or large Re z)."""
    if isinstance(z, complex) and abs(z.real) < 20.0:
        # 1 - exp(-2z) would cancel near z = 0, and cmath.sinh cannot
        # overflow here
        return 1.0 / cmath.sinh(z)
    q = _lib(z).exp(-z)
    return 2.0 * q / (1.0 - q * q)


def log_sinh(z):
    """log(sinh(z)), valid up to z ~ 1e308 for real z > 0.

    For complex z this is the continuous branch on Re(z) >= 0: 1 - exp(-2z)
    stays in the right half plane there, so the principal log of it never
    crosses a cut; on the boundary z = i*theta this picks up exactly one
    factor -i*pi/2 per zero of sinh passed, which is the phase the
    time-sliced propagator accumulates at its focal points.
    """
    if isinstance(z, complex):
        return z + cmath.log(1.0 - cmath.exp(-2.0 * z)) - _LN2
    m = _lib(z)
    return z + m.log1p(-m.exp(-2.0 * z)) - _LN2
