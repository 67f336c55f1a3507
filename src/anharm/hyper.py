"""Stable evaluation of the hyperbolic shape factors behind the trial-oscillator
kernel integrals.

Every time integral over the classical bridge L(t) and the fluctuation width
K(t) factorizes into an endpoint polynomial times a function of z = omega*beta
alone.  The nine z-functions evaluated here combine coth(z) and powers of
1/sinh(z) in ways whose leading small-z orders cancel, so a naive evaluation
loses roughly half the mantissa as z -> 0.  We therefore split:

* |z| <  0.5 (Z_SWITCH), for every z, real or complex: Maclaurin series
  to z^27, their coefficients derived at import from the closed forms below
  (full double precision only well inside the series' radius pi),
* |z| >= 0.5, a real z below -0.5 too: closed hyperbolic forms, written so
  that nothing overflows for arbitrarily large Re z (only coth(z) -> 1 and
  exp(-z) -> 0 appear).

Every function here takes a real z, a complex z (the real-time amplitudes
are the imaginary-time ones at beta = i*T, so they live at z = i*omega*T) or
an array of real or complex z, and dispatches on that type:

* a scalar z, real or complex, takes the series by Estrin's scheme in
  w = z^2 (_scalar_series), in plain Python arithmetic, so its bits depend
  on neither the CPU nor the BLAS build;
* a real z, float or array, takes numpy's exp, log and expm1 (on a
  float through _REAL, which hands back floats), the C library's tanh
  (coth) and, on an array, the series by the same scheme (_estrin_rows).
  Every operation is elementwise, so a real z gives the same bits alone
  and as any entry of any array: the gap solve of one point and the
  batched gap solve of the trace agree bit for bit;
* a complex z takes ``cmath``;
* an array of complex z (the real-time gap solve's scan) takes numpy and
  the series as a product of the coefficient tables with a power matrix.

The shape-factor names encode which integral and which endpoint monomial
they multiply:

    int K dt        =  k1(z) / (2 w^2)
    int L^2 dt      = [(xa^2+xb^2) l2_sum(z)/2 + xa xb l2_cross(z)] / w
    int L^4 dt      = [(xa^4+xb^4) l4_sum + 4 xa xb (xa^2+xb^2) l4_cross
                                          + 6 (xa xb)^2 l4_sq] / w
    int L^2 K dt    = [(xa^2+xb^2) l2k_sum + 2 xa xb l2k_cross] / w^2
    int K^2 dt      =  k2(z) / w^3

LatticeTable holds rows of values on the integer lattice k, grown on demand
in fixed blocks by a fill function; lattice_factors fills one with the shape
factors and their derivatives at z_k = exp(k*step).  The imaginary-time gap
solves of oep read the interior of every scan off such a table, and
evaluate only the two ends of each scan window and the off-lattice points of
their root and minimum searches here directly.
"""

import cmath
import math
import types
from collections import namedtuple

import numpy as np

ShapeFactors = namedtuple(
    "ShapeFactors",
    ["l2_sum", "l2_cross", "k1", "l4_sum", "l4_cross", "l4_sq",
     "l2k_sum", "l2k_cross", "k2"],
)

Z_SWITCH = 0.5
_LN2 = math.log(2.0)


def _values(z, ch, u):
    """The nine shape factors from z, ch = coth(z) and u = 1/sinh(z), on
    numbers (_closed_d) or on exact series (_derive_series)."""
    u2 = u * u
    u3 = u2 * u
    u4 = u2 * u2
    k1 = z * ch - 1.0
    return ShapeFactors(
        ch - z * u2,
        k1 * u,
        k1,
        ch * ch * ch / 4.0 - 0.625 * ch * u2 + 0.375 * z * u4,
        (u - 3.0 * k1 * u3) / 8.0,
        0.375 * z * u4 + 0.25 * z * u2 - 0.375 * ch * u2,
        (1.0 - 3.0 * k1 * u2) / 8.0,
        0.375 * z * u3 + 0.25 * z * u - 0.375 * ch * u,
        0.25 * z + 0.375 * z * u2 - 0.375 * ch,
    )


class _Series:
    """A Laurent series in z cut above z^TOP, exact: num[i] / den is the
    coefficient of z^(i - 4), as no pole of _values is deeper.  A float
    enters as its exact ratio, so _values runs on series unchanged."""

    TOP = 30

    def __init__(self, num, den=1):
        self.num, self.den = np.zeros(self.TOP + 5, dtype=object), den
        self.num[:len(num)] = num

    def __add__(self, other):
        if not isinstance(other, _Series):      # a constant: other * z^0
            other = _Series([0] * 4 + [1]) * other
        den = math.lcm(self.den, other.den)
        return _Series(den // self.den * self.num + den // other.den * other.num, den)

    def __mul__(self, other):
        if not isinstance(other, _Series):
            p, q = other.as_integer_ratio()
            return _Series(self.num * p, self.den * q)
        # entry m of the convolution holds z^(m - 8)
        return _Series(np.convolve(self.num, other.num)[4:self.TOP + 9], self.den * other.den)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + -1.0 * other

    def __rsub__(self, other):
        return -1.0 * self + other

    def __truediv__(self, other):
        p, q = other.as_integer_ratio()
        return _Series(self.num * q, self.den * p)


def _derive_series():
    """The Maclaurin coefficients of the shape factors (of z^k at index k,
    to z^27) and LOG_SINH_RATIO_W, each the correctly rounded float of its
    exact value (an int / int rounds correctly).

    c = z*coth(z) and s = z/sinh(z) come from (sinh(z)/z) c = cosh(z) and
    (sinh(z)/z) s = 1, solved term by term to z^(TOP + 1).  A term of z^j is
    a sum of ones over products of factorials whose arguments add to at most
    3j/2, so one factorial clears every denominator and each division is
    exact.  _values at ch = c/z and u = s/z is then exact to z^(TOP - 3),
    its poles reaching z^-4.
    """
    top = _Series.TOP + 1
    den = math.factorial(3 * top // 2)
    c, s = [den], [den]
    for j in range(1, top + 1):
        for cs, lead in ((c, den // math.factorial(j)), (s, 0)):
            cs.append(0 if j % 2 else lead - sum(
                cs[j - k] // math.factorial(k + 1) for k in range(2, j + 1, 2)))
    # z, ch = c/z and u = s/z
    val = _values(_Series([0] * 5 + [1]), _Series([0] * 3 + c, den), _Series([0] * 3 + s, den))
    # the derivative of log(sinh(z)/z) is (c - 1)/z
    return ({name: [v.num[k + 4] / v.den for k in range(top - 3)]
             for name, v in zip(ShapeFactors._fields, val)},
            [c[2 * n] / (2 * n * den) for n in range(1, top // 2)])


# LOG_SINH_RATIO_W: log(sinh(z)/z) as a series in w = z^2, from w^1 (used by
# the smeared-potential route, where w = beta^2 * omega^2 / 4 may be negative
# for unstable curvature).
_SERIES, LOG_SINH_RATIO_W = _derive_series()
_NAMES = ShapeFactors._fields
_COEF = [_SERIES[name] for name in _NAMES]
_DCOEF = [[k * c[k] for k in range(1, len(c))] for c in _COEF]

# k1(z)/z^2 as a series in w = z^2 (same negative-curvature continuation).
K1_OVER_Z2_W = [c for c in _SERIES["k1"][2::2]]


def horner_w(coef, w):
    """Evaluate the series sum_k coef[k] w^k (w may be negative or complex)."""
    r = 0.0
    for c in reversed(coef):
        r = r * w + c
    return r


# Estrin's scheme for the series.  Every series is odd or even in z, so
# it is c(w) or z*c(w) in w = z^2, with at most 14 coefficients of w, padded
# with zeros to 2**_ESTRIN_LEVELS.  Each level adds neighbouring terms in
# pairs, a + b*p, with p = w, w^2, w^4, w^8 in turn: four levels of
# independent operations where Horner's rule makes 28 dependent ones.
_ESTRIN_LEVELS = 4


def _in_w(coef):
    """(odd, the coefficients of w) of a series odd or even in z."""
    nonzero = [k for k, c in enumerate(coef) if c != 0.0]
    odd = nonzero[0] % 2
    in_w = [float(c) for c in coef[odd::2]]
    assert all(k % 2 == odd for k in nonzero) and len(in_w) <= 1 << _ESTRIN_LEVELS
    return bool(odd), in_w + [0.0] * ((1 << _ESTRIN_LEVELS) - len(in_w))


_ESTRIN_ODD, _ESTRIN_COEF = zip(*(_in_w(c) for c in _COEF + _DCOEF))
# the rows of an Estrin table hold the odd series first, so that one slice
# multiplies them by z, and the terms of a level in bit-reversed order of
# their index, so that each level adds the second half of its rows, times p,
# to the first: row block j holds the terms of index bitrev(j)
_ESTRIN_ORDER = sorted(range(len(_ESTRIN_ODD)), key=lambda i: not _ESTRIN_ODD[i])
_ESTRIN_INVERSE = np.argsort(_ESTRIN_ORDER)
_ESTRIN_N_ODD = sum(_ESTRIN_ODD)


def _unrolled_estrin():
    """z -> every series value, then every derivative, by Estrin's scheme,
    as one function built from the float tables here; _estrin_rows makes the
    same operations over an array."""
    powers = ["w"] + [f"w{1 << k}" for k in range(1, _ESTRIN_LEVELS)]
    lines = ["def series(z):", "    w = z * z"]
    lines += [f"    {p} = {q} * {q}" for q, p in zip(powers, powers[1:])]
    terms = []
    for odd, coef in zip(_ESTRIN_ODD, _ESTRIN_COEF):
        level = [repr(c) for c in coef]
        for p in powers:
            level = [f"({a} + {b} * {p})" for a, b in zip(level[0::2], level[1::2])]
        terms.append(f"{level[0]} * z" if odd else level[0])
    lines.append("    return (" + ", ".join(terms) + ",)")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["series"]


def _estrin_table():
    bits = [int(f"{j:0{_ESTRIN_LEVELS}b}"[::-1], 2) for j in range(1 << _ESTRIN_LEVELS)]
    return np.array([[_ESTRIN_COEF[i][k] for i in _ESTRIN_ORDER] for k in bits]).reshape(-1, 1)


# the series at a real or complex scalar z
_scalar_series = _unrolled_estrin()
_ESTRIN_TABLE = _estrin_table()


def _estrin_rows(z):
    """_scalar_series at each entry of a 1-d array of real z, as rows: the
    values, then the derivatives, from the operations of its float function."""
    half = _ESTRIN_TABLE.shape[0] // 2
    p = z * z
    rows = _ESTRIN_TABLE[half:] * p
    rows += _ESTRIN_TABLE[:half]
    while half > len(_ESTRIN_ORDER):
        p = p * p
        half //= 2
        top = rows[half:] * p
        top += rows[:half]
        rows = top
    rows[:_ESTRIN_N_ODD] *= z
    return rows[_ESTRIN_INVERSE]


def _closed_d(z, m):
    """Closed forms together with their z-derivatives (m: _REAL, cmath or numpy)."""
    q = m.exp(-z)
    q2 = q * q
    den = 1.0 - q2
    u = 2.0 * q / den          # 1/sinh(z), exact and overflow-free
    ch = (1.0 + q2) / den      # coth(z)
    val = _values(z, ch, u)
    k1, l2_sum = val.k1, val.l2_sum
    u2 = u * u
    u3 = u2 * u
    u4 = u2 * u2
    ch2 = ch * ch
    zchu = z * ch * u
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


def _as_float(f):
    return lambda z: float(f(z))


# numpy's functions on a real float, handed back as floats: the bits of the
# same z in an array call, at the speed of float arithmetic after the call.
# tanh is the C library's instead (see coth).
_REAL = types.SimpleNamespace(tanh=math.tanh, **{
    name: _as_float(getattr(np, name)) for name in ("exp", "log", "expm1")})


def _lib(z):
    """The functions that evaluate z: numpy for arrays, cmath for complex,
    numpy's through _REAL for a real float."""
    if isinstance(z, np.ndarray):
        return np
    return cmath if isinstance(z, complex) else _REAL


def shape_factors_d(z):
    """Shape factors and their z-derivatives at z = omega*beta (or z = i*omega*T),
    as a pair of tuples (of arrays, for an array z)."""
    m = _lib(z)
    if m is np:
        return split_rows(_factor_rows(z))
    if abs(z) < Z_SWITCH:
        return split_rows(_scalar_series(z))
    return _closed_d(z, m)


def shape_factors(z):
    """The nine kernel shape factors at z = omega*beta (or z = i*omega*T)."""
    return shape_factors_d(z)[0]


# Both coefficient tables as one (18 x powers) matrix, zero-padded to a
# common length, so the series branch of a complex array is a product.  It
# keeps one zero column past z^27: OpenBLAS sums 28 columns in another order,
# which moves the last bit of some entries of arrays of 958 z or more.
_SERIES_LEN = len(_COEF[0]) + 1
_SERIES_MATRIX = np.array([c + [0.0] * (_SERIES_LEN - len(c)) for c in _COEF + _DCOEF])


def split_rows(rows):
    """(shape factors, z-derivatives) of a sequence whose first axis holds the
    nine values, then the nine derivatives (as lattice_factors gives them)."""
    return ShapeFactors(*rows[:len(_NAMES)]), ShapeFactors(*rows[len(_NAMES):])


def _product_rows(zs):
    """The series at a 1-d array of complex z, as a product of the
    coefficient tables with their power matrix."""
    powers = np.empty((_SERIES_LEN, zs.size), dtype=zs.dtype)
    powers[0] = 1.0
    powers[1:] = zs
    np.cumprod(powers[1:], axis=0, out=powers[1:])
    values = np.empty((2 * len(_NAMES), zs.size), dtype=zs.dtype)
    # the tables are real: a complex column is two real ones, side by side
    np.matmul(_SERIES_MATRIX, powers.view(float), out=values.view(float))
    return values


def _factor_rows(z):
    """shape_factors_d over an array of real or complex z as one array: the
    nine values, then the nine z-derivatives, along its first axis.

    The series runs only on the entries inside the switch (|z| < Z_SWITCH,
    as in shape_factors_d), by _estrin_rows for real z and _product_rows for
    complex z; the closed forms run only on the rest.
    """
    z = np.asarray(z)
    complex_z = z.dtype.kind == "c"
    z = z.astype(complex if complex_z else float, copy=False)
    flat = z.reshape(-1)
    series = np.abs(flat) < Z_SWITCH
    n_series = np.count_nonzero(series)
    out = np.empty((2 * len(_NAMES), flat.size), dtype=flat.dtype)
    if n_series:
        idx = slice(None) if n_series == flat.size else np.flatnonzero(series)
        out[:, idx] = (_product_rows if complex_z else _estrin_rows)(flat[idx])
    if n_series < flat.size:
        idx = slice(None) if not n_series else np.flatnonzero(~series)
        val, der = _closed_d(flat[idx], np)
        out[:len(_NAMES), idx] = val
        out[len(_NAMES):, idx] = der
    return out.reshape((2 * len(_NAMES),) + z.shape)


# lattice points per block of a LatticeTable
_TABLE_BLOCK = 64


class LatticeTable:
    """Rows of values on the integer lattice k, filled on demand.

    fill(k_lo, k_hi) gives the rows at k_lo <= k < k_hi, one column per k,
    each column from its own k alone.  The table grows to cover the k asked
    for in blocks of _TABLE_BLOCK lattice points that start at multiples of
    _TABLE_BLOCK, so an entry's bits never depend on which calls grew it,
    or in which order.
    """

    def __init__(self, fill):
        self._fill = fill
        self._state = (0, None)     # (first k, rows), replaced whole on growth

    def span(self, k_lo: int, k_hi: int):
        """The rows at k_lo <= k < k_hi."""
        first, rows = self._state
        if rows is None or k_lo < first or k_hi > first + rows.shape[1]:
            first, rows = self._grow(k_lo, k_hi)
        return rows[:, k_lo - first:k_hi - first]

    def _grow(self, k_lo, k_hi):
        first, rows = self._state
        b = _TABLE_BLOCK
        if rows is not None:
            k_lo, k_hi = min(k_lo, first), max(k_hi, first + rows.shape[1])
        lo, hi = b * (k_lo // b), b * -(-k_hi // b)
        if rows is None:
            rows = self._fill(lo, hi)
        else:
            end = first + rows.shape[1]
            rows = np.concatenate([self._fill(lo, first), rows, self._fill(end, hi)], axis=1)
        self._state = (lo, rows)
        return self._state


def lattice_factors(step: float, k_lo: int, k_hi: int):
    """A LatticeTable fill: z_k = exp(k*step) for k_lo <= k < k_hi, then the
    shape factors there (the nine values, then the nine z-derivatives; see
    split_rows), as rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.exp(np.arange(k_lo, k_hi) * step)
        return np.concatenate([z[None], _factor_rows(z)])


def coth(z):
    """coth(z); a real z takes the C library's tanh, also entry by entry in
    an array.  cmath.tanh takes it on the real axis, so W1 on the
    continuation edge shares this term with imaginary time bit for bit;
    numpy's own tanh differs from it on 8% of arguments on every x86
    dispatch."""
    if isinstance(z, np.ndarray) and z.dtype.kind != "c":
        return 1.0 / np.array([math.tanh(v) for v in z.ravel().tolist()]).reshape(z.shape)
    return 1.0 / _lib(z).tanh(z)


def inv_sinh(z):
    """1/sinh(z) without overflow for large real z (or large Re z), and
    without the cancellation of 1 - exp(-2z) near z = 0."""
    m = _lib(z)
    if m is cmath:
        if abs(z.real) < 20.0:
            # cmath has no expm1, and cmath.sinh cannot overflow here
            return 1.0 / cmath.sinh(z)
        q = cmath.exp(-z)
        return 2.0 * q / (1.0 - q * q)
    return 2.0 * m.exp(-z) / -m.expm1(-2.0 * z)


def log_sinh(z):
    """log(sinh(z)), valid up to z ~ 1e308 for real z > 0.

    For complex z this is the continuous branch on Re(z) >= 0: 1 - exp(-2z)
    stays in the right half plane there, so the principal log of it never
    crosses a cut; on the boundary z = i*theta this picks up exactly one
    factor -i*pi/2 per zero of sinh passed, which is the phase the
    time-sliced propagator accumulates at its focal points.
    """
    if isinstance(z, complex):
        if abs(z) < Z_SWITCH:       # cmath has no expm1; log(z) + log(sinh(z)/z)
            w = z * z
            return cmath.log(z) + w * horner_w(LOG_SINH_RATIO_W, w)
        return z + cmath.log(1.0 - cmath.exp(-2.0 * z)) - _LN2
    m = _lib(z)
    return z + m.log(-m.expm1(-2.0 * z)) - _LN2
