"""Series tables and branch consistency of the hyperbolic shape factors."""

import cmath
import functools
import math

import numpy as np
import pytest

from anharm import hyper

NAMES = hyper.ShapeFactors._fields


def _sympy_funcs():
    import sympy as sp
    z = sp.symbols("z")
    ch = sp.coth(z)
    u = 1 / sp.sinh(z)
    k1 = z * ch - 1
    return z, {
        "l2_sum": ch - z * u**2,
        "l2_cross": k1 * u,
        "k1": k1,
        "l4_sum": ch**3 / 4 - sp.Rational(5, 8) * ch * u**2 + sp.Rational(3, 8) * z * u**4,
        "l4_cross": (u - 3 * k1 * u**3) / 8,
        "l4_sq": sp.Rational(3, 8) * z * u**4 + z * u**2 / 4 - sp.Rational(3, 8) * ch * u**2,
        "l2k_sum": (1 - 3 * k1 * u**2) / 8,
        "l2k_cross": sp.Rational(3, 8) * z * u**3 + z * u / 4 - sp.Rational(3, 8) * ch * u,
        "k2": z / 4 + sp.Rational(3, 8) * z * u**2 - sp.Rational(3, 8) * ch,
    }


def test_series_tables_match_sympy():
    import sympy as sp
    nterms = 16
    z, funcs = _sympy_funcs()
    for name, expr in funcs.items():
        poly = sp.Poly(sp.series(expr, z, 0, nterms).removeO(), z)
        stored = hyper._SERIES[name]
        for k in range(nterms):
            want = float(poly.coeff_monomial(z**k))
            got = stored[k]
            assert got == pytest.approx(want, rel=1e-13, abs=1e-300), (name, k)


def test_log_sinh_ratio_series_matches_sympy():
    import sympy as sp
    z = sp.symbols("z")
    poly = sp.Poly(sp.series(sp.log(sp.sinh(z) / z), z, 0, 12).removeO(), z)
    for k, got in enumerate(hyper.LOG_SINH_RATIO_W[:5], start=1):
        assert got == pytest.approx(float(poly.coeff_monomial(z ** (2 * k))), rel=1e-13)


def test_derived_tables_are_the_exact_coefficients_rounded():
    # every entry, to the last one: the nearest float to sympy's exact
    # rational coefficient, as the exact arithmetic at import must give
    import sympy as sp
    z, funcs = _sympy_funcs()
    for name, expr in funcs.items():
        stored = hyper._SERIES[name]
        poly = sp.Poly(sp.series(expr, z, 0, len(stored)).removeO(), z)
        assert stored == [float(poly.coeff_monomial(z**k)) for k in range(len(stored))], name
    n = len(hyper.LOG_SINH_RATIO_W)
    poly = sp.Poly(sp.series(sp.log(sp.sinh(z) / z), z, 0, 2 * n + 1).removeO(), z)
    assert hyper.LOG_SINH_RATIO_W == [float(poly.coeff_monomial(z ** (2 * k)))
                                      for k in range(1, n + 1)]
    assert n == 14 and {len(c) for c in hyper._COEF} == {28}


@pytest.mark.parametrize("z", [0.35, 0.45, 0.5, 0.55, 0.65, 0.75])
def test_series_and_closed_forms_agree_near_switch(z):
    series = [hyper.horner_w(c, z) for c in hyper._COEF]
    closed, _ = hyper._closed_d(z, math)
    for name, a, b in zip(NAMES, series, closed):
        assert a == pytest.approx(b, rel=5e-13), (name, z)


def _estrin(coef, z):
    """An independent copy of Estrin's scheme for a series odd or even in z:
    its coefficients of w = z^2, zero-padded to 16, added in neighbouring
    pairs a + b*p with p = w, w^2, w^4, w^8."""
    odd = next(k for k, c in enumerate(coef) if c != 0.0) % 2
    terms = [float(c) for c in coef[odd::2]]
    terms += [0.0] * (16 - len(terms))
    p = z * z
    while len(terms) > 1:
        terms = [a + b * p for a, b in zip(terms[0::2], terms[1::2])]
        p = p * p
    return terms[0] * z if odd else terms[0]


def _bits(v):
    v = complex(v)
    return (v.real, v.imag, math.copysign(1.0, v.real), math.copysign(1.0, v.imag))


@pytest.mark.parametrize("z", [0.0, -0.0, 1e-9, 0.05, 0.3, 0.49, -0.2,
                               0.3j, complex(-0.0, 0.3), complex(0.0, -0.3),
                               complex(-0.0, -0.3), complex(0.3, -0.0),
                               cmath.rect(0.4, 2.0), cmath.rect(0.2, -0.7)])
def test_scalar_series_is_estrin_bit_for_bit(z):
    # the unrolled series of shape_factors_d make the operations of Estrin's
    # scheme in z^2, for a real and for a complex z
    val, der = hyper.shape_factors_d(z)
    for got, coef in zip(val + der, hyper._COEF + hyper._DCOEF):
        want = _estrin(coef, z)
        assert type(got) is type(want)
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("z", [0.05, 0.3, 0.49, 0.51, 1.7, 8.0, 60.0, 400.0])
def test_derivatives_match_finite_differences(z):
    h = 1e-6 * max(z, 1.0)
    lo = hyper.shape_factors(z - h)
    hi = hyper.shape_factors(z + h)
    _, der = hyper.shape_factors_d(z)
    for name, a, b, d in zip(NAMES, lo, hi, der):
        fd = (b - a) / (2.0 * h)
        # abs floor covers the roundoff of the difference quotient when the
        # true derivative is exponentially small
        assert d == pytest.approx(fd, rel=2e-7, abs=1e-9), (name, z)


def test_values_and_derivatives_consistent_between_entry_points():
    for z in (0.02, 0.3, 0.7, 3.0, 45.0, complex(0.2, 0.1), complex(0.4, 3.0)):
        val = hyper.shape_factors(z)
        val2, _ = hyper.shape_factors_d(z)
        assert val == val2
    # an array z runs the grid evaluation
    zs = np.array([0.02, 0.3, 0.7, 3.0, 45.0])
    val, _ = hyper.shape_factors_d(zs)
    for a, b in zip(hyper.shape_factors(zs), val):
        assert np.array_equal(a, b)


def test_grid_evaluation_matches_scalar():
    zs = np.geomspace(1e-3, 300.0, 40)
    gval, gder = hyper.shape_factors_d(zs)
    for i, z in enumerate(zs):
        sval, sder = hyper.shape_factors_d(float(z))
        for k in range(9):
            assert gval[k][i] == pytest.approx(sval[k], rel=5e-13, abs=1e-280)
            assert gder[k][i] == pytest.approx(sder[k], rel=5e-13, abs=1e-280)


def test_complex_evaluation_matches_real_axis():
    for z in (0.2, 0.9, 4.0):
        re = hyper.shape_factors(z)
        co = hyper.shape_factors(complex(z, 0.0))
        for a, b in zip(re, co):
            assert b.imag == 0.0
            assert a == pytest.approx(b.real, rel=1e-12)


def test_log_sinh_stable():
    zs = (0.01, 0.5, 3.0, 300.0, 800.0, 5000.0)
    on_array = hyper.log_sinh(np.array(zs))
    for z, from_array in zip(zs, on_array):
        if z < 350:
            want = math.log(math.sinh(z))
        else:
            # sinh overflows but the log must not
            want = z - math.log(2.0)
        assert hyper.log_sinh(z) == pytest.approx(want, rel=1e-13)
        assert from_array == pytest.approx(want, rel=1e-13)


def test_log_sinh_accurate_near_zero():
    # 1 - exp(-2z) loses digits as z -> 0 (5e-14 of log sinh at z = 1e-3);
    # against mpmath both branches hold 2 ulp on z in [1e-4, 0.5], complex z
    # over the right half plane
    import mpmath
    radii = np.geomspace(1e-4, 0.5, 301)
    phases = np.exp(1j * np.linspace(-math.pi / 2, math.pi / 2, 13))
    with mpmath.workdps(40):
        for z in radii.tolist():
            want = float(mpmath.log(mpmath.sinh(mpmath.mpf(z))))
            assert abs(hyper.log_sinh(z) - want) <= 4.4e-16 * abs(want), z
        for z in (radii[::10, None] * phases).ravel().tolist():
            want = complex(mpmath.log(mpmath.sinh(mpmath.mpc(z))))
            assert abs(hyper.log_sinh(z) - want) <= 4.4e-16 * abs(want), z


def test_log_sinh_wedge_exponentiates_to_sinh():
    pts = [0.3 + 0.2j, 1.0 + 2.0j, 0.5 + 4.5j, 2.0 + 9.0j, 1e-3 + 0.6j]
    for z in pts:
        assert cmath.exp(hyper.log_sinh(z)) == pytest.approx(cmath.sinh(z), rel=1e-12)


def test_inv_sinh_no_overflow():
    assert hyper.inv_sinh(800.0) == 0.0
    assert hyper.inv_sinh(1.0) == pytest.approx(1.0 / math.sinh(1.0), rel=1e-14)
    assert hyper.inv_sinh(complex(800.0, 0.3)) == 0.0
    for z in (complex(1.0, 0.5), complex(25.0, 2.0), complex(1e-9, 0.7)):
        assert hyper.inv_sinh(z) == pytest.approx(1.0 / cmath.sinh(z), rel=1e-14)
    on_array = hyper.inv_sinh(np.array([800.0, 1.0]))
    assert on_array[0] == 0.0
    assert on_array[1] == pytest.approx(1.0 / math.sinh(1.0), rel=1e-14)


def test_inv_sinh_keeps_its_digits_near_zero():
    # 1 - exp(-2z) cancels as z -> 0; at z = 0.01 it cost 3.2e-15 relative
    import mpmath
    zs = np.geomspace(1e-6, 0.5, 13)
    on_array = hyper.inv_sinh(zs)
    for z, a in zip(zs.tolist(), on_array):
        want = float(1 / mpmath.sinh(mpmath.mpf(z)))
        assert abs(hyper.inv_sinh(z) - want) <= 4e-16 * want
        assert abs(a - want) <= 4e-16 * want


def test_coth_real_complex_and_array():
    for z in (0.01, 1.0, 40.0):
        assert hyper.coth(z) == pytest.approx(math.cosh(z) / math.sinh(z), rel=1e-14)
    for z in (complex(0.3, 0.2), complex(1e-9, 1.2), complex(3.0, -4.0)):
        assert hyper.coth(z) == pytest.approx(cmath.cosh(z) / cmath.sinh(z), rel=1e-14)
    zs = np.array([0.01, 1.0, 40.0])
    assert hyper.coth(zs) == pytest.approx(np.cosh(zs) / np.sinh(zs), rel=1e-14)


def _grid_complex_reference(z):
    """shape_factors_d for an array of complex z, an independent copy: one
    series product, a complex column as two real ones, closed forms on the
    rest."""
    series = np.abs(z) < hyper.Z_SWITCH
    out = np.empty((18, z.size), dtype=complex)
    zs = z[series]
    powers = np.empty((hyper._SERIES_LEN, zs.size), dtype=complex)
    powers[0] = 1.0
    np.cumprod(np.broadcast_to(zs, (hyper._SERIES_LEN - 1, zs.size)), axis=0, out=powers[1:])
    values = np.empty((18, zs.size), dtype=complex)
    np.matmul(hyper._SERIES_MATRIX, powers.view(float), out=values.view(float))
    out[:, series] = values
    val, der = hyper._closed_d(z[~series], np)
    out[:9, ~series] = val
    out[9:, ~series] = der
    return out


@pytest.mark.parametrize("n", [5, 200, 1001])
def test_grid_on_real_z_keeps_its_bits(n):
    # both branches: every entry has the bits of the same float alone, so a
    # point gets the same shape factors in any batch
    z = np.geomspace(1e-3, 600.0, n)
    z[: n // 2] = np.linspace(1e-3, 0.499, n // 2)
    val, der = hyper.shape_factors_d(z)
    rows = np.stack(val + der)
    for k, zk in enumerate(z.tolist()):
        val, der = hyper.shape_factors_d(zk)
        assert rows[:, k].tolist() == list(val + der), zk


@pytest.mark.parametrize("n", [5, 1001])
def test_grid_on_complex_z_keeps_its_bits(n):
    # both branches, and at n = 1001 a product large enough for OpenBLAS to
    # split across threads: the real-time scan's shape factors are those of
    # the product
    rng = np.random.default_rng(n)
    z = rng.uniform(0.0, 3.0, n) * np.exp(1j * rng.uniform(0.0, math.pi / 2, n))
    z[: n // 2] *= hyper.Z_SWITCH / 3.0
    val, der = hyper.shape_factors_d(z)
    assert np.array_equal(np.stack(val + der), _grid_complex_reference(z))


def test_real_floats_match_array_entries():
    # a real float gets the bits of the same z as an array entry
    zs = np.geomspace(1e-3, 700.0, 4001)
    for f in (hyper.log_sinh, hyper.coth, hyper.inv_sinh):
        on_array = f(zs)
        assert [f(v) for v in zs.tolist()] == on_array.tolist(), f.__name__
    # and the series of the shape factors, Estrin's scheme alone and as rows,
    # down to the smallest |z| and the two signed zeros
    small = np.geomspace(1e-300, hyper.Z_SWITCH, 20000, endpoint=False)
    zs = np.concatenate([[0.0, -0.0], small, -small])
    val, der = hyper.shape_factors_d(zs)
    on_floats = np.array([v + d for v, d in map(hyper.shape_factors_d, zs.tolist())]).T
    assert np.array_equal(on_floats.view(np.int64), np.stack(val + der).view(np.int64))


@pytest.mark.parametrize("z", [-0.6, -1.0, -2.0, -3.0, -5.0])
def test_negative_real_z_takes_the_closed_forms(z):
    """Past |z| = Z_SWITCH a real z takes the closed forms on both sides of 0,
    as a complex z does: the series stops at z^27 and was 14% off in k1 at
    z = -3.  Against 40 digits the closed forms hold 1e-13 of max(1, |value|):
    their terms cancel in the smaller derivatives, at z = +0.6 as at -0.6."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = np.array([float(f(mpmath.mpf(z))) for f in _mpmath_shape_factors()])
    as_complex = np.array(sum(hyper.shape_factors_d(complex(z)), ())).real
    val, der = hyper.shape_factors_d(z)
    arr_val, arr_der = hyper.shape_factors_d(np.array([z]))
    for got in (np.array(val + der), np.stack(arr_val + arr_der)[:, 0]):
        assert np.all(np.abs(got - as_complex) <= 1e-13 * np.abs(as_complex)), z
        assert np.all(np.abs(got - exact) <= 1e-13 * np.maximum(1.0, np.abs(exact))), z


def _complex_samples():
    rng = np.random.default_rng(314)
    ring = rng.uniform(0.4, 0.6, 400) * np.exp(1j * rng.uniform(0.0, math.pi / 2, 400))
    axis = 1j * np.concatenate([rng.uniform(0.05, 0.7, 100), rng.uniform(0.7, 40.0, 300)])
    wedge = rng.uniform(0.05, 40.0, 400) * np.exp(1j * rng.uniform(0.0, math.pi / 2, 400))
    return {"switch ring": ring, "imaginary axis": axis, "wedge": wedge}


@pytest.mark.parametrize("region", ["switch ring", "imaginary axis", "wedge"])
def test_grid_on_complex_z_matches_scalar(region):
    """Series entries agree to 1e-14 of their value.  Closed-form entries carry
    the rounding of terms up to |z| m^5 (m = max(1, |coth z|, |1/sinh z|)),
    which cancel, and near a focal point 1 - exp(-2z) loses a further factor
    m; they agree to 1e-14 of max(1, |z|) m^6."""
    z = _complex_samples()[region]
    val, der = hyper.shape_factors_d(z)
    assert np.iscomplexobj(val.k1)
    for k, zk in enumerate(z.tolist()):
        sval, sder = hyper.shape_factors_d(zk)
        m = max(1.0, abs(1.0 / cmath.tanh(zk)), abs(1.0 / cmath.sinh(zk)))
        for a, b in zip(val + der, sval + sder):
            scale = abs(b) if abs(zk) < hyper.Z_SWITCH else max(1.0, abs(zk)) * m ** 6
            assert abs(a[k] - b) <= 1e-14 * scale, (region, zk)


@functools.cache
def _mpmath_shape_factors():
    """The sympy shape factors and their z-derivatives, as mpmath functions."""
    import sympy as sp
    z, funcs = _sympy_funcs()
    exprs = [funcs[name] for name in NAMES]
    return [sp.lambdify(z, e, "mpmath") for e in exprs + [sp.diff(e, z) for e in exprs]]


@pytest.mark.parametrize("region", ["switch ring", "imaginary axis", "wedge"])
def test_grid_on_complex_z_matches_40_digits(region):
    """Every entry, series or closed form, to 1e-12 of its own magnitude
    against the sympy forms and their derivatives in 40-digit arithmetic,
    up to |1/sinh z| past 1e3 on the imaginary axis (next to the focal
    points z = i n pi)."""
    mpmath = pytest.importorskip("mpmath")
    exact = _mpmath_shape_factors()
    zs = _complex_samples()[region]
    val, der = hyper.shape_factors_d(zs)
    grid = np.stack(val + der)
    with mpmath.workdps(40):
        for k, zk in enumerate(zs.tolist()):
            want = np.array([complex(f(mpmath.mpc(zk.real, zk.imag))) for f in exact])
            assert np.all(np.abs(grid[:, k] - want) <= 1e-12 * np.abs(want)), (region, zk)


def test_grid_takes_the_series_inside_the_switch_circle():
    # the same |z| as a real z just past the switch and a complex one inside
    z = np.array([0.499 + 0.0j, 0.3 + 0.39j, 0.4j, 0.5 + 0.01j])
    val, _ = hyper.shape_factors_d(z)
    for k, zk in enumerate(z.tolist()):
        series = hyper.horner_w(hyper._SERIES["k1"], zk)
        closed = hyper._closed_d(zk, cmath)[0].k1
        want = series if abs(zk) < hyper.Z_SWITCH else closed
        assert val.k1[k] == pytest.approx(want, rel=1e-14, abs=0.0)


def test_table_entries_do_not_depend_on_how_it_grew():
    step = 0.05
    grown = hyper.LatticeTable(functools.partial(hyper.lattice_factors, step))
    for k_lo, k_hi in ((300, 420), (-130, -60), (7, 8), (-200, 500)):
        grown.span(k_lo, k_hi)
    fresh = hyper.LatticeTable(functools.partial(hyper.lattice_factors, step)).span(-200, 500)
    z, rows = fresh[0], fresh[1:]
    assert np.array_equal(grown.span(-200, 500)[0], z)
    assert np.array_equal(grown.span(-200, 500)[1:], rows)
    assert np.allclose(z, np.exp(np.arange(-200, 500) * step), rtol=2e-16, atol=0.0)
    val, der = hyper.shape_factors_d(z)
    assert np.array_equal(rows, np.stack(val + der))
