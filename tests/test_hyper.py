"""Series tables and branch consistency of the hyperbolic shape factors."""

import cmath
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


@pytest.mark.parametrize("z", [0.35, 0.45, 0.5, 0.55, 0.65, 0.75])
def test_series_and_closed_forms_agree_near_switch(z):
    series = [hyper.horner_w(c, z) for c in hyper._COEF]
    closed, _ = hyper._closed_d(z, math)
    for name, a, b in zip(NAMES, series, closed):
        assert a == pytest.approx(b, rel=5e-13), (name, z)


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
    val, der = hyper.shape_factors_d(zs)
    gval, gder = hyper.shape_factors_d_grid(zs)
    for a, b, c in zip(hyper.shape_factors(zs), val, gval):
        assert np.array_equal(a, b) and np.array_equal(b, c)
    for a, b in zip(der, gder):
        assert np.array_equal(a, b)


def test_grid_evaluation_matches_scalar():
    zs = np.geomspace(1e-3, 300.0, 40)
    gval, gder = hyper.shape_factors_d_grid(zs)
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


def test_coth_real_complex_and_array():
    for z in (0.01, 1.0, 40.0):
        assert hyper.coth(z) == pytest.approx(math.cosh(z) / math.sinh(z), rel=1e-14)
    for z in (complex(0.3, 0.2), complex(1e-9, 1.2), complex(3.0, -4.0)):
        assert hyper.coth(z) == pytest.approx(cmath.cosh(z) / cmath.sinh(z), rel=1e-14)
    zs = np.array([0.01, 1.0, 40.0])
    assert hyper.coth(zs) == pytest.approx(np.cosh(zs) / np.sinh(zs), rel=1e-14)
