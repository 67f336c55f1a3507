"""Kernel functions: classical bridge, fluctuation width, integrals, W0."""

import cmath
import math

import numpy as np
import pytest
from scipy import integrate

from anharm import (CausticError, EuclideanPoint, OscillatorParams,
                    RealTimePoint, kernel_integrals_imag,
                    kernel_integrals_imag_domega, kernel_integrals_imag_quad,
                    kernel_integrals_real, kernel_integrals_real_domega,
                    path_K, path_L, w0_imag, w0_real)
from anharm.oracle import hermite_functions

SINH1_OVER_SINH2 = 0.32402713683194273       # sinh(1)/sinh(2)
K_AT_MID = 0.38079707797788244               # sinh(1)^2/sinh(2)
IK_11 = 0.15651764274966565                  # (coth 1 - 1)/2
W0_11 = -0.99965821399027056                 # log(1/(2 pi sinh 1))/2
Z_HARMONIC_1 = 0.95951737566747186           # 1/(2 sinh 0.5)


def _five(k):
    return (k.iL2, k.iK, k.iL4, k.iL2K, k.iKK)


def _check_omega_derivatives(integrals, derivatives, p, omega):
    """Analytic omega-derivatives of the five integrals against central
    differences, step 1e-6 * omega; the quotient carries a roundoff floor
    ~ eps |value| / (2h)."""
    h = 1e-6 * omega
    lo, hi = integrals(p, omega - h), integrals(p, omega + h)
    for a, b, got in zip(_five(lo), _five(hi), _five(derivatives(p, omega))):
        fd = (b - a) / (2.0 * h)
        noise = 8e-16 * max(1.0, abs(a)) / (2.0 * h)
        assert abs(fd - got) <= 1e-6 * abs(got) + noise, (p, omega)


class TestValidation:
    def test_params_reject_negative_coupling(self):
        with pytest.raises(ValueError):
            OscillatorParams(1.0, -0.5)

    def test_params_reject_unstable_harmonic(self):
        with pytest.raises(ValueError):
            OscillatorParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            OscillatorParams(0.0, 0.0)

    def test_double_well_allowed(self):
        OscillatorParams(-1.0, 0.1)

    def test_point_rejects_bad_beta(self):
        for beta in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                EuclideanPoint(0.0, 0.0, beta)

    def test_real_point_wedge(self):
        RealTimePoint(0.0, 0.0, 1.0)
        RealTimePoint(0.0, 0.0, -2.0j)
        RealTimePoint(0.0, 0.0, 1.0 - 1.0j)
        for bad in (0.0, -1.0, 1.0 + 1.0j, -0.5 - 0.5j):
            with pytest.raises(ValueError):
                RealTimePoint(0.0, 0.0, bad)

    def test_path_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            path_L(math.nan, 0.0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            path_L(0.0, 0.0, 2.0, 1.0, 1.0)    # t outside [0, beta]
        with pytest.raises(ValueError):
            path_K(0.5, -1.0, 1.0)


class TestPathFunctions:
    def test_diagonal_endpoints(self):
        for c in (-2.0, 0.7):
            assert path_L(c, c, 0.0, 1.3, 2.0) == pytest.approx(c, rel=1e-14)
            assert path_L(c, c, 2.0, 1.3, 2.0) == pytest.approx(c, rel=1e-14)

    def test_zero_endpoints(self):
        for t in (0.0, 0.4, 1.7, 2.0):
            assert path_L(0.0, 0.0, t, 1.0, 2.0) == 0.0

    def test_reference_value_and_bvp_oracle(self):
        # independent check: solve the boundary-value problem x'' = w^2 x
        got = path_L(1.0, 0.0, 1.0, 1.0, 2.0)
        assert got == pytest.approx(SINH1_OVER_SINH2, abs=1e-14)

        def odes(t, y):
            return np.vstack([y[1], y[0]])

        def bc(ya, yb):
            return np.array([ya[0] - 1.0, yb[0]])

        t_mesh = np.linspace(0.0, 2.0, 41)
        sol = integrate.solve_bvp(odes, bc, t_mesh, np.vstack([1 - t_mesh / 2, -0.5 + 0 * t_mesh]),
                                  tol=1e-10)
        assert sol.status == 0
        assert got == pytest.approx(float(sol.sol(1.0)[0]), abs=1e-8)

    def test_endpoint_convention_startpoint_is_x_a(self):
        assert path_L(1.0, 0.0, 0.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-14)
        assert path_L(1.0, 0.0, 2.0, 1.0, 2.0) == 0.0

    def test_width_boundary_zeros(self):
        assert path_K(0.0, 1.0, 2.0) == 0.0
        assert path_K(2.0, 1.0, 2.0) == 0.0

    def test_width_reference_value(self):
        got = path_K(1.0, 1.0, 2.0)
        assert got == pytest.approx(K_AT_MID, abs=1e-14)
        # identity sinh(1)^2 = (cosh 2 - 1)/2
        assert got == pytest.approx((math.cosh(2.0) - 1.0) / (2.0 * math.sinh(2.0)), rel=1e-14)

    def test_width_positive_and_peaked_at_center(self, rng):
        # for large omega*beta the profile is exponentially flat around the
        # middle, so compare values, not argmax positions
        for _ in range(10):
            omega = 10.0 ** rng.uniform(-1, 1)
            beta = 10.0 ** rng.uniform(-1, 1)
            ts = np.linspace(0.0, beta, 101)
            vals = np.array([path_K(t, omega, beta) for t in ts])
            center = path_K(0.5 * beta, omega, beta)
            assert np.all(vals >= 0.0)
            assert np.max(vals) <= center * (1.0 + 1e-12)

    def test_swap_symmetry(self, rng):
        for _ in range(20):
            xa, xb = rng.uniform(-3, 3, 2)
            omega = 10.0 ** rng.uniform(-1, 1)
            beta = 10.0 ** rng.uniform(-1, 1)
            t = rng.uniform(0, beta)
            assert path_L(xa, xb, t, omega, beta) == pytest.approx(
                path_L(xb, xa, beta - t, omega, beta), rel=1e-12, abs=1e-14)
            assert path_K(t, omega, beta) == pytest.approx(
                path_K(beta - t, omega, beta), rel=1e-12, abs=1e-14)

    def test_no_overflow_at_large_horizon(self):
        assert path_K(200.0, 2.0, 400.0) == pytest.approx(1.0 / 4.0, rel=1e-12)
        assert abs(path_L(1.0, 1.0, 200.0, 2.0, 400.0)) < 1e-100


class TestImagIntegrals:
    def test_zero_endpoints_kill_bridge_integrals(self):
        k = kernel_integrals_imag(EuclideanPoint(0.0, 0.0, 1.0), 1.0)
        assert k.iL2 == 0.0 and k.iL4 == 0.0 and k.iL2K == 0.0
        assert k.iK > 0.0 and k.iKK > 0.0

    def test_reference_value(self):
        k = kernel_integrals_imag(EuclideanPoint(0.0, 0.0, 1.0), 1.0)
        assert k.iK == pytest.approx(IK_11, abs=1e-14)

    def test_small_beta_vanishing(self):
        k = kernel_integrals_imag(EuclideanPoint(1.0, 1.0, 1e-3), 1.0)
        assert all(abs(v) < 1e-2 for v in _five(k))

    def test_positive_for_generic_endpoints(self, rng):
        for _ in range(20):
            xa, xb = rng.uniform(0.2, 3, 2)
            k = kernel_integrals_imag(EuclideanPoint(xa, xb, 1.7), 0.9)
            assert all(v > 0.0 for v in _five(k))

    def test_closed_forms_against_quadrature(self, rng):
        worst = 0.0
        for _ in range(100):
            omega = 10.0 ** rng.uniform(-1, 1)
            beta = 10.0 ** rng.uniform(math.log10(0.05), math.log10(20))
            xa, xb = rng.uniform(-5, 5, 2)
            p = EuclideanPoint(xa, xb, beta)
            closed = kernel_integrals_imag(p, omega)
            quad, _ = kernel_integrals_imag_quad(p, omega)
            for a, b in zip(_five(closed), _five(quad)):
                rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
                worst = max(worst, rel)
        assert worst <= 1e-10, worst

    def test_omega_derivatives_match_finite_differences(self, rng):
        for _ in range(30):
            xa, xb = rng.uniform(-2, 2, 2)
            p = EuclideanPoint(xa, xb, 10.0 ** rng.uniform(-1.5, 1.5))
            _check_omega_derivatives(kernel_integrals_imag, kernel_integrals_imag_domega,
                                     p, 10.0 ** rng.uniform(-1, 1))

    def test_swap_symmetry(self, rng):
        for _ in range(20):
            xa, xb = rng.uniform(-3, 3, 2)
            beta = 10.0 ** rng.uniform(-1, 1)
            a = kernel_integrals_imag(EuclideanPoint(xa, xb, beta), 1.1)
            b = kernel_integrals_imag(EuclideanPoint(xb, xa, beta), 1.1)
            assert a == b


class TestW0Imag:
    def test_reference_value(self):
        assert w0_imag(EuclideanPoint(0.0, 0.0, 1.0), 1.0) == pytest.approx(W0_11, abs=1e-14)

    def test_trace_is_harmonic_partition_function(self, rng):
        val = integrate.quad(lambda x: math.exp(w0_imag(EuclideanPoint(x, x, 1.0), 1.0)),
                             -12, 12, epsabs=1e-12, epsrel=1e-12)[0]
        assert val == pytest.approx(Z_HARMONIC_1, abs=1e-8)
        for _ in range(5):
            omega = 10.0 ** rng.uniform(-0.5, 0.5)
            beta = 10.0 ** rng.uniform(-0.5, 0.5)
            half = 8.0 / math.sqrt(omega * math.tanh(omega * beta / 2))
            val = integrate.quad(lambda x: math.exp(w0_imag(EuclideanPoint(x, x, beta), omega)),
                                 -half, half, epsabs=1e-12, epsrel=1e-12)[0]
            assert val == pytest.approx(1.0 / (2.0 * math.sinh(omega * beta / 2.0)), abs=1e-8)

    def test_decays_with_endpoint_separation(self):
        total = 0.8
        vals = [w0_imag(EuclideanPoint((total + d) / 2, (total - d) / 2, 1.3), 1.0)
                for d in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_swap_symmetry(self, rng):
        for _ in range(10):
            xa, xb = rng.uniform(-3, 3, 2)
            assert w0_imag(EuclideanPoint(xa, xb, 2.0), 0.7) == \
                w0_imag(EuclideanPoint(xb, xa, 2.0), 0.7)

    def test_large_horizon_no_overflow(self):
        v = w0_imag(EuclideanPoint(0.5, -0.5, 500.0), 2.0)
        assert math.isfinite(v)


def _spectral_amp(xa, xb, omega, t_complex, nmax=4000):
    grid = np.array([xa, xb])
    phi = hermite_functions(nmax, omega, grid)
    n = np.arange(nmax)
    phases = np.exp(-1j * (n + 0.5) * omega * t_complex)
    return complex(np.sum(phi[0] * phi[1] * phases))


class TestW0Real:
    def test_value_at_quarter_period(self):
        w = w0_real(RealTimePoint(0.0, 0.0, math.pi / 2), 1.0)
        assert w == pytest.approx(complex(-math.pi / 4, math.log(2 * math.pi) / 2), abs=1e-13)
        # the log of the amplitude is i*W = log(1/(2 pi i))/2
        assert 1j * w == pytest.approx(0.5 * cmath.log(1.0 / (2j * math.pi)), abs=1e-13)

    def test_caustic_raises(self):
        with pytest.raises(CausticError):
            w0_real(RealTimePoint(0.0, 0.0, math.pi), 1.0)
        with pytest.raises(CausticError):
            w0_real(RealTimePoint(0.0, 0.0, 1.0), 2.0 * math.pi)

    def test_continuation_identity(self, rng):
        for _ in range(20):
            omega = 10.0 ** rng.uniform(-0.7, 0.7)
            beta = 10.0 ** rng.uniform(-0.7, 0.7)
            xa, xb = rng.uniform(-2, 2, 2)
            wr = w0_real(RealTimePoint(xa, xb, -1j * beta), omega)
            wi = w0_imag(EuclideanPoint(xa, xb, beta), omega)
            assert 1j * wr == pytest.approx(wi, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("treal", [2.0, 4.0, 7.0])
    def test_amplitude_matches_spectral_sum_across_caustics(self, treal):
        # windows n=0,1,2 of floor(wT/pi): checks the focal-point phase
        t = treal - 0.02j
        xa, xb = 0.4, -0.3
        amp = cmath.exp(1j * w0_real(RealTimePoint(xa, xb, t), 1.0))
        ref = _spectral_amp(xa, xb, 1.0, t)
        assert amp == pytest.approx(ref, rel=1e-9)

    def test_real_axis_is_wedge_boundary_limit(self):
        p_real = w0_real(RealTimePoint(0.4, -0.3, 4.0), 1.0)
        p_near = w0_real(RealTimePoint(0.4, -0.3, 4.0 - 1e-9j), 1.0)
        assert p_real == pytest.approx(p_near, rel=1e-6)


class TestRealIntegrals:
    def test_quarter_period_width_integral(self):
        k = kernel_integrals_real(RealTimePoint(0.0, 0.0, math.pi / 2), 1.0)
        # int_0^{pi/2} sin(t) sin(pi/2 - t) dt = 1/2
        quad = integrate.quad(lambda t: math.sin(t) * math.sin(math.pi / 2 - t), 0, math.pi / 2)[0]
        assert k.iK == pytest.approx(quad, rel=1e-12)
        assert k.iK == pytest.approx(0.5, rel=1e-12)

    def test_zero_endpoints(self):
        k = kernel_integrals_real(RealTimePoint(0.0, 0.0, 1.3), 1.0)
        assert k.iL2 == 0.0 and k.iL4 == 0.0 and k.iL2K == 0.0

    def test_against_direct_quadrature(self, rng):
        for _ in range(5):
            omega = 10.0 ** rng.uniform(-0.5, 0.3)
            T = rng.uniform(0.3, 2.8)
            if abs(math.sin(omega * T)) < 1e-3:
                continue
            xa, xb = rng.uniform(-2, 2, 2)
            k = kernel_integrals_real(RealTimePoint(xa, xb, T), omega)

            def lt(t):
                return (xa * math.sin(omega * (T - t)) + xb * math.sin(omega * t)) \
                    / math.sin(omega * T)

            def kt(t):
                return math.sin(omega * t) * math.sin(omega * (T - t)) \
                    / (omega * math.sin(omega * T))

            for got, f in [(k.iL2, lambda t: lt(t) ** 2), (k.iK, kt),
                           (k.iL4, lambda t: lt(t) ** 4),
                           (k.iL2K, lambda t: lt(t) ** 2 * kt(t)),
                           (k.iKK, lambda t: kt(t) ** 2)]:
                want = integrate.quad(f, 0.0, T, epsabs=1e-12, epsrel=1e-12)[0]
                assert got.imag == pytest.approx(0.0, abs=1e-12)
                assert got.real == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_continuation_map(self, rng):
        # at T = -i*beta:  (iL2, iK, iL4, iL2K, iKK)_real
        #                = (-i a, -b, -i c, -d, +i e)_imag
        for _ in range(20):
            omega = 10.0 ** rng.uniform(-0.7, 0.7)
            beta = 10.0 ** rng.uniform(-0.7, 0.7)
            xa, xb = rng.uniform(-2, 2, 2)
            kr = kernel_integrals_real(RealTimePoint(xa, xb, -1j * beta), omega)
            ki = kernel_integrals_imag(EuclideanPoint(xa, xb, beta), omega)
            factors = (-1j, -1.0, -1j, -1.0, 1j)
            for got, fac, want in zip(_five(kr), factors, _five(ki)):
                assert got == pytest.approx(fac * want, rel=1e-9, abs=1e-13)

    def test_omega_derivatives_match_finite_differences(self, rng):
        # real T away from the focal points, the wedge and its edge T = -i*beta
        for k in range(30):
            omega = 10.0 ** rng.uniform(-0.7, 0.7)
            size = rng.uniform(0.2, 3.0)
            T = (size, size * cmath.exp(-0.5j * math.pi * rng.uniform(0.05, 0.95)),
                 -1j * size)[k % 3]
            if k % 3 == 0 and abs(math.sin(omega * T)) < 1e-2:
                continue
            xa, xb = rng.uniform(-2, 2, 2)
            _check_omega_derivatives(kernel_integrals_real, kernel_integrals_real_domega,
                                     RealTimePoint(xa, xb, T), omega)

    def test_caustic_raises(self):
        with pytest.raises(CausticError):
            kernel_integrals_real(RealTimePoint(0.0, 0.0, math.pi), 1.0)
