"""First-order amplitude, gap residual, and the trial-frequency optimizers."""

import cmath
import math

import numpy as np
import pytest
from scipy import integrate

from anharm import (EuclideanPoint, OscillatorParams, RealTimePoint,
                    gap_residual_imag, gap_residual_real, optimize_omega_imag,
                    optimize_omega_real, optimized_w1_imag, optimized_w1_real,
                    w0_imag, w0_real, w1_imag, w1_real)
from anharm import oep
from anharm.kernels import kernel_integrals_imag
from anharm.oep import _residual_scan, optimize_omega_imag_diagonal, scan_window

CUBIC_ROOT_6 = 1.8171205928321397   # real root of w^3 = 6


def _w1_imag_by_quadrature(params, p, omega):
    """Independent assembly of W1 from quadrature of the kernel integrands."""
    from anharm import path_K, path_L

    def L(t):
        return path_L(p.x_a, p.x_b, t, omega, p.beta)

    def K(t):
        return path_K(t, omega, p.beta)

    def q(f):
        return integrate.quad(f, 0.0, p.beta, epsabs=1e-13, epsrel=1e-13)[0]

    il2, ik = q(lambda t: L(t) ** 2), q(K)
    il4 = q(lambda t: L(t) ** 4)
    il2k = q(lambda t: L(t) ** 2 * K(t))
    ikk = q(lambda t: K(t) ** 2)
    return (w0_imag(p, omega) - 0.5 * (params.m2 - omega ** 2) * (il2 + ik)
            - params.lam * (il4 + 6 * il2k + 3 * ikk))


def _w1_real_by_quadrature(params, p, omega):
    T = p.T

    def L(t):
        return (p.x_a * math.sin(omega * (T - t)) + p.x_b * math.sin(omega * t)) \
            / math.sin(omega * T)

    def K(t):
        return math.sin(omega * t) * math.sin(omega * (T - t)) / (omega * math.sin(omega * T))

    def q(f):
        return integrate.quad(f, 0.0, T, epsabs=1e-13, epsrel=1e-13)[0]

    il2, ik = q(lambda t: L(t) ** 2), q(K)
    il4 = q(lambda t: L(t) ** 4)
    il2k = q(lambda t: L(t) ** 2 * K(t))
    ikk = q(lambda t: K(t) ** 2)
    return (w0_real(p, omega) - 0.5 * (params.m2 - omega ** 2) * (il2 + 1j * ik)
            - params.lam * (il4 + 6j * il2k - 3 * ikk))


class TestFirstOrderAmplitude:
    def test_harmonic_limit_is_exact(self, harmonic, rng):
        for _ in range(10):
            xa, xb = rng.uniform(-2, 2, 2)
            beta = 10.0 ** rng.uniform(-1, 1)
            p = EuclideanPoint(xa, xb, beta)
            assert w1_imag(harmonic, p, 1.0) == w0_imag(p, 1.0)

    def test_harmonic_off_frequency_has_only_quadratic_term(self, harmonic):
        p = EuclideanPoint(0.6, -0.2, 1.4)
        omega = 1.7
        k = kernel_integrals_imag(p, omega)
        want = w0_imag(p, omega) - 0.5 * (1.0 - omega ** 2) * (k.iL2 + k.iK)
        assert w1_imag(harmonic, p, omega) == pytest.approx(want, rel=1e-14)

    def test_quadrature_assembly_quartic(self, quartic):
        p = EuclideanPoint(0.0, 0.0, 1.0)
        got = w1_imag(quartic, p, 2.0)
        want = _w1_imag_by_quadrature(quartic, p, 2.0)
        assert got == pytest.approx(want, rel=1e-10)

    def test_quadrature_assembly_generic(self):
        params = OscillatorParams(0.7, 0.4)
        p = EuclideanPoint(1.1, -0.8, 2.7)
        got = w1_imag(params, p, 1.3)
        assert got == pytest.approx(_w1_imag_by_quadrature(params, p, 1.3), rel=1e-10)

    def test_real_time_harmonic_limit(self, harmonic):
        p = RealTimePoint(0.5, -0.1, 1.2)
        assert w1_real(harmonic, p, 1.0) == w0_real(p, 1.0)

    def test_real_time_quadrature_assembly(self):
        params = OscillatorParams(1.0, 0.1)
        p = RealTimePoint(0.5, 0.5, 1.0)
        got = w1_real(params, p, 1.2)
        want = _w1_real_by_quadrature(params, p, 1.2)
        assert got == pytest.approx(want, rel=1e-10)

    def test_continuation_identity(self, rng):
        params = OscillatorParams(0.4, 0.9)
        for _ in range(20):
            omega = 10.0 ** rng.uniform(-0.7, 0.7)
            beta = 10.0 ** rng.uniform(-0.7, 0.7)
            xa, xb = rng.uniform(-2, 2, 2)
            wr = w1_real(params, RealTimePoint(xa, xb, -1j * beta), omega)
            wi = w1_imag(params, EuclideanPoint(xa, xb, beta), omega)
            assert 1j * wr == pytest.approx(wi, rel=1e-9, abs=1e-12)

    def test_diagonal_parity(self, quartic, rng):
        for _ in range(10):
            x = rng.uniform(0, 2.5)
            beta = 10.0 ** rng.uniform(-0.5, 0.5)
            assert w1_imag(quartic, EuclideanPoint(x, x, beta), 1.2) == \
                w1_imag(quartic, EuclideanPoint(-x, -x, beta), 1.2)

    def test_offdiagonal_swap_symmetry(self, quartic, rng):
        for _ in range(10):
            xa, xb = rng.uniform(-2, 2, 2)
            assert w1_imag(quartic, EuclideanPoint(xa, xb, 1.7), 0.9) == \
                w1_imag(quartic, EuclideanPoint(xb, xa, 1.7), 0.9)


class TestGapResidual:
    def test_harmonic_zero_at_bare_frequency(self, harmonic, rng):
        for _ in range(5):
            xa, xb = rng.uniform(-2, 2, 2)
            beta = 10.0 ** rng.uniform(-0.5, 0.5)
            assert gap_residual_imag(harmonic, EuclideanPoint(xa, xb, beta), 1.0) == 0.0

    def test_finite_difference_agreement(self, rng):
        # central differences of W1 itself, step 1e-6 * omega; the quotient
        # carries an unavoidable roundoff floor ~ eps |W| / (2h)
        for _ in range(50):
            params = OscillatorParams(rng.uniform(-1, 2), rng.uniform(0.05, 2))
            xa, xb = rng.uniform(-2, 2, 2)
            beta = 10.0 ** rng.uniform(-0.7, 0.9)
            omega = 10.0 ** rng.uniform(-0.7, 0.7)
            p = EuclideanPoint(xa, xb, beta)
            h = 1e-6 * omega
            fd = (w1_imag(params, p, omega + h) - w1_imag(params, p, omega - h)) / (2 * h)
            an = gap_residual_imag(params, p, omega)
            noise = 8e-16 * max(1.0, abs(w1_imag(params, p, omega))) / (2 * h)
            assert abs(fd - an) <= 1e-6 * abs(an) + noise

    def test_residual_changes_sign_on_scan(self, quartic):
        p = EuclideanPoint(0.0, 0.0, 5.0)
        grid = scan_window(quartic, 0.0, 0.0, 5.0)
        vals = _residual_scan(quartic, p, grid)
        signs = np.sign(vals)
        assert np.any(signs[:-1] != signs[1:])

    def test_real_time_finite_difference(self, rng):
        params = OscillatorParams(0.8, 0.3)
        for _ in range(10):
            p = RealTimePoint(*rng.uniform(-1.5, 1.5, 2), rng.uniform(0.4, 2.5))
            omega = 10.0 ** rng.uniform(-0.4, 0.4)
            if abs(math.sin(omega * p.T)) < 1e-2:
                continue
            h = 1e-6 * omega
            fd = (w1_real(params, p, omega + h) - w1_real(params, p, omega - h)) / (2 * h)
            an = gap_residual_real(params, p, omega)
            assert an == pytest.approx(fd, rel=2e-6, abs=1e-10)


class TestOptimizeImag:
    def test_harmonic_recovers_bare_frequency(self, harmonic):
        for beta in (0.1, 1.0, 5.0, 20.0):
            g = optimize_omega_imag(harmonic, EuclideanPoint(0.0, 0.0, beta))
            assert abs(g.omega_star - 1.0) < 1e-8
            assert not g.fallback_used

    def test_low_temperature_matches_cubic_scale(self, quartic):
        g = optimize_omega_imag(quartic, EuclideanPoint(0.0, 0.0, 20.0))
        assert abs(g.omega_star - CUBIC_ROOT_6) / CUBIC_ROOT_6 < 0.2

    def test_omega_even_in_diagonal_position(self, quartic, rng):
        for _ in range(8):
            x = rng.uniform(0, 2.5)
            beta = 10.0 ** rng.uniform(-0.5, 0.7)
            a = optimize_omega_imag(quartic, EuclideanPoint(x, x, beta))
            b = optimize_omega_imag(quartic, EuclideanPoint(-x, -x, beta))
            assert a.omega_star == b.omega_star

    def test_stationarity_tolerance(self, rng):
        for _ in range(15):
            params = OscillatorParams(rng.uniform(-0.5, 2), rng.uniform(0.05, 3))
            p = EuclideanPoint(*rng.uniform(-2, 2, 2), 10.0 ** rng.uniform(-0.7, 1.0))
            g = optimize_omega_imag(params, p)
            if not g.fallback_used:
                scale = max(1.0, abs(w1_imag(params, p, g.omega_star)) / g.omega_star)
                assert g.residual <= 1e-10 * scale
                assert g.bracket[0] <= g.omega_star <= g.bracket[1]

    def test_local_flatness_quadratic(self, quartic):
        for (xa, xb, beta) in [(0.4, 0.4, 3.0), (0.0, 0.0, 1.0), (1.0, -0.5, 0.7)]:
            p = EuclideanPoint(xa, xb, beta)
            g = optimize_omega_imag(quartic, p)
            base = w1_imag(quartic, p, g.omega_star)
            up = w1_imag(quartic, p, g.omega_star * (1 + 1e-3)) - base
            dn = w1_imag(quartic, p, g.omega_star * (1 - 1e-3)) - base
            assert up / dn == pytest.approx(1.0, abs=0.05)

    def test_double_well_has_genuine_root(self, double_well):
        g = optimize_omega_imag(double_well, EuclideanPoint(0.0, 0.0, 5.0))
        assert g.omega_star > 0 and not g.fallback_used
        assert g.n_roots >= 1

    def test_amplitude_wrapper_reproduces_value(self, quartic):
        p = EuclideanPoint(0.3, -0.4, 2.0)
        amp = optimized_w1_imag(quartic, p)
        assert amp.w_value == w1_imag(quartic, p, amp.gap.omega_star)
        assert amp.point == p


class TestOptimizeReal:
    def test_harmonic_exact_root(self, harmonic):
        g = optimize_omega_real(harmonic, RealTimePoint(0.4, -0.3, 2.0))
        assert g.omega_star == pytest.approx(1.0, abs=1e-10)
        assert g.residual <= 1e-10
        assert not g.fallback_used

    def test_perturbative_shift_small(self):
        params = OscillatorParams(1.0, 0.01)
        g = optimize_omega_real(params, RealTimePoint(0.3, 0.1, 0.5))
        assert abs(g.omega_star - 1.0) < 0.05
        # a complex residual has no real zero here; the flag must say so
        assert g.fallback_used

    def test_rotation_approaches_imaginary_time_solution(self, quartic):
        beta = 1.3
        target = optimize_omega_imag(quartic, EuclideanPoint(0.5, 0.2, beta)).omega_star
        devs = []
        for frac in (0.85, 0.95, 0.999):
            t = beta * cmath.exp(-1j * frac * math.pi / 2)
            g = optimize_omega_real(quartic, RealTimePoint(0.5, 0.2, t))
            devs.append(abs(g.omega_star - target))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-3 * target

    def test_continuation_edge_reproduces_imaginary_solution(self, quartic):
        beta = 2.0
        gi = optimize_omega_imag(quartic, EuclideanPoint(0.4, -0.3, beta))
        ar = optimized_w1_real(quartic, RealTimePoint(0.4, -0.3, -1j * beta))
        ai = optimized_w1_imag(quartic, EuclideanPoint(0.4, -0.3, beta))
        assert ar.gap.omega_star == pytest.approx(gi.omega_star, rel=1e-9)
        assert 1j * ar.w_value == pytest.approx(ai.w_value, rel=1e-9)

    def test_continuation_edge_with_scan_beyond_overflow(self):
        # the scan reaches omega*beta ~ 1600, where cos(omega*T) overflows
        params = OscillatorParams(0.373, 0.865)
        ar = optimized_w1_real(params, RealTimePoint(-1.98, -1.87, -4.887j))
        assert cmath.isfinite(ar.w_value)
        wi = w1_imag(params, EuclideanPoint(-1.98, -1.87, 4.887), ar.gap.omega_star)
        assert 1j * ar.w_value == pytest.approx(wi, rel=1e-9)


# optimize_omega_real before it read both residual components off one scan:
# (m2, lam, x_a, x_b, T, omega_star, n_roots, fallback_used) at real T, in the
# wedge, in the harmonic limit and on the continuation edge T = -i beta.
REAL_PINS = [
    (1.0, 0.0, 0.4, -0.3, complex(2.0, 0.0), 1.0, 2, False),
    (1.0, 0.01, 0.3, 0.1, complex(0.5, 0.0), 1.0013401742060046, 0, True),
    (0.0, 1.0, 0.5, 0.2, complex(0.7641208279802151, -1.0517220926874318), 1.782098520181417, 0, True),
    (-1.0, 0.1, 1.0, -0.5, complex(1.7, 0.0), 2.4505471774610044, 0, True),
    (1.0, 10.0, 0.2, 0.7, complex(0.8019058717695311, -0.4085914497655921), 4.380321552528281, 0, True),
    (0.0, 1.0, 0.4, -0.3, -2j, 1.7336805050219815, 1, False),
]


class TestOptimizeRealPinned:
    @pytest.mark.parametrize("m2, lam, x_a, x_b, T, omega, n_roots, fallback", REAL_PINS)
    def test_pinned(self, m2, lam, x_a, x_b, T, omega, n_roots, fallback):
        g = optimize_omega_real(OscillatorParams(m2, lam), RealTimePoint(x_a, x_b, T))
        assert (g.n_roots, g.fallback_used) == (n_roots, fallback)
        if fallback:
            # the golden section stops at BRACKET_REL_WIDTH
            assert g.omega_star == pytest.approx(omega, rel=1e-12)
        else:
            assert g.omega_star == omega


class TestGoldenFallback:
    def test_fallback_brackets_within_bisection_width(self, double_well, quartic):
        gaps = [optimize_omega_imag(double_well, EuclideanPoint(x, x, beta))
                for beta in (0.25, 1.0) for x in np.linspace(-1.5, 1.5, 9)]
        gaps += [optimize_omega_real(quartic, RealTimePoint(0.5, 0.2, t))
                 for t in (0.4, 0.9, 1.3 * cmath.exp(-0.3j * math.pi))]
        fallbacks = [g for g in gaps if g.fallback_used]
        assert len(fallbacks) >= 10
        for g in fallbacks:
            lo, hi = g.bracket
            assert lo <= g.omega_star <= hi
            assert hi - lo <= oep.BRACKET_REL_WIDTH * hi

    def test_stops_at_bisection_width(self):
        calls = []

        def f(w):
            calls.append(w)
            return (w - 1.03) ** 2

        omega, (lo, hi) = oep._golden_min(f, 0.9, 1.1)
        assert omega == pytest.approx(1.03, rel=1e-11)
        # the first step that brings the width under BRACKET_REL_WIDTH is the last
        assert oep.GOLDEN * oep.BRACKET_REL_WIDTH * hi < hi - lo <= oep.BRACKET_REL_WIDTH * hi
        steps = math.ceil(math.log(oep.BRACKET_REL_WIDTH * hi / 0.2) / math.log(oep.GOLDEN))
        assert len(calls) == 2 + steps


class TestDiagonalBatch:
    """optimize_omega_imag_diagonal against the scalar solver it batches."""

    XS = np.linspace(-3.0, 3.0, 25)

    @pytest.mark.parametrize("beta", [0.25, 1.0, 5.0])
    def test_matches_scalar_solver(self, quartic, single_well, double_well, beta):
        for params in (quartic, single_well, double_well):
            batch = optimize_omega_imag_diagonal(params, beta, self.XS)
            gaps = [optimize_omega_imag(params, EuclideanPoint(x, x, beta)) for x in self.XS]
            assert batch.fallback_used.tolist() == [g.fallback_used for g in gaps]
            assert batch.n_roots.tolist() == [g.n_roots for g in gaps]
            for x, g, omega, w1 in zip(self.XS, gaps, batch.omega_star, batch.w1):
                # a fallback omega minimizes |dW1/domega| where it is flat to
                # rounding: the scalar solver's own moves by ~7e-11 when the
                # argument of its residual moves by one ulp
                rel = 1e-9 if g.fallback_used else 1e-12
                assert omega == pytest.approx(g.omega_star, rel=rel)
                want = w1_imag(params, EuclideanPoint(x, x, beta), g.omega_star)
                assert w1 == pytest.approx(want, rel=1e-12, abs=1e-12)
        if beta < 5.0:
            assert batch.fallback_used.any()    # the double well falls back near x = 0

    def test_counts(self, double_well):
        batch = optimize_omega_imag_diagonal(double_well, 1.0, self.XS)
        counts = batch.counts()
        assert counts["gap_solves"] == self.XS.size
        assert counts["fallbacks"] == int(batch.fallback_used.sum()) > 0
        assert counts["multi_root"] == int((batch.n_roots > 1).sum())
        assert counts["worst_residual"] == batch.residual.max()

    def test_scan_chunks_do_not_change_solutions(self, double_well, monkeypatch):
        xs = np.linspace(-3.0, 3.0, 41)
        runs = []
        for chunk in (1 << 30, oep.SCAN_CHUNK_ELEMENTS, 3 * oep.SCAN_POINTS + 7):
            monkeypatch.setattr(oep, "SCAN_CHUNK_ELEMENTS", chunk)
            runs.append(optimize_omega_imag_diagonal(double_well, 1.0, xs))
        for run in runs[1:]:
            for field in ("omega_star", "residual", "n_roots", "fallback_used", "w1"):
                assert np.array_equal(getattr(run, field), getattr(runs[0], field))
