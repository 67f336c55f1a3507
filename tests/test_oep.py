"""First-order amplitude, gap residual, and the trial-frequency optimizers."""

import cmath
import functools
import math

import numpy as np
import pytest
from scipy import integrate

from anharm import (CausticError, EuclideanPoint, OscillatorParams, RealTimePoint,
                    gap_residual_imag, gap_residual_real, optimize_omega_imag,
                    optimize_omega_real, optimized_w1_imag, optimized_w1_real,
                    w0_imag, w0_real, w1_imag, w1_real)
from anharm import hyper, oep, thermo
from anharm.kernels import kernel_integrals_imag
from anharm.oep import _gap_residual, optimize_omega_imag_diagonal, scan_window

CUBIC_ROOT_6 = 1.8171205928321397   # real root of w^3 = 6

# (m2 range, lam range) of the harmonic, weak, strong and double-well families
FAMILIES = {"harmonic": ((0.5, 2.0), (0.0, 0.0)), "weak": ((0.5, 2.0), (0.005, 0.05)),
            "strong": ((0.0, 1.0), (0.5, 5.0)), "double": ((-1.5, -0.5), (0.08, 0.2))}


def _family_points(seed, n, horizon):
    """n seeded (family, params, x_a, x_b, t) over FAMILIES in turn, with
    |x| <= 2 and t log-uniform in horizon."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        family = list(FAMILIES)[k % 4]
        (m2_lo, m2_hi), (lam_lo, lam_hi) = FAMILIES[family]
        lam = float(math.exp(rng.uniform(math.log(lam_lo), math.log(lam_hi)))) if lam_hi else 0.0
        params = OscillatorParams(float(rng.uniform(m2_lo, m2_hi)), lam)
        x_a, x_b = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
        t = float(math.exp(rng.uniform(*np.log(horizon))))
        yield family, params, x_a, x_b, t


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
        vals = _gap_residual(quartic, p.x_a, p.x_b, p.beta, np.asarray(grid))
        signs = np.sign(vals)
        assert np.any(signs[:-1] != signs[1:])

    def test_real_time_finite_difference(self, rng):
        # real T away from the focal points, the wedge and its edge T = -i*beta;
        # central differences of W1 as in test_finite_difference_agreement
        for k in range(30):
            params = OscillatorParams(rng.uniform(-1, 2), rng.uniform(0.05, 2))
            omega = 10.0 ** rng.uniform(-0.7, 0.7)
            size = rng.uniform(0.2, 3.0)
            T = (size, size * cmath.exp(-0.5j * math.pi * rng.uniform(0.05, 0.95)),
                 -1j * size)[k % 3]
            if k % 3 == 0 and abs(math.sin(omega * T)) < 1e-2:
                continue
            p = RealTimePoint(*rng.uniform(-2, 2, 2), T)
            h = 1e-6 * omega
            fd = (w1_real(params, p, omega + h) - w1_real(params, p, omega - h)) / (2 * h)
            an = gap_residual_real(params, p, omega)
            noise = 8e-16 * max(1.0, abs(w1_real(params, p, omega))) / (2 * h)
            assert abs(fd - an) <= 1e-6 * abs(an) + noise, (params, p, omega)


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

    def test_accepted_root_lies_in_its_bracket(self):
        # omega* is the secant point of the final Illinois bracket; the
        # reported bracket must hold it
        edge = (OscillatorParams(-0.5761276819689276, 0.11956438027492235),
                0.38005541743812987, 1.2588475123979697, 0.5525972391582087)
        gaps = [optimize_omega_imag(edge[0], EuclideanPoint(*edge[1:])),
                optimize_omega_real(edge[0], RealTimePoint(edge[1], edge[2], -1j * edge[3]))]
        gaps += [optimize_omega_imag(params, EuclideanPoint(x_a, x_b, beta))
                 for _, params, x_a, x_b, beta in _family_points(23, 300, (0.1, 10.0))]
        accepted = [g for g in gaps if not g.fallback_used]
        assert len(accepted) >= 200
        for g in accepted:
            assert g.bracket[0] <= g.omega_star <= g.bracket[1], g

    def test_scalar_residual_budget(self, monkeypatch):
        # the scan is one array call; count the scalar residuals of each
        # accepted solve (48 each when the bracket was bisected, 18 with the
        # re-anchoring and Newton polish around the Illinois steps)
        calls = []
        body = oep._gap_residual

        def counted(params, x_a, x_b, beta, omega):
            if np.ndim(omega) == 0:
                calls.append(omega)
            return body(params, x_a, x_b, beta, omega)

        monkeypatch.setattr(oep, "_gap_residual", counted)
        per_solve = []
        for family, params, x_a, x_b, beta in _family_points(29, 240, (0.1, 10.0)):
            if family == "harmonic":
                continue
            calls.clear()
            g = optimize_omega_imag.__wrapped__(params, EuclideanPoint(x_a, x_b, beta))
            if not g.fallback_used:
                per_solve.append(len(calls))
        assert len(per_solve) >= 120
        assert np.mean(per_solve) <= 10

    def test_accepted_residual_margin(self):
        # omega* is the secant point of the final bracket, so an accepted
        # residual sits far under the acceptance threshold
        # tol * max(1, |W1|/omega); the bracket's midpoint reaches 10% of it
        families = [FAMILIES["weak"], FAMILIES["strong"], FAMILIES["double"],
                    ((-1.5, -0.5), (1e-4, 1e-2))]     # and a deep double well
        rng = np.random.default_rng(37)

        def draw(k):
            (m2_lo, m2_hi), (lam_lo, lam_hi) = families[k % 4]
            params = OscillatorParams(float(rng.uniform(m2_lo, m2_hi)),
                                      float(math.exp(rng.uniform(math.log(lam_lo), math.log(lam_hi)))))
            return params, float(math.exp(rng.uniform(math.log(0.05), math.log(30.0))))

        scalar = []
        for k in range(1600):
            params, beta = draw(k)
            p = EuclideanPoint(*(float(v) for v in rng.uniform(-3.0, 3.0, 2)), beta)
            g = optimize_omega_imag.__wrapped__(params, p)
            if not g.fallback_used:
                scale = max(1.0, abs(w1_imag(params, p, g.omega_star)) / g.omega_star)
                scalar.append(g.residual / (1e-10 * scale))
        batched = []
        for k in range(48):
            params, beta = draw(k)
            b = optimize_omega_imag_diagonal(params, beta, np.linspace(-3.0, 3.0, 41))
            scale = np.maximum(1.0, np.abs(b.w1) / b.omega_star)
            batched.extend((b.residual / (1e-10 * scale))[~b.fallback_used])
        assert len(scalar) >= 1000 and len(batched) >= 1000
        assert max(scalar) <= 0.01 and max(batched) <= 0.01

    def test_endpoint_swap_is_exact(self):
        # density_matrix_oep solves one of each pair, its swap and its
        # reflection (-x_b, -x_a) for all three, and density_oep one of x and
        # -x for both; the uncached solver must give them the same solution and W1
        fallbacks = 0
        for family, params, x_a, x_b, beta in _family_points(31, 240, (0.1, 10.0)):
            for (a, b), images in (((x_a, x_b), ((x_b, x_a), (-x_b, -x_a))),
                                   ((x_a, x_a), ((-x_a, -x_a),))):
                p = EuclideanPoint(a, b, beta)
                g = optimize_omega_imag.__wrapped__(params, p)
                for image in (EuclideanPoint(*ends, beta) for ends in images):
                    assert optimize_omega_imag.__wrapped__(params, image) == g
                    assert w1_imag(params, image, g.omega_star) == w1_imag(params, p, g.omega_star)
                fallbacks += family == "double" and g.fallback_used
        assert fallbacks >= 20

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

    @pytest.mark.parametrize("m2, x_a, x_b, T", [
        (1.0, 1.0, 0.5, 0.5), (2.0, 0.4, -0.3, 0.9), (1.0, 0.0, 0.0, 3.0),
        (1.0, 0.4, -0.3, 0.7641208279802151 - 1.0517220926874318j), (2.0, 1.0, 0.5, -1j)])
    def test_harmonic_root_counted_once(self, m2, x_a, x_b, T):
        # both residual components bracket the one stationary point
        g = optimize_omega_real(OscillatorParams(m2, 0.0), RealTimePoint(x_a, x_b, T))
        assert (g.n_roots, g.fallback_used) == (1, False)
        assert g.omega_star == pytest.approx(math.sqrt(m2), rel=1e-12)

    @pytest.mark.parametrize("T", [math.pi, 2.0 * math.pi])
    @pytest.mark.parametrize("x_a, x_b", [(0.0, 0.0), (0.4, -0.3)])
    def test_harmonic_root_on_a_focal_point(self, harmonic, x_a, x_b, T):
        # the exact root omega = 1 has sin(omega*T) = 0 to rounding: W1 there
        # raises CausticError, which the acceptance test of the harmonic case
        # takes as a miss, so the scan's minimal-sensitivity point is returned
        p = RealTimePoint(x_a, x_b, T)
        with pytest.raises(CausticError):
            w1_real(harmonic, p, 1.0)
        with pytest.raises(CausticError):
            gap_residual_real(harmonic, p, 1.0)
        g = optimize_omega_real(harmonic, p)
        assert (g.n_roots, g.fallback_used) == (0, True)
        assert g.value == 1j * w1_real(harmonic, p, g.omega_star)
        assert math.isfinite(g.omega_star) and g.omega_star != 1.0
        assert math.isfinite(g.residual)

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

    def test_continuation_edge_is_the_imaginary_solve(self):
        # on T = -i beta the residual is -i times the imaginary-time one, so
        # the edge has the imaginary-time root rule, fallbacks included
        fallbacks = 0
        for _, params, x_a, x_b, beta in _family_points(17, 400, (0.2, 5.0)):
            ar = optimized_w1_real(params, RealTimePoint(x_a, x_b, -1j * beta))
            ai = optimized_w1_imag(params, EuclideanPoint(x_a, x_b, beta))
            assert ar.gap == ai.gap
            assert abs(1j * ar.w_value - ai.w_value) <= 2e-15 * max(1.0, abs(ai.w_value))
            fallbacks += ai.gap.fallback_used
        assert fallbacks >= 20

    def test_value_is_w1_at_beta_i_t(self):
        # off the edge the solution carries W1 at beta = i*T, i times the
        # real-time W1 at omega_star, bit for bit: at real T, in the wedge
        # and in the harmonic limit
        roots = 0
        for k, (family, params, x_a, x_b, r) in enumerate(_family_points(43, 96, (0.2, 2.5))):
            t = r * cmath.exp(-0.3j * math.pi) if (k // 4) % 2 else complex(r)
            p = RealTimePoint(x_a, x_b, t)
            g = optimize_omega_real(params, p)
            assert g.value == 1j * w1_real(params, p, g.omega_star)
            assert optimized_w1_real(params, p).w_value == w1_real(params, p, g.omega_star)
            roots += family == "harmonic" and g.n_roots == 1
        assert roots >= 12

    def test_continuation_edge_w1_is_exact(self):
        # on T = -i beta the real-time W1 is -i times the imaginary-time one,
        # exactly: both are read off the one imaginary-time solve
        for _, params, x_a, x_b, beta in _family_points(19, 200, (0.2, 5.0)):
            ar = optimized_w1_real(params, RealTimePoint(x_a, x_b, -1j * beta))
            ai = optimized_w1_imag(params, EuclideanPoint(x_a, x_b, beta))
            assert 1j * ar.w_value == ai.w_value

    def test_one_search_and_one_w1_per_amplitude(self, monkeypatch):
        # optimized_w1_real reads W1 off its own solve, whatever other
        # real-time solve runs between that solve and its return
        params = OscillatorParams(1.0, 0.01)
        p, other = RealTimePoint(0.3, 0.1, 0.5), RealTimePoint(-0.4, 0.7, 0.9)
        calls = []
        recording = [True]
        for name in ("_brent_min", "_w1"):
            body = getattr(oep, name)

            def counted(*args, _name=name, _body=body):
                if recording[0]:
                    calls.append(_name)
                return _body(*args)
            monkeypatch.setattr(oep, name, counted)
        solve = oep.optimize_omega_real

        def solve_then_another(params, p, tol=1e-10):
            gap = solve(params, p, tol)
            recording[0] = False
            solve(params, other, tol)
            recording[0] = True
            return gap
        monkeypatch.setattr(oep, "optimize_omega_real", solve_then_another)
        amp = optimized_w1_real(params, p)
        assert sorted(calls) == ["_brent_min", "_w1"]
        assert amp.gap.fallback_used
        assert amp.w_value == w1_real(params, p, amp.gap.omega_star)

    def test_continuation_edge_with_scan_beyond_overflow(self):
        # the scan reaches omega*beta ~ 1600, where cos(omega*T) overflows
        params = OscillatorParams(0.373, 0.865)
        ar = optimized_w1_real(params, RealTimePoint(-1.98, -1.87, -4.887j))
        assert cmath.isfinite(ar.w_value)
        wi = w1_imag(params, EuclideanPoint(-1.98, -1.87, 4.887), ar.gap.omega_star)
        assert 1j * ar.w_value == pytest.approx(wi, rel=1e-9)


# optimize_omega_real before it read both residual components off one scan:
# (m2, lam, x_a, x_b, T, omega_star, n_roots, fallback_used) at real T, in the
# wedge, in the harmonic limit and on the continuation edge T = -i beta.  The
# off-edge fallbacks are those of Brent's minimizer.
REAL_PINS = [
    (1.0, 0.0, 0.4, -0.3, complex(2.0, 0.0), 1.0, 1, False),
    (1.0, 0.01, 0.3, 0.1, complex(0.5, 0.0), 1.0013401733291407, 0, True),
    (0.0, 1.0, 0.5, 0.2, complex(0.7641208279802151, -1.0517220926874318), 1.7820985234876556, 0, True),
    (-1.0, 0.1, 1.0, -0.5, complex(1.7, 0.0), 2.4505471764117184, 0, True),
    (1.0, 10.0, 0.2, 0.7, complex(0.8019058717695311, -0.4085914497655921), 4.380321555330204, 0, True),
    (0.0, 1.0, 0.4, -0.3, -2j, 1.7336805050219815, 1, False),
]
# W1 at the returned omega* of each REAL_PINS point (m2, lam, x_a, x_b, T),
# compared exactly
REAL_PIN_W1 = {
    (1.0, 0.0, 0.4, -0.3, complex(2.0, 0.0)): complex(-0.71063533725713, 0.8713970151570923),
    (1.0, 0.01, 0.3, 0.1, complex(0.5, 0.0)): complex(-0.756331986653895, 0.5512430465506718),
    (0.0, 1.0, 0.5, 0.2, complex(0.7641208279802151, -1.0517220926874318)):
        complex(-0.5818980009246526, 1.2417121890966765),
    (-1.0, 0.1, 1.0, -0.5, complex(1.7, 0.0)): complex(0.35993632060337694, -0.043028896135760115),
    (1.0, 10.0, 0.2, 0.7, complex(0.8019058717695311, -0.4085914497655921)):
        complex(-1.1906424908818398, 1.8328590705077237),
    (0.0, 1.0, 0.4, -0.3, -2j): complex(0.0, 1.8868110791500854),
}


class TestOptimizeRealPinned:
    @pytest.mark.parametrize("m2, lam, x_a, x_b, T, omega, n_roots, fallback", REAL_PINS)
    def test_pinned(self, m2, lam, x_a, x_b, T, omega, n_roots, fallback):
        params, p = OscillatorParams(m2, lam), RealTimePoint(x_a, x_b, T)
        g = optimize_omega_real(params, p)
        assert (g.n_roots, g.fallback_used) == (n_roots, fallback)
        if fallback:
            # the search stops at BRACKET_REL_WIDTH
            assert g.omega_star == pytest.approx(omega, rel=1e-12)
        else:
            assert g.omega_star == omega
        assert w1_real(params, p, g.omega_star) == REAL_PIN_W1[m2, lam, x_a, x_b, T]


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

    def test_rows_are_the_scalar_search_bit_for_bit(self):
        # rows of different widths close at different steps; a row already
        # narrow enough takes no step
        lo = np.array([0.9, 1.0, 0.5, 2.0, 1.7])
        hi = np.array([1.1, 1.0 + 1e-13, 1.5, 2.0001, 1.9])
        mins = np.array([1.03, 1.0, 0.77, 2.00004, 1.9])

        def f(rows, w):
            return np.abs(np.sin(w - mins[rows]))

        got = oep._golden_rows(f, lo, hi)
        for k in range(lo.size):
            want, _ = oep._golden_min(lambda w: abs(math.sin(w - mins[k])), lo[k], hi[k])
            assert got[k] == want


def _two_minima(w):
    return ((w - 0.7) * (w - 1.3)) ** 2 + 0.02 * (w - 1.0)


class TestBrentSearch:
    """Brent's minimizer, golden section's steps with parabolic ones, as the
    search of the real-time solve off the continuation edge."""

    def test_stops_at_bisection_width_in_fewer_calls(self):
        calls = []

        def f(w):
            calls.append(w)
            return (w - 1.03) ** 2

        omega, (lo, hi) = oep._brent_min(f, 0.9, 1.1)
        assert omega == pytest.approx(1.03, rel=1e-11)
        assert lo < omega < hi and hi - lo <= oep.BRACKET_REL_WIDTH * hi
        # in fewer calls than golden section's two points and steps to that width
        steps = math.ceil(math.log(oep.BRACKET_REL_WIDTH * hi / 0.2) / math.log(oep.GOLDEN))
        assert len(calls) < 2 + steps

    def test_two_minima_in_the_bracket(self):
        # local minima near 0.675 (the deeper) and 1.267: golden section's
        # first cut of [0.5, 1.7] keeps the right one, and both searches stay there
        omega, (lo, hi) = oep._brent_min(_two_minima, 0.5, 1.7)
        left, _, right = sorted(np.roots([4.0, -12.0, 11.64, -3.62]).real)   # f' = 0
        assert omega == pytest.approx(right, rel=1e-8)
        assert oep._golden_min(_two_minima, 0.5, 1.7)[0] == pytest.approx(right, rel=1e-8)
        assert _two_minima(left) < _two_minima(omega)
        assert lo < omega < hi and hi - lo <= oep.BRACKET_REL_WIDTH * hi

    def test_only_the_real_time_solve_takes_it(self, monkeypatch):
        # the imaginary-time fallback searches stay golden section's
        calls = []
        body = oep._brent_min
        monkeypatch.setattr(oep, "_brent_min", lambda f, lo, hi: calls.append(lo) or body(f, lo, hi))
        params, beta = OscillatorParams(-2.5, 0.005), 20.0
        gap = oep.optimize_omega_imag.__wrapped__(params, EuclideanPoint(0.0, 0.0, beta))
        assert gap.fallback_used and gap.bracket[0] < gap.omega_star < gap.bracket[1]
        assert calls == []
        optimize_omega_real(OscillatorParams(1.0, 0.01), RealTimePoint(0.3, 0.1, 0.5))
        assert len(calls) == 1


class TestEndFallback:
    """A scan with no bracket whose least |dW1/domega| lies at an end of its
    window returns that end, with the bracket (end, end) and no search; only
    an interior least sample takes the golden section."""

    @pytest.mark.parametrize("beta", [0.25, 1.0])
    def test_foot_fallback_is_the_scanned_foot(self, double_well, beta):
        rng = np.random.default_rng(19)
        xs = np.linspace(-3.0, 3.0, 200)
        for x in (0.0, 0.5, 1.0):
            foot = oep._scan_imag(double_well, x, x, beta)[0][0]
            g = optimize_omega_imag.__wrapped__(double_well, EuclideanPoint(x, x, beta))
            assert (g.n_roots, g.fallback_used, g.omega_star, g.bracket) == (0, True, foot, (foot, foot))
            for size in (1, 7, 200):
                rows = np.concatenate([[x], rng.choice(xs, size - 1, replace=False)])
                batch = optimize_omega_imag_diagonal(double_well, beta, rows)
                assert (batch.omega_star[0], batch.residual[0], batch.w1[0]) == (
                    foot, g.residual, g.value)
                assert (batch.n_roots[0], batch.fallback_used[0]) == (0, True)

    def test_oef_returns_its_window_top(self):
        # the stationary frequency ~ 6 lam lies below this window
        params, beta = OscillatorParams(-1.0, 1e-4), 100.0
        info = thermo.free_energy_oef(params, beta).omega_info
        assert (info["n_roots"], info["fallback_used"]) == (0, True)
        assert info["omega_star"] == scan_window(params, 0.0, 0.0, beta)[-1]

    def test_foot_fallback_trace_runs_no_golden_section(self, double_well, monkeypatch):
        calls = []
        body = oep._golden_rows

        def counted(f, lo, hi):
            calls.append(lo.size)
            return body(f, lo, hi)

        monkeypatch.setattr(oep, "_golden_rows", counted)
        thermo._log_partition_oep.__wrapped__(double_well, 1.0, thermo.TOL_QUAD, thermo.TOL_ROOT)
        assert calls == []
        assert thermo.free_energy_oep(double_well, 1.0).omega_info["fallbacks"] > 0

    def test_interior_least_sample_is_searched(self):
        # a deep double well at low temperature: the least |dW1/domega| of
        # this scan is at column 174, so golden section narrows its two cells
        params, beta = OscillatorParams(-2.5, 0.005), 20.0
        grid, vals = oep._scan_imag(params, 0.0, 0.0, beta)
        i = int(np.argmin(np.abs(vals)))
        assert 0 < i < oep.SCAN_POINTS - 1
        g = optimize_omega_imag.__wrapped__(params, EuclideanPoint(0.0, 0.0, beta))
        lo, hi = g.bracket
        assert (g.n_roots, g.fallback_used) == (0, True)
        assert grid[i - 1] < lo < g.omega_star < hi < grid[i + 1]
        assert hi - lo <= oep.BRACKET_REL_WIDTH * hi
        batch = optimize_omega_imag_diagonal(params, beta, np.array([0.0, 1.0, -2.0]))
        assert (batch.omega_star[0], batch.w1[0]) == (g.omega_star, g.value)


class TestIllinois:
    """The scalar bracket rule of _solve_scanned is the batched one on one row."""

    # simple roots: a cubic about 1.03, an exponential and a steep tanh
    CASES = [(lambda w: (w - 1.03) * (1.0 + (w - 1.03) ** 2), 1.03),
             (lambda w: math.exp(w) - 2.8, math.log(2.8)),
             (lambda w: math.tanh(40.0 * (w - 0.95)), 0.95)]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_stops_at_bracket_width(self, case):
        f, root = self.CASES[case]
        calls = []

        def counted(w):
            calls.append(w)
            return f(w)

        omega, lo, hi = oep._illinois(counted, 0.9, 1.1, f(0.9), f(1.1))
        assert lo <= root * (1.0 + 1e-15) and root * (1.0 - 1e-15) <= hi
        assert lo <= omega <= hi
        assert hi - lo <= oep.BRACKET_REL_WIDTH * hi
        # bisection from a width of 0.2 needs 38 calls
        assert len(calls) <= 12
        self._check_rows_alike(f, calls, (omega, lo, hi))

    def test_stops_once_an_end_sits_on_the_root(self):
        # the root lies 1e-18 above the float 1.03, so the first secant point
        # lands on it to rounding and every later one rounds onto that end;
        # bisecting from the far end instead took 36 more calls
        def f(w):
            return (w - 1.03) - 1e-18

        calls = []

        def counted(w):
            calls.append(w)
            return f(w)

        omega, lo, hi = oep._illinois(counted, 0.9, 1.1, f(0.9), f(1.1))
        landed = next(i for i, w in enumerate(calls) if abs(f(w)) <= 1e-17)
        assert len(calls) <= landed + 1 + 2
        assert lo == 1.03 == omega and hi - lo <= oep.BRACKET_REL_WIDTH * hi
        self._check_rows_alike(f, calls, (omega, lo, hi))

    def test_root_on_the_first_secant_point(self):
        # an exact zero counts as positive: the root becomes the bracket's
        # upper end, one clipped step lands below it, and the secant point of
        # the final bracket through the end value 0 is that end
        def f(w):
            return w - 1.0

        calls = []

        def counted(w):
            calls.append(w)
            return f(w)

        omega, lo, hi = oep._illinois(counted, 0.5, 1.5, f(0.5), f(1.5))
        assert calls[0] == 1.0 == omega == hi
        assert len(calls) == 2 and hi - lo <= oep.BRACKET_REL_WIDTH * hi
        self._check_rows_alike(f, calls, (omega, lo, hi), 0.5, 1.5)

    @staticmethod
    def _check_rows_alike(f, calls, result, lo=0.9, hi=1.1):
        """_illinois_rows on the scalar's bracket makes the same calls and stops alike."""
        row_calls = []

        def rows(k, w):
            row_calls.extend(float(v) for v in w)
            return np.array([f(float(v)) for v in w])

        bomega, blo, bhi = oep._illinois_rows(rows, np.array([lo]), np.array([hi]),
                                              np.array([f(lo)]), np.array([f(hi)]))
        assert (float(bomega[0]), float(blo[0]), float(bhi[0])) == result
        assert row_calls == calls

    @staticmethod
    def _check_scalar_finish(f, g, lo, hi):
        """_illinois_rows with the scalar finish g gives the roots and
        brackets of the pure row steps, bit for bit; returns the rows it
        handed over to the scalar finish."""
        handed = set()

        def scalar(k, w):
            handed.add(k)
            return g(k, w)

        fl, fh = f(np.arange(lo.size), lo), f(np.arange(lo.size), hi)
        want = oep._illinois_rows(f, lo, hi, fl, fh)
        got = oep._illinois_rows(f, lo, hi, fl, fh, scalar)
        for w, v in zip(want, got):
            assert w.tobytes() == v.tobytes()
        return handed

    def test_scalar_finish_on_gap_residual_brackets(self, single_well, double_well):
        # the last bracket of each row's scan, as the batch finds it; 40 rows
        # hand over part way, 9 from the start
        for params, beta in ((single_well, 0.7), (double_well, 2.0), (double_well, 0.3)):
            x, lo, hi = [], [], []
            for v in np.linspace(0.0, 3.0, 120).tolist():
                grid, vals = oep._scan_imag(params, v, v, beta)
                ends = np.flatnonzero(oep._bracket_ends(np.asarray(vals)))
                if ends.size:
                    x.append(v)
                    lo.append(grid[ends[-1] - 1])
                    hi.append(grid[ends[-1]])
            x, lo, hi = np.array(x[:40]), np.array(lo[:40]), np.array(hi[:40])
            assert x.size == 40
            for rows in (np.arange(40), np.arange(0, 40, 5)[1:]):
                xs = x[rows]
                handed = self._check_scalar_finish(
                    lambda k, w: _gap_residual(params, xs[k], xs[k], beta, w),
                    lambda k, w: _gap_residual(params, float(xs[k]), float(xs[k]), beta, w),
                    lo[rows], hi[rows])
            assert handed == set(range(7))

    def test_scalar_finish_on_a_triple_root(self):
        # Illinois converges only linearly here, so the rows stay open long
        # and close at different steps
        def cube(w):
            d = w - 1.03
            return d * d * d

        lo, hi = np.linspace(0.9, 1.02, 30), np.linspace(1.05, 1.3, 30)
        handed = self._check_scalar_finish(lambda k, w: cube(w), lambda k, w: cube(w), lo, hi)
        assert 0 < len(handed) <= oep.SCALAR_ROWS

    def test_scalar_finish_with_an_exact_zero_on_an_end(self):
        # the first secant point lands on the root 1 exactly in every row,
        # and the last rows start with the root as their upper end
        def f(w):
            return w - 1.0

        half = 2.0 ** -np.arange(1, 21)
        lo, hi = np.concatenate([1.0 - half, [0.5, 0.75]]), np.concatenate([1.0 + half, [1.0, 1.0]])
        for rows in (slice(None), slice(-10, None)):
            handed = self._check_scalar_finish(lambda k, w: f(w), lambda k, w: f(w),
                                               lo[rows], hi[rows])
        assert handed == set(range(10))


class TestDiagonalBatch:
    """optimize_omega_imag_diagonal against the point solver it batches."""

    XS = np.linspace(-3.0, 3.0, 25)

    @pytest.mark.parametrize("beta", [0.05, 0.25, 1.0, 5.0])
    def test_matches_scalar_solver(self, harmonic, quartic, single_well, double_well, beta):
        # every row, at batch sizes 1, 7 and 200, has the point solve's bits;
        # beta = 0.05 puts rows on the series branch of the shape factors
        rng = np.random.default_rng(11)
        xs = np.linspace(-3.0, 3.0, 200)
        for params in (harmonic, single_well, quartic, double_well):
            for size in (1, 7, 200):
                x = xs if size == xs.size else rng.choice(xs, size, replace=False)
                batch = optimize_omega_imag_diagonal(params, beta, x)
                gaps = [optimize_omega_imag.__wrapped__(params, EuclideanPoint(v, v, beta))
                        for v in x.tolist()]
                assert batch.omega_star.tolist() == [g.omega_star for g in gaps]
                assert batch.residual.tolist() == [g.residual for g in gaps]
                assert batch.n_roots.tolist() == [g.n_roots for g in gaps]
                assert batch.fallback_used.tolist() == [g.fallback_used for g in gaps]
                assert batch.w1.tolist() == [g.value for g in gaps]
        if beta < 5.0:
            assert batch.fallback_used.any()    # the double well falls back near x = 0

    def test_fallback_does_not_depend_on_the_batch(self):
        # a fallback at x = 0 whose golden section compares residuals in
        # rounding noise: the trace's 25-point probe, its first 145-point
        # call and the point solve once gave three different omega*
        params, beta = OscillatorParams(-1.5, 0.08), 0.05
        x_max = thermo._initial_halfwidth(params, beta)
        probe = np.linspace(0.0, x_max, thermo.PROBE_POINTS)
        merged = np.concatenate([probe, thermo._gauss_nodes(*thermo._first_level(x_max))])
        gap = optimize_omega_imag.__wrapped__(params, EuclideanPoint(0.0, 0.0, beta))
        assert gap.fallback_used
        for x in (probe, merged):
            batch = optimize_omega_imag_diagonal(params, beta, x)
            assert (batch.omega_star[0], batch.w1[0]) == (gap.omega_star, gap.value)
        info = thermo.free_energy_oep(params, beta).omega_info
        assert info["omega_star_origin"] == gap.omega_star

    def test_counts(self, double_well):
        batch = optimize_omega_imag_diagonal(double_well, 1.0, self.XS)
        counts = batch.counts()
        assert counts["gap_solves"] == self.XS.size
        assert counts["fallbacks"] == int(batch.fallback_used.sum()) > 0
        assert counts["multi_root"] == int((batch.n_roots > 1).sum())
        assert counts["worst_residual"] == batch.residual.max()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_raises(self, quartic, bad):
        # checked up front: an infinity used to fail with a bare IndexError,
        # and a NaN only by accident, while another error named its point
        grid = [-1.0, 0.0, 1.0]
        grid[0 if bad < 0.0 else -1] = bad
        with pytest.raises(ValueError, match="diagonal points must be finite"):
            optimize_omega_imag_diagonal(quartic, 1.0, [0.5, bad])
        with pytest.raises(ValueError, match="grid must be a finite"):
            thermo.density_oep(quartic, 1.0, grid)


class TestHarmonicLatticeRoots:
    """A harmonic root omega = sqrt(m2) that lies on the scan lattice
    (omega*beta = z_0 = 1) is one root, found exactly."""

    XS = (0.0, 0.4, 1.5)

    @pytest.mark.parametrize("m2, beta", [(1.0, 1.0), (4.0, 0.5)])
    def test_counted_once_and_exact(self, m2, beta):
        params = OscillatorParams(m2, 0.0)
        batch = optimize_omega_imag_diagonal(params, beta, np.array(self.XS))
        for k, x in enumerate(self.XS):
            g = optimize_omega_imag.__wrapped__(params, EuclideanPoint(x, x, beta))
            assert (g.n_roots, g.fallback_used, g.omega_star) == (1, False, math.sqrt(m2))
            assert (batch.omega_star[k], batch.residual[k], batch.n_roots[k],
                    batch.fallback_used[k], batch.w1[k]) == (
                g.omega_star, g.residual, g.n_roots, g.fallback_used, g.value)

    def test_traces_count_no_second_root(self, harmonic):
        # every solve of these two lies on the lattice; each counted two roots
        # when an exact zero on the scan was a bracket of its own
        assert thermo.free_energy_oep(harmonic, 1.0).omega_info["multi_root"] == 0
        assert thermo.density_oep(harmonic, 1.0).info["multi_root"] == 0


def _scan_matches(vals, want):
    """Scan values equal to rounding: the lattice z_k against omega*beta moves
    the residual by a few ulp of its largest terms, never its sign where it
    is not that small."""
    return np.all(np.abs(vals - want) <= 1e-10 * np.abs(want) + 1e-13 * np.max(np.abs(want)))


class TestLatticeScan:
    """Every imaginary-time scan: the window's own two ends, and between them
    the lattice points z_k/beta read off one table per process."""

    def test_scan_ends_on_its_window_and_reads_the_lattice_between(self):
        for _, params, x_a, x_b, beta in _family_points(41, 60, (0.02, 50.0)):
            grid, vals = oep._scan_imag(params, x_a, x_b, beta)
            window = scan_window(params, x_a, x_b, beta)
            assert len(grid) == len(window) == oep.SCAN_POINTS
            lo = oep._log_window_start(params, x_a * x_a + x_b * x_b, beta)
            # the window's ends, by numpy's exp as every imaginary-time scan
            # takes them (scan_window's math.exp may differ in the last bit)
            assert [grid[0], grid[-1]] == np.exp(lo + np.array([0, oep.SCAN_POINTS - 1])
                                                 * oep.SCAN_LOG_STEP).tolist()
            assert np.all(np.diff(grid) > 0.0)
            k0 = math.floor((lo + math.log(beta)) / oep.SCAN_LOG_STEP)
            z = oep._TABLE.span(k0 + 1, k0 + oep.SCAN_POINTS - 1)[0]
            assert np.array_equal(np.array(grid[1:-1]), z / beta)
            assert np.allclose(z, np.exp((k0 + np.arange(1, oep.SCAN_POINTS - 1)) * oep.SCAN_LOG_STEP),
                               rtol=2e-16, atol=0.0)
            assert _scan_matches(vals, _gap_residual(params, x_a, x_b, beta, np.array(grid)))

    def test_batch_scans_the_scalar_grid(self, quartic, single_well, double_well, monkeypatch):
        scans = []
        body = oep._scan_brackets

        def recorded(vals, point):
            scans.append(vals)
            return body(vals, point)

        monkeypatch.setattr(oep, "_scan_brackets", recorded)
        xs = np.linspace(-3.0, 3.0, 13)
        for params, beta in ((double_well, 1.0), (quartic, 0.1), (single_well, 3.0)):
            optimize_omega_imag_diagonal(params, beta, xs)
            for x, row in zip(xs, scans[-1]):
                assert _scan_matches(row, oep._scan_imag(params, x, x, beta)[1])

    def test_table_growth_does_not_change_solutions(self, double_well, monkeypatch):
        xs = np.linspace(-2.5, 2.5, 21)
        p = EuclideanPoint(0.7, -1.2, 0.8)

        def scalar():
            return optimize_omega_imag.__wrapped__(double_well, p)

        def batch():
            return optimize_omega_imag_diagonal(double_well, 0.8, xs)

        def elsewhere():
            # grow the table over other windows first, far up and far down
            optimize_omega_imag.__wrapped__(OscillatorParams(3.0, 50.0), EuclideanPoint(2.0, 1.5, 40.0))
            optimize_omega_imag_diagonal(OscillatorParams(0.5, 0.01), 0.02, xs)

        def fresh_tables():
            # the shape-factor table, and the coefficient tables built on it
            monkeypatch.setattr(oep, "_TABLE", hyper.LatticeTable(
                functools.partial(hyper.lattice_factors, oep.SCAN_LOG_STEP)))
            oep._coefficient_table.cache_clear()

        runs = []
        for grow_first in (False, True):
            fresh_tables()
            if grow_first:
                elsewhere()
            runs.append((scalar(), batch()))
        fresh_tables()
        b = batch()             # the batch first this time
        runs.append((scalar(), b))
        for gap, b in runs[1:]:
            assert gap == runs[0][0]
            for field in ("omega_star", "residual", "n_roots", "fallback_used", "w1"):
                assert np.array_equal(getattr(b, field), getattr(runs[0][1], field))


# optimize_omega_real before its candidate brackets were screened over arrays,
# as REAL_PINS: (m2, lam, x_a, x_b, T, omega_star, n_roots, fallback_used), two
# points each at real T, in the wedge and at T = -i beta for the weak, strong,
# double-well and harmonic families.  The roots at T = -i beta are those of
# the Illinois bracket rule, and a fallback there whose least |dW1/domega| is
# an end of its window returns that end.  The off-edge fallbacks are those of
# Brent's minimizer.
SCREEN_PINS = [
    (1.8119412615293302, 0.01216392045649809, -1.8637786204150837, 0.9363511648986176,
     complex(2.175758684326429, 0.0), 1.8790334457567586, 0, True),
    (1.727326754794352, 0.006833438458679529, -1.7239126134859686, -1.5237320312232758,
     complex(0.5286532727815427, 0.0), 1.344433349678487, 0, True),
    (0.7699538472697821, 2.318914135157262, -1.9257742698621918, -1.9906978556302586,
     complex(2.4292040268025366, 0.0), 5.43041533018134, 0, True),
    (0.40999255715082916, 3.535502918271593, -0.05230845694650732, 1.3631686158837901,
     complex(0.7714582549129205, 0.0), 5.9035739399033496, 0, True),
    (-0.6315060766356986, 0.15558028464847906, -1.3770899358600128, -1.0157466278761453,
     complex(0.47100240136217186, 0.0), 11.496241326485563, 0, True),
    (-1.4778241576588393, 0.15284777905516675, -1.7877262614633103, -0.04125534305970424,
     complex(1.4667324888713325, 0.0), 3.150848492873702, 0, True),
    (1.6704835808154108, 0.0, 1.0525321808605717, -1.3036053658523175,
     complex(0.26234948586697643, 0.0), 1.2924718878240296, 1, False),
    (1.4211228749469735, 0.0, 0.6290036437824598, 0.4179206624750611,
     complex(2.187114868802637, 0.0), 1.1921085835388374, 1, False),
    (0.9817948078662004, 0.023498523927500296, 0.3494354702546234, 0.36402304838677413,
     complex(0.3558051137219493, -1.4809210845745073), 1.035491265320643, 0, True),
    (0.5507950410868906, 0.036835117399414585, -1.5604878322028606, 1.6294270173042293,
     complex(1.1535867671929287, -2.13949496416933), 0.9170183155526016, 0, True),
    (0.5648919447987901, 3.711671017601152, 0.5430681448566235, 0.5149881845601074,
     complex(0.8703334464946478, -0.6942184798116879), 4.796070667299085, 0, True),
    (0.0020260485140375373, 0.8035064970354872, -1.1005071271688358, 1.250331046718164,
     complex(1.2718660034382474, -0.9991294339208509), 1.9595767933149213, 0, True),
    (-1.4830556752005655, 0.12657178436390393, -1.424253701746188, 0.49473476199815236,
     complex(0.7669913141699188, -0.8549775802928442), 8.88146093098434, 0, True),
    (-1.3862143910233495, 0.08294389161163353, 0.6807711739649416, 1.1680218546559713,
     complex(1.0489937161093115, -0.8105237345034102), 4.433094531613353, 0, True),
    (1.78070680961713, 0.0, -0.344577224167689, -0.42011179952608835,
     complex(1.400046805651382, -1.3136010156184208), 1.3344312682252053, 1, False),
    (1.2832789571016845, 0.0, 1.7178863920169576, 0.6456733035580338,
     complex(0.23548338255864823, -0.3596881211967487), 1.1328190310467443, 1, False),
    (0.6711971171894358, 0.04256620198613049, -0.2604493718066365, -1.5512937987493625,
     complex(0.0, -1.9200343214643025), 0.9880061104372537, 1, False),
    (1.8989507475794292, 0.04087893285041474, 0.7458575894051669, -1.5921885671870473,
     complex(0.0, -1.8731876545171535), 1.4604463781818644, 1, False),
    (0.5648873763771115, 2.4230813711929775, 0.20095924589513325, 1.6886417910219569,
     complex(0.0, -1.1666269500051962), 3.246818060101436, 1, False),
    (0.07392746895627678, 1.2016787010664298, 0.5759617569228532, 1.6557538730299113,
     complex(0.0, -1.5357010559951587), 2.3394773317962363, 1, False),
    (-0.8302649927743389, 0.15111340608895288, -1.6539047660030066, -0.27044190969047666,
     complex(0.0, -2.079500742736352), 0.7098852367560948, 1, False),
    (-1.052589108747604, 0.13735420301584123, 1.0784412078498975, -1.465569915776928,
     complex(0.0, -1.8481591051359827), 0.013973796934434676, 0, True),
    (0.8785495470870877, 0.0, 0.7907864572735295, 0.027579848878203084,
     complex(0.0, -1.1144032692613062), 0.9373097391402095, 1, False),
    (1.6812950597746472, 0.0, -0.014621186586997847, 1.419267494182935,
     complex(0.0, -1.7293767719388151), 1.2966476235950333, 1, False),
]
# harmonic points whose root a screen that asks only for a sign change of the
# other part in the same or the next scan cell loses: in the wedge the other
# part has two zeros in the root's cell, and at real T the root's cell holds
# the focal point omega = pi/T
SCREEN_HARMONIC_PINS = [
    (1.3201717117540803, 0.8746068037253627, 1.749809467458923,
     complex(1.569700503779614, -1.0591958539550625), 1.1489872548266495),
    (1.7189641779832519, -0.12177510985263984, -0.18739871403316943,
     complex(2.427684890578678, 0.0), 1.3110927419459129),
]

# harmonic wedge points whose other residual part has a second zero in the
# root's scan cell, so that its values at the cell ends say little about the
# root: a screen that takes that part as linear across the bracket loses
# them.  The first is SCREEN_HARMONIC_PINS[0] with x_b moved until the second
# zero sits at the mirror image of the root in the cell (fractions 0.494 and
# 0.506), so the part is nearly equal at both cell ends.
SCREEN_DOUBLE_ZERO_PINS = [
    (1.3201717117540803, 0.8746068037253627, 1.09516184903914,
     complex(1.569700503779614, -1.0591958539550625)),
    (1.0869887253193882, -0.5992016148978654, 1.9311728901651661,
     complex(2.2186483001214805, -0.42157935693232)),
    (1.4978473193087194, -1.0635670981501208, -1.5765267969860406,
     complex(1.8169226131278728, -0.33617177870658604)),
    (0.9399750297549823, -1.1036567876449248, -0.10411783611686509,
     complex(1.628196280099156, -1.4635398943917923)),
    (0.7395243048973825, -0.20065212639061292, -0.450029018275667,
     complex(1.3721584072529178, -1.8674553214535297)),
]


# optimize_omega_real at lam = 1e-10, m2 = 1.2, as REAL_PINS without m2 and lam:
# the near-harmonic residual has no exact real zero, but its least |dW1/domega|
# may pass the acceptance test.  Before the solve was split into cases it
# polished the zero of one residual part; now Brent's minimum of
# |dW1/domega| is accepted instead, so omega* moves within the accepted band.
NEAR_HARMONIC_PINS = [
    (0.5003818664186679, 1.588855203878302, complex(1.9840770875639449, 0.0),
     1.0954451158183867, 0, True),
    (-1.0991712400376326, -0.7993348603550983, complex(2.179639966246093, -0.36002031539228324),
     22.544499455035222, 0, True),
    (1.2849136735310651, 1.188277715008185, complex(1.2762503915405576, 0.0),
     1.0954451154481113, 0, True),
    (-0.7878702927227459, -0.8862975515969067, complex(0.5929429731891183, -0.5162646140193474),
     1.0954451152641524, 1, False),
    (0.018193035831813198, 0.21398940829796986, complex(2.4896506518991033, 0.0),
     1.0954451151329612, 0, True),
    (1.1706476768550123, 0.48871691776465065, complex(2.251757874040985, -1.0262908512943578),
     1.095445115357768, 0, True),
    (-1.3591518645686218, 0.4501584170921231, complex(0.30106661831118176, 0.0),
     1.0954451156007003, 1, False),
    (-1.8572788849056154, 0.05955528108548114, complex(0.32851477646920374, -1.2291292901981712),
     1.0954451153834566, 1, False),
]


def _check_real_pin(m2, lam, x_a, x_b, T, omega, n_roots, fallback):
    g = optimize_omega_real(OscillatorParams(m2, lam), RealTimePoint(x_a, x_b, T))
    assert (g.n_roots, g.fallback_used) == (n_roots, fallback)
    if fallback:
        assert g.omega_star == pytest.approx(omega, rel=1e-12)
    else:
        assert g.omega_star == omega


def _accepted_on_fine_scan(params, p, tol=1e-10, refine=20):
    """Whether any omega of a scan refine times finer than the solver's, over
    the same window, passes the solver's acceptance test
    |dW1/domega| <= tol * max(1, |W1|/omega)."""
    window = scan_window(params, p.x_a, p.x_b, abs(p.T))
    omega = np.geomspace(window[0], window[-1], refine * (oep.SCAN_POINTS - 1) + 1)
    t = complex(p.T)
    if t.imag == 0.0:
        omega = omega[np.abs(np.sin(omega * t.real)) >= oep.CAUSTIC_TOL]
    with np.errstate(all="ignore"):
        resid = np.abs(_gap_residual(params, p.x_a, p.x_b, 1j * t, omega))
        scale = np.maximum(1.0, np.abs(oep._w1(params, p.x_a, p.x_b, 1j * t, omega)) / omega)
    return bool(np.any(resid <= tol * scale))


class TestRealScreen:
    """optimize_omega_real looks for an exact root only on the continuation
    edge and in the harmonic limit, and keeps every result of its pins."""

    @pytest.mark.parametrize("m2, lam, x_a, x_b, T, omega, n_roots, fallback", SCREEN_PINS)
    def test_pinned(self, m2, lam, x_a, x_b, T, omega, n_roots, fallback):
        _check_real_pin(m2, lam, x_a, x_b, T, omega, n_roots, fallback)

    @pytest.mark.parametrize("m2, x_a, x_b, T, omega", SCREEN_HARMONIC_PINS)
    def test_harmonic_root_beside_a_focal_point_or_a_double_zero(self, m2, x_a, x_b, T, omega):
        assert omega == math.sqrt(m2)
        _check_real_pin(m2, 0.0, x_a, x_b, T, omega, 1, False)

    @pytest.mark.parametrize("m2, x_a, x_b, T", SCREEN_DOUBLE_ZERO_PINS)
    def test_harmonic_root_where_the_other_part_has_two_zeros(self, m2, x_a, x_b, T):
        _check_real_pin(m2, 0.0, x_a, x_b, T, math.sqrt(m2), 1, False)

    def test_edge_root_is_polished_not_a_grid_point(self):
        # on the edge the real part vanishes identically; a grid point within
        # tolerance used to count as a root and beat the refined one
        params = OscillatorParams(-0.5761276819689276, 0.11956438027492235)
        g = optimize_omega_real(params, RealTimePoint(0.38005541743812987, 1.2588475123979697,
                                                      -0.5525972391582087j))
        assert (g.n_roots, g.fallback_used) == (1, False)
        assert g.omega_star == pytest.approx(0.04357734241412863, rel=1e-12)
        assert g.residual < 1e-14
        assert g.omega_star not in scan_window(params, 0.38005541743812987,
                                               1.2588475123979697, 0.5525972391582087)
        assert g.omega_star not in oep._scan_imag(params, 0.38005541743812987,
                                                  1.2588475123979697, 0.5525972391582087)[0]

    def test_harmonic_root_is_exactly_the_bare_frequency(self):
        rng = np.random.default_rng(11)
        for k in range(40):
            m2 = float(rng.uniform(0.05, 4.0))
            x_a, x_b = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
            T = float(rng.uniform(0.1, 3.0)) * cmath.exp(-0.5j * math.pi * float(rng.uniform(0.0, 0.95)))
            if k % 2 == 0:
                T = complex(abs(T), 0.0)
            g = optimize_omega_real(OscillatorParams(m2, 0.0), RealTimePoint(x_a, x_b, T))
            assert (g.n_roots, g.fallback_used, g.omega_star) == (1, False, math.sqrt(m2))

    def test_harmonic_root_below_the_scan_window(self):
        # |T| sqrt(m2) = 0.0057: the window starts at 1e-2/|T| = 2 > sqrt(m2);
        # the bracket search fell back near omega = 2069
        params, p = OscillatorParams(1.3, 0.0), RealTimePoint(0.4, -0.7, 0.005)
        assert scan_window(params, p.x_a, p.x_b, 0.005)[0] > math.sqrt(1.3)
        g = optimize_omega_real(params, p)
        assert (g.n_roots, g.fallback_used, g.omega_star) == (1, False, math.sqrt(1.3))

    @pytest.mark.parametrize("x_a, x_b, T, omega, n_roots, fallback", NEAR_HARMONIC_PINS)
    def test_near_harmonic_flags(self, x_a, x_b, T, omega, n_roots, fallback):
        g = optimize_omega_real(OscillatorParams(1.2, 1e-10), RealTimePoint(x_a, x_b, T))
        assert (g.n_roots, g.fallback_used) == (n_roots, fallback)
        assert g.omega_star == pytest.approx(omega, rel=1e-9)

    def test_no_root_is_missed_off_the_edge(self):
        # the premise of searching only the deepest dip: with lam > 0 and
        # Re T > 0, a point that passes the acceptance test anywhere on a
        # much finer scan means the solver reports a stationary point
        rng = np.random.default_rng(5)
        families = [((0.5, 2.0), (0.005, 0.05)), ((0.0, 1.0), (0.5, 5.0)),
                    ((-1.5, -0.5), (0.08, 0.2)), ((0.5, 2.0), (1e-10, 1e-10))]
        found = 0
        for k in range(40):
            (m2_lo, m2_hi), (lam_lo, lam_hi) = families[k % 4]
            params = OscillatorParams(float(rng.uniform(m2_lo, m2_hi)),
                                      float(math.exp(rng.uniform(math.log(lam_lo), math.log(lam_hi)))))
            x_a, x_b = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
            T = float(rng.uniform(0.2, 2.5)) * cmath.exp(-0.5j * math.pi * float(rng.uniform(0.0, 0.95)))
            if k % 8 < 4:
                T = complex(abs(T), 0.0)
            p = RealTimePoint(x_a, x_b, T)
            g = optimize_omega_real(params, p)
            if _accepted_on_fine_scan(params, p):
                found += 1
                assert not g.fallback_used, (params, p)
        assert found > 0      # the near-harmonic points do have a stationary point


def _spectral_kernel(params, x_a, x_b, T, n):
    """<x_b|exp(-iHT)|x_a> = sum_k psi_k(x_a) psi_k(x_b) exp(-i E_k T) from the
    lowest n levels of H in an oscillator basis, each parity block
    diagonalized by numpy.linalg.eigh; it converges in the wedge Im T < 0."""
    om = max(1.0, math.sqrt(abs(params.m2)), (6.0 * params.lam) ** (1.0 / 3.0))
    k = np.arange(1, n + 4)
    x = np.diag(np.sqrt(k / (2.0 * om)), 1)
    x2 = (x + x.T) @ (x + x.T)
    # x^4 from a basis four levels larger, so that its top rows are whole
    h = (0.5 * (params.m2 - om * om) * x2 + params.lam * x2 @ x2)[:n, :n]
    h += np.diag(om * (np.arange(n) + 0.5))
    psi = np.empty((2, n))
    xi = math.sqrt(om) * np.array([x_a, x_b])
    psi[:, 0] = (om / math.pi) ** 0.25 * np.exp(-0.5 * xi * xi)
    psi[:, 1] = math.sqrt(2.0) * xi * psi[:, 0]
    for j in range(2, n):
        psi[:, j] = math.sqrt(2.0 / j) * xi * psi[:, j - 1] - math.sqrt((j - 1.0) / j) * psi[:, j - 2]
    total = 0j
    for parity in (0, 1):
        idx = np.arange(parity, n, 2)
        e, v = np.linalg.eigh(h[np.ix_(idx, idx)])
        a, b = psi[:, idx] @ v
        total += np.sum(a * b * np.exp(-1j * e * T))
    return total


# relative miss |exp(iW) - K|/|K| of optimized_w1_real against the spectral
# sum K at the samples of TestWedgeAccuracy, as measured, four per family in
# the order harmonic, weak, strong, double well; omega* in the comments.  The
# harmonic amplitude is exact (None: rounding, measured <= 1.7e-15).
WEDGE_MISS = [
    None, 4.8317e-08, 7.9356e-01, 1.0001e+00,       # 0.758, 0.738, 3.545, 21.42
    None, 4.0473e-05, 7.2613e-03, 1.0000e+00,       # 1.389, 1.310, 1.764, 10.83
    None, 1.4056e-05, 1.0287e+00, 1.4753e-01,       # 0.752, 1.403, 6.433, 0.668
    None, 6.5048e-08, 1.6369e-02, 1.0537e-02,       # 1.345, 0.791, 3.499, 0.011
]


class TestWedgeAccuracy:
    """The off-edge real-time amplitude against the exact spectral sum, in the
    wedge where that sum converges (on the real axis a truncated one does not)."""

    def test_misses_of_the_minimal_sensitivity_amplitude(self):
        angles = np.random.default_rng(30).uniform(0.3, 0.9, len(WEDGE_MISS))
        samples = zip(_family_points(29, len(WEDGE_MISS), (0.5, 2.0)), angles, WEDGE_MISS)
        for (family, params, x_a, x_b, r), angle, pin in samples:
            T = r * cmath.exp(-0.5j * math.pi * angle)
            k = _spectral_kernel(params, x_a, x_b, T, 256)
            assert abs(_spectral_kernel(params, x_a, x_b, T, 128) - k) <= 1e-8 * abs(k)
            amp = optimized_w1_real(params, RealTimePoint(x_a, x_b, T))
            miss = abs(cmath.exp(1j * amp.w_value) - k) / abs(k)
            if pin is None:
                assert family == "harmonic" and miss <= 1e-14
            else:
                assert miss == pytest.approx(pin, rel=1e-2), (family, params, x_a, x_b, T)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_solver_tolerances_are_checked(tol, quartic):
    with pytest.raises(ValueError, match="tol"):
        optimize_omega_imag(quartic, EuclideanPoint(0.3, 0.1, 1.0), tol)
    with pytest.raises(ValueError, match="tol"):
        optimize_omega_imag_diagonal(quartic, 1.0, np.array([0.0, 0.5]), tol)
    with pytest.raises(ValueError, match="tol"):
        optimize_omega_real(quartic, RealTimePoint(0.3, 0.1, 1.0), tol)
