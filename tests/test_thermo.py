"""Partition function, free energies (three routes), density, density matrix."""

import math

import numpy as np
import pytest
from scipy import integrate

from anharm import (EuclideanPoint, OscillatorParams, density_matrix_oep,
                    density_oep, exact_free_energy, free_energy_fk,
                    free_energy_oef, free_energy_oep, partition_function_oep,
                    solve_spectrum)
from anharm import QuadratureError, oep, optimize_omega_imag, thermo
from anharm.thermo import (IntegrandError, fk_effective_potential,
                           fk_smearing_width_sq,
                           fk_trial_frequency_sq, oef_series,
                           oef_series_domega)

CUBIC_ROOT_6 = 1.8171205928321397
OEF_T0_VALUE = 0.68142022231205237   # w/4 + 3/(4 w^2) at the cubic root
Z_HARMONIC_1 = 0.95951737566747186
F_HARMONIC_1 = 0.041324854612918109


def harmonic_f(beta, m=1.0):
    return math.log(2.0 * math.sinh(beta * m / 2.0)) / beta


def harmonic_rho(x, beta, m=1.0):
    t = m * math.tanh(beta * m / 2.0)
    return math.sqrt(t / math.pi) * np.exp(-t * np.asarray(x) ** 2)


class TestPartitionFunction:
    def test_harmonic_value(self, harmonic):
        z, err = partition_function_oep(harmonic, 1.0)
        assert z == pytest.approx(Z_HARMONIC_1, abs=1e-8)
        assert err < 1e-8

    def test_positive(self, quartic):
        z, _ = partition_function_oep(quartic, 2.0)
        assert z > 0.0

    def test_high_temperature_matches_oracle(self, quartic, quartic_spectrum_fine):
        z, _ = partition_function_oep(quartic, 0.1)
        f_exact = exact_free_energy(quartic_spectrum_fine, 0.1).f
        z_exact = math.exp(-0.1 * f_exact)
        assert abs(z - z_exact) / z_exact <= 0.005


class TestFreeEnergyOEP:
    def test_harmonic_value(self, harmonic):
        r = free_energy_oep(harmonic, 1.0)
        assert r.f == pytest.approx(F_HARMONIC_1, abs=1e-8)
        assert r.method == "OEP"

    def test_low_temperature_near_ground_state(self, quartic, quartic_spectrum):
        e0 = quartic_spectrum.energies[0]
        f = free_energy_oep(quartic, 20.0).f
        assert abs(f - e0) / e0 < 0.03

    def test_close_to_series_route_at_moderate_temperature(self, quartic, quartic_spectrum):
        # the two optimization orders stay closer to each other than the
        # series route is to the truth
        f_oep = free_energy_oep(quartic, 1.0).f
        f_oef = free_energy_oef(quartic, 1.0).f
        f_ex = exact_free_energy(quartic_spectrum, 1.0).f
        assert abs(f_oep - f_oef) <= abs(f_oef - f_ex)


# ln Z and half-width of the trace before it was batched (scipy quad at the
# default tolerances).  The double well at beta = 1 is quad at tol_quad = 1e-13
# instead: at the default tolerance quad missed it by 1.0e-9.
TRACE_PINS = [
    (0.0, 1.0, 0.1, 1.3974983794429134, 9.486832980505138),
    (0.0, 1.0, 2.0, -1.3279538236872188, 3.0),
    (0.0, 1.0, 50.0, -34.066956774258855, 3.0),
    (1.0, 10.0, 1.0, -1.5060099962868456, 3.0),
    (1.0, 0.01, 0.3, 1.1275450612401339, 12.818610191887021),
    (-1.0, 0.1, 1.0, 0.947186319721714, 5.334838230116768),
    (-1.0, 0.1, 5.0, 0.635613132112516, 7.135242690016327),
]


class TestTrace:
    @pytest.mark.parametrize("m2, lam, beta, ln_z, halfwidth", TRACE_PINS)
    def test_pinned_log_partition_and_halfwidth(self, m2, lam, beta, ln_z, halfwidth):
        r = free_energy_oep(OscillatorParams(m2, lam), beta)
        assert abs(-beta * r.f - ln_z) <= 1e-10
        assert r.omega_info["halfwidth"] == halfwidth

    def test_diagnostics(self, quartic, double_well):
        info = free_energy_oep(double_well, 1.0).omega_info
        assert info["fallbacks"] > 0
        assert info["gap_solves"] >= info["quad_nodes"] + thermo.PROBE_POINTS
        assert 0.0 < info["worst_residual"] < 1e-2
        info = free_energy_oep(quartic, 2.0).omega_info
        assert info["fallbacks"] == 0 and info["multi_root"] == 0
        assert info["worst_residual"] < 1e-8
        gap0 = optimize_omega_imag(quartic, EuclideanPoint(0.0, 0.0, 2.0))
        assert info["omega_star_origin"] == pytest.approx(gap0.omega_star, rel=1e-12)

    def test_no_scalar_gap_solves(self):
        before = optimize_omega_imag.cache_info()
        free_energy_oep(OscillatorParams(0.9, 0.4), 1.3)
        assert optimize_omega_imag.cache_info() == before

    def test_integrand_error_names_the_point(self, monkeypatch):
        monkeypatch.setattr(oep, "_gap_residual",
                            lambda params, x_a, x_b, beta, omega: np.full(np.shape(x_a * omega), np.nan))
        with pytest.raises(IntegrandError, match="x_a=0.0"):
            free_energy_oep(OscillatorParams(0.7, 0.3), 1.7)

    def test_panel_limit(self, monkeypatch):
        monkeypatch.setattr(thermo, "QUAD_PANEL_LIMIT", 6)
        with pytest.raises(QuadratureError, match="more than 6 panels"):
            free_energy_oep(OscillatorParams(-0.9, 0.15), 1.1)


class TestDensity:
    def test_harmonic_gaussian(self, harmonic):
        for beta in (0.5, 2.0):
            prof = density_oep(harmonic, beta)
            assert np.max(np.abs(prof.rho - harmonic_rho(prof.grid, beta))) < 1e-8

    def test_normalized(self, quartic):
        prof = density_oep(quartic, 2.0)
        assert prof.normalization_error < 1e-8
        assert np.all(prof.rho >= 0.0)

    def test_parity(self, single_well):
        prof = density_oep(single_well, 1.0)
        assert np.max(np.abs(prof.rho - prof.rho[::-1])) == 0.0

    def test_custom_grid_and_validation(self, harmonic):
        grid = np.linspace(-3, 3, 41)
        prof = density_oep(harmonic, 1.0, grid)
        assert prof.grid.shape == (41,)
        with pytest.raises(ValueError):
            density_oep(harmonic, 1.0, [0.0, 0.0, 1.0])

    def test_double_well_bimodal_matches_oracle_peaks(self, double_well):
        from anharm import exact_density
        prof = density_oep(double_well, 5.0)
        s = solve_spectrum(double_well, 256, 1.0)
        ex = exact_density(s, 5.0, prof.grid)
        mid = len(prof.grid) // 2
        for rho in (prof.rho, ex.rho):
            assert rho[np.argmax(rho)] > rho[mid]   # bimodal
        x_oep = abs(prof.grid[np.argmax(prof.rho)])
        x_ex = abs(ex.grid[np.argmax(ex.rho)])
        assert x_oep == pytest.approx(x_ex, abs=0.2)


class TestDensityMatrix:
    def test_diagonal_matches_density(self, quartic):
        entry = density_matrix_oep(quartic, 2.0, 0.7, 0.7)
        prof = density_oep(quartic, 2.0, np.array([0.0, 0.7]))
        assert entry.value == prof.rho[1]

    def test_swap_symmetry(self, quartic, rng):
        for _ in range(20):
            xa, xb = rng.uniform(-2, 2, 2)
            a = density_matrix_oep(quartic, 1.5, xa, xb)
            b = density_matrix_oep(quartic, 1.5, xb, xa)
            assert a.value == b.value

    def test_harmonic_exact(self, harmonic, rng):
        # closed form of the thermal oscillator kernel
        beta = 1.3
        z = beta
        s, c = math.sinh(z), math.cosh(z)
        norm = math.sqrt(1.0 / (2.0 * math.pi * s)) / (1.0 / (2.0 * math.sinh(z / 2)))
        for _ in range(10):
            xa, xb = rng.uniform(-2, 2, 2)
            want = norm * math.exp(-((xa * xa + xb * xb) * c - 2 * xa * xb) / (2.0 * s))
            got = density_matrix_oep(harmonic, beta, xa, xb).value
            assert got == pytest.approx(want, abs=1e-8)

    def test_positive_and_cauchy_schwarz(self, rng):
        params = OscillatorParams(1.0, 0.5)
        for _ in range(20):
            xa, xb = rng.uniform(-2.5, 2.5, 2)
            v = density_matrix_oep(params, 2.0, xa, xb).value
            va = density_matrix_oep(params, 2.0, xa, xa).value
            vb = density_matrix_oep(params, 2.0, xb, xb).value
            assert v >= 0.0
            assert v * v <= va * vb * (1.0 + 1e-12)


# F and omega_info of free_energy_oef before it shared the scalar gap solve of
# oep: (m2, lam, beta, F, omega_star, residual, n_roots, fallback_used).  The
# last one has no sign change in the window (its stationary omega ~ 6 lam lies
# below it) and ends in the golden-section fallback.
OEF_PINS = [
    (0.0, 1.0, 0.01, -308.25066332272434, 5.886086664625896, 3.552713678800501e-15, 1, False),
    (0.0, 1.0, 1.0, 0.5212968972431612, 1.9913826402741213, 0.0, 1, False),
    (0.0, 1.0, 100.0, 0.6814202223120523, 1.8171205928321397, 0.0, 1, False),
    (1.0, 10.0, 2.0, 1.5310823840376075, 4.00085513645028, 0.0, 1, False),
    (-1.0, 0.1, 0.5, -2.185639026345254, 1.0701842307759968, 4.440892098500626e-16, 1, False),
    (-1.0, 0.1, 5.0, -0.09144051051011859, 0.5352899724732618, 0.0, 1, False),
    (1.2, 0.01, 3.0, 0.5420689412636284, 1.1213135279388868, 6.591949208711867e-17, 1, False),
    (-1.0, 0.0001, 100.0, 24.997500007500008, 100.00000000000004, 0.25002499985, 0, True),
]


class TestFreeEnergyOEF:
    @pytest.mark.parametrize("m2, lam, beta, f, omega, residual, n_roots, fallback", OEF_PINS)
    def test_pinned(self, m2, lam, beta, f, omega, residual, n_roots, fallback):
        r = free_energy_oef(OscillatorParams(m2, lam), beta)
        info = r.omega_info
        assert (info["n_roots"], info["fallback_used"]) == (n_roots, fallback)
        if fallback:
            # the golden section stops at BRACKET_REL_WIDTH, not after a fixed
            # step count, so the fallback frequency moves within that width
            for got, want in ((r.f, f), (info["omega_star"], omega),
                              (info["residual"], residual)):
                assert got == pytest.approx(want, rel=1e-12)
        else:
            assert (r.f, info["omega_star"], info["residual"]) == (f, omega, residual)

    def test_harmonic_closed_form(self, harmonic):
        for beta in (0.3, 1.0, 4.0):
            r = free_energy_oef(harmonic, beta)
            assert r.f == pytest.approx(harmonic_f(beta), abs=1e-10)
            assert r.omega_info["omega_star"] == pytest.approx(1.0, abs=1e-9)

    def test_zero_temperature_cubic_root(self, quartic):
        r = free_energy_oef(quartic, 50.0)
        assert r.omega_info["omega_star"] == pytest.approx(CUBIC_ROOT_6, abs=1e-6)
        assert r.f == pytest.approx(OEF_T0_VALUE, abs=1e-6)

    def test_series_derivative_consistent(self, rng):
        for _ in range(20):
            params = OscillatorParams(rng.uniform(-0.5, 2), rng.uniform(0.0, 2))
            if params.lam == 0.0 and params.m2 <= 0:
                continue
            beta = 10.0 ** rng.uniform(-1, 1)
            omega = 10.0 ** rng.uniform(-0.7, 0.7)
            h = 1e-6 * omega
            fd = (oef_series(params, beta, omega + h)
                  - oef_series(params, beta, omega - h)) / (2 * h)
            assert oef_series_domega(params, beta, omega) == pytest.approx(fd, rel=1e-6, abs=1e-10)


class TestFreeEnergyFK:
    def test_harmonic_exact(self, harmonic):
        for beta in (0.3, 1.0, 4.0):
            assert free_energy_fk(harmonic, beta).f == pytest.approx(harmonic_f(beta), abs=1e-9)

    def test_smearing_width_against_matsubara_sum(self):
        for (s, beta) in [(1.7, 2.3), (0.3, 5.0), (4.0, 0.7)]:
            n = np.arange(1, 400001)
            wn2 = (2.0 * math.pi / beta) ** 2 * n * n
            total = (2.0 / beta) * float(np.sum(1.0 / (wn2 + s)))
            tail = (2.0 / beta) * beta * beta / (4.0 * math.pi ** 2 * n[-1])
            assert fk_smearing_width_sq(s, beta) == pytest.approx(total + tail, abs=5e-10)

    def test_smearing_width_small_curvature_limit(self):
        beta = 3.0
        assert fk_smearing_width_sq(0.0, beta) == pytest.approx(beta / 12.0, rel=1e-13)
        assert fk_smearing_width_sq(1e-9, beta) == pytest.approx(beta / 12.0, rel=1e-6)

    def test_negative_curvature_branch(self):
        beta = 5.0
        a2 = fk_smearing_width_sq(-0.5, beta)
        assert a2 > beta / 12.0
        with pytest.raises(ValueError):
            fk_smearing_width_sq(-10.0, beta)

    def test_trial_frequency_is_stationary_point(self, quartic):
        beta, x0 = 2.0, 0.7
        s = fk_trial_frequency_sq(quartic, beta, x0)

        def vcl_at(om_sq):
            a2 = fk_smearing_width_sq(om_sq, beta)
            w = 0.25 * beta * beta * om_sq
            y = 0.5 * beta * math.sqrt(om_sq)
            ent = (math.log(math.sinh(y) / y)) / beta
            sm = 0.5 * quartic.m2 * (x0 * x0 + a2) + quartic.lam * (
                x0 ** 4 + 6 * x0 * x0 * a2 + 3 * a2 * a2)
            return ent - 0.5 * om_sq * a2 + sm

        h = 1e-5 * s
        fd = (vcl_at(s + h) - vcl_at(s - h)) / (2 * h)
        assert abs(fd) < 1e-8

    def test_double_well_effective_potential_real(self, double_well):
        v0, s0 = fk_effective_potential(double_well, 5.0, 0.0)
        assert math.isfinite(v0)
        assert s0 < 0.0

    def test_matches_trace_route_at_temperature_extremes(self, quartic):
        for beta in (0.1, 50.0):
            f_fk = free_energy_fk(quartic, beta).f
            f_oep = free_energy_oep(quartic, beta).f
            assert abs(f_fk - f_oep) / abs(f_oep) < 0.01

    def test_beats_trace_route_at_intermediate_temperature(self, quartic, quartic_spectrum):
        f_ex = exact_free_energy(quartic_spectrum, 2.0).f
        assert abs(free_energy_fk(quartic, 2.0).f - f_ex) <= \
            abs(free_energy_oep(quartic, 2.0).f - f_ex)


class TestMethodCollapse:
    def test_zero_temperature_coincidence(self, quartic):
        f_oep = free_energy_oep(quartic, 50.0).f
        f_oef = free_energy_oef(quartic, 50.0).f
        assert abs(f_oep - f_oef) / abs(f_oef) < 0.005

    def test_high_temperature_collapse_all_methods(self, quartic, quartic_spectrum_fine,
                                                   oef_classical_defect):
        # At beta = 0.05 the trace routes (OEP, FK) and EXACT agree pairwise
        # to 0.5%: they become exact in the classical limit.  The series
        # route (OEF) does not: beta*(F_OEF - F_EXACT) tends to the
        # Gibbs-Bogoliubov defect c_GB of the classical integral (conftest),
        # a constant in ln Z, so its relative defect decays only like
        # 1/|log beta| (2.44% here).  The first quantum correction to that
        # limit shrinks like beta^(3/2) and is 0.6% of c_GB at this beta.
        # Below beta = 0.05 the n = 256 oracle itself stops converging.
        beta = 0.05
        fs = {
            "OEP": free_energy_oep(quartic, beta).f,
            "FK": free_energy_fk(quartic, beta).f,
            "EXACT": exact_free_energy(quartic_spectrum_fine, beta).f,
        }
        scale = abs(fs["EXACT"])
        bad = []
        for a in fs:
            for b in fs:
                if a < b and abs(fs[a] - fs[b]) / scale > 0.005:
                    bad.append(f"{a} vs {b}: {abs(fs[a] - fs[b]) / scale:.3%}")
        assert not bad, f"pairs beyond 0.5% at beta=0.05: {bad}; values {fs}"
        defect = beta * (free_energy_oef(quartic, beta).f - fs["EXACT"])
        assert abs(defect - oef_classical_defect) <= 0.01 * oef_classical_defect, \
            f"beta*(F_OEF - F_EXACT) = {defect:.6f}, c_GB = {oef_classical_defect:.6f}"
