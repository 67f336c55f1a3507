"""Partition function, free energies (three routes), density, density matrix."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

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

# (fallbacks, quadrature nodes, batched gap-solve calls) of each TRACE_PINS
# trace; the first two as they were before the probe solved the first level.
# The double well at beta = 1 refines over nine levels, two per call.
TRACE_COUNTS = {
    (0.0, 1.0, 0.1): (0, 200, 2),
    (0.0, 1.0, 2.0): (0, 120, 1),
    (0.0, 1.0, 50.0): (0, 120, 1),
    (1.0, 10.0, 1.0): (0, 120, 1),
    (1.0, 0.01, 0.3): (0, 120, 1),
    (-1.0, 0.1, 1.0): (423, 560, 6),
    (-1.0, 0.1, 5.0): (0, 160, 3),
}
# a high-temperature double well that refines over eight levels
DEEP_TRACE = (-1.0, 0.18, 0.6)
# the five traces of the ROADMAP's global-rule table, and two whose first
# probe had a bracket end on the root to rounding (26 and 28 Illinois steps
# when the rule then bisected from the far end).  The double well at beta = 1
# is not among them: its refinement levels still take up to 21 steps, on
# brackets narrower than the band where the residual is rounding noise
# (ROADMAP item 10).
ILLINOIS_TRACES = [(0.0, 1.0, 0.1), (0.0, 1.0, 2.0), (0.0, 1.0, 50.0), (1.0, 10.0, 1.0),
                   (-1.0, 0.1, 5.0), (0.965, 0.016, 7.498), (1.0, 0.01, 0.3)]


class TestTrace:
    @pytest.mark.parametrize("m2, lam, beta, ln_z, halfwidth", TRACE_PINS)
    def test_pinned_log_partition_and_halfwidth(self, m2, lam, beta, ln_z, halfwidth):
        r = free_energy_oep(OscillatorParams(m2, lam), beta)
        assert abs(-beta * r.f - ln_z) <= 1e-10
        assert r.omega_info["halfwidth"] == halfwidth

    @pytest.mark.parametrize("m2, lam, beta, ln_z, halfwidth", TRACE_PINS)
    def test_pinned_counts(self, m2, lam, beta, ln_z, halfwidth):
        info = free_energy_oep(OscillatorParams(m2, lam), beta).omega_info
        assert (info["fallbacks"], info["quad_nodes"], info["solve_calls"]) == \
            TRACE_COUNTS[m2, lam, beta]

    def test_probe_solves_the_first_level(self, quartic):
        # no doubling and no refinement: one batched call for the whole trace
        info = free_energy_oep(quartic, 2.0).omega_info
        assert info["solve_calls"] == 1
        assert info["gap_solves"] == thermo.PROBE_POINTS + info["quad_nodes"] == 145
        # one doubling: the first probe's first level is discarded
        params = OscillatorParams(2.0, 0.5)
        info = free_energy_oep(params, 2.0).omega_info
        assert info["halfwidth"] == 2.0 * thermo._initial_halfwidth(params, 2.0)
        assert info["solve_calls"] == 2
        assert info["gap_solves"] == 2 * (thermo.PROBE_POINTS + info["quad_nodes"])

    @pytest.mark.parametrize("m2, lam, beta", ILLINOIS_TRACES)
    def test_illinois_steps_per_call(self, monkeypatch, m2, lam, beta):
        # a call's steps: those over all its open rows, then the most that
        # one row took in the scalar finish
        steps = []
        body = oep._illinois_rows

        def counted(f, lo, hi, flo, fhi, g=None):
            rows, finish = [0], {}

            def step(act, omega):
                rows[0] += 1
                return f(act, omega)

            def scalar_step(k, omega):
                finish[k] = finish.get(k, 0) + 1
                return g(k, omega)

            found = body(step, lo, hi, flo, fhi, g and scalar_step)
            steps.append(rows[0] + max(finish.values(), default=0))
            return found

        monkeypatch.setattr(oep, "_illinois_rows", counted)
        thermo._log_partition_oep.__wrapped__(OscillatorParams(m2, lam), beta,
                                              thermo.TOL_QUAD, thermo.TOL_ROOT)
        assert steps and max(steps) <= 10

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

    def test_double_well_fallbacks_stay_where_they_were(self, double_well):
        # the lattice scan keeps each window's own two ends, so the fallback
        # kinks do not move with x and the rule does not chase them
        info = free_energy_oep(double_well, 1.0).omega_info
        assert (info["gap_solves"], info["fallbacks"], info["quad_nodes"]) == (585, 423, 560)

    @staticmethod
    def _trace(m2, lam, beta):
        ln_z, err, x_max, diag = thermo._log_partition_oep.__wrapped__(
            OscillatorParams(m2, lam), beta, thermo.TOL_QUAD, thermo.TOL_ROOT)
        calls = diag.pop("solve_calls")
        return (ln_z, err, x_max, diag), calls

    @staticmethod
    def _no_look_ahead(monkeypatch):
        body = thermo._adaptive_gauss
        monkeypatch.setattr(thermo, "_adaptive_gauss",
                            lambda logf, *args: body(lambda xs, ahead=(): logf(xs), *args))

    @pytest.mark.parametrize("m2, lam, beta", [pin[:3] for pin in TRACE_PINS] + [DEEP_TRACE])
    def test_look_ahead_changes_no_bit(self, monkeypatch, m2, lam, beta):
        # each refinement call also solves the next level's nodes, so a trace
        # makes two levels per call; ln Z, its error, the half-width and the
        # diagnostics but solve_calls are the bits of one level per call
        ahead, calls = self._trace(m2, lam, beta)
        self._no_look_ahead(monkeypatch)
        alone, calls_alone = self._trace(m2, lam, beta)
        assert ahead == alone
        assert calls <= calls_alone
        assert (calls_alone, calls) == {DEEP_TRACE: (9, 5), (-1.0, 0.1, 1.0): (10, 6)}.get(
            (m2, lam, beta), (calls, calls))

    def test_a_node_ahead_fails_only_where_its_level_needs_it(self, monkeypatch):
        solved = []
        solve = thermo.optimize_omega_imag_diagonal
        monkeypatch.setattr(thermo, "optimize_omega_imag_diagonal",
                            lambda *args: solved.append(args[2]) or solve(*args))
        want = self._trace(*DEEP_TRACE)
        ahead = set(np.concatenate(solved).tolist())
        solved.clear()
        with monkeypatch.context() as m:
            self._no_look_ahead(m)
            self._trace(*DEEP_TRACE)
        levels = [x.tolist() for x in solved]
        spare = min(ahead - set().union(*levels))     # solved ahead, needed by no level
        late = levels[2][0]                           # solved ahead of its level

        def poisoned(x_bad):
            # the residual of the row at x_bad is nowhere finite in its scan
            scan = oep._scan_brackets

            def scan_bad(vals, point):
                vals = vals.copy()
                vals[[point(r).x_a == x_bad for r in range(len(vals))]] = np.nan
                return scan(vals, point)
            return scan_bad

        monkeypatch.setattr(oep, "_scan_brackets", poisoned(spare))
        assert self._trace(*DEEP_TRACE)[0] == want[0]
        monkeypatch.setattr(oep, "_scan_brackets", poisoned(late))
        with pytest.raises(IntegrandError, match=f"x_a={late!r}") as ahead_on:
            self._trace(*DEEP_TRACE)
        self._no_look_ahead(monkeypatch)
        with pytest.raises(IntegrandError) as ahead_off:
            self._trace(*DEEP_TRACE)
        assert str(ahead_on.value) == str(ahead_off.value)

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

    def test_doubling_limit(self, monkeypatch):
        # this trace doubles once (test_probe_solves_the_first_level); the
        # error names the half-width whose probe missed the tail
        params = OscillatorParams(2.0, 0.5)
        monkeypatch.setattr(thermo, "MAX_DOUBLINGS", 1)
        x0 = thermo._initial_halfwidth(params, 2.0)
        with pytest.raises(QuadratureError, match=f"at half-width {x0:g}$"):
            thermo._log_partition_oep.__wrapped__(params, 2.0, thermo.TOL_QUAD,
                                                  thermo.TOL_ROOT)


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

    def test_caller_grid_is_checked_before_the_trace(self, monkeypatch):
        def trace(*args):
            raise AssertionError("the trace ran before the grid check")

        monkeypatch.setattr(thermo, "_log_partition_oep", trace)
        for grid in ([0.0, math.nan], [1.0, 0.5], [[0.0, 1.0], [2.0, 3.0]], [0.5]):
            with pytest.raises(ValueError, match="grid must be"):
                density_oep(OscillatorParams(-1.0, 0.14), 1.0, grid)

    def test_failed_gap_solve_is_an_integrand_error(self, monkeypatch):
        params = OscillatorParams(0.7, 0.3)
        free_energy_oep(params, 1.7)    # the trace is cached before the solve breaks
        monkeypatch.setattr(oep, "_gap_residual",
                            lambda params, x_a, x_b, beta, omega: np.full(np.shape(x_a * omega), np.nan))
        with pytest.raises(IntegrandError, match="trial-frequency optimization failed"):
            density_oep(params, 1.7, [-0.5, 0.0, 0.5])

    def test_info_counts_the_fallbacks_the_oep_docstring_names(self, double_well):
        from anharm import exact_density
        # fallbacks at grid points, then at the distinct |x| the density solves
        for beta, points, solves in ((0.25, 41, 21), (1.0, 49, 25), (5.0, 0, 0)):
            prof = density_oep(double_well, beta)
            x = np.unique(np.abs(prof.grid))
            gaps = {v: optimize_omega_imag(double_well, EuclideanPoint(v, v, beta))
                    for v in x.tolist()}
            assert x.size == (thermo.DENSITY_GRID_POINTS + 1) // 2
            assert sum(gaps[abs(v)].fallback_used for v in prof.grid.tolist()) == points
            assert prof.info == {
                "gap_solves": x.size, "fallbacks": solves,
                "multi_root": sum(g.n_roots > 1 for g in gaps.values()),
                "worst_residual": max(g.residual for g in gaps.values())}
        assert exact_density(solve_spectrum(double_well, 32, 1.0), 1.0, prof.grid).info == {}

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

    def test_sweep_solves_each_unordered_pair_once(self, double_well):
        grid = np.linspace(-1.9, 2.1, 21)
        density_matrix_oep(double_well, 0.7, 0.0, 0.0)     # the trace solves no point
        optimize_omega_imag.cache_clear()
        entries = [[density_matrix_oep(double_well, 0.7, xa, xb) for xb in grid] for xa in grid]
        assert optimize_omega_imag.cache_info().misses == 21 * 22 // 2
        values = np.array([[e.value for e in row] for row in entries])
        assert np.array_equal(values, values.T)
        assert [(e.x_a, e.x_b) for row in entries for e in row] == [
            (xa, xb) for xa in grid for xb in grid]

    def test_reflected_pairs_share_one_solve(self, double_well):
        # on a grid symmetric about 0, reflecting x -> -x maps the 231
        # unordered pairs onto each other, the 11 with x_a + x_b = 0 onto
        # themselves: 121 solves, and the same bits for a pair and its image
        beta = 0.7
        grid = thermo.default_grid(double_well, beta, n=21)
        optimize_omega_imag.cache_clear()
        values = np.array([[density_matrix_oep(double_well, beta, xa, xb).value
                            for xb in grid] for xa in grid])
        assert optimize_omega_imag.cache_info().misses == 121
        assert np.array_equal(values, values[::-1, ::-1].T)
        before = optimize_omega_imag.cache_info()
        prof = density_oep(double_well, beta, grid)
        assert optimize_omega_imag.cache_info() == before     # no point solve
        assert prof.info["gap_solves"] == 11
        assert np.array_equal(prof.rho, prof.rho[::-1])
        assert np.array_equal(prof.rho, np.diag(values))

    @pytest.mark.parametrize("beta", [1.0, 0.05])
    def test_density_is_the_diagonal_bit_for_bit(self, double_well, beta):
        # the density's batched solve against the matrix's point solves, where
        # the double well falls back (and at beta = 0.05 on the series branch)
        prof = density_oep(double_well, beta)
        assert prof.info["fallbacks"] > 0
        diag = [density_matrix_oep(double_well, beta, x, x).value for x in prof.grid.tolist()]
        assert prof.rho.tolist() == diag

    @pytest.mark.parametrize("xa, xb", [(1.0, math.nan), (math.nan, 1.0), (0.5, math.inf)])
    def test_non_finite_endpoint_raises(self, quartic, xa, xb):
        # sorting the pair must not drop a NaN, as min and max would
        with pytest.raises(ValueError, match="must be finite"):
            density_matrix_oep(quartic, 1.0, xa, xb)

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


# (m2, lam, beta, F, omega_sq_origin) of free_energy_fk when it integrated
# with scipy's quad and solved each node's curvature with brentq: the weak,
# strong, double and harmonic wells
FK_PINS = [
    (1.0, 0.01, 0.05, -55.3100815716653, 1.0004999791574918),
    (1.0, 0.01, 5.0, 0.5060939635083207, 1.0365091827786808),
    (0.0, 1.0, 0.5, -0.2738323318473532, 0.49896357032324395),
    (0.0, 1.0, 50.0, 0.6813494483518571, 3.2529248286618033),
    (-1.0, 0.1, 0.5, -2.471009133315147, -0.9498009994080218),
    (-1.0, 0.1, 5.0, -0.1908390438508624, -0.3927895545725182),
    (-1.0, 0.1, 50.0, -0.08197154013514435, 0.20584993324959405),
    (1.0, 0.0, 0.05, -59.91256218114754, 1.0),
    (1.0, 0.0, 5.0, 0.4986478501101022, 1.0),
]


class TestFreeEnergyFK:
    @pytest.mark.parametrize("m2, lam, beta, f, s0", FK_PINS)
    def test_pinned_free_energy_and_origin_curvature(self, m2, lam, beta, f, s0):
        r = free_energy_fk(OscillatorParams(m2, lam), beta)
        assert abs(r.f - f) <= 1e-12 * abs(f)
        assert abs(r.omega_info["omega_sq_origin"] - s0) <= 1e-12 * max(1.0, abs(s0))

    def test_narrow_integrand_at_low_temperature(self):
        # the integrand narrows like (beta V'')^(-1/2) while the half-width
        # stays >= 3, so the rounding of beta V outgrows each panel's share of
        # tol_quad; scipy's quad gives F = 6.814202205 here
        r = free_energy_fk(OscillatorParams(0.0, 1000.0), 1000.0)
        assert abs(r.f - 6.814202204779624) <= 1e-9 * 6.814202204779624
        r = free_energy_fk(OscillatorParams(0.0, 300.0), 3000.0)
        assert r.omega_info["quad_rel_error"] <= thermo.TOL_QUAD

    def test_array_calls_match_float_calls(self, double_well):
        beta = 5.0
        x0 = np.array([0.0, 0.3, 1.0, 1.6, 2.5, 7.0])
        v, s = fk_effective_potential(double_well, beta, x0)
        s_only = fk_trial_frequency_sq(double_well, beta, x0)
        for i, x in enumerate(x0.tolist()):
            assert (v[i], s[i]) == fk_effective_potential(double_well, beta, x)
            assert s_only[i] == fk_trial_frequency_sq(double_well, beta, x)
        # curvatures on both sides of 0 and inside the series branch
        curv = np.array([-1.5, -0.5, -1e-3, 0.0, 1e-9, 0.05, 1.7, 40.0])
        a2 = fk_smearing_width_sq(curv, beta)
        assert isinstance(fk_smearing_width_sq(1.7, beta), float)
        assert [fk_smearing_width_sq(c, beta) for c in curv.tolist()] == a2.tolist()
        assert fk_smearing_width_sq(curv.reshape(2, 4), beta).tolist() == a2.reshape(2, 4).tolist()
        with pytest.raises(ValueError, match="too negative"):
            fk_smearing_width_sq(np.array([1.0, -10.0, 0.5]), beta)

    def test_panel_limit(self, monkeypatch, single_well):
        # this trace splits two of its four starting panels
        monkeypatch.setattr(thermo, "QUAD_PANEL_LIMIT", 5)
        with pytest.raises(QuadratureError, match="more than 5 panels"):
            free_energy_fk(single_well, 1.0)

    def test_integrand_error_names_the_point(self, monkeypatch):
        monkeypatch.setattr(thermo, "_fk_width",
                            lambda s, beta: (np.full(np.shape(s), np.nan),) * 2)
        with pytest.raises(IntegrandError, match="x0=0.0"):
            free_energy_fk(OscillatorParams(0.7, 0.3), 1.7)

    def test_quad_nodes_count_the_quadrature_evaluations(self, monkeypatch, quartic):
        sizes = []
        body = thermo._fk_potential

        def counted(params, beta, x0):
            sizes.append(x0.size)
            return body(params, beta, x0)

        monkeypatch.setattr(thermo, "_fk_potential", counted)
        info = free_energy_fk(quartic, 0.3).omega_info
        # each probe call also evaluates the first level of its own half-width;
        # the last probe's first level and every later call are the quadrature
        first = 3 * thermo.QUAD_START_PANELS * thermo.GAUSS_POINTS
        probes = sizes.index(next(n for n in sizes if n != thermo.PROBE_POINTS + first))
        assert probes >= 1
        assert sizes[:probes] == [thermo.PROBE_POINTS + first] * probes
        assert first + sum(sizes[probes:]) == info["quad_nodes"] > first

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


@pytest.mark.parametrize("route, m2, lam, beta", [
    (free_energy_fk, -0.726, 1.2e-6, 66.6), (free_energy_oep, -5.52, 1.1e-7, 2.63)])
def test_missed_peak_raises_named_quadrature_error(route, m2, lam, beta):
    # the wells sit at x = sqrt(-m2/(4 lam)), about 390 and 3500: the probe
    # misses their narrow peak, and exp(log-integrand - peak) overflows there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="not finite at x=.*probe missed a peak"):
            route(OscillatorParams(m2, lam), beta)


def test_peak_between_every_node_raises_quadrature_error():
    # wells at x = sqrt(-m2/(4 lam)) ~ 16300, so narrow that the weight
    # underflows at every quadrature node; the log of the zero integral was a
    # bare ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="every node missed the peak"):
            free_energy_fk(OscillatorParams(-33.7423226765038, 3.1768419755115905e-08),
                           218.84703517516962)


# one run of every CLI subcommand and method, then the edge real-time solve,
# which the CLI cannot ask for (its --time is real)
_NO_SCIPY_RUNS = """
import os, sys
sys.modules["scipy"] = None
import anharm, anharm.cli
from anharm import OscillatorParams, RealTimePoint, optimized_w1_real
common = ["--m2", "0.5", "--lambda", "0.3"]
runs = [["free-energy", "--beta", "0.5,2", "--methods", "OEP,OEF,FK,EXACT", "--basis-size", "64"],
        ["density", "--beta", "1", "--methods", "OEP,EXACT", "--x-grid=-2:2:9",
         "--basis-size", "64"],
        ["density-matrix", "--beta", "1", "--x-grid=-1:1:3"],
        ["propagator", "--mode", "imag", "--xa", "0.3", "--xb", "-0.2", "--time", "1.5"],
        ["propagator", "--mode", "real", "--xa", "0.3", "--xb", "-0.2", "--time", "1.5"],
        ["exact-spectrum", "--basis-size", "32"]]
codes = [anharm.cli.main(run[:1] + common + run[1:] + ["--out", os.devnull]) for run in runs]
edge = optimized_w1_real(OscillatorParams(0.5, 0.3), RealTimePoint(0.3, -0.2, -1.5j))
print(codes, edge.gap.fallback_used)
"""


def test_import_does_not_load_scipy():
    # only the test-only quadrature twin in kernels imports scipy, on first
    # call; the series tables hyper derives at import need neither of the
    # test extras sympy and mpmath
    src = Path(thermo.__file__).resolve().parents[1]
    code = ("import sys; import anharm, anharm.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'sympy', 'mpmath')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
    # no call path imports it either: with scipy unimportable, every
    # subcommand and method still runs
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUNS], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == ["[0,", "0,", "0,", "0,", "0,", "0]", "False"]


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_free_energy_tolerances_are_checked(tol, quartic):
    for call in (lambda: free_energy_oep(quartic, 1.0, tol_quad=tol),
                 lambda: free_energy_oep(quartic, 1.0, tol_root=tol),
                 lambda: free_energy_oef(quartic, 1.0, tol),
                 lambda: free_energy_fk(quartic, 1.0, tol)):
        with pytest.raises(ValueError, match="tol"):
            call()
