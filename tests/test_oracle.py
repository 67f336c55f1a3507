"""Spectral reference: basis matrices, Jacobi diagonalization, F and rho."""

import math

import numpy as np
import pytest

from anharm import (OscillatorParams, TruncationError, exact_density,
                    exact_free_energy, solve_spectrum)
from anharm.oracle import (ConvergenceError, default_basis_frequency,
                           hamiltonian_matrix, hermite_functions, jacobi_eigh,
                           p2_matrix, x2_matrix)

E0_QUARTIC = 0.6679862591557778


class TestJacobi:
    def test_matches_numpy_on_random_symmetric(self, rng):
        for n in (8, 40):
            m = rng.standard_normal((n, n))
            a = (m + m.T) / 2.0
            w, v = jacobi_eigh(a)
            assert np.max(np.abs(w - np.linalg.eigvalsh(a))) < 1e-12
            assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-12
            assert np.max(np.abs(a @ v - v * w)) < 1e-10 * np.linalg.norm(a)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reports_nonconvergence(self, rng):
        m = rng.standard_normal((30, 30))
        a = (m + m.T) / 2.0
        with pytest.raises(ConvergenceError):
            jacobi_eigh(a, max_sweeps=1)


class TestSpectrum:
    def test_harmonic_basis_is_diagonal(self, harmonic):
        s = solve_spectrum(harmonic, 32, 1.0)
        assert np.max(np.abs(s.energies - (np.arange(32) + 0.5))) < 1e-12

    def test_quartic_ground_state(self, quartic, quartic_spectrum):
        assert quartic_spectrum.energies[0] == pytest.approx(E0_QUARTIC, abs=1e-11)

    def test_variational_monotonicity_in_basis_size(self, quartic):
        e0s = [solve_spectrum(quartic, n, 2.0).energies[0] for n in (16, 32, 64, 128)]
        for a, b in zip(e0s, e0s[1:]):
            assert b <= a + 1e-10

    def test_basis_frequency_independence(self, quartic):
        e0s = [solve_spectrum(quartic, 128, om).energies[0] for om in (1.0, 2.0, 4.0)]
        assert max(e0s) - min(e0s) < 1e-8

    def test_energies_strictly_increasing(self, quartic_spectrum):
        diffs = np.diff(quartic_spectrum.energies)
        assert np.all(diffs > 0.0)

    def test_basis_size_floor(self, quartic):
        with pytest.raises(ValueError):
            solve_spectrum(quartic, 8)

    def test_default_basis_frequency(self, quartic, harmonic):
        assert default_basis_frequency(quartic) == pytest.approx(6.0 ** (1.0 / 3.0))
        assert default_basis_frequency(harmonic) == 1.0

    def test_orthonormal_eigenvectors(self, quartic_spectrum):
        v = quartic_spectrum.eigenvectors
        assert np.max(np.abs(v.T @ v - np.eye(v.shape[0]))) < 1e-10

    def test_virial_identity_per_eigenstate(self, quartic):
        # 2<T> = <x V'(x)>: <p^2> = m2 <x^2> + 4 lam <x^4>
        for params in (quartic, OscillatorParams(1.0, 0.5)):
            omega = default_basis_frequency(params)
            s = solve_spectrum(params, 128, omega)
            x2 = x2_matrix(128, omega)
            x4 = x2 @ x2
            p2 = p2_matrix(128, omega)
            for n in range(10):
                v = s.eigenvectors[:, n]
                kin = v @ p2 @ v
                pot = params.m2 * (v @ x2 @ v) + 4.0 * params.lam * (v @ x4 @ v)
                assert kin == pytest.approx(pot, rel=1e-6)

    def test_double_well_near_degenerate_doublet(self, double_well):
        s = solve_spectrum(double_well, 256, 1.0)
        gap01 = s.energies[1] - s.energies[0]
        gap12 = s.energies[2] - s.energies[1]
        assert 0.0 < gap01 < gap12


class TestExactFreeEnergy:
    def test_harmonic_value(self, harmonic):
        s = solve_spectrum(harmonic, 64, 1.0)
        assert exact_free_energy(s, 1.0).f == pytest.approx(
            math.log(2.0 * math.sinh(0.5)), abs=1e-12)

    def test_ground_state_limit(self, quartic, quartic_spectrum):
        assert exact_free_energy(quartic_spectrum, 200.0).f == pytest.approx(
            E0_QUARTIC, abs=1e-10)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_beta(self, harmonic, beta):
        s = solve_spectrum(harmonic, 64, 1.0)
        with pytest.raises(ValueError, match="beta must be a positive finite number"):
            exact_free_energy(s, beta)
        with pytest.raises(ValueError, match="beta must be a positive finite number"):
            exact_density(s, beta, np.linspace(-1.0, 1.0, 5))

    def test_accepts_numpy_beta(self, harmonic):
        s = solve_spectrum(harmonic, 64, 1.0)
        assert exact_free_energy(s, np.int64(2)).f == exact_free_energy(s, 2.0).f

    def test_truncation_guard(self, quartic):
        small = solve_spectrum(quartic, 16, 2.0)
        with pytest.raises(TruncationError):
            exact_free_energy(small, 0.01)
        # a large basis passes the tail bound at beta = 0.1
        big = solve_spectrum(quartic, 256, 2.0)
        assert math.isfinite(exact_free_energy(big, 0.1).f)


class TestExactDensity:
    def test_hermite_functions_orthonormal(self):
        grid = np.linspace(-12, 12, 4001)
        phi = hermite_functions(20, 1.7, grid)
        overlaps = np.trapezoid(phi[:, :, None] * phi[:, None, :], grid, axis=0)
        assert np.max(np.abs(overlaps - np.eye(20))) < 1e-8

    def test_harmonic_thermal_gaussian(self, harmonic):
        s = solve_spectrum(harmonic, 64, 1.0)
        grid = np.linspace(-6, 6, 201)
        rho = exact_density(s, 1.0, grid).rho
        t = math.tanh(0.5)
        want = np.sqrt(t / math.pi) * np.exp(-t * grid * grid)
        assert np.max(np.abs(rho - want)) < 1e-8

    def test_ground_state_limit_unimodal_even(self, quartic, quartic_spectrum):
        grid = np.linspace(-4, 4, 161)
        rho = exact_density(quartic_spectrum, 100.0, grid).rho
        psi0 = hermite_functions(128, 2.0, grid) @ quartic_spectrum.eigenvectors[:, 0]
        assert np.max(np.abs(rho - psi0 ** 2)) < 1e-8
        assert np.argmax(rho) == 80
        assert np.max(np.abs(rho - rho[::-1])) < 1e-12

    def test_double_well_bimodal(self, double_well):
        s = solve_spectrum(double_well, 256, 1.0)
        grid = np.linspace(-5, 5, 401)
        rho = exact_density(s, 5.0, grid).rho
        peak = abs(grid[np.argmax(rho)])
        classical = math.sqrt(-double_well.m2 / (4.0 * double_well.lam))
        assert rho[np.argmax(rho)] > rho[200]          # bimodal
        assert 0.5 * classical < peak < classical      # pulled in by fluctuations

    def test_normalized(self, quartic, quartic_spectrum):
        grid = np.linspace(-5, 5, 401)
        prof = exact_density(quartic_spectrum, 2.0, grid)
        assert prof.normalization_error < 1e-8


def test_hamiltonian_matrix_symmetric(quartic):
    h = hamiltonian_matrix(quartic, 64, 2.0)
    assert np.array_equal(h, h.T)
