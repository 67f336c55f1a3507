"""Exact spectral reference for the quartic oscillator.

The Hamiltonian p^2/2 + m2 x^2/2 + lam x^4 is represented in the number basis
of a harmonic oscillator with adjustable frequency Omega and diagonalized
with a cyclic Jacobi sweep.  Free energy and particle density follow from the
spectrum and the eigenvectors; both carry explicit truncation checks so a
result is never silently under-resolved.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import OscillatorParams
from .thermo import DensityProfile, FreeEnergyResult, _check_beta, _check_grid

TAIL_BOUND = 1e-14
JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 50


class TruncationError(RuntimeError):
    """Spectral sum not converged within the computed levels."""


class ConvergenceError(RuntimeError):
    """Jacobi sweeps did not reach the off-diagonal target."""


@dataclass(frozen=True)
class SpectralSolution:
    energies: np.ndarray        # ascending
    eigenvectors: np.ndarray    # column n = state n in the basis
    basis_size: int
    basis_frequency: float
    params: OscillatorParams


def default_basis_frequency(params: OscillatorParams) -> float:
    """Frequency scale of the potential itself, to minimize the basis size."""
    return max(math.sqrt(abs(params.m2)), (6.0 * params.lam) ** (1.0 / 3.0))


def x2_matrix(n: int, omega: float) -> np.ndarray:
    """Matrix of x^2 in the oscillator number basis of frequency omega."""
    k = np.arange(n)
    m = np.zeros((n, n))
    m[k, k] = (2 * k + 1) / (2.0 * omega)
    idx = np.arange(n - 2)
    off = np.sqrt((idx + 1.0) * (idx + 2.0)) / (2.0 * omega)
    m[idx, idx + 2] = off
    m[idx + 2, idx] = off
    return m


def p2_matrix(n: int, omega: float) -> np.ndarray:
    """Matrix of p^2, from p^2 = 2 H_omega - omega^2 x^2."""
    k = np.arange(n)
    m = -omega * omega * x2_matrix(n, omega)
    m[k, k] += 2.0 * (k + 0.5) * omega
    return m


def hamiltonian_matrix(params: OscillatorParams, n: int, omega: float) -> np.ndarray:
    x2 = x2_matrix(n, omega)
    x4 = x2 @ x2
    k = np.arange(n)
    h = 0.5 * (params.m2 - omega * omega) * x2 + params.lam * x4
    h[k, k] += (k + 0.5) * omega
    return h


def jacobi_eigh(a: np.ndarray, tol: float = JACOBI_TOL,
                max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Rotates every (p, q) pair per sweep, skipping entries already far below
    the target so late sweeps are cheap.  Returns ascending eigenvalues and
    the orthogonal eigenvector matrix.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or not np.allclose(a, a.T, atol=0.0, rtol=1e-12):
        raise ValueError("jacobi_eigh needs a symmetric square matrix")
    v = np.eye(n)
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return np.zeros(n), v
    skip = tol * norm / n
    for _ in range(max_sweeps):
        # sum only the strict upper triangle: the difference-of-norms form
        # hits its cancellation floor long before the 1e-13 target
        off = math.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
        if off <= tol * norm:
            order = np.argsort(np.diag(a), kind="stable")
            return np.diag(a)[order].copy(), v[:, order].copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                app, aqq = a[p, p], a[q, q]
                theta = 0.5 * (aqq - app) / apq
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = row_p - s * (row_q + tau * row_p)
                a[q, :] = row_q + s * (row_p - tau * row_q)
                a[:, p] = a[p, :]
                a[:, q] = a[q, :]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = vp - s * (vq + tau * vp)
                v[:, q] = vq + s * (vp - tau * vq)
    raise ConvergenceError(f"off-diagonal norm {off:g} > {tol * norm:g} "
                           f"after {max_sweeps} sweeps")


@lru_cache(maxsize=64)
def _solve_cached(params: OscillatorParams, n: int, omega: float) -> SpectralSolution:
    h = hamiltonian_matrix(params, n, omega)
    energies, vectors = jacobi_eigh(h)
    energies.flags.writeable = vectors.flags.writeable = False
    return SpectralSolution(energies, vectors, n, omega, params)


def solve_spectrum(params: OscillatorParams, n: int,
                   omega: float | None = None) -> SpectralSolution:
    """Diagonalize the potential in an n-state oscillator basis.

    Results are cached per (params, n, omega), so the returned arrays are
    read-only.
    """
    if n < 16:
        raise ValueError("basis size must be at least 16")
    if omega is None:
        omega = default_basis_frequency(params)
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ValueError("basis frequency must be positive")
    return _solve_cached(params, int(n), float(omega))


def _check_tail(s: SpectralSolution, beta: float) -> float:
    tail = math.exp(-beta * (s.energies[-1] - s.energies[0]))
    if tail >= TAIL_BOUND:
        raise TruncationError(
            f"spectral tail exp(-beta dE) = {tail:.2e} >= {TAIL_BOUND:g}; "
            f"increase the basis size (currently {s.basis_size}) or beta")
    return tail


def exact_free_energy(s: SpectralSolution, beta: float) -> FreeEnergyResult:
    """F = -log(sum exp(-beta E_n))/beta, summed relative to the ground state."""
    _check_beta(beta)
    tail = _check_tail(s, beta)
    e0 = s.energies[0]
    z_rel = float(np.sum(np.exp(-beta * (s.energies - e0))))
    f = e0 - math.log(z_rel) / beta
    info = {"basis_size": s.basis_size, "basis_frequency": s.basis_frequency,
            "tail": tail}
    return FreeEnergyResult(beta, f, "EXACT", info)


def hermite_functions(n: int, omega: float, grid: np.ndarray) -> np.ndarray:
    """Oscillator eigenfunctions phi_0..phi_{n-1} of frequency omega on a grid.

    Normalized three-term recurrence; the Gaussian factor is carried along,
    so values just underflow to zero far outside the well instead of
    overflowing.
    """
    grid = np.asarray(grid, dtype=float)
    xi = math.sqrt(omega) * grid
    out = np.zeros((grid.size, n))
    out[:, 0] = (omega / math.pi) ** 0.25 * np.exp(-0.5 * xi * xi)
    if n > 1:
        out[:, 1] = math.sqrt(2.0) * xi * out[:, 0]
    for k in range(2, n):
        out[:, k] = (math.sqrt(2.0 / k) * xi * out[:, k - 1]
                     - math.sqrt((k - 1.0) / k) * out[:, k - 2])
    return out


def exact_density(s: SpectralSolution, beta: float, grid) -> DensityProfile:
    """Boltzmann-weighted sum of |psi_n(x)|^2, normalized by the same sum."""
    _check_beta(beta)
    grid = _check_grid(grid)
    _check_tail(s, beta)
    weights = np.exp(-beta * (s.energies - s.energies[0]))
    psi = hermite_functions(s.basis_size, s.basis_frequency, grid) @ s.eigenvectors
    rho = (psi * psi) @ weights / float(np.sum(weights))
    norm_err = abs(float(np.trapezoid(rho, grid)) - 1.0)
    return DensityProfile(grid, rho, beta, norm_err)
