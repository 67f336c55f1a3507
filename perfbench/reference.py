"""Independent exact reference for the quartic oscillator.

H = p^2/2 + m2 x^2/2 + lam x^4 in the number basis of a harmonic oscillator
of frequency ``omega``.  Unlike the library oracle, the matrix elements of
x^2 and x^4 are taken from a ladder operator on a basis three states larger
(so the truncated block holds the exact elements), H is split into its even
and odd parity blocks and each block goes to LAPACK through
``numpy.linalg.eigh``.  The basis doubles until the quantity asked for stops
changing and the Boltzmann weight of the upper half of the spectrum is
negligible, so every reference value carries its own convergence check.
"""

import math

import numpy as np

BASIS_START = 64
BASIS_MAX = 2048
TAIL_MAX = 1e-13        # Boltzmann weight allowed above the converged half


class NotConvergedError(RuntimeError):
    """The reference could not produce a converged, trustworthy value."""


def basis_frequency(m2, lam):
    return max(math.sqrt(abs(m2)), (6.0 * lam) ** (1.0 / 3.0), 1.0)


def hamiltonian_blocks(m2, lam, n, omega):
    """Even and odd parity blocks of H on the first n oscillator states."""
    k = np.arange(n + 3)
    x = np.diag(np.sqrt((k[1:]) / (2.0 * omega)), 1)
    x = x + x.T
    x2 = x @ x
    x4 = x2 @ x2
    h = 0.5 * (m2 - omega * omega) * x2[:n, :n] + lam * x4[:n, :n]
    h[np.arange(n), np.arange(n)] += (np.arange(n) + 0.5) * omega
    return h[0::2, 0::2], h[1::2, 1::2]


class Spectrum:
    """Eigenpairs of one basis size; states sorted by energy."""

    def __init__(self, m2, lam, n, vectors=False):
        self.n = n
        self.omega = basis_frequency(m2, lam)
        even, odd = hamiltonian_blocks(m2, lam, n, self.omega)
        if vectors:
            ee, ve = np.linalg.eigh(even)
            eo, vo = np.linalg.eigh(odd)
        else:
            ee, eo = np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)
            ve = vo = None
        self.energies = np.concatenate([ee, eo])
        order = np.argsort(self.energies, kind="stable")
        self.energies = self.energies[order]
        self.vectors = None
        if vectors:
            full = np.zeros((n, n))
            full[0::2, :ee.size] = ve
            full[1::2, ee.size:] = vo
            self.vectors = full[:, order]

    def tail_weight(self, beta):
        """Boltzmann weight of the upper half of the spectrum, relative to E0."""
        gap = self.energies[self.n // 2] - self.energies[0]
        return (self.n / 2) * math.exp(-beta * gap)

    def log_z(self, beta):
        e0 = self.energies[0]
        return -beta * e0 + math.log(float(np.sum(np.exp(-beta * (self.energies - e0)))))

    def states_at(self, x):
        """psi_n(x) for every state n, shape (len(x), n)."""
        return oscillator_functions(self.n, self.omega, x) @ self.vectors

    def density(self, beta, x):
        w = np.exp(-beta * (self.energies - self.energies[0]))
        psi = self.states_at(x)
        return (psi * psi) @ w / float(np.sum(w))

    def kernel(self, beta, x_a, x_b):
        """<x_b| exp(-beta H) |x_a>, returned as its logarithm."""
        psi = self.states_at(np.array([x_a, x_b]))
        e0 = self.energies[0]
        s = float(np.sum(np.exp(-beta * (self.energies - e0)) * psi[0] * psi[1]))
        if s <= 0.0:
            raise NotConvergedError(f"non-positive kernel at ({x_a}, {x_b}, {beta})")
        return -beta * e0 + math.log(s)


def oscillator_functions(n, omega, x):
    """Normalized oscillator eigenfunctions phi_0..phi_{n-1} at the points x."""
    x = np.asarray(x, dtype=float)
    xi = math.sqrt(omega) * x
    out = np.empty((x.size, n))
    out[:, 0] = (omega / math.pi) ** 0.25 * np.exp(-0.5 * xi * xi)
    if n > 1:
        out[:, 1] = math.sqrt(2.0) * xi * out[:, 0]
    for k in range(2, n):
        out[:, k] = math.sqrt(2.0 / k) * xi * out[:, k - 1] - math.sqrt((k - 1) / k) * out[:, k - 2]
    return out


def converged(m2, lam, value, tol, beta_min, vectors=False, n_start=BASIS_START):
    """Double the basis until value(spectrum) changes by less than tol.

    value maps a Spectrum to a float or an array; the change is measured as
    the largest absolute difference.  Returns (spectrum, value).
    """
    n = n_start
    prev = None
    while n <= BASIS_MAX:
        s = Spectrum(m2, lam, n, vectors=vectors)
        if s.tail_weight(beta_min) < TAIL_MAX:
            v = value(s)
            if prev is not None and np.max(np.abs(np.asarray(v) - prev)) < tol:
                return s, v
            prev = np.asarray(v)
        n *= 2
    raise NotConvergedError(f"reference for m2={m2}, lam={lam} not converged "
                         f"within {BASIS_MAX} states")


def log_z(m2, lam, beta, tol=1e-10):
    return converged(m2, lam, lambda s: s.log_z(beta), tol, beta)[1]


def low_energies(m2, lam, count, tol=1e-10):
    """The lowest ``count`` energies, converged to tol."""
    start = max(BASIS_START, 2 * count)
    return converged(m2, lam, lambda s: s.energies[:count], tol, 1.0, n_start=start)[1]
