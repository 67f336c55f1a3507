"""Thermodynamics and local observables built on the optimized amplitude.

Three first-order routes to the free energy of the quartic oscillator:

* ``free_energy_oep``   - trace the per-point optimized diagonal amplitude:
                          Z = int exp(W1(x, x, beta; omega*(x))) dx.
* ``free_energy_oef``   - optimize the free-energy series directly, one
                          global frequency per temperature, found by the
                          scalar gap search of oep (_solve_scanned).
* ``free_energy_fk``    - smeared-potential variational route: Gaussian
                          average of the potential over a self-consistent
                          fluctuation width, integrated over the path mean.

The per-point route is the only one that also yields the density matrix and
the particle density without extra work, which is what density_oep and
density_matrix_oep expose.

The OEP trace probes its half-width and integrates on an adaptive
Gauss-Legendre rule whose refinement levels are each one batched gap solve
(oep.optimize_omega_imag_diagonal); see _log_partition_oep.  It raises
QuadratureError when the tail or the panel count does not converge, and
IntegrandError naming the point where a gap solve failed.  The FK route
integrates its mean coordinate with scipy's quad.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy import integrate
from scipy.optimize import brentq

from . import hyper
from .kernels import (EuclideanPoint, OscillatorParams, QuadratureError)
from .oep import (NoStationaryPointError, _solve_scanned, optimize_omega_imag,
                  optimize_omega_imag_diagonal, scan_window, w1_imag)

TOL_QUAD = 1e-10
TOL_ROOT = 1e-10
TAIL_RATIO = 1e-12
DENSITY_GRID_POINTS = 201
PROBE_POINTS = 25
# adaptive Gauss-Legendre trace: points per panel, panels at the start and
# the most panels (open or accepted) before the trace gives up
GAUSS_POINTS = 10
QUAD_START_PANELS = 4
QUAD_PANEL_LIMIT = 200


class IntegrandError(RuntimeError):
    """A quadrature node could not be evaluated; message carries the x."""


@dataclass(frozen=True)
class FreeEnergyResult:
    beta: float
    f: float
    method: str
    omega_info: dict


@dataclass
class DensityProfile:
    grid: np.ndarray
    rho: np.ndarray
    beta: float
    normalization_error: float


@dataclass(frozen=True)
class DensityMatrixEntry:
    x_a: float
    x_b: float
    value: float
    beta: float


def _check_beta(beta):
    if not (isinstance(beta, (int, float)) and math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be a positive finite number, got {beta!r}")


def _initial_halfwidth(params: OscillatorParams, beta: float) -> float:
    """Covers the classical width, the quantum width and the well positions."""
    scales = [1.0, 1.0 / math.sqrt(beta * max(params.m2, 1.0))]
    if params.lam > 0.0:
        scales.append((1.0 / (beta * params.lam)) ** 0.25)
    return 3.0 * max(scales)


def _grow_halfwidth(logf, x0, max_doublings=24):
    """Double the half-width until the endpoint integrand is negligible.

    logf maps an array of points to their log-integrands; each probe is one
    call on PROBE_POINTS points spread over [0, half-width].
    """
    log_tail = math.log(TAIL_RATIO)
    x = x0
    for _ in range(max_doublings):
        probe = logf(np.linspace(0.0, x, PROBE_POINTS))
        peak = float(np.max(probe))
        if probe[-1] - peak <= log_tail:
            return x, peak
        x *= 2.0
    raise QuadratureError(f"integrand tail still {probe[-1] - peak:g} above "
                          f"threshold at half-width {x:g}")


@lru_cache(maxsize=1)
def _gauss_rule():
    # on first use, not at import: the eigensolver's first call costs memory
    return np.polynomial.legendre.leggauss(GAUSS_POINTS)


def _gauss_sums(f, a, h):
    """Gauss-Legendre sums over the panels [a, a + h], all nodes in one call of f."""
    t, w = _gauss_rule()
    nodes = a[:, None] + (0.5 * h)[:, None] * (1.0 + t)
    return 0.5 * h * (f(nodes.ravel()).reshape(nodes.shape) @ w)


def _adaptive_gauss(f, x_max, tol):
    """int_0^x_max f(x) dx, one call of f per refinement level.

    Every open panel is compared with the sum over its two halves.  Where the
    difference is within the panel's share of the tolerance,
    tol * |integral| * width / x_max, the halves' sum is kept; elsewhere the
    halves become open panels of the next level.  Only panels that miss their
    share split, so a kink is refined locally.  Returns (integral, error
    estimate, nodes evaluated); raises QuadratureError when the open and
    accepted panels exceed QUAD_PANEL_LIMIT.
    """
    h = np.full(QUAD_START_PANELS, x_max / QUAD_START_PANELS)
    a = h * np.arange(QUAD_START_PANELS)
    whole, left, right = np.split(
        _gauss_sums(f, np.concatenate([a, a, a + 0.5 * h]),
                    np.concatenate([h, 0.5 * h, 0.5 * h])), 3)
    nodes = 3 * QUAD_START_PANELS * GAUSS_POINTS
    value = error = 0.0
    accepted = 0
    while True:
        halves = left + right
        diff = np.abs(whole - halves)
        total = value + float(np.sum(halves))
        ok = diff <= tol * abs(total) * h / x_max
        value += float(np.sum(halves[ok]))
        error += float(np.sum(diff[ok]))
        accepted += int(np.count_nonzero(ok))
        if ok.all():
            return value, error, nodes
        a, h, whole = a[~ok], 0.5 * h[~ok], np.concatenate([left[~ok], right[~ok]])
        a, h = np.concatenate([a, a + h]), np.concatenate([h, h])
        if accepted + a.size > QUAD_PANEL_LIMIT:
            raise QuadratureError(
                f"trace quadrature: more than {QUAD_PANEL_LIMIT} panels "
                f"(error estimate {error + float(np.sum(diff[~ok])):g})")
        left, right = np.split(_gauss_sums(f, np.concatenate([a, a + 0.5 * h]),
                                           np.concatenate([0.5 * h, 0.5 * h])), 2)
        nodes += 2 * a.size * GAUSS_POINTS


def _diag_logweight(params, beta, x, tol_root):
    p = EuclideanPoint(x, x, beta)
    try:
        gap = optimize_omega_imag(params, p, tol_root)
    except NoStationaryPointError as exc:
        raise IntegrandError(f"trial-frequency optimization failed at x={x!r}") from exc
    return w1_imag(params, p, gap.omega_star)


@lru_cache(maxsize=4096)
def _log_partition_oep(params: OscillatorParams, beta: float,
                       tol_quad: float, tol_root: float):
    """Returns (log Z, relative quadrature error, half-width used, diagnostics).

    Z = 2 int_0^x_max exp(W1(x, x; omega*(x))) dx.  The half-width x_max
    doubles from _initial_halfwidth until a PROBE_POINTS-point probe puts the
    endpoint weight below TAIL_RATIO of the peak; the integral then runs on
    the adaptive Gauss-Legendre rule of _adaptive_gauss.  Each probe and each
    quadrature level solves all its nodes in one batched gap solve
    (optimize_omega_imag_diagonal).  Raises QuadratureError when the tail or
    the panel count does not converge, and IntegrandError naming the x where
    the gap solve failed.  The diagnostics count the gap solves, fallbacks,
    points with more than one root and quadrature nodes, and give the worst
    residual and omega*(0), read off the first probe's x = 0 node.
    """
    batches = []

    def logw(xs):
        try:
            batch = optimize_omega_imag_diagonal(params, beta, xs, tol_root)
        except NoStationaryPointError as exc:
            raise IntegrandError(f"trial-frequency optimization failed: {exc}") from exc
        batches.append(batch)
        return batch.w1

    x_max, peak = _grow_halfwidth(logw, _initial_halfwidth(params, beta))
    val, err, nodes = _adaptive_gauss(lambda xs: np.exp(logw(xs) - peak), x_max, tol_quad)
    counts = [b.counts() for b in batches]
    diag = {key: sum(c[key] for c in counts)
            for key in ("gap_solves", "fallbacks", "multi_root")}
    diag.update(worst_residual=max(c["worst_residual"] for c in counts),
                quad_nodes=nodes, omega_star_origin=float(batches[0].omega_star[0]))
    return peak + math.log(2.0 * val), err / val, x_max, diag


def partition_function_oep(params: OscillatorParams, beta: float,
                           tol_quad: float = TOL_QUAD,
                           tol_root: float = TOL_ROOT):
    """Trace of the optimized diagonal amplitude; returns (Z, abs error)."""
    _check_beta(beta)
    ln_z, rel_err, _, _ = _log_partition_oep(params, beta, tol_quad, tol_root)
    z = math.exp(ln_z)
    return z, z * rel_err


def free_energy_oep(params: OscillatorParams, beta: float,
                    tol_quad: float = TOL_QUAD,
                    tol_root: float = TOL_ROOT) -> FreeEnergyResult:
    _check_beta(beta)
    ln_z, rel_err, x_max, diag = _log_partition_oep(params, beta, tol_quad, tol_root)
    info = {"quad_rel_error": rel_err, "halfwidth": x_max, **diag}
    return FreeEnergyResult(beta, -ln_z / beta, "OEP", info)


def default_grid(params: OscillatorParams, beta: float,
                 n: int = DENSITY_GRID_POINTS,
                 tol_quad: float = TOL_QUAD,
                 tol_root: float = TOL_ROOT) -> np.ndarray:
    """Uniform grid over the same half-width the trace quadrature used.

    Antisymmetrized so x and -x are exact negatives, which makes the evenness
    of every produced profile exact rather than a rounding accident.
    """
    _, _, x_max, _ = _log_partition_oep(params, beta, tol_quad, tol_root)
    grid = np.linspace(-x_max, x_max, n)
    return (grid - grid[::-1]) / 2.0


def density_oep(params: OscillatorParams, beta: float, grid=None,
                tol_quad: float = TOL_QUAD,
                tol_root: float = TOL_ROOT) -> DensityProfile:
    """Particle density exp(W1(x,x))/Z on a grid; reports its trapezoid defect."""
    _check_beta(beta)
    ln_z, _, _, _ = _log_partition_oep(params, beta, tol_quad, tol_root)
    if grid is None:
        grid = default_grid(params, beta, tol_quad=tol_quad, tol_root=tol_root)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a strictly increasing 1-d array")
    rho = np.array([math.exp(_diag_logweight(params, beta, x, tol_root) - ln_z)
                    for x in grid])
    norm_err = abs(float(np.trapezoid(rho, grid)) - 1.0)
    return DensityProfile(grid, rho, beta, norm_err)


def density_matrix_oep(params: OscillatorParams, beta: float,
                       x_a: float, x_b: float,
                       tol_quad: float = TOL_QUAD,
                       tol_root: float = TOL_ROOT) -> DensityMatrixEntry:
    """Off-diagonal density matrix with a per-pair optimized frequency."""
    _check_beta(beta)
    ln_z, _, _, _ = _log_partition_oep(params, beta, tol_quad, tol_root)
    p = EuclideanPoint(x_a, x_b, beta)
    gap = optimize_omega_imag(params, p, tol_root)
    value = math.exp(w1_imag(params, p, gap.omega_star) - ln_z)
    return DensityMatrixEntry(x_a, x_b, value, beta)


# ---------------------------------------------------------------------------
# free-energy series with a single global trial frequency

def _bose_occupation(z):
    if z > 700.0:
        return 0.0
    return 1.0 / math.expm1(z)


def oef_series(params: OscillatorParams, beta: float, omega: float) -> float:
    """First-order free-energy series at trial frequency omega."""
    z = beta * omega
    n = _bose_occupation(z)
    halfn = 0.5 + n
    return (0.5 * omega + math.log1p(-math.exp(-z)) / beta
            + 0.5 * (params.m2 - omega * omega) / omega * halfn
            + 3.0 * params.lam / (omega * omega) * halfn * halfn)


def oef_series_domega(params: OscillatorParams, beta: float, omega: float) -> float:
    z = beta * omega
    n = _bose_occupation(z)
    halfn = 0.5 + n
    dn = -beta * n * (1.0 + n)
    w2 = omega * omega
    return (0.5 + n
            + (-0.5 * params.m2 / w2 - 0.5) * halfn
            + (0.5 * (params.m2 - w2) / omega + 6.0 * params.lam * halfn / w2) * dn
            - 6.0 * params.lam * halfn * halfn / (omega * w2))


def free_energy_oef(params: OscillatorParams, beta: float,
                    tol_root: float = TOL_ROOT) -> FreeEnergyResult:
    """Free-energy series at its stationary global trial frequency.

    This is the Gibbs-Bogoliubov free energy of a harmonic trial oscillator,
    and unlike the OEP and FK routes it is not exact in the classical limit.
    As beta -> 0, n + 1/2 -> 1/(beta omega); with a = 1/(beta omega^2) the
    series becomes beta F = ln(beta/a)/2 - 1/2 + m2 beta a/2 + 3 lam beta a^2,
    the Gaussian variational bound on int exp(-beta V) dx / sqrt(2 pi beta).
    For lam > 0 the quartic term dominates, a -> (12 lam beta)^(-1/2), and
    beta (F_OEF - F_exact) tends to the constant

        c_GB = ln(2 Gamma(5/4)) + ln(12)/4 - 1/4 - ln(2 pi)/2 = 0.0471635,

    independent of m2, lam and beta; the first quantum correction to this
    limit shrinks like beta^(3/2).  Since |beta F| grows only like
    (3/4)|ln beta|, the relative error of F decays like 1/|ln beta|.
    """
    _check_beta(beta)
    grid = scan_window(params, 0.0, 0.0, beta)
    resid = partial(oef_series_domega, params, beta)
    gap = _solve_scanned(resid, partial(oef_series, params, beta), grid,
                         [resid(w) for w in grid], tol_root, f"the OEF series at beta={beta!r}")
    info = {"omega_star": gap.omega_star, "residual": gap.residual,
            "n_roots": gap.n_roots, "fallback_used": gap.fallback_used}
    return FreeEnergyResult(beta, oef_series(params, beta, gap.omega_star), "OEF", info)


# ---------------------------------------------------------------------------
# smeared-potential variational route

def fk_smearing_width_sq(omega_sq: float, beta: float) -> float:
    """Thermal fluctuation width of the path around its mean coordinate.

    Equals (1/(beta*s)) * (y coth y - 1) with y = beta*sqrt(s)/2, continued to
    negative trial curvature s through y -> i|y| (valid while |y| < pi).
    """
    _check_beta(beta)
    w = 0.25 * beta * beta * omega_sq
    if abs(w) < 0.25:
        return 0.25 * beta * hyper.horner_w(hyper.K1_OVER_Z2_W, w)
    if omega_sq > 0.0:
        y = 0.5 * beta * math.sqrt(omega_sq)
        return (y / math.tanh(y) - 1.0) / (beta * omega_sq)
    y = 0.5 * beta * math.sqrt(-omega_sq)
    if y >= math.pi:
        raise ValueError(f"trial curvature {omega_sq:g} too negative at beta={beta:g}: "
                         "fluctuation width diverges")
    return (1.0 - y / math.tan(y)) / (beta * (-omega_sq))


def fk_trial_frequency_sq(params: OscillatorParams, beta: float, x0: float) -> float:
    """Self-consistent trial curvature: s = m2 + 12 lam (x0^2 + a2(s)).

    This is where the smeared potential is stationary in the trial frequency.
    The right-hand side decreases in s, so the root is unique; it can be
    negative inside a shallow barrier.
    """
    _check_beta(beta)
    if params.lam == 0.0:
        return params.m2

    def gap(s):
        return s - params.m2 - 12.0 * params.lam * (x0 * x0 + fk_smearing_width_sq(s, beta))

    if params.m2 >= 0.0:
        lo = 0.0
    else:
        lo = -(2.0 * math.pi / beta) ** 2 * (1.0 - 1e-9)
    hi = max(params.m2, 0.0) + 12.0 * params.lam * x0 * x0 + params.lam * beta + 1.0
    return brentq(gap, lo, hi, xtol=1e-14, rtol=1e-14)


def fk_effective_potential(params: OscillatorParams, beta: float, x0: float):
    """First-order effective potential of the path mean; returns (V, s)."""
    s = fk_trial_frequency_sq(params, beta, x0)
    a2 = fk_smearing_width_sq(s, beta)
    w = 0.25 * beta * beta * s
    if abs(w) < 0.25:
        # LOG_SINH_RATIO_W holds the coefficients of w^1, w^2, ...
        entropic = w * hyper.horner_w(hyper.LOG_SINH_RATIO_W, w) / beta
    elif s > 0.0:
        y = 0.5 * beta * math.sqrt(s)
        entropic = (hyper.log_sinh(y) - math.log(y)) / beta
    else:
        y = 0.5 * beta * math.sqrt(-s)
        entropic = math.log(math.sin(y) / y) / beta
    smeared = (0.5 * params.m2 * (x0 * x0 + a2)
               + params.lam * (x0 ** 4 + 6.0 * x0 * x0 * a2 + 3.0 * a2 * a2))
    return entropic - 0.5 * s * a2 + smeared, s


def free_energy_fk(params: OscillatorParams, beta: float,
                   tol_quad: float = TOL_QUAD) -> FreeEnergyResult:
    _check_beta(beta)

    def neg_beta_v(x0):
        try:
            return -beta * fk_effective_potential(params, beta, x0)[0]
        except ValueError as exc:
            raise IntegrandError(f"effective potential failed at x0={x0!r}") from exc

    x_max, peak = _grow_halfwidth(lambda xs: np.array([neg_beta_v(x) for x in xs]),
                                  _initial_halfwidth(params, beta))
    out = integrate.quad(lambda x: math.exp(neg_beta_v(x) - peak), 0.0, x_max,
                         epsabs=1e-14, epsrel=tol_quad, limit=200, full_output=1)
    if len(out) > 3:
        raise QuadratureError(f"mean-coordinate quadrature: {out[3]} "
                              f"(error estimate {out[1]:g})")
    val, err = out[0], out[1]
    ln_z = peak + math.log(2.0 * val) - 0.5 * math.log(2.0 * math.pi * beta)
    _, s0 = fk_effective_potential(params, beta, 0.0)
    info = {"quad_rel_error": err / val, "halfwidth": x_max, "omega_sq_origin": s0}
    return FreeEnergyResult(beta, -ln_z / beta, "FK", info)
