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
density_matrix_oep expose.  The density solves the distinct |x| of its grid
in one batched gap solve, and the density matrix solves each entry on its
own (oep.optimize_omega_imag); a diagonal entry gets the bits of the
density's row, as every batch row does.

The OEP trace probes its half-width and integrates on an adaptive
Gauss-Legendre rule.  Each probe also evaluates the first level of the rule
on its own half-width, in the same batched gap solve
(oep.optimize_omega_imag_diagonal), and each refinement call solves two
levels: its own nodes and, ahead, every node the next level could need;
see _log_partition_oep.  The FK route runs on the same probe and rule, each
call one array evaluation of its effective potential (_fk_potential).
Both raise QuadratureError when the tail or the panel count does not
converge or a node's integrand is not finite, and IntegrandError naming the
point where the integrand failed.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import hyper
from .kernels import (EuclideanPoint, OscillatorParams, QuadratureError,
                      _check_tolerance)
from .oep import (NoStationaryPointError, _solve_scanned, optimize_omega_imag,
                  optimize_omega_imag_diagonal, scan_window)

TOL_QUAD = 1e-10
TOL_ROOT = 1e-10
TAIL_RATIO = 1e-12
DENSITY_GRID_POINTS = 201
PROBE_POINTS = 25
# half-width doublings before the trace gives up on the integrand's tail
MAX_DOUBLINGS = 24
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
    info: dict = field(default_factory=dict)    # gap-solve counts, as in a trace


@dataclass(frozen=True)
class DensityMatrixEntry:
    x_a: float
    x_b: float
    value: float
    beta: float


def _check_beta(beta):
    # numbers.Real takes numpy scalars too, which the oracle has always accepted
    if not (isinstance(beta, numbers.Real) and math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be a positive finite number, got {beta!r}")


def _check_grid(grid):
    """grid as a float array; ValueError unless finite, strictly increasing, 1-d, >= 2 points."""
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim != 1 or grid.size < 2 or not np.isfinite(grid).all()
            or np.any(np.diff(grid) <= 0)):
        raise ValueError("grid must be a finite, strictly increasing 1-d array")
    return grid


def _initial_halfwidth(params: OscillatorParams, beta: float) -> float:
    """Covers the classical width, the quantum width and the well positions."""
    scales = [1.0, 1.0 / math.sqrt(beta * max(params.m2, 1.0))]
    if params.lam > 0.0:
        scales.append((1.0 / (beta * params.lam)) ** 0.25)
    return 3.0 * max(scales)


def _halves(a, h):
    """Starts and widths of the left, then the right halves of the panels."""
    return np.concatenate([a, a + 0.5 * h]), np.concatenate([0.5 * h, 0.5 * h])


def _first_level(x_max):
    """Starts and widths of _adaptive_gauss's first level on [0, x_max]: the
    QUAD_START_PANELS starting panels, then their halves."""
    h = np.full(QUAD_START_PANELS, x_max / QUAD_START_PANELS)
    a = h * np.arange(QUAD_START_PANELS)
    ha, hh = _halves(a, h)
    return np.concatenate([a, ha]), np.concatenate([h, hh])


@lru_cache(maxsize=1)
def _gauss_rule():
    # on first use, not at import: the eigensolver's first call costs memory
    return np.polynomial.legendre.leggauss(GAUSS_POINTS)


def _gauss_nodes(a, h):
    """The GAUSS_POINTS nodes of each panel [a, a + h], panel by panel."""
    t, _ = _gauss_rule()
    return (a[:, None] + (0.5 * h)[:, None] * (1.0 + t)).ravel()


def _grow_halfwidth(logf, x0):
    """Double the half-width until the endpoint integrand is negligible.

    logf maps an array of points to their log-integrands.  Each probe is one
    call: PROBE_POINTS points spread over [0, half-width], x = 0 first, then
    the nodes of _adaptive_gauss's first level on that half-width.  The probe
    points alone decide the doubling and the peak.  Returns the half-width,
    the peak and the log-integrands at the first level's nodes, from which
    _adaptive_gauss starts; a doubling discards them.
    """
    log_tail = math.log(TAIL_RATIO)
    x = x0
    for _ in range(MAX_DOUBLINGS):
        logs = logf(np.concatenate([np.linspace(0.0, x, PROBE_POINTS),
                                    _gauss_nodes(*_first_level(x))]))
        probe = logs[:PROBE_POINTS]
        peak = float(np.max(probe))
        if probe[-1] - peak <= log_tail:
            return x, peak, logs[PROBE_POINTS:]
        x *= 2.0
    raise QuadratureError(f"integrand tail still {probe[-1] - peak:g} above "
                          f"threshold at half-width {x / 2.0:g}")


def _weight(xs, logs, peak):
    """exp(logs - peak), the trace weight at the nodes xs from their
    log-integrands; QuadratureError at the first node where it is not
    finite, far above the peak that the probe found."""
    rel = logs - peak
    with np.errstate(over="ignore"):
        out = np.exp(rel)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise QuadratureError(
            f"trace integrand not finite at x={float(xs[bad[0]])!r} (log-integrand "
            f"{rel[bad[0]]:g} above the probe's peak): the half-width probe missed a peak")
    return out


def _gauss_sums(values, h):
    """Gauss-Legendre sums over panels of widths h from the values at their
    nodes (_gauss_nodes)."""
    _, w = _gauss_rule()
    return 0.5 * h * (values.reshape(h.size, GAUSS_POINTS) @ w)


def _adaptive_gauss(logf, x_max, peak, first, tol):
    """int_0^x_max exp(logf(x) - peak) dx, one call of logf per refinement level.

    first holds the log-integrands at the first level's nodes, which the
    half-width probe (_grow_halfwidth) evaluated in its own call, so a trace
    calls logf only from the second level on.  logf(xs, ahead) gives the
    log-integrands at the level's nodes xs; ahead, the nodes of its panels'
    quarters, hold the next level's, and logf may evaluate them in the same
    call (the OEP trace does) or ignore them (FK).  Every open panel is compared
    with the sum over its two halves.  Where the difference is within the
    panel's share of the tolerance, tol * |integral| * width / x_max, the
    halves' sum is kept; elsewhere the halves become open panels of the next
    level.  Only panels that miss their
    share split, so a kink is refined locally.  When the open and accepted
    panels would exceed QUAD_PANEL_LIMIT, every open panel is accepted if the
    accepted error plus the open panels' differences is within
    tol * |integral| (a narrow integrand can keep its panels' shares out of
    reach while the whole meets tol), and QuadratureError is raised
    otherwise.  The integrand is a trace weight, so an integral that is not
    positive means every node missed its peak, and raises QuadratureError
    too; so does a weight that is not finite (_weight).
    Returns (integral, error estimate, nodes evaluated).
    """
    a, h = _first_level(x_max)
    whole, left, right = np.split(_gauss_sums(_weight(_gauss_nodes(a, h), first, peak), h), 3)
    a, h = a[:QUAD_START_PANELS], h[:QUAD_START_PANELS]
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
            break
        a, h = _halves(a[~ok], h[~ok])
        whole = np.concatenate([left[~ok], right[~ok]])
        if accepted + a.size > QUAD_PANEL_LIMIT:
            value, error = total, error + float(np.sum(diff[~ok]))
            if error <= tol * abs(total):
                break
            raise QuadratureError(
                f"trace quadrature: more than {QUAD_PANEL_LIMIT} panels "
                f"(error estimate {error:g})")
        ha, hh = _halves(a, h)
        xs = _gauss_nodes(ha, hh)
        logs = logf(xs, _gauss_nodes(*_halves(ha, hh)))
        left, right = np.split(_gauss_sums(_weight(xs, logs, peak), hh), 2)
        nodes += 2 * a.size * GAUSS_POINTS
    if not value > 0.0:
        raise QuadratureError(
            f"trace integral {value!r} over [0, {x_max:g}]: every node missed the "
            "peak that the half-width probe found")
    return value, error, nodes


@lru_cache(maxsize=4096)
def _log_partition_oep(params: OscillatorParams, beta: float,
                       tol_quad: float, tol_root: float):
    """Returns (log Z, relative quadrature error, half-width used, diagnostics).

    Z = 2 int_0^x_max exp(W1(x, x; omega*(x))) dx.  The half-width x_max
    doubles from _initial_halfwidth until a PROBE_POINTS-point probe puts the
    endpoint weight below TAIL_RATIO of the peak; the integral then runs on
    the adaptive Gauss-Legendre rule of _adaptive_gauss.  Each probe solves
    its points and the nodes of the first quadrature level on its half-width
    in one batched gap solve (optimize_omega_imag_diagonal), so a trace that
    neither doubles nor refines makes one call.  A refinement call also
    solves, ahead, the nodes of its panels' quarters, and a level whose nodes
    it all solved makes no call: two levels per call, with the sums and
    decisions of one, as a batch row does not depend on its batch.  If a
    node ahead fails, the call solves its level alone, so the trace raises
    only where a level needs a node.  Raises QuadratureError when the tail or
    the panel count does not converge or a node's integrand is not finite
    (_weight), and IntegrandError naming the x where the gap solve failed.
    The diagnostics count the gap solves, fallbacks and points with more
    than one root, and give the worst residual, of the points a probe or a
    level used; they also count quadrature nodes and batched gap-solve calls
    (solve_calls), and give omega*(0), read off the first probe's x = 0 node.
    """
    _check_tolerance(tol_quad=tol_quad, tol_root=tol_root)
    batches = []        # every batched call
    used = []           # (batch, rows) of the entries that a probe or a level used
    kept = {}           # the row of each node that the last call solved ahead, by x

    def logw(xs, ahead=()):
        keys = xs.tolist()
        if all(k in kept for k in keys):
            rows = [kept[k] for k in keys]
            used.append((batches[-1], rows))
            return batches[-1].w1[rows]
        try:
            try:    # a node ahead may fail where no level needs it: then xs alone
                batch = optimize_omega_imag_diagonal(params, beta, np.append(xs, ahead), tol_root)
            except NoStationaryPointError:
                batch = optimize_omega_imag_diagonal(params, beta, xs, tol_root)
        except NoStationaryPointError as exc:
            raise IntegrandError(f"trial-frequency optimization failed: {exc}") from exc
        batches.append(batch)
        used.append((batch, slice(xs.size)))
        kept.clear()
        kept.update(zip(np.asarray(ahead).tolist(), range(xs.size, batch.w1.size)))
        return batch.w1[:xs.size]

    x_max, peak, first = _grow_halfwidth(logw, _initial_halfwidth(params, beta))
    val, err, nodes = _adaptive_gauss(logw, x_max, peak, first, tol_quad)
    counts = [batch.counts(rows) for batch, rows in used]
    diag = {key: sum(c[key] for c in counts)
            for key in ("gap_solves", "fallbacks", "multi_root")}
    diag.update(worst_residual=max(c["worst_residual"] for c in counts),
                quad_nodes=nodes, solve_calls=len(batches),
                omega_star_origin=float(batches[0].omega_star[0]))
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
    """Particle density exp(W1(x,x))/Z on a grid; reports its trapezoid defect
    and, in info, the gap-solve counts of a trace (see _log_partition_oep).

    The gap solve reads the endpoints only through even monomials
    (kernels._monomials), so x and -x give the same bits: the distinct |x| of
    the grid are solved in one optimize_omega_imag_diagonal call, and the
    counts are those of its solves.
    """
    _check_beta(beta)
    if grid is None:
        grid = default_grid(params, beta, tol_quad=tol_quad, tol_root=tol_root)
    grid = _check_grid(grid)
    ln_z, _, _, _ = _log_partition_oep(params, beta, tol_quad, tol_root)
    x, solve_of = np.unique(np.abs(grid), return_inverse=True)
    try:
        batch = optimize_omega_imag_diagonal(params, beta, x, tol_root)
    except NoStationaryPointError as exc:
        raise IntegrandError(f"trial-frequency optimization failed: {exc}") from exc
    # math.exp, as density_matrix_oep takes it
    rho = np.array([math.exp(w - ln_z) for w in batch.w1[solve_of].tolist()])
    norm_err = abs(float(np.trapezoid(rho, grid)) - 1.0)
    return DensityProfile(grid, rho, beta, norm_err, batch.counts())


def density_matrix_oep(params: OscillatorParams, beta: float,
                       x_a: float, x_b: float,
                       tol_quad: float = TOL_QUAD,
                       tol_root: float = TOL_ROOT) -> DensityMatrixEntry:
    """Off-diagonal density matrix with a per-pair optimized frequency, solved
    at the sorted pair, reflected to x_a + x_b >= 0: the solve reads the
    endpoints only through monomials that are symmetric under swapping them
    and even under reflecting both (kernels._monomials), so the pairs these
    map onto each other give the same bits and share one cached solve.  A
    diagonal entry equals the density_oep value at that x bit for bit."""
    _check_beta(beta)
    ln_z, _, _, _ = _log_partition_oep(params, beta, tol_quad, tol_root)
    lo, hi = sorted((x_a, x_b))
    if lo + hi < 0.0:
        lo, hi = -hi, -lo
    p = EuclideanPoint(lo, hi, beta)
    gap = optimize_omega_imag(params, p, tol_root)
    return DensityMatrixEntry(x_a, x_b, math.exp(gap.value - ln_z), beta)


# ---------------------------------------------------------------------------
# free-energy series with a single global trial frequency

def _bose_occupation(z):
    """1/(exp(z) - 1), and 0 past z = 700, for a float or an array z."""
    if isinstance(z, np.ndarray):
        return np.where(z > 700.0, 0.0, 1.0 / np.expm1(np.minimum(z, 700.0)))
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


def oef_series_domega(params: OscillatorParams, beta: float, omega):
    """d/domega of oef_series, at a float omega or an array of them."""
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
    _check_tolerance(tol_root=tol_root)
    grid = scan_window(params, 0.0, 0.0, beta)
    resid = partial(oef_series_domega, params, beta)
    gap = _solve_scanned(resid, partial(oef_series, params, beta), grid,
                         resid(np.array(grid)), tol_root, f"the OEF series at beta={beta!r}")
    info = {"omega_star": gap.omega_star, "residual": gap.residual,
            "n_roots": gap.n_roots, "fallback_used": gap.fallback_used}
    return FreeEnergyResult(beta, gap.value, "OEF", info)


# ---------------------------------------------------------------------------
# smeared-potential variational route: the bodies take arrays (1-d for the
# potential), and the public functions check their arguments and return
# floats for a float

def _fk_width(s, beta):
    """(a2, da2/ds) of fk_smearing_width_sq at each entry of s, unchecked."""
    w = 0.25 * beta * beta * s
    y = 0.5 * beta * np.sqrt(np.abs(s))
    with np.errstate(all="ignore"):
        # a2 = beta h/4 with h = (y coth y - 1)/w, continued to y cot y below
        # w = 0; with u = (1 - 3h)/w, dh/dw = (u - h^2)/2
        h = (np.where(s > 0.0, y / np.tanh(y), y / np.tan(y)) - 1.0) / w
        u = (1.0 - 3.0 * h) / w
        series = np.abs(w) < 0.25
        if series.any():
            h = np.where(series, hyper.horner_w(hyper.K1_OVER_Z2_W, w), h)
            u = np.where(series, -3.0 * hyper.horner_w(hyper.K1_OVER_Z2_W[1:], w), u)
    return 0.25 * beta * h, beta ** 3 / 32.0 * (u - h * h)


def _fk_potential(params, beta, x0):
    """(V, s) of fk_effective_potential at each entry of x0, unchecked.

    a2(s) = (2/beta) sum_{n>=1} 1/((2 pi n/beta)^2 + s) is positive,
    decreasing and convex, so g(s) = s - c - 12 lam a2(s), c = m2 + 12 lam x0^2,
    is increasing and concave: Newton steps rise monotonically onto its root
    from below, and a row stops once a step no longer raises s.  They start
    from the root with a2 cut to its n = 1 term (a quadratic's), which lies
    below g's root and above the pole.
    """
    c = params.m2 + 12.0 * params.lam * x0 * x0
    d, q = c + (2.0 * math.pi / beta) ** 2, 96.0 * params.lam / beta
    root = np.sqrt(d * d + q)
    # s - c = (root - d)/2, written without cancellation where d > 0
    s = c + np.where(d > 0.0, 0.5 * q / (root + d), 0.5 * (root - d))
    a2 = np.empty_like(s)     # ends at each row's last s, the one kept
    act = np.arange(s.size)
    while act.size:
        a2[act], da2 = _fk_width(s[act], beta)
        gap = s[act] - c[act] - 12.0 * params.lam * a2[act]
        cand = s[act] - gap / (1.0 - 12.0 * params.lam * da2)
        up = cand > s[act]
        act = act[up]
        s[act] = cand[up]
    w = 0.25 * beta * beta * s
    y = 0.5 * beta * np.sqrt(np.abs(s))
    with np.errstate(all="ignore"):
        entropic = np.where(s > 0.0, hyper.log_sinh(y) - np.log(y), np.log(np.sin(y) / y))
        # LOG_SINH_RATIO_W holds the coefficients of w^1, w^2, ...
        entropic = np.where(np.abs(w) < 0.25, w * hyper.horner_w(hyper.LOG_SINH_RATIO_W, w),
                            entropic) / beta
    smeared = (0.5 * params.m2 * (x0 * x0 + a2)
               + params.lam * (x0 ** 4 + 6.0 * x0 * x0 * a2 + 3.0 * a2 * a2))
    return entropic - 0.5 * s * a2 + smeared, s


def fk_smearing_width_sq(omega_sq, beta):
    """Thermal fluctuation width of the path around its mean coordinate.

    Equals (1/(beta*s)) * (y coth y - 1) with y = beta*sqrt(s)/2, continued to
    negative trial curvature s through y -> i|y| (valid while |y| < pi).
    """
    _check_beta(beta)
    if np.any(0.5 * beta * np.sqrt(np.maximum(-np.asarray(omega_sq), 0.0)) >= math.pi):
        raise ValueError(f"trial curvature {np.min(omega_sq):g} too negative at "
                         f"beta={beta:g}: fluctuation width diverges")
    a2, _ = _fk_width(np.asarray(omega_sq, dtype=float), beta)
    return float(a2) if np.ndim(omega_sq) == 0 else a2


def fk_trial_frequency_sq(params: OscillatorParams, beta: float, x0):
    """Self-consistent trial curvature: s = m2 + 12 lam (x0^2 + a2(s)).

    This is where the smeared potential is stationary in the trial frequency.
    The right-hand side decreases in s, so the root is unique; it can be
    negative inside a shallow barrier.
    """
    return fk_effective_potential(params, beta, x0)[1]


def fk_effective_potential(params: OscillatorParams, beta: float, x0):
    """First-order effective potential of the path mean; returns (V, s)."""
    _check_beta(beta)
    v, s = _fk_potential(params, beta, np.ravel(np.asarray(x0, dtype=float)))
    if np.ndim(x0) == 0:
        return float(v[0]), float(s[0])
    return v.reshape(np.shape(x0)), s.reshape(np.shape(x0))


def free_energy_fk(params: OscillatorParams, beta: float,
                   tol_quad: float = TOL_QUAD) -> FreeEnergyResult:
    """Integrated like the OEP trace, V at all nodes of a level at once;
    IntegrandError names an x0 where V is not finite."""
    _check_beta(beta)
    _check_tolerance(tol_quad=tol_quad)
    curvatures = []

    def neg_beta_v(xs, ahead=()):
        v, s = _fk_potential(params, beta, xs)
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise IntegrandError(f"effective potential not finite at x0={float(xs[bad[0]])!r}")
        curvatures.append(s)
        return -beta * v

    x_max, peak, first = _grow_halfwidth(neg_beta_v, _initial_halfwidth(params, beta))
    val, err, nodes = _adaptive_gauss(neg_beta_v, x_max, peak, first, tol_quad)
    ln_z = peak + math.log(2.0 * val) - 0.5 * math.log(2.0 * math.pi * beta)
    # the first probe's first node is x0 = 0
    info = {"quad_rel_error": err / val, "halfwidth": x_max,
            "omega_sq_origin": float(curvatures[0][0]), "quad_nodes": nodes}
    return FreeEnergyResult(beta, -ln_z / beta, "FK", info)
