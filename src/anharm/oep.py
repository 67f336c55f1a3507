"""First order of the frequency-optimized amplitude expansion.

The log-amplitude is expanded around a trial oscillator of frequency omega;
to first order

    W1 = W0(omega) - (m2 - omega^2)/2 * (iL2 + iK)
                   - lam * (iL4 + 6 iL2K + 3 iKK)

in imaginary time.  The real-time W1 is -i times the same expression at
beta = i*T, so _w1 and _gap_residual are the one body of W1 and of its
residual for a real beta, an array of them or beta = i*T; the public
functions check their arguments and call them.  The trial frequency is then
fixed point-by-point by stationarity, dW1/domega = 0.
Because dW0/domega = -omega*(iL2 + iK) exactly, the residual reduces to
derivatives of the kernel integrals alone:

    dW1/domega = -(m2 - omega^2)/2 * d(iL2 + iK)/domega
                 - lam * d(iL4 + 6 iL2K + 3 iKK)/domega,

linear in 1 and the endpoint monomials of kernels._monomials with the
coefficients of _coefficients, the one formula of the residual.

The scan covers real omega > 0 only, so a stationary point at trial
curvature omega^2 <= 0 is out of its reach.  That happens in the double well
near the barrier: for m2 = -1, lam = 0.1 the 201-point default density grid
falls back at 41 points (21 distinct |x|) for beta = 0.25, all with
|x| <= 1.51, at 49 (25) for beta = 1 (|x| <= 1.28), and at none for
beta = 5.  When the bracketing scan finds no sign change, the
minimal-sensitivity fallback returns the omega of least |dW1/domega| in the
window and flags it; a bracketed root that misses the acceptance test is
flagged too.

Every imaginary-time scan covers its point's own window of SCAN_POINTS
log-spaced frequencies from exp(lo), lo = _log_window_start.  Its two ends,
exp(lo) and exp(lo + (SCAN_POINTS - 1) * SCAN_LOG_STEP), are evaluated
directly; the points between them are lattice points, omega = z_k/beta with
z_k = exp(k * SCAN_LOG_STEP) for k0 < k < k0 + SCAN_POINTS - 1 and
k0 = floor((lo + log beta)/SCAN_LOG_STEP).  The shape factors depend on
z = omega*beta alone, so every scan of the process reads them off one table
(_TABLE, a hyper.LatticeTable of hyper.lattice_factors).  Each (params,
beta) keeps one more table (_coefficient_table), whose columns are
_coefficients at the lattice points, and a scan only combines its rows with
the point's monomials (_combine): on the diagonal x_a = x_b = x as
A + (B + C x^2) x^2.  Keeping
each window's own ends keeps the fallback cells, and with them the kinks of
a trace that falls back, where they were; a window snapped onto the lattice
moved them with x.  Illinois, golden-section, acceptance and W1 evaluations
run off the lattice through _gap_residual and _w1.  OEF and the real-time
solve off the edge scan scan_window directly.

optimize_omega_imag solves one point: its scan, then the scalar sequence of
_solve_scanned, which free_energy_oef shares.  optimize_omega_imag_diagonal
runs the same rules over arrays for many diagonal points of one beta, which
is how the thermal trace and the density solve their points.  Both read
their brackets off the scan with _bracket_ends, an exact zero counting as
positive, and refine the last by one rule (_illinois, over arrays
_illinois_rows) to the secant point of its final bracket: exactly its end
where the residual there is 0.  With no bracket the fallback is the least
|dW1/domega| of the scan: a window end as scanned, for golden section would
only close in on it, and an interior sample by golden section over its two
cells.  Every operation of the two, down to the shape factors (hyper), is
elementwise and made in the same order, so a diagonal point gets the same
bits from the point solve as from any row of any batch.

optimize_omega_real reads three cases off the input.  On the continuation
edge T = -i*beta the residual is -i times the real imaginary-time one, so it
is optimize_omega_imag there: every real residual has the one root and
fallback rule of _solve_scanned.  In the harmonic limit omega = sqrt(m2) is
the exact root.  Elsewhere a complex residual has no real zero, and the solve
is golden section on the deepest dip of |dW1/domega| in a complex array scan
(Stevenson 1981).
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import hyper
from .kernels import (CAUSTIC_TOL, CausticError, EuclideanPoint,
                      OscillatorParams, RealTimePoint, _assemble,
                      _check_path_args, _check_tolerance, _monomials,
                      _real_time_beta, _w0)

SCAN_POINTS = 200
SCAN_DECADES = 2.0          # window spans [1e-2, 1e2] * omega_ref
SCAN_LOG_STEP = 2.0 * SCAN_DECADES * math.log(10.0) / (SCAN_POINTS - 1)
BRACKET_REL_WIDTH = 1e-12
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class NoStationaryPointError(RuntimeError):
    """The residual could not be evaluated anywhere in the scan window, or
    not at the frequency the solve ends on."""


@dataclass(frozen=True)
class GapSolution:
    """Optimized trial frequency and solver diagnostics.

    value is the function that sets the acceptance scale at omega_star, as
    the solve computed it: W1 for an imaginary-time point, the free-energy
    series for OEF, and None for a real-time point off the continuation edge.
    """

    omega_star: float
    residual: float
    n_roots: int
    bracket: tuple
    fallback_used: bool
    value: object


@dataclass(frozen=True)
class DiagonalGapBatch:
    """Gap solutions at the diagonal points (x, x) of one beta, one entry per x."""

    omega_star: np.ndarray
    residual: np.ndarray
    n_roots: np.ndarray
    fallback_used: np.ndarray
    w1: np.ndarray              # W1 at omega_star

    def counts(self) -> dict:
        """Solves, fallbacks, points with more than one root, worst residual."""
        return {"gap_solves": int(self.omega_star.size),
                "fallbacks": int(np.count_nonzero(self.fallback_used)),
                "multi_root": int(np.count_nonzero(self.n_roots > 1)),
                "worst_residual": float(np.max(self.residual, initial=0.0))}


@dataclass(frozen=True)
class FirstOrderAmplitude:
    w_value: complex
    gap: GapSolution
    point: object


def _w1(params: OscillatorParams, x_a, x_b, beta, omega):
    """W1 at a real beta (float, or arrays broadcast with the endpoints and
    omega) or at beta = i*T, where it is i times the real-time W1; unchecked."""
    k = _assemble(hyper.shape_factors(omega * beta), _monomials(x_a, x_b), omega)
    return (_w0(x_a, x_b, beta, omega) - 0.5 * (params.m2 - omega * omega) * (k.iL2 + k.iK)
            - params.lam * (k.iL4 + 6.0 * k.iL2K + 3.0 * k.iKK))


def _coefficients(params: OscillatorParams, s, sd, omega, z):
    """omega, dW1/domega's coefficients of 1 and of each monomial of
    kernels._monomials, and B and C of a diagonal point: the nine rows of a
    _coefficient_table column, from the shape factors s and z-derivatives sd
    at z = omega*beta.  G(z)/omega^k of kernels._sums has the derivative
    (z G'(z) - k G(z))/omega^(k+1) at fixed beta."""
    w2 = omega * omega
    w3 = omega * w2
    a = -0.5 * (params.m2 - w2)
    lam = params.lam
    c = (a * (0.5 * (z * sd.k1 - 2.0 * s.k1) / w3)
         - lam * (3.0 * (z * sd.k2 - 3.0 * s.k2) / (w2 * w2)),
         a * (0.5 * (z * sd.l2_sum - s.l2_sum) / w2)
         - lam * (6.0 * (z * sd.l2k_sum - 2.0 * s.l2k_sum) / w3),
         a * ((z * sd.l2_cross - s.l2_cross) / w2)
         - lam * (12.0 * (z * sd.l2k_cross - 2.0 * s.l2k_cross) / w3),
         -lam * ((z * sd.l4_sum - s.l4_sum) / w2),
         -lam * ((z * sd.l4_cross - s.l4_cross) / w2),
         -lam * ((z * sd.l4_sq - s.l4_sq) / w2))
    # the diagonal's monomials are 1, 2t, t, 2t^2, 8t^2, 6t^2 with t = x^2
    return (omega, *c, 2.0 * c[1] + c[2], 2.0 * c[3] + 8.0 * c[4] + 6.0 * c[5])


def _monomial_sum(c, x_a, x_b):
    """dW1/domega at the endpoints from the coefficient rows c of _coefficients."""
    sq, cross, q_sum, q_cross, q_sq = _monomials(x_a, x_b)
    return c[1] + c[2] * sq + c[3] * cross + c[4] * q_sum + c[5] * q_cross + c[6] * q_sq


def _gap_residual(params: OscillatorParams, x_a, x_b, beta, omega):
    """dW1/domega at a real beta (float or arrays) or at beta = i*T: the
    _coefficients there summed with the endpoint monomials; unchecked."""
    z = omega * beta
    return _monomial_sum(_coefficients(params, *hyper.shape_factors_d(z), omega, z), x_a, x_b)


def w1_imag(params: OscillatorParams, p: EuclideanPoint, omega: float) -> float:
    _check_path_args(omega, p.beta)
    return _w1(params, p.x_a, p.x_b, p.beta, omega)


def w1_real(params: OscillatorParams, p: RealTimePoint, omega: float) -> complex:
    return -1j * _w1(params, p.x_a, p.x_b, _real_time_beta(p, omega), omega)


def gap_residual_imag(params: OscillatorParams, p: EuclideanPoint, omega: float) -> float:
    """dW1/domega, from the analytic omega-derivatives of the closed forms."""
    _check_path_args(omega, p.beta)
    return _gap_residual(params, p.x_a, p.x_b, p.beta, omega)


def gap_residual_real(params: OscillatorParams, p: RealTimePoint, omega: float) -> complex:
    return -1j * _gap_residual(params, p.x_a, p.x_b, _real_time_beta(p, omega), omega)


def _log_window_start(params: OscillatorParams, sq: float, horizon: float) -> float:
    """log of the lowest scan frequency for endpoints with x_a^2 + x_b^2 = sq.

    omega_ref mixes the bare curvature, the strong-coupling cubic scale and
    the inverse horizon (beta or T), so the window covers the harmonic limit,
    the zero-temperature limit and the short-time limit.
    """
    omega_ref = max(math.sqrt(abs(params.m2)),
                    (6.0 * params.lam * max(1.0, sq)) ** (1.0 / 3.0),
                    1.0 / horizon)
    return math.log(omega_ref) - SCAN_DECADES * math.log(10.0)


def scan_window(params: OscillatorParams, x_a: float, x_b: float, horizon: float):
    """Log grid of candidate frequencies bracketing all relevant scales."""
    lo = _log_window_start(params, x_a * x_a + x_b * x_b, horizon)
    return [math.exp(lo + i * SCAN_LOG_STEP) for i in range(SCAN_POINTS)]


def _illinois(f, lo, hi, flo, fhi):
    """_illinois_rows on one bracket: the same steps, the same stop and root."""
    glo, ghi = flo, fhi     # f at lo and hi; flo and fhi may have been halved
    kept = 0                # -1: lo survived the last step, +1: hi
    while hi - lo > BRACKET_REL_WIDTH * hi and lo != 0.5 * (lo + hi) != hi:
        t = (lo * fhi - hi * flo) / (fhi - flo) if fhi != flo else math.nan
        d = 0.5 * BRACKET_REL_WIDTH * hi
        t = min(max(t, lo + d), hi - d) if math.isfinite(t) else 0.5 * (lo + hi)
        ft = f(t)
        if (flo < 0.0) != (ft < 0.0):     # sign change in [lo, t]
            hi, fhi, ghi, flo, kept = t, ft, ft, flo * (0.5 if kept == -1 else 1.0), -1
        else:
            lo, flo, glo, fhi, kept = t, ft, ft, fhi * (0.5 if kept == 1 else 1.0), 1
    return lo + (hi - lo) * (glo / (glo - ghi)), lo, hi


def _golden_min(f, lo, hi):
    """Golden-section minimum of f, narrowed to BRACKET_REL_WIDTH like _illinois."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > BRACKET_REL_WIDTH * b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b), (a, b)


def _bracket_ends(vals):
    """Where the brackets of a residual scan end, along its last axis: at
    each finite value whose finite left neighbour has the other sign, an
    exact zero counting as positive (the cell to its left is the bracket)."""
    finite = np.isfinite(vals)
    neg = vals < 0.0
    ends = np.zeros(vals.shape, dtype=bool)
    ends[..., 1:] = finite[..., :-1] & finite[..., 1:] & (neg[..., :-1] != neg[..., 1:])
    return ends


def _solve_scanned(resid, value, grid, vals, tol, where) -> GapSolution:
    """The gap solve once the residual has been scanned on the grid.

    resid(omega) is the scalar residual and vals its scan on grid (possibly
    vectorized); value(omega) sets the acceptance scale, and the solution
    carries it.  Shrinks the last sign change (the one connected to the
    large-omega branch) by _illinois, starting from the scanned values at its
    ends, to its secant root; with no sign change anywhere, takes the
    minimal-sensitivity frequency, the least |resid| of the scan: an end of
    the grid as it is, with the bracket (end, end), an interior sample by
    golden section on its two cells.  The solution is flagged fallback_used
    unless it is a root with |resid| <= tol * max(1, |value|/omega).  where
    names the solve in NoStationaryPointError, raised if resid is nowhere
    finite on the scan or not finite at the solution.
    """
    vals = np.asarray(vals, dtype=float)
    finite = np.isfinite(vals)
    if not finite.any():
        raise NoStationaryPointError(
            f"residual not finite anywhere in the scan window for {where}")
    ends = np.flatnonzero(_bracket_ends(vals))
    n_roots = ends.size
    if n_roots:
        j = int(ends[-1])
        omega, lo, hi = _illinois(resid, grid[j - 1], grid[j], float(vals[j - 1]),
                                  float(vals[j]))
    else:
        i = int(np.argmin(np.where(finite, np.abs(vals), np.inf)))
        if 0 < i < len(grid) - 1:
            omega, (lo, hi) = _golden_min(lambda w: abs(resid(w)), grid[i - 1], grid[i + 1])
        else:
            omega = lo = hi = grid[i]
    res = abs(resid(omega))
    if not math.isfinite(res):
        raise NoStationaryPointError(f"residual not finite at the solution for {where}")
    val = value(omega)
    accepted = n_roots > 0 and res <= tol * max(1.0, abs(val) / omega)
    return GapSolution(omega, res, n_roots, (lo, hi), not accepted, val)


# the shape factors at the scan lattice z_k = exp(k*SCAN_LOG_STEP): every
# imaginary-time scan of the process reads its interior off this one table
_TABLE = hyper.LatticeTable(partial(hyper.lattice_factors, SCAN_LOG_STEP))
# offsets of a scan window's two ends from its start, in log omega
_END_STEPS = np.array([0, SCAN_POINTS - 1]) * SCAN_LOG_STEP


def _lattice_start(log_lo, beta):
    """k0 = floor((lo + log beta)/SCAN_LOG_STEP) of imaginary-time windows
    that start at omega = exp(lo): the interior of the scan is z_k/beta for
    k0 < k < k0 + SCAN_POINTS - 1 (log_lo a float or an array)."""
    return np.floor((log_lo + math.log(beta)) / SCAN_LOG_STEP).astype(np.int64)


@lru_cache(maxsize=16)
def _coefficient_table(params: OscillatorParams, beta: float):
    """The lattice table of one (params, beta): column k is _coefficients at
    omega_k = z_k/beta (row 0 omega_k, rows 1 to 6 the coefficients, rows 7
    and 8 B and C of a diagonal point (x, x), whose residual is
    A + (B + C x^2) x^2 with A = row 1).  _combine reads a span of it."""
    def fill(k_lo, k_hi):
        z, *factors = _TABLE.span(k_lo, k_hi)
        return np.array(_coefficients(params, *hyper.split_rows(factors), z / beta, z))
    return hyper.LatticeTable(fill)


def _combine(rows, x_a, x_b):
    """dW1/domega at the endpoints from a _coefficient_table span; a
    diagonal point takes A + (B + C x^2) x^2, as the batch does."""
    if x_a == x_b:
        t = x_a * x_a
        return rows[1] + (rows[7] + rows[8] * t) * t
    return _monomial_sum(rows, x_a, x_b)


def _scan_imag(params: OscillatorParams, x_a: float, x_b: float, beta: float):
    """The imaginary-time scan of one point: its omegas and the residual there.

    The window's own ends, exp(lo) and exp(lo + (SCAN_POINTS - 1) *
    SCAN_LOG_STEP) as in scan_window but by numpy's exp, are evaluated
    directly; the points between them are the lattice points z_k/beta of
    _lattice_start, whose residual _combine reads off the _coefficient_table.
    """
    lo = _log_window_start(params, x_a * x_a + x_b * x_b, beta)
    k0 = int(_lattice_start(lo, beta))
    rows = _coefficient_table(params, beta).span(k0, k0 + SCAN_POINTS)
    omega = rows[0].tolist()
    vals = _combine(rows, x_a, x_b)
    for col, w in zip((0, -1), np.exp(lo + _END_STEPS).tolist()):
        omega[col] = w
        vals[col] = _gap_residual(params, x_a, x_b, beta, w)
    return omega, vals


@lru_cache(maxsize=1 << 12)
def optimize_omega_imag(params: OscillatorParams, p: EuclideanPoint,
                        tol: float = 1e-10) -> GapSolution:
    """Solve dW1/domega = 0 for this endpoint pair and temperature.

    Scans the window (_scan_imag: its own two ends, the lattice between
    them) and hands the scan to _solve_scanned: the largest root, or the
    minimal-sensitivity frequency with fallback_used set.  The solution
    carries W1 at omega_star as its value.  A diagonal point gets the bits
    of its row in optimize_omega_imag_diagonal.
    """
    _check_tolerance(tol=tol)
    grid, vals = _scan_imag(params, p.x_a, p.x_b, p.beta)
    return _solve_scanned(lambda w: _gap_residual(params, p.x_a, p.x_b, p.beta, w),
                          lambda w: _w1(params, p.x_a, p.x_b, p.beta, w), grid, vals, tol, p)


def _scan_brackets(vals, point):
    """Per-row bracket data of a residual scan matrix, one row per point.

    point(row) names a row in the error raised when none of its values is
    finite.  Returns the bracket count, the column where the last bracket
    ends, the column of least |residual| and the scanned residual at the two
    ends of the last bracket: the data _solve_scanned reads off one row.
    """
    finite = np.isfinite(vals)
    dead = np.flatnonzero(~finite.any(axis=1))
    if dead.size:
        raise NoStationaryPointError(
            f"residual not finite anywhere in the scan window for {point(dead[0])}")
    ends = _bracket_ends(vals)
    last = SCAN_POINTS - 1 - np.argmax(ends[:, ::-1], axis=1)
    mags = np.abs(vals)
    mags[~finite] = np.inf
    rows = np.arange(len(vals))
    return (np.count_nonzero(ends, axis=1), last, np.argmin(mags, axis=1),
            vals[rows, last - 1], vals[rows, last])


def _illinois_rows(f, lo, hi, flo, fhi):
    """Shrink every row's sign-change bracket to BRACKET_REL_WIDTH at once.

    Illinois regula falsi: the secant point of the bracket, with the function
    value kept at an end that survives twice in a row halved so that both
    ends close in.  The step is clipped into [lo + d, hi - d] with
    d = BRACKET_REL_WIDTH * hi / 2, the end step of Dekker's and Brent's
    zero finders: once one end sits on the root to rounding, the secant
    point rounds onto it, and the clipped step lands within d of it on the
    other side, which meets the width target.  The midpoint is taken only
    where the secant point is not finite.  An exact zero counts as positive,
    as in _bracket_ends: a step onto a root becomes an end with value 0, and
    the final bracket's secant point through it is that end.  f(rows, omega)
    evaluates the residual.  Returns the roots, the secant points of the
    final brackets through the unhalved values of f at their ends, and the
    brackets.
    """
    lo, hi, flo, fhi = lo.copy(), hi.copy(), flo.copy(), fhi.copy()
    glo, ghi = flo.copy(), fhi.copy()
    kept = np.zeros(lo.size, dtype=np.int8)     # -1: lo survived last step, +1: hi
    act = np.arange(lo.size)
    while True:
        a, b = lo[act], hi[act]
        mid = 0.5 * (a + b)
        act = act[(b - a > BRACKET_REL_WIDTH * b) & (mid != a) & (mid != b)]
        if not act.size:
            return lo + (hi - lo) * (glo / (glo - ghi)), lo, hi
        a, b, fa, fb = lo[act], hi[act], flo[act], fhi[act]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = (a * fb - b * fa) / (fb - fa)
        d = 0.5 * BRACKET_REL_WIDTH * b
        t = np.where(np.isfinite(t), np.minimum(np.maximum(t, a + d), b - d), 0.5 * (a + b))
        ft = f(act, t)
        left = (fa < 0.0) != (ft < 0.0)     # sign change in [lo, t]
        right = ~left
        hi[act[left]], fhi[act[left]], ghi[act[left]] = t[left], ft[left], ft[left]
        flo[act[left & (kept[act] == -1)]] *= 0.5
        lo[act[right]], flo[act[right]], glo[act[right]] = t[right], ft[right], ft[right]
        fhi[act[right & (kept[act] == 1)]] *= 0.5
        kept[act] = np.where(left, -1, 1)


def _golden_rows(f, lo, hi):
    """_golden_min on every row at once; returns the minimizers.

    The search state is held for the open rows only, so a step costs the
    same few array operations however many rows have closed."""
    end_a, end_b = lo.copy(), hi.copy()
    rows = np.arange(lo.size)
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = np.split(f(np.tile(rows, 2), np.concatenate([c, d])), 2)
    act = rows[hi - lo > BRACKET_REL_WIDTH * hi]
    a, b, c, d, fc, fd = lo[act], hi[act], c[act], d[act], fc[act], fd[act]
    while act.size:
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        probe = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        fp = f(act, probe)
        c, d, fc, fd = (np.where(left, probe, d), np.where(left, c, probe),
                        np.where(left, fp, fd), np.where(left, fc, fp))
        going = b - a > BRACKET_REL_WIDTH * b
        if not going.all():
            end_a[act], end_b[act] = a, b
            act, a, b, c, d, fc, fd = (v[going] for v in (act, a, b, c, d, fc, fd))
    return 0.5 * (end_a + end_b)


def optimize_omega_imag_diagonal(params: OscillatorParams, beta: float, x,
                                 tol: float = 1e-10) -> DiagonalGapBatch:
    """optimize_omega_imag at every diagonal point (x, x, beta) of x, at once.

    The same rules run over arrays: each point's own scan window, its two
    ends evaluated directly and its interior on the lattice of
    _lattice_start, where the residual is A + (B + C x^2) x^2 read off the
    _coefficient_table; the last bracket of the scan (an exact zero counting
    as positive) shrunk to BRACKET_REL_WIDTH by Illinois regula falsi from
    its scanned end values, to the secant root of the final bracket, or
    where the scan has no bracket its least |residual|, a window end as
    scanned and an interior one by golden section over its two cells; then
    one residual and one W1 call over all rows, and the acceptance test
    tol * max(1, |W1|/omega), which only a bracketed row can pass.  Every row
    agrees with the point solve (omega_star, residual, n_roots, fallback_used
    and its value W1) bit for bit, whatever the batch.  Raises ValueError if
    an x is not finite, and NoStationaryPointError naming the first point
    whose residual is nowhere finite, or not finite at its solution.
    """
    _check_tolerance(tol=tol)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("diagonal points must be finite")
    log_lo = np.array([_log_window_start(params, v * v + v * v, beta) for v in x.tolist()])
    k0 = _lattice_start(log_lo, beta)
    base = int(k0.min(initial=0))
    table = _coefficient_table(params, beta).span(base, int(k0.max(initial=0)) + SCAN_POINTS)
    # each row's window of the table: omega, and the residual A + (B + C t) t
    windows = np.lib.stride_tricks.sliding_window_view(table, SCAN_POINTS, axis=1)
    offset = k0 - base
    t = (x * x)[:, None]
    grid, vals = windows[0, offset], windows[8, offset] * t
    vals += windows[7, offset]
    vals *= t
    vals += windows[1, offset]
    grid[:, [0, -1]] = np.exp(log_lo[:, None] + _END_STEPS)
    vals[:, [0, -1]] = _gap_residual(params, x[:, None], x[:, None], beta, grid[:, [0, -1]])

    def resid(rows, omega):
        return _gap_residual(params, x[rows], x[rows], beta, omega)

    def point(row):
        return EuclideanPoint(float(x[row]), float(x[row]), beta)

    n_roots, last, least, flo, fhi = _scan_brackets(vals, point)

    omega = np.empty(x.size)
    rows = np.flatnonzero(n_roots)
    j = last[rows]
    omega[rows], _, _ = _illinois_rows(lambda k, w: resid(rows[k], w), grid[rows, j - 1],
                                       grid[rows, j], flo[rows], fhi[rows])
    # no bracket: the least |residual|, by golden section where it is interior
    none = np.flatnonzero(n_roots == 0)
    omega[none] = grid[none, least[none]]
    dip = none[(least[none] > 0) & (least[none] < SCAN_POINTS - 1)]
    if dip.size:
        omega[dip] = _golden_rows(lambda k, w: np.abs(resid(dip[k], w)),
                                  grid[dip, least[dip] - 1], grid[dip, least[dip] + 1])

    residual = np.abs(_gap_residual(params, x, x, beta, omega))
    dead = np.flatnonzero(~np.isfinite(residual))
    if dead.size:
        raise NoStationaryPointError(f"residual not finite at the solution for {point(dead[0])}")
    w1 = _w1(params, x, x, beta, omega)
    accepted = (n_roots > 0) & (residual <= tol * np.maximum(1.0, np.abs(w1) / omega))
    return DiagonalGapBatch(omega, residual, n_roots, ~accepted, w1)


def optimize_omega_real(params: OscillatorParams, p: RealTimePoint,
                        tol: float = 1e-10) -> GapSolution:
    """Real trial frequency for a real-time point, by three cases read off
    the input before any scan.

    * On the continuation edge (Re T = 0) this is optimize_omega_imag at
      beta = -Im T (n_roots counts brackets, a fallback on a window end
      returns that end); W1 is -i times its W1 to rounding.
    * In the harmonic limit (lam = 0, m2 > 0): omega = sqrt(m2), if it
      passes the test |dW1/domega| <= tol * max(1, |W1|/omega).
    * Anywhere else a complex residual has no real zero: golden section on
      the deepest interior dip of |dW1/domega| in one array scan of the
      window, with focal points (|sin(omega*T)| < CAUSTIC_TOL at real T) and
      non-finite entries set to inf.  The result is flagged fallback_used
      unless it passes the test, when it counts as one root.
    """
    _check_tolerance(tol=tol)
    t = complex(p.T)
    if t.real == 0.0:
        return optimize_omega_imag(params, EuclideanPoint(p.x_a, p.x_b, -t.imag), tol)

    def resid(w):
        try:
            return gap_residual_real(params, p, w)
        except CausticError:
            return complex(math.inf, math.inf)

    def good(w):
        try:
            scale = max(1.0, abs(w1_real(params, p, w)) / w)
        except CausticError:
            return False
        return abs(resid(w)) <= tol * scale

    if params.lam == 0.0 and params.m2 > 0.0:
        omega = math.sqrt(params.m2)
        if good(omega):
            return GapSolution(omega, abs(resid(omega)), 1, (omega, omega), False, None)

    grid = scan_window(params, p.x_a, p.x_b, abs(t))
    omegas = np.array(grid)
    with np.errstate(all="ignore"):
        vals = -1j * _gap_residual(params, p.x_a, p.x_b, 1j * t, omegas)
    dead = ~np.isfinite(vals)
    if t.imag == 0.0:
        dead |= np.abs(np.sin(omegas * t.real)) < CAUSTIC_TOL
    vals[dead] = complex(math.inf, math.inf)
    mags = np.abs(vals)
    finite = np.isfinite(mags)
    if not finite.any():
        raise NoStationaryPointError(
            f"residual not finite anywhere in the scan window for {p}")

    # minimal sensitivity: the deepest interior dip of |residual|.  Window
    # edges are excluded (the residual always decays towards omega -> 0), and
    # for real T the shallow dips between successive focal-point poles lose
    # against the genuine near-stationary dip.
    inner = mags[1:-1]
    dips = 1 + np.flatnonzero((inner < mags[:-2]) & (inner <= mags[2:]) & finite[1:-1])
    pick = int(dips[np.argmin(mags[dips])] if dips.size else np.argmin(mags))
    lo = grid[max(pick - 1, 0)]
    hi = grid[min(pick + 1, len(grid) - 1)]
    omega, bracket = _golden_min(lambda w: abs(resid(w)) ** 2, lo, hi)
    accepted = good(omega)
    return GapSolution(omega, abs(resid(omega)), int(accepted), bracket, not accepted, None)


def optimized_w1_imag(params: OscillatorParams, p: EuclideanPoint,
                      tol: float = 1e-10) -> FirstOrderAmplitude:
    gap = optimize_omega_imag(params, p, tol)
    return FirstOrderAmplitude(gap.value, gap, p)


def optimized_w1_real(params: OscillatorParams, p: RealTimePoint,
                      tol: float = 1e-10) -> FirstOrderAmplitude:
    gap = optimize_omega_real(params, p, tol)
    return FirstOrderAmplitude(w1_real(params, p, gap.omega_star), gap, p)
