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
                 - lam * d(iL4 + 6 iL2K + 3 iKK)/domega.

The scan covers real omega > 0 only, so a stationary point at trial
curvature omega^2 <= 0 is out of its reach.  That happens in the double well
near the barrier: for m2 = -1, lam = 0.1 the 201-point default density grid
falls back at 41 points for beta = 0.25 (all with |x| <= 1.51) and 49 for
beta = 1 (|x| <= 1.28), and at none for beta = 5.  When the bracketing scan
finds no sign change, the minimal-sensitivity fallback returns the omega of
least |dW1/domega| in the window and flags it.

optimize_omega_imag solves one point: a vectorized scan, then the scalar
sequence of _solve_scanned (last bracket, Illinois regula falsi, acceptance
test, golden-section fallback), which free_energy_oef shares.
optimize_omega_imag_diagonal runs the same rules over arrays for many
diagonal points of one beta, which is how the thermal trace solves its
nodes.  Both read their brackets and the residual at the bracket ends off the
scan with _bracket_ends and refine them by one rule (_illinois, over arrays
_illinois_rows), whose root is the secant point of the final bracket.

optimize_omega_real reads three cases off the input.  On the continuation
edge T = -i*beta the residual is -i times the real imaginary-time one, so it
is optimize_omega_imag there: every real residual has the one root rule of
_solve_scanned.  In the harmonic limit omega = sqrt(m2) is the exact root.
Elsewhere a complex residual has no real zero, and the solve is golden section
on the deepest dip of |dW1/domega| in a complex array scan (Stevenson 1981).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import hyper
from .kernels import (CAUSTIC_TOL, CausticError, EuclideanPoint,
                      OscillatorParams, RealTimePoint, _assemble,
                      _assemble_domega, _check_path_args, _check_tolerance,
                      _real_time_beta, _w0)

SCAN_POINTS = 200
SCAN_DECADES = 2.0          # window spans [1e-2, 1e2] * omega_ref
SCAN_LOG_STEP = 2.0 * SCAN_DECADES * math.log(10.0) / (SCAN_POINTS - 1)
BRACKET_REL_WIDTH = 1e-12
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# residual-scan entries the batched solve holds at once; bounds its scratch
# memory whatever the number of points
SCAN_CHUNK_ELEMENTS = 1 << 11


class NoStationaryPointError(RuntimeError):
    """The residual could not be evaluated anywhere in the scan window."""


@dataclass(frozen=True)
class GapSolution:
    """Optimized trial frequency and solver diagnostics."""

    omega_star: float
    residual: float
    n_roots: int
    bracket: tuple
    fallback_used: bool


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


def _w1_terms(params: OscillatorParams, omega, k, w0=0.0):
    """W1 from W0 and the kernel integrals k; with w0 = 0 and the
    omega-derivatives of the integrals, the gap residual dW1/domega."""
    return (w0 - 0.5 * (params.m2 - omega * omega) * (k.iL2 + k.iK)
            - params.lam * (k.iL4 + 6.0 * k.iL2K + 3.0 * k.iKK))


def _w1(params: OscillatorParams, x_a, x_b, beta, omega):
    """W1 at a real beta (float, or arrays broadcast with the endpoints and
    omega) or at beta = i*T, where it is i times the real-time W1; unchecked."""
    s = hyper.shape_factors(omega * beta)
    return _w1_terms(params, omega, _assemble(s, x_a, x_b, omega), _w0(x_a, x_b, beta, omega))


def _gap_residual(params: OscillatorParams, x_a, x_b, beta, omega):
    """dW1/domega at a real beta (float or arrays) or at beta = i*T, from the
    analytic omega-derivatives of the closed forms; unchecked."""
    z = omega * beta
    s, sd = hyper.shape_factors_d(z)
    return _w1_terms(params, omega, _assemble_domega(s, sd, x_a, x_b, omega, z))


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
        t = (lo * fhi - hi * flo) / (fhi - flo) if fhi != flo else lo
        t = t if lo < t < hi else 0.5 * (lo + hi)
        ft = f(t)
        if ft == 0.0:
            return t, t, t
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
    """Where the brackets of a residual scan end, along its last axis.

    A bracket ends at an exact zero (which is its own bracket) and at a
    finite value whose finite left neighbour has the other sign (the cell to
    its left is the bracket).
    """
    finite = np.isfinite(vals)
    zero = vals == 0.0
    neg = vals < 0.0
    ends = zero.copy()
    ends[..., 1:] |= (finite[..., :-1] & finite[..., 1:] & ~zero[..., 1:]
                      & (neg[..., :-1] != neg[..., 1:]))
    return ends


def _solve_scanned(resid, value, grid, vals, tol, where) -> GapSolution:
    """The gap solve once the residual has been scanned on the grid.

    resid(omega) is the scalar residual and vals its scan on grid (possibly
    vectorized); value(omega) sets the acceptance scale.  Shrinks the last
    sign change (the one connected to the large-omega branch) by _illinois,
    starting from the scanned values at its ends, and accepts the secant root
    if |resid| <= tol * max(1, |value|/omega).  Otherwise, or with no sign
    change anywhere, returns the minimal-sensitivity frequency (least |resid|)
    with fallback_used set.  where names the solve in NoStationaryPointError.
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
        if vals[j] == 0.0:
            omega = lo = hi = grid[j]
        else:
            omega, lo, hi = _illinois(resid, grid[j - 1], grid[j], float(vals[j - 1]),
                                      float(vals[j]))
        res = abs(resid(omega))
        if res <= tol * max(1.0, abs(value(omega)) / omega):
            return GapSolution(omega, res, n_roots, (lo, hi), False)
        # the bracket met its width target but the residual did not drop below
        # tolerance: report the least-sensitive point instead of a fake root
    else:
        # no sign change: the cells either side of the least |residual|
        i = int(np.argmin(np.where(finite, np.abs(vals), np.inf)))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    omega, bracket = _golden_min(lambda w: abs(resid(w)), lo, hi)
    return GapSolution(omega, abs(resid(omega)), n_roots, bracket, True)


@lru_cache(maxsize=1 << 12)
def optimize_omega_imag(params: OscillatorParams, p: EuclideanPoint,
                        tol: float = 1e-10) -> GapSolution:
    """Solve dW1/domega = 0 for this endpoint pair and temperature.

    Scans a log grid at once and hands it to _solve_scanned: the largest
    root, or the minimal-sensitivity frequency with fallback_used set.
    """
    _check_tolerance(tol=tol)
    grid = scan_window(params, p.x_a, p.x_b, p.beta)
    return _solve_scanned(lambda w: _gap_residual(params, p.x_a, p.x_b, p.beta, w),
                          lambda w: _w1(params, p.x_a, p.x_b, p.beta, w), grid,
                          _gap_residual(params, p.x_a, p.x_b, p.beta, np.asarray(grid)), tol, p)


def _scan_brackets(resid_scan, n, point):
    """Per-row bracket data of the residual scan, in chunks of SCAN_CHUNK_ELEMENTS.

    resid_scan(rows, cols) gives the scan residuals of those rows and
    point(row) names a row in the error raised when none is finite.  Returns
    the bracket count, the column where the last bracket ends, the column of
    least |residual| and the scanned residual one column before and at the
    end of the last bracket (an exact zero there is its own bracket): the
    data _solve_scanned reads off one row.
    """
    n_roots, last, least = np.zeros(n, dtype=int), np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    flo, fhi = np.zeros(n), np.zeros(n)
    cols = np.arange(SCAN_POINTS)
    step = max(1, SCAN_CHUNK_ELEMENTS // SCAN_POINTS)
    for start in range(0, n, step):
        rows = np.arange(start, min(n, start + step))
        vals = resid_scan(rows, cols)
        finite = np.isfinite(vals)
        ends = _bracket_ends(vals)
        n_roots[rows] = np.count_nonzero(ends, axis=1)
        last[rows] = SCAN_POINTS - 1 - np.argmax(ends[:, ::-1], axis=1)
        fhi[rows] = vals[rows - start, last[rows]]
        flo[rows] = vals[rows - start, np.maximum(last[rows] - 1, 0)]
        least[rows] = np.argmin(np.where(finite, np.abs(vals), np.inf), axis=1)
        dead = rows[~finite.any(axis=1)]
        if dead.size:
            raise NoStationaryPointError(
                f"residual not finite anywhere in the scan window for {point(dead[0])}")
    return n_roots, last, least, flo, fhi


def _illinois_rows(f, lo, hi, flo, fhi):
    """Shrink every row's sign-change bracket to BRACKET_REL_WIDTH at once.

    Illinois regula falsi: the secant point of the bracket, with the function
    value kept at an end that survives twice in a row halved so that both
    ends close in; the midpoint wherever the secant point is not strictly
    inside.  f(rows, omega) evaluates the residual.  Returns the roots, the
    secant points of the final brackets through the unhalved values of f at
    their ends, and the brackets.
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
            # a row that met an exact zero has lo = hi there, which it returns
            return lo + (hi - lo) * (glo / (glo - ghi)), lo, hi
        a, b, fa, fb = lo[act], hi[act], flo[act], fhi[act]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (a * fb - b * fa) / (fb - fa)
        t = np.where((t > a) & (t < b), t, 0.5 * (a + b))
        ft = f(act, t)
        root = ft == 0.0
        left = ~root & ((fa < 0.0) != (ft < 0.0))     # sign change in [lo, t]
        right = ~root & ~left
        lo[act[root]] = hi[act[root]] = t[root]
        hi[act[left]], fhi[act[left]], ghi[act[left]] = t[left], ft[left], ft[left]
        flo[act[left & (kept[act] == -1)]] *= 0.5
        lo[act[right]], flo[act[right]], glo[act[right]] = t[right], ft[right], ft[right]
        fhi[act[right & (kept[act] == 1)]] *= 0.5
        kept[act] = np.where(left, -1, 1)


def _golden_rows(f, lo, hi):
    """_golden_min on every row at once; returns the minimizers."""
    a, b = lo.copy(), hi.copy()
    rows = np.arange(a.size)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = np.split(f(np.tile(rows, 2), np.concatenate([c, d])), 2)
    act = rows[b - a > BRACKET_REL_WIDTH * b]
    while act.size:
        left = fc[act] < fd[act]
        b[act] = np.where(left, d[act], b[act])
        a[act] = np.where(left, a[act], c[act])
        probe = np.where(left, b[act] - GOLDEN * (b[act] - a[act]),
                         a[act] + GOLDEN * (b[act] - a[act]))
        fp = f(act, probe)
        c[act], d[act], fc[act], fd[act] = (
            np.where(left, probe, d[act]), np.where(left, c[act], probe),
            np.where(left, fp, fd[act]), np.where(left, fc[act], fp))
        act = act[b[act] - a[act] > BRACKET_REL_WIDTH * b[act]]
    return 0.5 * (a + b)


def optimize_omega_imag_diagonal(params: OscillatorParams, beta: float, x,
                                 tol: float = 1e-10) -> DiagonalGapBatch:
    """optimize_omega_imag at every diagonal point (x, x, beta) of x, at once.

    The same rules run over arrays: each point's own scan window, the last
    bracket of the scan shrunk to BRACKET_REL_WIDTH by Illinois regula falsi
    from its scanned end values, the secant root of the final bracket, the
    acceptance test tol * max(1, |W1|/omega), and the golden-section fallback
    on the least-|residual| cell.  omega_star agrees with the scalar solver to
    rounding.  Raises NoStationaryPointError naming the first point whose
    residual is nowhere finite.
    """
    _check_tolerance(tol=tol)
    x = np.asarray(x, dtype=float)
    n = x.size
    log_lo = np.array([_log_window_start(params, 2.0 * v * v, beta) for v in x.tolist()])

    def grid(rows, cols):
        return np.exp(log_lo[rows] + cols * SCAN_LOG_STEP)

    def resid(rows, omega):
        return _gap_residual(params, x[rows], x[rows], beta, omega)

    def resid_scan(rows, cols):
        return resid(rows[:, None], grid(rows[:, None], cols))

    n_roots, last, least, flo, fhi = _scan_brackets(
        resid_scan, n, lambda row: EuclideanPoint(float(x[row]), float(x[row]), beta))

    omega = np.empty(n)
    gold_lo, gold_hi = np.empty(n), np.empty(n)
    fallback = n_roots == 0
    # no bracket: golden section over the cells either side of the least |residual|
    none = np.flatnonzero(fallback)
    gold_lo[none] = grid(none, np.maximum(least[none] - 1, 0))
    gold_hi[none] = grid(none, np.minimum(least[none] + 1, SCAN_POINTS - 1))

    rows = np.flatnonzero(~fallback)
    j = last[rows]
    lo = grid(rows, j)          # an exact zero is its own bracket
    hi = lo.copy()
    omega[rows] = lo
    cell = np.flatnonzero(fhi[rows] != 0.0)
    if cell.size:
        r = rows[cell]
        omega[r], lo[cell], hi[cell] = _illinois_rows(
            lambda k, w: resid(r[k], w), grid(r, j[cell] - 1), hi[cell], flo[r], fhi[r])

    res = np.abs(resid(rows, omega[rows]))
    w1 = np.empty(n)
    w1[rows] = _w1(params, x[rows], x[rows], beta, omega[rows])
    missed = ~(res <= tol * np.maximum(1.0, np.abs(w1[rows]) / omega[rows]))
    # the bracket met its width target but the residual did not drop below
    # tolerance: the least-sensitive point of the bracket instead
    fallback[rows[missed]] = True
    gold_lo[rows[missed]], gold_hi[rows[missed]] = lo[missed], hi[missed]

    residual = np.empty(n)
    residual[rows] = res
    gold = np.flatnonzero(fallback)
    if gold.size:
        omega[gold] = _golden_rows(lambda k, w: np.abs(resid(gold[k], w)),
                                   gold_lo[gold], gold_hi[gold])
        residual[gold] = np.abs(resid(gold, omega[gold]))
        w1[gold] = _w1(params, x[gold], x[gold], beta, omega[gold])
    return DiagonalGapBatch(omega, residual, n_roots, fallback, w1)


def optimize_omega_real(params: OscillatorParams, p: RealTimePoint,
                        tol: float = 1e-10) -> GapSolution:
    """Real trial frequency for a real-time point, by three cases read off
    the input before any scan.

    * On the continuation edge (Re T = 0) this is optimize_omega_imag at
      beta = -Im T (n_roots counts brackets there); W1 is -i times its W1 to
      rounding.
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
            return GapSolution(omega, abs(resid(omega)), 1, (omega, omega), False)

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
    return GapSolution(omega, abs(resid(omega)), int(accepted), bracket, not accepted)


def optimized_w1_imag(params: OscillatorParams, p: EuclideanPoint,
                      tol: float = 1e-10) -> FirstOrderAmplitude:
    gap = optimize_omega_imag(params, p, tol)
    return FirstOrderAmplitude(w1_imag(params, p, gap.omega_star), gap, p)


def optimized_w1_real(params: OscillatorParams, p: RealTimePoint,
                      tol: float = 1e-10) -> FirstOrderAmplitude:
    gap = optimize_omega_real(params, p, tol)
    return FirstOrderAmplitude(w1_real(params, p, gap.omega_star), gap, p)
