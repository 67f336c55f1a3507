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
falls back at 41 points for beta = 0.25 and 49 for beta = 1, all with
|x| <~ 1.5, and at none for beta = 5.  When the bracketing scan finds no sign
change, the minimal-sensitivity fallback returns the omega of least
|dW1/domega| in the window and flags it.

optimize_omega_imag solves one point: a vectorized scan, then the scalar
sequence of _solve_scanned (last bracket, bisection, Newton polish,
acceptance test, golden-section fallback), which thermo.free_energy_oef
shares for the stationary point of its free-energy series.
optimize_omega_imag_diagonal runs the same rules over arrays for many
diagonal points of one beta, which is how the thermal trace solves its nodes.
Every solve, optimize_omega_real's too, reads its brackets off the scan with
one array rule, _bracket_ends.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import hyper
from .kernels import (CausticError, EuclideanPoint, OscillatorParams,
                      RealTimePoint, _assemble, _assemble_domega,
                      _check_path_args, _real_time_beta, _w0)

SCAN_POINTS = 200
SCAN_DECADES = 2.0          # window spans [1e-2, 1e2] * omega_ref
SCAN_LOG_STEP = 2.0 * SCAN_DECADES * math.log(10.0) / (SCAN_POINTS - 1)
BRACKET_REL_WIDTH = 1e-12
NEWTON_POLISH_STEPS = 3
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


def _bisect(f, lo, hi, flo, fhi):
    while hi - lo > BRACKET_REL_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid, mid
        if (flo < 0.0) != (fmid < 0.0):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return lo, hi


def _newton_polish(f, x, lo, hi):
    for _ in range(NEWTON_POLISH_STEPS):
        h = 1e-6 * x
        slope = (f(x + h) - f(x - h)) / (2.0 * h)
        if slope == 0.0:
            break
        step = f(x) / slope
        cand = x - step
        if not (lo <= cand <= hi) or not math.isfinite(cand):
            break
        x = cand
    return x


def _golden_min(f, lo, hi):
    """Golden-section minimum of f, narrowed to BRACKET_REL_WIDTH like _bisect."""
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
    vectorized); value(omega) sets the acceptance scale.  Bisects the last
    sign change (the one connected to the large-omega branch) after
    re-anchoring it on resid, polishes with a few Newton steps and accepts
    |resid| <= tol * max(1, |value|/omega).  Otherwise, or with no sign change
    anywhere, returns the minimal-sensitivity frequency (least |resid|) with
    fallback_used set.  where names the solve in NoStationaryPointError.
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
        i = j if vals[j] == 0.0 else j - 1
        if i == j:
            omega = grid[i]
            lo = hi = omega
        else:
            # a vectorized scan may differ from resid in the last bit:
            # re-anchor the bracket on resid before bisecting (widen by one
            # cell if an endpoint sits within rounding of the root)
            flo, fhi = resid(grid[i]), resid(grid[j])
            while (flo < 0.0) == (fhi < 0.0):
                i, j = max(i - 1, 0), min(j + 1, len(grid) - 1)
                if (i, j) == (0, len(grid) - 1):
                    break
                flo, fhi = resid(grid[i]), resid(grid[j])
            lo, hi = _bisect(resid, grid[i], grid[j], flo, fhi)
            omega = _newton_polish(resid, 0.5 * (lo + hi), grid[i], grid[j])
        res = abs(resid(omega))
        if res <= tol * max(1.0, abs(value(omega)) / omega):
            return GapSolution(omega, res, n_roots, (lo, hi), False)
        # bisection met its width target but the residual did not drop below
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
    grid = scan_window(params, p.x_a, p.x_b, p.beta)
    return _solve_scanned(lambda w: _gap_residual(params, p.x_a, p.x_b, p.beta, w),
                          lambda w: _w1(params, p.x_a, p.x_b, p.beta, w), grid,
                          _gap_residual(params, p.x_a, p.x_b, p.beta, np.asarray(grid)), tol, p)


def _scan_brackets(resid_scan, n, point):
    """Per-row bracket data of the residual scan, in chunks of SCAN_CHUNK_ELEMENTS.

    resid_scan(rows, cols) gives the scan residuals of those rows and
    point(row) names a row in the error raised when none is finite.  Returns
    the bracket count, the column where the last bracket ends, whether that
    column is an exact zero, and the column of least |residual|: the data
    _solve_scanned reads off one row.
    """
    n_roots, last, exact, least = (np.zeros(n, dtype=int), np.zeros(n, dtype=int),
                                   np.zeros(n, dtype=bool), np.zeros(n, dtype=int))
    cols = np.arange(SCAN_POINTS)
    step = max(1, SCAN_CHUNK_ELEMENTS // SCAN_POINTS)
    for start in range(0, n, step):
        rows = np.arange(start, min(n, start + step))
        vals = resid_scan(rows, cols)
        finite = np.isfinite(vals)
        ends = _bracket_ends(vals)
        n_roots[rows] = np.count_nonzero(ends, axis=1)
        last[rows] = SCAN_POINTS - 1 - np.argmax(ends[:, ::-1], axis=1)
        exact[rows] = vals[rows - start, last[rows]] == 0.0
        least[rows] = np.argmin(np.where(finite, np.abs(vals), np.inf), axis=1)
        dead = rows[~finite.any(axis=1)]
        if dead.size:
            raise NoStationaryPointError(
                f"residual not finite anywhere in the scan window for {point(dead[0])}")
    return n_roots, last, exact, least


def _illinois_rows(f, lo, hi, flo, fhi):
    """Shrink every row's sign-change bracket to BRACKET_REL_WIDTH at once.

    Illinois regula falsi: the secant point of the bracket, with the function
    value kept at an end that survives twice in a row halved so that both
    ends close in; the midpoint wherever the secant point is not strictly
    inside.  f(rows, omega) evaluates the residual.  Returns the brackets.
    """
    lo, hi, flo, fhi = lo.copy(), hi.copy(), flo.copy(), fhi.copy()
    kept = np.zeros(lo.size, dtype=np.int8)     # -1: lo survived last step, +1: hi
    act = np.arange(lo.size)
    while act.size:
        a, b, fa, fb = lo[act], hi[act], flo[act], fhi[act]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (a * fb - b * fa) / (fb - fa)
        t = np.where((t > a) & (t < b), t, 0.5 * (a + b))
        ft = f(act, t)
        root = ft == 0.0
        left = ~root & ((fa < 0.0) != (ft < 0.0))     # sign change in [lo, t]
        right = ~root & ~left
        lo[act[root]] = hi[act[root]] = t[root]
        hi[act[left]], fhi[act[left]] = t[left], ft[left]
        flo[act[left & (kept[act] == -1)]] *= 0.5
        lo[act[right]], flo[act[right]] = t[right], ft[right]
        fhi[act[right & (kept[act] == 1)]] *= 0.5
        kept[act] = np.where(left, -1, 1)
        a, b = lo[act], hi[act]
        mid = 0.5 * (a + b)
        act = act[(b - a > BRACKET_REL_WIDTH * b) & (mid != a) & (mid != b)]
    return lo, hi


def _newton_polish_rows(f, x, lo, hi):
    """_newton_polish on every row at once, each row inside its own [lo, hi]."""
    x = x.copy()
    act = np.arange(x.size)
    for _ in range(NEWTON_POLISH_STEPS):
        if not act.size:
            break
        xa = x[act]
        h = 1e-6 * xa
        up, down, here = np.split(f(np.tile(act, 3), np.concatenate([xa + h, xa - h, xa])), 3)
        slope = (up - down) / (2.0 * h)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = xa - here / slope
        ok = (slope != 0.0) & (lo[act] <= cand) & (cand <= hi[act]) & np.isfinite(cand)
        act = act[ok]
        x[act] = cand[ok]
    return x


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
    bracket of the scan, its re-anchoring on the pointwise residual, the
    bracket shrunk to BRACKET_REL_WIDTH (by Illinois regula falsi rather than
    bisection) and the Newton polish, the acceptance test
    tol * max(1, |W1|/omega), and the golden-section fallback on the
    least-|residual| cell.  omega_star agrees with the scalar solver to
    rounding.  Raises NoStationaryPointError naming the first point whose
    residual is nowhere finite.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    log_lo = np.array([_log_window_start(params, 2.0 * v * v, beta) for v in x.tolist()])

    def grid(rows, cols):
        return np.exp(log_lo[rows] + cols * SCAN_LOG_STEP)

    def resid(rows, omega):
        return _gap_residual(params, x[rows], x[rows], beta, omega)

    def resid_scan(rows, cols):
        return resid(rows[:, None], grid(rows[:, None], cols))

    n_roots, last, exact, least = _scan_brackets(
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
    i = np.where(exact[rows], j, j - 1)
    lo = grid(rows, i)
    hi = lo.copy()
    cell = np.flatnonzero(i != j)
    if cell.size:
        # the scan is vectorized; re-anchor each bracket on the pointwise
        # residual, widening by one cell while an endpoint sits within
        # rounding of the root
        r = rows[cell]
        i0, j0 = i[cell], j[cell]
        flo, fhi = np.split(resid(np.tile(r, 2), np.concatenate([grid(r, i0), grid(r, j0)])), 2)
        widen = np.flatnonzero((flo < 0.0) == (fhi < 0.0))
        while widen.size:
            i0[widen] = np.maximum(i0[widen] - 1, 0)
            j0[widen] = np.minimum(j0[widen] + 1, SCAN_POINTS - 1)
            widen = widen[(i0[widen] > 0) | (j0[widen] < SCAN_POINTS - 1)]
            rw = r[widen]
            flo[widen], fhi[widen] = np.split(
                resid(np.tile(rw, 2), np.concatenate([grid(rw, i0[widen]),
                                                      grid(rw, j0[widen])])), 2)
            widen = widen[(flo[widen] < 0.0) == (fhi[widen] < 0.0)]
        a0, b0 = grid(r, i0), grid(r, j0)
        blo, bhi = _illinois_rows(lambda k, w: resid(r[k], w), a0, b0, flo, fhi)
        lo[cell], hi[cell] = blo, bhi
        omega[r] = _newton_polish_rows(lambda k, w: resid(r[k], w), 0.5 * (blo + bhi), a0, b0)
    point = np.flatnonzero(i == j)
    omega[rows[point]] = lo[point]

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
    """Real trial frequency for a real-time point.

    The residual of a complex W generally has no real zero.  Candidate zeros
    of its real and imaginary parts are bisected and accepted only when the
    full |dW1/domega| vanishes within tolerance (this recovers the exact
    stationary point in the harmonic limit and on the continuation edge
    T = -i*beta).  Otherwise the least-sensitive omega is returned: the
    largest interior local minimum of |dW1/domega| in the scan window, with
    fallback_used set.  n_roots counts the accepted exact roots.
    """
    grid = scan_window(params, p.x_a, p.x_b, abs(complex(p.T)))

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

    vals = np.array([resid(w) for w in grid])
    mags = np.abs(vals)
    finite = np.isfinite(mags)
    if not finite.any():
        raise NoStationaryPointError(
            f"residual not finite anywhere in the scan window for {p}")
    mags[~finite] = math.inf

    # exact stationary points: zeros of one component where the other one
    # vanishes too; keep the largest
    roots = []
    for part, pvals in ((lambda w: resid(w).real, vals.real),
                        (lambda w: resid(w).imag, vals.imag)):
        for j in np.flatnonzero(_bracket_ends(pvals)).tolist():
            i = j if pvals[j] == 0.0 else j - 1
            if i == j:
                cand, bracket = grid[i], (grid[i], grid[i])
            else:
                lo, hi = _bisect(part, grid[i], grid[j], pvals[i], pvals[j])
                cand = _newton_polish(part, 0.5 * (lo + hi), grid[i], grid[j])
                bracket = (lo, hi)
            if good(cand):
                roots.append((cand, bracket))
    if roots:
        omega, bracket = max(roots)
        return GapSolution(omega, abs(resid(omega)), len(roots), bracket, False)

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
    return GapSolution(omega, abs(resid(omega)), 0, bracket, True)


def optimized_w1_imag(params: OscillatorParams, p: EuclideanPoint,
                      tol: float = 1e-10) -> FirstOrderAmplitude:
    gap = optimize_omega_imag(params, p, tol)
    return FirstOrderAmplitude(w1_imag(params, p, gap.omega_star), gap, p)


def optimized_w1_real(params: OscillatorParams, p: RealTimePoint,
                      tol: float = 1e-10) -> FirstOrderAmplitude:
    gap = optimize_omega_real(params, p, tol)
    return FirstOrderAmplitude(w1_real(params, p, gap.omega_star), gap, p)
