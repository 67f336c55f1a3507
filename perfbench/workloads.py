"""The four benchmark workloads: inputs from a seed, the timed op, its checks.

Inputs are drawn per input family from a fixed Latin design jittered by the
seed (``Design``): every seed gives different inputs, no two ops of a run
share a cache key, and a run's mix of inputs is nearly the same for every
seed, so the metrics do not hinge on the draw.

An op is timed by ``run``; ``check`` runs afterwards, untimed and untraced,
and returns the problems it found plus the op's error against the
benchmark's own exact reference (``reference.py``, never ``anharm.oracle``).
"""

import cmath
import contextlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

import reference

# potential m2 x^2/2 + lam x^4: m2 uniform, lam log-uniform in these ranges
FAMILIES = {
    "weak": ((0.5, 2.0), (0.005, 0.05)),
    "strong": ((0.0, 1.0), (0.5, 5.0)),
    "double": ((-1.5, -0.5), (0.08, 0.2)),
}
HARMONIC = ((0.5, 2.0), None)

# A first-order F misses the exact one by up to ~0.3 in a deep double well at
# low temperature and by ~5% (OEF) at high temperature; beyond GROSS_DF in
# energy units and GROSS_REL of |F| a result is broken, not merely first order.
GROSS_DF = 1.0
GROSS_REL = 0.25
NORM_TOL = 1e-8          # density normalization, as the suite pins it
NORM_GROSS = 1e-6        # beyond this the density is mis-normalized, not under-resolved
CONTINUATION_TOL = 1e-9  # relative, as the suite pins it
HARMONIC_TOL = 1e-9
ORACLE_LEVEL_TOL = 1e-8  # relative: lowest levels must match the reference
ORACLE_LOW_LEVELS = 8


class Design:
    """A fixed Latin design of CELLS points in [0, 1)^dim (dim <= 3), jittered by the seed.

    Along dimension d, point i sits in stratum i * (d + 1) mod CELLS (CELLS
    is prime, so each dimension visits every stratum once per pass).  The
    seed moves the point within JITTER of its cell's width, afresh on every
    pass: inputs never repeat, while the mix of cheap and costly, accurate
    and inaccurate inputs is the same for every seed.
    """

    CELLS = 5
    JITTER = 0.1

    def __init__(self, rng, dim):
        self.rng, self.dim = rng, dim
        self.k = 0

    def next(self):
        i = self.k % self.CELLS
        self.k += 1
        cell = np.array([i * (d + 1) % self.CELLS for d in range(self.dim)])
        jitter = self.JITTER * (self.rng.random(self.dim) - 0.5)
        return (cell + 0.5 + jitter) / self.CELLS


def _lin(u, lo, hi):
    return lo + (hi - lo) * float(u)


def _log(u, lo, hi):
    return math.exp(_lin(u, math.log(lo), math.log(hi)))


def _params(family, u_m2, u_lam):
    (m2_lo, m2_hi), lam_range = FAMILIES.get(family, HARMONIC)
    lam = 0.0 if lam_range is None else _log(u_lam, *lam_range)
    return _lin(u_m2, m2_lo, m2_hi), lam


@dataclass
class Op:
    kind: str
    family: str
    m2: float
    lam: float
    key: tuple              # the inputs that key the library's caches
    args: dict = field(default_factory=dict)
    shares_key: bool = False  # intended reuse of the previous op's key


def _fmt(v):
    return f"{float(v):.12g}"


# ---------------------------------------------------------------------------

class Workload:
    """Subclasses define block(), run() and check().

    MIN_OPS: a run has at least this many ops, and err_vs_exact is taken over
    exactly these first ops, the error panel.  check(api, op, out, panel)
    returns (problems, error); it may skip reference work that only feeds
    the error when the op is outside the panel.
    """

    name = ""
    families = tuple(FAMILIES)
    MIN_OPS = 1

    def __init__(self, rng):
        self.rng = rng
        self.blocks_made = 0
        self.notes = []     # findings below the failure line, listed by input

    def summarize(self, errs):
        """The worst family's mean error, from (family, error) pairs.

        Taking the worst family keeps a regression confined to one family
        from being diluted by the others.
        """
        by_family = {}
        for family, err in errs:
            by_family.setdefault(family, []).append(err)
        return max(self.family_mean(v) for v in by_family.values())

    def family_mean(self, errs):
        """Geometric mean: per-op errors span decades."""
        return float(np.exp(np.mean(np.log(errs))))


class ThermoCold(Workload):
    """One op = OEP, OEF and FK free energies at one fresh (m2, lam, beta)."""

    name = "thermo-cold"
    MIN_OPS = 30            # two passes over the design
    BETA = (0.1, 50.0)

    def __init__(self, rng):
        super().__init__(rng)
        self.seq = {f: Design(rng, 3) for f in self.families}

    def block(self):
        """One pass over the design: every cell of every family."""
        ops = []
        for _ in range(Design.CELLS):
            for fam in self.families:
                u = self.seq[fam].next()
                m2, lam = _params(fam, u[0], u[1])
                beta = _log(u[2], *self.BETA)
                ops.append(Op("free-energy", fam, m2, lam, (m2, lam, beta), {"beta": beta}))
        return ops

    def run(self, api, op):
        p = api.kernels.OscillatorParams(op.m2, op.lam)
        beta = op.args["beta"]
        return (api.thermo.free_energy_oep(p, beta).f,
                api.thermo.free_energy_oef(p, beta).f,
                api.thermo.free_energy_fk(p, beta).f)

    def check(self, api, op, out, panel):
        beta = op.args["beta"]
        ln_z = reference.log_z(op.m2, op.lam, beta)
        f_exact = -ln_z / beta
        problems = [f"{method} F = {f!r}, exact {f_exact:.6g}"
                    for method, f in zip(("OEP", "OEF", "FK"), out)
                    if not abs(f - f_exact) <= max(GROSS_DF, GROSS_REL * abs(f_exact))]
        # |beta (F_OEP - F_exact)| = |d ln Z| never divides by a small F
        return problems, abs(beta * (out[0] - f_exact))


class LocalDensity(Workload):
    """Ops alternate: density_oep (cold trace), then the 21x21 density matrix."""

    name = "local-density"
    MIN_OPS = 24            # four blocks: four design cells of every family
    BETA = (0.5, 10.0)
    MATRIX_POINTS = 21

    def __init__(self, rng):
        super().__init__(rng)
        self.seq = {f: Design(rng, 3) for f in self.families}

    def block(self):
        """One design cell of every family: a density op, then the matrix op."""
        ops = []
        for fam in self.families:
            u = self.seq[fam].next()
            m2, lam = _params(fam, u[0], u[1])
            beta = _log(u[2], *self.BETA)
            key = (m2, lam, beta)
            ops += [Op("density", fam, m2, lam, key, {"beta": beta}),
                    Op("density-matrix", fam, m2, lam, key, {"beta": beta}, shares_key=True)]
        return ops

    def run(self, api, op):
        p = api.kernels.OscillatorParams(op.m2, op.lam)
        beta = op.args["beta"]
        if op.kind == "density":
            return api.thermo.density_oep(p, beta)
        grid = api.thermo.default_grid(p, beta, n=self.MATRIX_POINTS)
        values = np.array([[api.thermo.density_matrix_oep(p, beta, float(xa), float(xb)).value
                            for xb in grid] for xa in grid])
        return grid, values

    def check(self, api, op, out, panel):
        p = api.kernels.OscillatorParams(op.m2, op.lam)
        beta = op.args["beta"]
        problems = []
        if op.kind == "density":
            rho = out.rho
            if not np.all(np.isfinite(rho)) or np.any(rho < 0.0):
                return ["density not finite and non-negative"], None
            defect = abs(float(np.trapezoid(rho, out.grid)) - 1.0)
            if abs(out.normalization_error - defect) > 1e-14:
                problems.append("reported normalization error is not the trapezoid defect")
            if not defect < NORM_GROSS:
                problems.append(f"normalization error {defect:.2e}")
            elif defect >= NORM_TOL:
                self.notes.append(f"normalization error {defect:.2e} > {NORM_TOL:g}")
            if np.max(np.abs(rho - rho[::-1])) > 1e-12 * np.max(rho):
                problems.append("density not even in x")
            if not panel:
                return problems, None
            _, ref = reference.converged(
                op.m2, op.lam, lambda s: s.density(beta, out.grid), 1e-10, beta, vectors=True)
            return problems, float(np.max(np.abs(rho - ref)) / np.max(ref))
        grid, values = out
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            return ["density matrix not finite and non-negative"], None
        if not np.array_equal(values, values.T):
            problems.append("density matrix not swap-symmetric")
        diag = api.thermo.density_oep(p, beta, grid).rho
        if not np.array_equal(np.diag(values), diag):
            problems.append("density-matrix diagonal differs from density_oep")
        return problems, None


class AmplitudePoints(Workload):
    """Single amplitudes: optimized W1 in imaginary and real time, and the CLI."""

    name = "amplitude-points"
    MIN_OPS = 240
    families = ("harmonic",) + tuple(FAMILIES)
    BETA = (0.5, 5.0)
    X = (-2.0, 2.0)
    T_REAL = (0.2, 2.5)
    REAL_KINDS = ("real-T", "wedge-T")

    def __init__(self, rng):
        super().__init__(rng)
        self.param_seq = {f: Design(rng, 2) for f in self.families}
        self.point_seq = {f: Design(rng, 3) for f in self.families}
        self.spectra = {}
        self.imag_seen = 0

    def block(self):
        real_kind = self.REAL_KINDS[self.blocks_made % len(self.REAL_KINDS)]
        self.blocks_made += 1
        ops = []
        for fam in self.families:
            u = self.param_seq[fam].next()
            m2, lam = _params(fam, u[0], u[1])
            for kind in ("imag", real_kind, "cli"):
                v = self.point_seq[fam].next()
                xa, xb = _lin(v[0], *self.X), _lin(v[1], *self.X)
                beta = _log(v[2], *self.BETA)
                if kind == "real-T":
                    t = complex(_lin(v[2], *self.T_REAL), 0.0)
                elif kind == "wedge-T":
                    angle = _lin(self.rng.random(), 0.1, 0.9)
                    t = _lin(v[2], *self.T_REAL) * cmath.exp(-0.5j * math.pi * angle)
                else:
                    t = None
                time_ = beta if t is None else t
                ops.append(Op(kind, fam, m2, lam, (m2, lam, xa, xb, time_, kind == "cli"),
                              {"x_a": xa, "x_b": xb, "beta": beta, "T": t}))
        return ops

    def run(self, api, op):
        p = api.kernels.OscillatorParams(op.m2, op.lam)
        a = op.args
        if op.kind == "imag":
            return api.oep.optimized_w1_imag(p, api.kernels.EuclideanPoint(a["x_a"], a["x_b"], a["beta"]))
        if op.kind == "cli":
            # --flag=value: argparse reads "-1e-05" after a bare flag as an option
            argv = ["propagator", f"--m2={op.m2!r}", f"--lambda={op.lam!r}",
                    f"--xa={a['x_a']!r}", f"--xb={a['x_b']!r}",
                    f"--time={a['beta']!r}", "--mode=imag"]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = api.cli.main(argv)
            return code, buf.getvalue()
        return api.oep.optimized_w1_real(p, api.kernels.RealTimePoint(a["x_a"], a["x_b"], a["T"]))

    def _log_kernel(self, op):
        """Exact log <x_b|exp(-beta H)|x_a> from the reference spectrum."""
        a = op.args
        if op.lam == 0.0:
            # Mehler's closed form for the harmonic well
            w = math.sqrt(op.m2)
            z = w * a["beta"]
            sh, ch = math.sinh(z), math.cosh(z)
            return (0.5 * math.log(w / (2.0 * math.pi * sh))
                    - w * ((a["x_a"] ** 2 + a["x_b"] ** 2) * ch - 2.0 * a["x_a"] * a["x_b"]) / (2.0 * sh))
        key = (op.m2, op.lam)
        if key not in self.spectra:
            bmin = self.BETA[0]
            corners = ((self.X[1], self.X[1]), (0.0, self.X[1]), (0.0, 0.0))
            self.spectra[key] = reference.converged(
                op.m2, op.lam, lambda s: [s.kernel(bmin, x, y) for x, y in corners],
                1e-10, bmin, vectors=True)[0]
        return self.spectra[key].kernel(a["beta"], a["x_a"], a["x_b"])

    def _probe_edge(self, api, p, edge, lib):
        """Optimized real-time solve on the edge T = -i beta, against the imaginary one.

        Not a timed op and not a failure: at this commit the edge solve raises
        OverflowError for strong coupling above beta ~ 2.3, and lands on
        another frequency than the imaginary-time solve where that one falls
        back (double wells).  Both are listed as notes, by input, every run.
        """
        try:
            w = api.oep.optimized_w1_real(p, edge).w_value
        except ArithmeticError as exc:
            self.notes.append(f"edge solve at T={edge.T!r} raised {type(exc).__name__}: {exc}")
            return
        miss = abs(1j * w - lib.w_value)
        if miss > CONTINUATION_TOL * abs(lib.w_value) + 1e-12:
            self.notes.append(f"edge solve misses the imaginary-time W by {miss:.2e} "
                              f"(imaginary-time fallback: {lib.gap.fallback_used})")

    def check(self, api, op, out, panel):
        a = op.args
        p = api.kernels.OscillatorParams(op.m2, op.lam)
        if op.kind in self.REAL_KINDS:
            w = out.w_value
            if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                return ["real-time W not finite"], None
            return [], None
        problems = []
        lib = api.oep.optimized_w1_imag(p, api.kernels.EuclideanPoint(a["x_a"], a["x_b"], a["beta"]))
        edge = api.kernels.RealTimePoint(a["x_a"], a["x_b"], -1j * a["beta"])
        # continuation identity at the optimized imaginary-time frequency
        wr = api.oep.w1_real(p, edge, lib.gap.omega_star)
        if abs(1j * wr - lib.w_value) > CONTINUATION_TOL * abs(lib.w_value) + 1e-12:
            problems.append(f"continuation identity off by {abs(1j * wr - lib.w_value):.2e}")
        if op.kind == "imag":
            # the first pass over the design probes the edge at every cell of every family
            self.imag_seen += 1
            if self.imag_seen <= len(self.families) * Design.CELLS:
                self._probe_edge(api, p, edge, lib)
        if op.kind == "cli":
            code, text = out
            kv = dict(line.split("=", 1) for line in text.splitlines()
                      if "=" in line and not line.startswith("#"))
            want = {"omega_star": _fmt(lib.gap.omega_star), "residual": _fmt(lib.gap.residual),
                    "n_roots": str(lib.gap.n_roots),
                    "fallback": str(lib.gap.fallback_used).lower(),
                    "W": _fmt(lib.w_value), "amplitude": _fmt(math.exp(lib.w_value))}
            if code != 0:
                return [f"cli exit code {code}"], None
            bad = [k for k, v in want.items() if kv.get(k) != v]
            if bad:
                problems.append(f"cli fields differ from the library: {bad}")
            w = float(kv.get("W", "nan"))
        else:
            w = out.w_value
        if not math.isfinite(w):
            return problems + ["W not finite"], None
        if op.lam > 0.0 and not panel:
            return problems, None
        exact = self._log_kernel(op)
        err = abs(w - exact)
        if op.lam > 0.0:
            return problems, err
        # harmonic exactness: the error is rounding, so it stays out of the metric
        if err > HARMONIC_TOL * max(1.0, abs(exact)):
            problems.append(f"harmonic W off Mehler's kernel by {err:.2e}")
        return problems, None


class ExactSpectrum(Workload):
    """The oracle alone: solve_spectrum, exact_free_energy at three beta, exact_density."""

    name = "exact-spectrum"
    MIN_OPS = 20            # five blocks
    # basis sizes of one block; n = 128 twice, so that in a run of 20 ops the
    # median and the tail both fall in the middle of the n = 128 cluster
    SIZES = (64, 128, 128, 256)
    BETA = (1.0, 2.0)
    BETA_STEPS = (1.0, 4.0, 16.0)
    GRID_POINTS = 201

    def __init__(self, rng):
        super().__init__(rng)
        self.seq = {f: Design(rng, 3) for f in self.families}

    def block(self):
        fam = self.families[self.blocks_made % len(self.families)]
        self.blocks_made += 1
        ops = []
        for n in self.SIZES:
            u = self.seq[fam].next()
            m2, lam = _params(fam, u[0], u[1])
            beta0 = _log(u[2], *self.BETA)
            betas = [beta0 * s for s in self.BETA_STEPS]
            omega = reference.basis_frequency(m2, lam)
            well = math.sqrt(max(-m2, 0.0) / (4.0 * lam))
            half = well + 4.0 / math.sqrt(omega)
            grid = np.linspace(-half, half, self.GRID_POINTS)
            ops.append(Op(f"spectrum-{n}", fam, m2, lam, (m2, lam, n),
                          {"n": n, "betas": betas, "grid": grid}))
        return ops

    def family_mean(self, errs):
        return float(np.mean(errs))

    def run(self, api, op):
        a = op.args
        p = api.kernels.OscillatorParams(op.m2, op.lam)
        s = api.oracle.solve_spectrum(p, a["n"])
        fs = [api.oracle.exact_free_energy(s, b).f for b in a["betas"]]
        rho = api.oracle.exact_density(s, a["betas"][1], a["grid"])
        return s.energies, fs, rho

    def check(self, api, op, out, panel):
        a = op.args
        n = a["n"]
        energies, fs, rho = out
        problems = []
        ref = reference.Spectrum(op.m2, op.lam, 4 * n)
        rel = np.abs(energies - ref.energies[:n]) / np.maximum(1.0, np.abs(ref.energies[:n]))
        low = reference.low_energies(op.m2, op.lam, ORACLE_LOW_LEVELS)
        low_rel = np.abs(energies[:ORACLE_LOW_LEVELS] - low) / np.maximum(1.0, np.abs(low))
        if np.max(low_rel) > ORACLE_LEVEL_TOL:
            problems.append(f"lowest levels off the reference by {np.max(low_rel):.2e}")
        for beta, f in zip(a["betas"], fs):
            d = abs(-beta * f - reference.log_z(op.m2, op.lam, beta))
            if not d < 1e-9:
                problems.append(f"exact F off the reference by {d:.2e} at beta={beta:.3g}")
        beta = a["betas"][1]
        _, rho_ref = reference.converged(op.m2, op.lam, lambda s: s.density(beta, a["grid"]),
                                         1e-12, beta, vectors=True)
        d = np.max(np.abs(rho.rho - rho_ref)) / np.max(rho_ref)
        if not d < 1e-8:
            problems.append(f"exact density off the reference by {d:.2e}")
        # truncation error of the oracle at its basis size: the share of its
        # levels more than ORACLE_LEVEL_TOL away from the exact ones
        return problems, float(np.mean(rel > ORACLE_LEVEL_TOL))


WORKLOADS = {w.name: w for w in (ThermoCold, LocalDensity, AmplitudePoints, ExactSpectrum)}
