"""Command-line front end.

Subcommands emit CSV (with a ``#`` comment header echoing the full
configuration) or key=value records, so sweeps are reproducible from their
output alone.  Exit codes: 0 success, 2 configuration error (also an
argument the library rejects), 3 numerical failure.

Two tables drive the parser.  ``OPTIONS`` declares each option once; its
name is the flag, the argparse dest and the config-file key.  ``COMMANDS``
gives each subcommand its function, help, own options and allowed methods.
A config file may carry any option; a subcommand ignores the ones it does
not take.  ``propagator`` runs one path in both modes: real time uses the
real-time point, residual, solver and W1 in place of the imaginary-time ones.
"""

import argparse
import cmath
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, oracle, thermo
from .kernels import (CausticError, EuclideanPoint, OscillatorParams,
                      QuadratureError, RealTimePoint)
from .oep import (NoStationaryPointError, gap_residual_imag,
                  gap_residual_real, optimize_omega_imag, optimize_omega_real,
                  w1_imag, w1_real)
from .oracle import ConvergenceError, TruncationError
from .thermo import IntegrandError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

NUMERICAL_ERRORS = (CausticError, QuadratureError, NoStationaryPointError,
                    TruncationError, ConvergenceError, IntegrandError,
                    OverflowError, ZeroDivisionError)


class ConfigError(ValueError):
    pass


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    return f"{float(v):.12g}"


def parse_grid(spec) -> list:
    """Grid specs: a number, a comma list, start:stop:count, or log:start:stop:count."""
    if isinstance(spec, (int, float)):
        return [float(spec)]
    s = str(spec).strip()
    logspace = s.startswith("log:")
    if logspace:
        s = s[4:]
    try:
        if ":" in s:
            parts = s.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:count")
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError("count must be >= 1")
            if logspace and (start <= 0 or stop <= 0):
                raise ValueError("log spacing needs positive endpoints")
            if count == 1:
                values = [start]
            elif logspace:
                values = list(np.geomspace(start, stop, count))
            else:
                values = list(np.linspace(start, stop, count))
        elif "," in s:
            values = [float(tok) for tok in s.split(",")]
        else:
            values = [float(s)]
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}: {exc}") from exc
    values = [float(v) for v in values]
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"grid {spec!r} contains non-finite values")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"grid {spec!r} must be strictly increasing")
    return values


def read_config_file(path) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


# Each option once: name -> (type, default, help).  The name is the flag,
# the argparse dest and the config-file key.  The type also parses
# config-file values; a tuple of choices is checked by argparse for the flag
# and by the subcommand for a config-file value.  The default is the value
# when neither the flag nor the file gives one.
OPTIONS = {
    "m2": (float, None, "quadratic coefficient (may be < 0)"),
    "lambda": (float, None, "quartic coupling (>= 0)"),
    "out": (str, None, "output file (default stdout)"),
    "tol-root": (float, thermo.TOL_ROOT, "gap-equation root tolerance"),
    "tol-quad": (float, thermo.TOL_QUAD, "relative quadrature tolerance"),
    "basis-size": (int, 256, "oscillator basis size of the exact reference"),
    "basis-omega": (float, None, "oscillator basis frequency of the exact reference"),
    # accepted and validated, but sweeps run serially: the work holds the
    # interpreter lock, and a thread pool measured slower than one thread
    "workers": (int, 1, "accepted for compatibility; sweeps run serially"),
    "beta": (str, None, "grid spec: value, list, start:stop:count, log:..."),
    "methods": (str, None, "comma subset of the subcommand's methods (default all)"),
    "x-grid": (str, None, "position grid spec"),
    "xa": (float, 0.0, "initial position"),
    "xb": (float, 0.0, "final position"),
    "time": (float, None, "beta (imag mode) or T (real mode)"),
    "mode": (("imag", "real"), "imag", "imaginary (Euclidean) or real time"),
    "omega": (float, None, "skip optimization, force omega"),
}


@dataclass
class RunConfig:
    params: OscillatorParams
    opt: dict       # option name -> value: flag, else config file, else default
    betas: tuple = ()
    methods: tuple = ()
    x_grid: object = None
    echo: dict = field(default_factory=dict)


def _build_config(args) -> RunConfig:
    """RunConfig from flags, the config file and the option table's defaults."""
    _, _, own, methods = COMMANDS[args.command]
    opt = {name: default for name, (_, default, _) in OPTIONS.items()}
    if args.config:
        for key, val in read_config_file(args.config).items():
            if key not in OPTIONS:
                raise ConfigError(f"unknown config key {key!r}")
            parse = OPTIONS[key][0]
            try:
                opt[key] = parse(val) if callable(parse) else val
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {val!r}") from exc
    opt.update((k, v) for k, v in vars(args).items() if k in OPTIONS and v is not None)
    if opt["m2"] is None or opt["lambda"] is None:
        raise ConfigError("--m2 and --lambda are required (flag or config file)")
    # workers is deliberately not echoed: output bytes are identical for any
    # parallelism degree, and the echo must not break that
    cfg = RunConfig(OscillatorParams(opt["m2"], opt["lambda"]), opt, echo={
        name: "" if opt[name] is None else repr(opt[name])
        for name in ("m2", "lambda", "tol-root", "tol-quad", "basis-size", "basis-omega")})
    if "beta" in own:
        if opt["beta"] is None:
            raise ConfigError("--beta is required")
        cfg.betas = tuple(sorted(parse_grid(opt["beta"])))
        if any(b <= 0 for b in cfg.betas):
            raise ConfigError("beta values must be > 0")
        cfg.echo["beta"] = opt["beta"]
    if methods:
        spec = ",".join(methods) if opt["methods"] is None else opt["methods"]
        chosen = tuple(sorted({tok.strip().upper() for tok in spec.split(",") if tok.strip()}))
        if not chosen:
            raise ConfigError("at least one method is required")
        bad = [m for m in chosen if m not in methods]
        if bad:
            raise ConfigError(f"unknown methods {bad}; choose from {','.join(methods)}")
        cfg.methods = chosen
        cfg.echo["methods"] = ",".join(chosen)
    if "x-grid" in own and opt["x-grid"] is not None:
        cfg.x_grid = parse_grid(opt["x-grid"])
        cfg.echo["x-grid"] = opt["x-grid"]
    tols = (opt["tol-root"], opt["tol-quad"])
    if not all(math.isfinite(t) for t in tols):
        raise ConfigError("tolerances must be finite")
    if min(tols) <= 0:
        raise ConfigError("tolerances must be positive")
    if opt["workers"] < 1:
        raise ConfigError("workers must be >= 1")
    return cfg


def _write_lines(out, lines):
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(cfg: RunConfig, command: str) -> list:
    lines = [f"# anharm {command}", f"# version={__version__}"]
    for key in sorted(cfg.echo):
        lines.append(f"# {key}={cfg.echo[key]}")
    return lines


def _spectrum(cfg: RunConfig):
    return oracle.solve_spectrum(cfg.params, cfg.opt["basis-size"],
                                 cfg.opt["basis-omega"])


def cmd_free_energy(cfg: RunConfig) -> int:
    tol_quad, tol_root = cfg.opt["tol-quad"], cfg.opt["tol-root"]

    def run(task):
        beta, method = task
        try:
            if method == "OEP":
                r = thermo.free_energy_oep(cfg.params, beta, tol_quad, tol_root)
                return (beta, method, r.f, r.omega_info["omega_star_origin"],
                        r.omega_info["quad_rel_error"], "")
            if method == "OEF":
                r = thermo.free_energy_oef(cfg.params, beta, tol_root)
                return (beta, method, r.f, r.omega_info["omega_star"],
                        r.omega_info["residual"], "")
            if method == "FK":
                r = thermo.free_energy_fk(cfg.params, beta, tol_quad)
                s0 = r.omega_info["omega_sq_origin"]
                diag = math.sqrt(s0) if s0 > 0 else None
                return (beta, method, r.f, diag, r.omega_info["quad_rel_error"], "")
            r = oracle.exact_free_energy(_spectrum(cfg), beta)
            return (beta, method, r.f, None, r.omega_info["tail"], "")
        except NUMERICAL_ERRORS as exc:
            return (beta, method, None, None, None, type(exc).__name__)

    rows = [run((b, m)) for b in cfg.betas for m in cfg.methods]
    lines = _header(cfg, "free-energy")
    lines.append("beta,method,F,omega_diag,err_est,error")
    for beta, method, f, diag, err, code in rows:
        lines.append(f"{_fmt(beta)},{method},{_fmt(f)},{_fmt(diag)},{_fmt(err)},{code}")
    _write_lines(cfg.opt["out"], lines)
    return EXIT_OK


def cmd_density(cfg: RunConfig) -> int:
    beta = cfg.betas[0]
    tol_quad, tol_root = cfg.opt["tol-quad"], cfg.opt["tol-root"]
    if len(cfg.betas) != 1:
        raise ConfigError("density takes a single beta")
    if cfg.x_grid is not None and len(cfg.x_grid) < 2:
        raise ConfigError("density needs an x-grid of at least two points")
    grid = (np.asarray(cfg.x_grid, dtype=float) if cfg.x_grid is not None
            else thermo.default_grid(cfg.params, beta, tol_quad=tol_quad, tol_root=tol_root))
    profiles = {}
    failures = {}
    for method in cfg.methods:
        try:
            if method == "OEP":
                profiles[method] = thermo.density_oep(cfg.params, beta, grid,
                                                      tol_quad, tol_root)
            else:
                profiles[method] = oracle.exact_density(_spectrum(cfg), beta, grid)
        except NUMERICAL_ERRORS as exc:
            failures[method] = type(exc).__name__
    lines = _header(cfg, "density")
    lines.append(f"# beta={_fmt(beta)}")
    lines.append("x,method,rho,error")
    for i, x in enumerate(grid):
        for method in cfg.methods:
            if method in profiles:
                lines.append(f"{_fmt(x)},{method},{_fmt(profiles[method].rho[i])},")
            else:
                lines.append(f"{_fmt(x)},{method},,{failures[method]}")
    for method in cfg.methods:
        if method in profiles:
            lines.append(f"# normalization_error {method}="
                         f"{profiles[method].normalization_error:.3e}")
    _write_lines(cfg.opt["out"], lines)
    return EXIT_OK


def cmd_density_matrix(cfg: RunConfig) -> int:
    if len(cfg.betas) != 1:
        raise ConfigError("density-matrix takes a single beta")
    beta = cfg.betas[0]
    tol_quad, tol_root = cfg.opt["tol-quad"], cfg.opt["tol-root"]
    grid = (np.asarray(cfg.x_grid, dtype=float) if cfg.x_grid is not None
            else thermo.default_grid(cfg.params, beta, n=21, tol_quad=tol_quad,
                                     tol_root=tol_root))

    def run(pair):
        xa, xb = pair
        try:
            entry = thermo.density_matrix_oep(cfg.params, beta, xa, xb, tol_quad, tol_root)
            return (xa, xb, entry.value, "")
        except NUMERICAL_ERRORS as exc:
            return (xa, xb, None, type(exc).__name__)

    rows = [run((float(xa), float(xb))) for xa in grid for xb in grid]
    lines = _header(cfg, "density-matrix")
    lines.append(f"# beta={_fmt(beta)}")
    lines.append("x_a,x_b,value,error")
    for xa, xb, val, code in rows:
        lines.append(f"{_fmt(xa)},{_fmt(xb)},{_fmt(val)},{code}")
    _write_lines(cfg.opt["out"], lines)
    return EXIT_OK


def cmd_propagator(cfg: RunConfig) -> int:
    o = cfg.opt
    if o["time"] is None:
        raise ConfigError("--time is required")
    if o["mode"] == "imag":
        point, resid, solve, w1 = (EuclideanPoint, gap_residual_imag,
                                   optimize_omega_imag, w1_imag)
    elif o["mode"] == "real":
        point, resid, solve, w1 = (RealTimePoint, gap_residual_real,
                                   optimize_omega_real, w1_real)
    else:
        raise ConfigError("--mode must be imag or real")
    p = point(o["xa"], o["xb"], o["time"])
    kv = {"mode": o["mode"], "x_a": _fmt(o["xa"]), "x_b": _fmt(o["xb"]),
          "time": _fmt(o["time"])}
    if o["omega"] is not None:
        omega = o["omega"]
        kv.update(omega_star=_fmt(omega), residual=_fmt(abs(resid(cfg.params, p, omega))),
                  n_roots="", fallback="forced")
        w = w1(cfg.params, p, omega)
    else:
        gap = solve(cfg.params, p, o["tol-root"])
        omega = gap.omega_star
        kv.update(omega_star=_fmt(omega), residual=_fmt(gap.residual),
                  n_roots=str(gap.n_roots), fallback=str(gap.fallback_used).lower())
        # an imaginary-time solve carries its W1; a real-time one is recomputed
        w = gap.value if o["mode"] == "imag" else w1(cfg.params, p, omega)
    if o["mode"] == "imag":
        kv.update(W=_fmt(w), amplitude=_fmt(math.exp(w)))
    else:
        amp = cmath.exp(1j * w)
        kv.update(W_re=_fmt(w.real), W_im=_fmt(w.imag),
                  amp_re=_fmt(amp.real), amp_im=_fmt(amp.imag))
    lines = _header(cfg, "propagator")
    lines.extend(f"{k}={v}" for k, v in kv.items())
    _write_lines(o["out"], lines)
    return EXIT_OK


def cmd_exact_spectrum(cfg: RunConfig) -> int:
    s = _spectrum(cfg)
    lines = _header(cfg, "exact-spectrum")
    lines.append(f"# basis_frequency={_fmt(s.basis_frequency)}")
    lines.append("n,E")
    for n, e in enumerate(s.energies):
        lines.append(f"{n},{_fmt(e)}")
    _write_lines(cfg.opt["out"], lines)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes "-1e-05" as a value, not as an option.

    argparse reads a token as a negative number only in the forms -1 and
    -1.5, so an exponent-form negative after a flag was taken for an option.
    No option here starts with a digit or "-.", so every such token is a
    number.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


# subcommand -> (function, help, its own options, its allowed methods); every
# subcommand also takes the options that no subcommand lists as its own
COMMANDS = {
    "free-energy": (cmd_free_energy, "free-energy sweep over beta",
                    ("beta", "methods"), ("EXACT", "FK", "OEF", "OEP")),
    "density": (cmd_density, "particle density on a grid",
                ("beta", "methods", "x-grid"), ("EXACT", "OEP")),
    "density-matrix": (cmd_density_matrix, "density matrix on a grid x grid",
                       ("beta", "x-grid"), ()),
    "propagator": (cmd_propagator, "single amplitude evaluation",
                   ("xa", "xb", "time", "mode", "omega"), ()),
    "exact-spectrum": (cmd_exact_spectrum, "oscillator-basis eigenvalues", (), ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anharm",
        description="First-order optimized propagator expansion for the "
                    "potential m2 x^2/2 + lambda x^4")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    own = {name for _, _, names, _ in COMMANDS.values() for name in names}
    common = [name for name in OPTIONS if name not in own]
    for command, (_, help_, names, _) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_)
        sub.add_argument("--config", help="key=value file; flags override it")
        for name in common + list(names):
            parse, _, text = OPTIONS[name]
            kind = {"type": parse} if callable(parse) else {"choices": parse}
            sub.add_argument(f"--{name}", dest=name, help=text, **kind)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](_build_config(args))
    except NUMERICAL_ERRORS as exc:
        print(f"anharm: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # a ConfigError, or the library rejecting an argument (CausticError,
        # also a ValueError, is numerical and handled above)
        print(f"anharm: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
