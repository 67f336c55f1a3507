"""Command-line front end.

Subcommands emit CSV (with a ``#`` comment header echoing the full
configuration) or key=value records, so sweeps are reproducible from their
output alone.  Exit codes: 0 success, 2 configuration error (also an
argument the library rejects), 3 numerical failure.
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

FE_METHODS = ("EXACT", "FK", "OEF", "OEP")
DENSITY_METHODS = ("EXACT", "OEP")


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
            if count == 1:
                values = [start]
            elif logspace:
                if start <= 0 or stop <= 0:
                    raise ValueError("log spacing needs positive endpoints")
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


# option name -> parser applied to values coming from the config file
_OPTION_PARSERS = {
    "m2": float,
    "lambda": float,
    "beta": str,
    "x-grid": str,
    "methods": str,
    "out": str,
    "tol-root": float,
    "tol-quad": float,
    "basis-size": int,
    "basis-omega": float,
    "xa": float,
    "xb": float,
    "time": float,
    "mode": str,
    "omega": float,
    "workers": int,
}


@dataclass
class RunConfig:
    params: OscillatorParams = None
    methods: tuple = ()
    betas: tuple = ()
    x_grid: object = None
    out: str = None
    tol_root: float = thermo.TOL_ROOT
    tol_quad: float = thermo.TOL_QUAD
    basis_size: int = 256
    basis_omega: float = None
    # accepted and validated, but sweeps run serially: the work holds the
    # interpreter lock, and a thread pool measured slower than one thread
    workers: int = 1
    # propagator-only
    x_a: float = 0.0
    x_b: float = 0.0
    time: float = None
    mode: str = "imag"
    omega: float = None
    echo: dict = field(default_factory=dict)


def _merge_options(args) -> dict:
    """Config-file values overridden by explicitly passed flags."""
    merged = {}
    if getattr(args, "config", None):
        raw = read_config_file(args.config)
        for key, val in raw.items():
            if key not in _OPTION_PARSERS:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                merged[key] = _OPTION_PARSERS[key](val)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {val!r}") from exc
    for key in _OPTION_PARSERS:
        flag = key.replace("-", "_")
        if getattr(args, flag, None) is not None:
            merged[key] = getattr(args, flag)
    return merged


def _build_config(args, need_beta, methods) -> RunConfig:
    """RunConfig from flags and config file; methods: the allowed ones, if any."""
    opt = _merge_options(args)
    if "m2" not in opt or "lambda" not in opt:
        raise ConfigError("--m2 and --lambda are required (flag or config file)")
    try:
        params = OscillatorParams(opt["m2"], opt["lambda"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = RunConfig(params=params)
    cfg.echo = {"m2": repr(opt["m2"]), "lambda": repr(opt["lambda"])}
    if need_beta:
        if "beta" not in opt:
            raise ConfigError("--beta is required")
        cfg.betas = tuple(sorted(parse_grid(opt["beta"])))
        if any(b <= 0 for b in cfg.betas):
            raise ConfigError("beta values must be > 0")
        cfg.echo["beta"] = str(opt["beta"])
    if methods:
        spec = opt.get("methods", ",".join(methods))
        chosen = tuple(sorted({tok.strip().upper() for tok in str(spec).split(",") if tok.strip()}))
        if not chosen:
            raise ConfigError("at least one method is required")
        bad = [m for m in chosen if m not in methods]
        if bad:
            raise ConfigError(f"unknown methods {bad}; choose from {','.join(methods)}")
        cfg.methods = chosen
        cfg.echo["methods"] = ",".join(chosen)
    if "x-grid" in opt:
        cfg.x_grid = parse_grid(opt["x-grid"])
        cfg.echo["x-grid"] = str(opt["x-grid"])
    cfg.out = opt.get("out")
    for name, attr in (("tol-root", "tol_root"), ("tol-quad", "tol_quad"),
                       ("basis-size", "basis_size"), ("basis-omega", "basis_omega"),
                       ("workers", "workers")):
        if name in opt:
            setattr(cfg, attr, opt[name])
    if cfg.tol_root <= 0 or cfg.tol_quad <= 0:
        raise ConfigError("tolerances must be positive")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    # workers is deliberately not echoed: output bytes are identical for any
    # parallelism degree, and the echo must not break that
    cfg.echo.update({"tol-root": repr(cfg.tol_root), "tol-quad": repr(cfg.tol_quad),
                     "basis-size": str(cfg.basis_size),
                     "basis-omega": "" if cfg.basis_omega is None else repr(cfg.basis_omega)})
    for name, attr in (("xa", "x_a"), ("xb", "x_b"), ("time", "time"),
                       ("mode", "mode"), ("omega", "omega")):
        if name in opt:
            setattr(cfg, attr, opt[name])
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
    return oracle.solve_spectrum(cfg.params, cfg.basis_size, cfg.basis_omega)


def cmd_free_energy(cfg: RunConfig) -> int:
    def run(task):
        beta, method = task
        try:
            if method == "OEP":
                r = thermo.free_energy_oep(cfg.params, beta, cfg.tol_quad, cfg.tol_root)
                return (beta, method, r.f, r.omega_info["omega_star_origin"],
                        r.omega_info["quad_rel_error"], "")
            if method == "OEF":
                r = thermo.free_energy_oef(cfg.params, beta, cfg.tol_root)
                return (beta, method, r.f, r.omega_info["omega_star"],
                        r.omega_info["residual"], "")
            if method == "FK":
                r = thermo.free_energy_fk(cfg.params, beta, cfg.tol_quad)
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
    _write_lines(cfg.out, lines)
    return EXIT_OK


def cmd_density(cfg: RunConfig) -> int:
    beta = cfg.betas[0]
    if len(cfg.betas) != 1:
        raise ConfigError("density takes a single beta")
    if cfg.x_grid is not None and len(cfg.x_grid) < 2:
        raise ConfigError("density needs an x-grid of at least two points")
    grid = (np.asarray(cfg.x_grid, dtype=float) if cfg.x_grid is not None
            else thermo.default_grid(cfg.params, beta, tol_quad=cfg.tol_quad,
                                     tol_root=cfg.tol_root))
    profiles = {}
    failures = {}
    for method in cfg.methods:
        try:
            if method == "OEP":
                profiles[method] = thermo.density_oep(cfg.params, beta, grid,
                                                      cfg.tol_quad, cfg.tol_root)
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
    _write_lines(cfg.out, lines)
    return EXIT_OK


def cmd_density_matrix(cfg: RunConfig) -> int:
    if len(cfg.betas) != 1:
        raise ConfigError("density-matrix takes a single beta")
    beta = cfg.betas[0]
    grid = (np.asarray(cfg.x_grid, dtype=float) if cfg.x_grid is not None
            else thermo.default_grid(cfg.params, beta, n=21, tol_quad=cfg.tol_quad,
                                     tol_root=cfg.tol_root))

    def run(pair):
        xa, xb = pair
        try:
            entry = thermo.density_matrix_oep(cfg.params, beta, xa, xb,
                                              cfg.tol_quad, cfg.tol_root)
            return (xa, xb, entry.value, "")
        except NUMERICAL_ERRORS as exc:
            return (xa, xb, None, type(exc).__name__)

    rows = [run((float(xa), float(xb))) for xa in grid for xb in grid]
    lines = _header(cfg, "density-matrix")
    lines.append(f"# beta={_fmt(beta)}")
    lines.append("x_a,x_b,value,error")
    for xa, xb, val, code in rows:
        lines.append(f"{_fmt(xa)},{_fmt(xb)},{_fmt(val)},{code}")
    _write_lines(cfg.out, lines)
    return EXIT_OK


def cmd_propagator(cfg: RunConfig) -> int:
    if cfg.time is None:
        raise ConfigError("--time is required")
    if cfg.mode not in ("imag", "real"):
        raise ConfigError("--mode must be imag or real")
    lines = _header(cfg, "propagator")
    kv = {"mode": cfg.mode, "x_a": _fmt(cfg.x_a), "x_b": _fmt(cfg.x_b),
          "time": _fmt(cfg.time)}
    if cfg.mode == "imag":
        try:
            p = EuclideanPoint(cfg.x_a, cfg.x_b, cfg.time)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if cfg.omega is not None:
            omega, resid = cfg.omega, gap_residual_imag(cfg.params, p, cfg.omega)
            kv.update(omega_star=_fmt(omega), residual=_fmt(abs(resid)),
                      n_roots="", fallback="forced")
        else:
            gap = optimize_omega_imag(cfg.params, p, cfg.tol_root)
            omega = gap.omega_star
            kv.update(omega_star=_fmt(omega), residual=_fmt(gap.residual),
                      n_roots=str(gap.n_roots), fallback=str(gap.fallback_used).lower())
        w = w1_imag(cfg.params, p, omega)
        kv.update(W=_fmt(w), amplitude=_fmt(math.exp(w)))
    else:
        try:
            p = RealTimePoint(cfg.x_a, cfg.x_b, cfg.time)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if cfg.omega is not None:
            omega, resid = cfg.omega, gap_residual_real(cfg.params, p, cfg.omega)
            kv.update(omega_star=_fmt(omega), residual=_fmt(abs(resid)),
                      n_roots="", fallback="forced")
        else:
            gap = optimize_omega_real(cfg.params, p, cfg.tol_root)
            omega = gap.omega_star
            kv.update(omega_star=_fmt(omega), residual=_fmt(gap.residual),
                      n_roots=str(gap.n_roots), fallback=str(gap.fallback_used).lower())
        w = w1_real(cfg.params, p, omega)
        amp = cmath.exp(1j * w)
        kv.update(W_re=_fmt(w.real), W_im=_fmt(w.imag),
                  amp_re=_fmt(amp.real), amp_im=_fmt(amp.imag))
    lines.extend(f"{k}={v}" for k, v in kv.items())
    _write_lines(cfg.out, lines)
    return EXIT_OK


def cmd_exact_spectrum(cfg: RunConfig) -> int:
    s = _spectrum(cfg)
    lines = _header(cfg, "exact-spectrum")
    lines.append(f"# basis_frequency={_fmt(s.basis_frequency)}")
    lines.append("n,E")
    for n, e in enumerate(s.energies):
        lines.append(f"{n},{_fmt(e)}")
    _write_lines(cfg.out, lines)
    return EXIT_OK


def _add_common(sub):
    sub.add_argument("--m2", type=float, help="quadratic coefficient (may be < 0)")
    sub.add_argument("--lambda", dest="lambda_", type=float,
                     help="quartic coupling (>= 0)")
    sub.add_argument("--config", help="key=value file; flags override it")
    sub.add_argument("--out", help="output file (default stdout)")
    sub.add_argument("--tol-root", dest="tol_root", type=float)
    sub.add_argument("--tol-quad", dest="tol_quad", type=float)
    sub.add_argument("--basis-size", dest="basis_size", type=int)
    sub.add_argument("--basis-omega", dest="basis_omega", type=float)
    sub.add_argument("--workers", type=int,
                     help="accepted for compatibility; sweeps run serially")


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anharm",
        description="First-order optimized propagator expansion for the "
                    "potential m2 x^2/2 + lambda x^4")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    fe = subs.add_parser("free-energy", help="free-energy sweep over beta")
    _add_common(fe)
    fe.add_argument("--beta", help="grid spec: value, list, start:stop:count, log:...")
    fe.add_argument("--methods", help="comma subset of OEP,OEF,FK,EXACT")
    fe.set_defaults(func=cmd_free_energy, need_beta=True, allowed_methods=FE_METHODS)

    de = subs.add_parser("density", help="particle density on a grid")
    _add_common(de)
    de.add_argument("--beta")
    de.add_argument("--methods", help="comma subset of OEP,EXACT")
    de.add_argument("--x-grid", dest="x_grid", help="position grid spec")
    de.set_defaults(func=cmd_density, need_beta=True, allowed_methods=DENSITY_METHODS)

    dm = subs.add_parser("density-matrix", help="density matrix on a grid x grid")
    _add_common(dm)
    dm.add_argument("--beta")
    dm.add_argument("--x-grid", dest="x_grid")
    dm.set_defaults(func=cmd_density_matrix, need_beta=True, allowed_methods=())

    pr = subs.add_parser("propagator", help="single amplitude evaluation")
    _add_common(pr)
    pr.add_argument("--xa", type=float)
    pr.add_argument("--xb", type=float)
    pr.add_argument("--time", type=float, help="beta (imag mode) or T (real mode)")
    pr.add_argument("--mode", choices=("imag", "real"))
    pr.add_argument("--omega", type=float, help="skip optimization, force omega")
    pr.set_defaults(func=cmd_propagator, need_beta=False, allowed_methods=())

    sp = subs.add_parser("exact-spectrum", help="oscillator-basis eigenvalues")
    _add_common(sp)
    sp.set_defaults(func=cmd_exact_spectrum, need_beta=False, allowed_methods=())
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse stores --lambda under lambda_; the option table wants "lambda"
    if hasattr(args, "lambda_"):
        setattr(args, "lambda", args.lambda_)
    try:
        cfg = _build_config(args, args.need_beta, args.allowed_methods)
    except ConfigError as exc:
        print(f"anharm: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(cfg)
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
