"""Harmonic trial-oscillator amplitudes and kernel integrals.

Imaginary time: the Gaussian path measure between fixed endpoints has mean
path L(t) and equal-time width K(t),

    L(t) = [x_a sinh(w(beta-t)) + x_b sinh(w t)] / sinh(w beta)
    K(t) = sinh(w t) sinh(w(beta-t)) / (w sinh(w beta))

with the convention L(0) = x_a, L(beta) = x_b.  The five integrals of
L^2, K, L^4, L^2 K and K^2 over [0, beta] are evaluated in closed form
(see hyper.py) and can be cross-checked against adaptive quadrature.

Real time: the same objects with trigonometric functions.  The real-time
amplitude is the imaginary-time one at beta = i*T, so every real-time
quantity is the imaginary-time closed form evaluated at z = i*w*T: one body
(_w0 here, _w1 and _gap_residual in oep) takes a real beta, an array of them
or a complex beta = i*T.  This also works for complex T in the lower-right
quadrant (the analytic continuation wedge connecting T > 0 to T = -i*beta).
The public functions check their arguments and call those bodies; solvers
call the bodies directly.
"""

import math
from dataclasses import dataclass

from . import hyper

TWO_PI = 2.0 * math.pi

# |sin(w T)| below this is treated as a focal point of the real-time
# amplitude; the prefactor is numerically singular there.
CAUSTIC_TOL = 1e-8


class CausticError(ValueError):
    """Real-time amplitude requested at (or too close to) a focal point."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; message carries the estimate."""


def _require_finite(**values):
    for name, v in values.items():
        if isinstance(v, complex):
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"{name} must be finite, got {v!r}")
        elif not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def _check_tolerance(**values):
    """Raise ValueError unless every tolerance is finite and > 0."""
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {v!r}")


@dataclass(frozen=True)
class OscillatorParams:
    """Potential m2*x^2/2 + lam*x^4.  m2 may be negative (double well)."""

    m2: float
    lam: float

    def __post_init__(self):
        _require_finite(m2=self.m2, lam=self.lam)
        if self.lam < 0.0:
            raise ValueError("quartic coupling must be >= 0")
        if self.lam == 0.0 and self.m2 <= 0.0:
            raise ValueError("lam = 0 requires m2 > 0 (stable harmonic well)")


@dataclass(frozen=True)
class EuclideanPoint:
    """Endpoints and inverse temperature of an imaginary-time amplitude."""

    x_a: float
    x_b: float
    beta: float

    def __post_init__(self):
        _require_finite(x_a=self.x_a, x_b=self.x_b, beta=self.beta)
        if self.beta <= 0.0:
            raise ValueError("beta must be > 0")


@dataclass(frozen=True)
class RealTimePoint:
    """Endpoints and propagation time of a real-time amplitude.

    T may be real (> 0) or complex in the lower-right quadrant Re T >= 0,
    Im T <= 0: that wedge is where the amplitude is analytic, and its edge
    T = -i*beta reproduces the imaginary-time amplitude.
    """

    x_a: float
    x_b: float
    T: complex

    def __post_init__(self):
        _require_finite(x_a=self.x_a, x_b=self.x_b, T=self.T)
        t = complex(self.T)
        if t == 0:
            raise ValueError("T must be nonzero")
        if t.imag > 0.0 or t.real < 0.0:
            raise ValueError("T must lie in the wedge Re T >= 0, Im T <= 0")
        if t.imag == 0.0 and t.real <= 0.0:
            raise ValueError("real T must be > 0")


@dataclass(frozen=True)
class KernelIntegrals:
    """The five kernel integrals; real in imaginary time, complex in real time."""

    iL2: complex
    iK: complex
    iL4: complex
    iL2K: complex
    iKK: complex


def _check_path_args(omega, beta, t=None):
    _require_finite(omega=omega, beta=beta)
    if omega <= 0.0:
        raise ValueError("omega must be > 0")
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    if t is not None:
        _require_finite(t=t)
        if not 0.0 <= t <= beta:
            raise ValueError("t must lie in [0, beta]")


def _sinh_ratio(a, z):
    # sinh(a)/sinh(z) for 0 <= a <= z, no overflow
    return (math.exp(a - z) - math.exp(-a - z)) / (-math.expm1(-2.0 * z))


def path_L(x_a, x_b, t, omega, beta):
    """Classical harmonic path from x_a at t=0 to x_b at t=beta."""
    _check_path_args(omega, beta, t)
    _require_finite(x_a=x_a, x_b=x_b)
    z = omega * beta
    return x_a * _sinh_ratio(omega * (beta - t), z) + x_b * _sinh_ratio(omega * t, z)


def path_K(t, omega, beta):
    """Equal-time width of the pinned fluctuation, zero at both endpoints."""
    _check_path_args(omega, beta, t)
    z = omega * beta
    w = omega * (2.0 * t - beta)
    den = -math.expm1(-2.0 * z)
    coth = (math.exp(-2.0 * z) + 1.0) / den
    cosh_ratio = (math.exp(w - z) + math.exp(-w - z)) / den
    return (coth - cosh_ratio) / (2.0 * omega)


def _w0(x_a, x_b, beta, omega):
    """log of the harmonic amplitude <x_b|exp(-beta H_w)|x_a>, unchecked.

    beta is real (a float, or arrays broadcast with the endpoints and omega)
    or beta = i*T, which gives i times the real-time phase W0 (w0_real).
    Unlike cos and sin of w*T, coth(z) and 1/sinh(z) stay finite however
    large the real part of z = i*w*T.
    """
    z = omega * beta
    sq = x_a * x_a + x_b * x_b
    cross = x_a * x_b
    return (0.5 * (hyper._lib(z).log(omega) - math.log(TWO_PI) - hyper.log_sinh(z))
            - 0.5 * omega * (sq * hyper.coth(z) - 2.0 * cross * hyper.inv_sinh(z)))


def w0_imag(p: EuclideanPoint, omega: float) -> float:
    """log of the harmonic imaginary-time amplitude <x_b|exp(-beta H_w)|x_a>."""
    _check_path_args(omega, p.beta)
    return _w0(p.x_a, p.x_b, p.beta, omega)


def _real_time_beta(p: RealTimePoint, omega: float) -> complex:
    """beta = i*T of a real-time point, once omega is checked and no focal
    point is hit: the real-time amplitudes are the imaginary-time ones there."""
    _require_finite(omega=omega)
    if omega <= 0.0:
        raise ValueError("omega must be > 0")
    t = complex(p.T)
    if t.imag == 0.0 and abs(math.sin(omega * t.real)) < CAUSTIC_TOL:
        raise CausticError(
            f"|sin(omega*T)| < {CAUSTIC_TOL:g} at omega={omega!r}, T={t.real!r}")
    return 1j * t


def w0_real(p: RealTimePoint, omega: float) -> complex:
    """Phase of the harmonic real-time amplitude, amp = exp(i*W0).

    The log branch is continuous in T from T -> 0+, so the phase steps by
    -pi/2 across each focal point instead of wrapping.
    """
    return -1j * _w0(p.x_a, p.x_b, _real_time_beta(p, omega), omega)


def _monomials(x_a, x_b):
    """The endpoint monomials x_a^2 + x_b^2, x_a x_b, x_a^4 + x_b^4,
    4 x_a x_b (x_a^2 + x_b^2) and 6 (x_a x_b)^2; with 1, the kernel integrals
    are linear in them (see hyper).  Each power is a product, so a float and
    an array entry get the same bits."""
    a2 = x_a * x_a
    b2 = x_b * x_b
    sq = a2 + b2
    cross = x_a * x_b
    return sq, cross, a2 * a2 + b2 * b2, 4.0 * cross * sq, 6.0 * cross * cross


def _sums(s, m):
    """The endpoint sums G of the integrals of L^2, K, L^4, L^2 K and K^2,
    from the shape factors s at z = w*beta and the monomials m (_monomials):
    each integral is G(z)/w^k, k = 1, 2, 1, 2, 3."""
    sq, cross, q_sum, q_cross, q_sq = m
    return (0.5 * sq * s.l2_sum + cross * s.l2_cross,
            0.5 * s.k1,
            q_sum * s.l4_sum + q_cross * s.l4_cross + q_sq * s.l4_sq,
            sq * s.l2k_sum + 2.0 * cross * s.l2k_cross,
            s.k2)


def _assemble(s, m, omega):
    """The five integrals G(z)/w^k of _sums; oep._w1 takes them for W1, and
    oep._coefficients writes their omega-derivatives out per monomial."""
    l2, k, l4, l2k, kk = _sums(s, m)
    w2 = omega * omega
    return KernelIntegrals(l2 / omega, k / w2, l4 / omega, l2k / w2, kk / (omega * w2))


def kernel_integrals_imag(p: EuclideanPoint, omega: float) -> KernelIntegrals:
    """Closed-form integrals of L^2, K, L^4, L^2 K, K^2 over [0, beta]."""
    _check_path_args(omega, p.beta)
    z = omega * p.beta
    return _assemble(hyper.shape_factors(z), _monomials(p.x_a, p.x_b), omega)


def kernel_integrals_imag_quad(p: EuclideanPoint, omega: float,
                               epsabs: float = 1e-12, epsrel: float = 1e-12):
    """Adaptive-quadrature twin of kernel_integrals_imag.

    Returns (KernelIntegrals, worst_error_estimate).  Exists as an
    independent cross-check of the closed forms on scipy's QUADPACK, the
    package's only use of scipy, imported here so that `import anharm` does
    not load it.  scipy is not a dependency of the package: only this
    function needs it, and the test extra installs it.  Raises
    QuadratureError if any of the five integrals fails to converge.
    """
    from scipy import integrate
    _check_path_args(omega, p.beta)
    x_a, x_b, beta = p.x_a, p.x_b, p.beta
    funcs = [
        lambda t: path_L(x_a, x_b, t, omega, beta) ** 2,
        lambda t: path_K(t, omega, beta),
        lambda t: path_L(x_a, x_b, t, omega, beta) ** 4,
        lambda t: path_L(x_a, x_b, t, omega, beta) ** 2 * path_K(t, omega, beta),
        lambda t: path_K(t, omega, beta) ** 2,
    ]
    vals = []
    worst = 0.0
    for f in funcs:
        out = integrate.quad(f, 0.0, beta, epsabs=epsabs, epsrel=epsrel,
                             limit=200, full_output=1)
        val, err = out[0], out[1]
        if len(out) > 3:
            raise QuadratureError(
                f"kernel quadrature did not converge: {out[3]} "
                f"(achieved error estimate {err:g})")
        vals.append(val)
        worst = max(worst, err)
    return KernelIntegrals(*vals), worst


# Continuation map from the hyperbolic forms at z = i*w*T to the integrals of
# the trigonometric kernels over real time: dt = -i dtau, L -> L_trig,
# K -> i*K_trig, hence
#   int L^2 dt = -i a,  int K dt = -b,  int L^4 dt = -i c,
#   int L^2 K dt = -d,  int K^2 dt = +i e,
# where a..e are the imaginary-time closed forms continued to z = i*w*T.
_CONT = (-1j, -1.0, -1j, -1.0, 1j)


def _map_continued(k: KernelIntegrals) -> KernelIntegrals:
    return KernelIntegrals(*(f * v for f, v in zip(_CONT, (k.iL2, k.iK, k.iL4, k.iL2K, k.iKK))))


def kernel_integrals_real(p: RealTimePoint, omega: float) -> KernelIntegrals:
    """Complex integrals of the trigonometric kernels over [0, T]."""
    zc = omega * _real_time_beta(p, omega)
    return _map_continued(_assemble(hyper.shape_factors(zc), _monomials(p.x_a, p.x_b), omega))
