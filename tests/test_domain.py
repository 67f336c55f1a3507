"""Typed errors over the whole parameter domain: a seeded sweep of the public
amplitude, free-energy and CLI routes with warnings turned into errors."""

import cmath
import math

import numpy as np
import pytest

from anharm import (CausticError, EuclideanPoint, NoStationaryPointError,
                    OscillatorParams, QuadratureError, RealTimePoint,
                    free_energy_fk, free_energy_oef, free_energy_oep,
                    optimized_w1_imag, optimized_w1_real)
from anharm.cli import main as cli_main
from anharm.thermo import IntegrandError

TYPED_ERRORS = (CausticError, QuadratureError, NoStationaryPointError, IntegrandError)


def _domain_draws(seed, n):
    """n seeded (k, params, x_a, x_b, beta, T): m2 in +-[1e-3, 4e2], lam in
    [1e-8, 1e3] and beta, |T| in [1e-3, 1e3], all log-uniform, |x| <= 6, and
    T in turn on the real axis, on the continuation edge and inside the wedge."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        m2 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, math.log10(400.0)))
        lam = float(10.0 ** rng.uniform(-8.0, 3.0))
        beta = float(10.0 ** rng.uniform(-3.0, 3.0))
        x_a, x_b = (float(v) for v in rng.uniform(-6.0, 6.0, 2))
        r = float(10.0 ** rng.uniform(-3.0, 3.0))
        T = [complex(r, 0.0), complex(0.0, -r),
             r * cmath.exp(-0.5j * math.pi * float(rng.uniform()))][k % 3]
        yield k, OscillatorParams(m2, lam), x_a, x_b, beta, T


@pytest.mark.filterwarnings("error")
def test_every_route_gives_a_finite_value_or_a_typed_error(capsys):
    finite = dict.fromkeys(("w1_imag", "w1_real", "OEP", "OEF", "FK"), 0)

    def check(name, call):
        try:
            value = call()
        except TYPED_ERRORS:
            return
        assert cmath.isfinite(value), (name, value)
        finite[name] += 1

    exits = set()
    for k, params, x_a, x_b, beta, T in _domain_draws(41, 400):
        check("w1_imag", lambda: optimized_w1_imag(params, EuclideanPoint(x_a, x_b, beta)).w_value)
        check("w1_real", lambda: optimized_w1_real(params, RealTimePoint(x_a, x_b, T)).w_value)
        if k % 8:
            continue
        for name, route in (("OEP", free_energy_oep), ("OEF", free_energy_oef),
                            ("FK", free_energy_fk)):
            check(name, lambda: route(params, beta).f)
        mode, time = ("imag", beta) if k % 16 == 0 else ("real", abs(T))
        exits.add(cli_main(["propagator", "--m2", repr(params.m2), "--lambda", repr(params.lam),
                            "--xa", repr(x_a), "--xb", repr(x_b), "--time", repr(time),
                            "--mode", mode]))
        capsys.readouterr()
    assert exits <= {0, 2, 3} and 0 in exits
    assert all(finite.values()), finite
