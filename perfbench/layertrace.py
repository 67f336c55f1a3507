"""Outside-in tracing of the anharm layers.

Nothing in the package is edited.  Instead, the names through which one
layer calls another are rebound for the length of a traced run:

* a layer module seen from another layer (``hyper`` inside ``kernels``,
  ``thermo`` inside ``cli``) is replaced by a proxy whose functions are
  wrapped;
* a function imported from another layer (``optimize_omega_imag`` inside
  ``thermo``) is replaced by its wrapper;
* the named hooks in ``HOOKS`` are also rebound inside their own module, to
  count gap solves, residual evaluations, tail probes, quadrature nodes and
  diagonalizations.

Calls inside one layer stay unwrapped, so the hot Horner loops of ``hyper``
pay nothing.  Every wrapper records a span; a layer's self time is the time
its spans cover minus the time covered by the spans they called.  A hook
whose name no longer exists is listed in ``Tracer.absent`` and its counters
stay at zero, so a renamed internal never crashes a run.
"""

import functools
import inspect
import time
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("hyper", "kernels", "oep", "thermo", "oracle", "cli")

# (layer, attribute) rebound inside its own module as well
HOOKS = (
    ("oep", "optimize_omega_imag"),
    ("oep", "optimize_omega_real"),
    ("oep", "gap_residual_imag"),
    ("thermo", "integrate"),
    ("thermo", "_grow_halfwidth"),
    ("oracle", "jacobi_eigh"),
)

# functions whose inclusive time is kept, by "layer.name"
TIMED = ("oep.optimize_omega_real", "oracle.jacobi_eigh", "oracle.exact_density")


def _is_layer_function(obj, module):
    is_fn = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
    return is_fn and getattr(obj, "__module__", None) == module.__name__


class Tracer:
    """Spans and counters of one traced run; a context manager."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.self_s = defaultdict(float)     # layer -> self seconds
        self.elapsed_s = defaultdict(float)  # TIMED name -> inclusive seconds
        self.counts = Counter()
        self.worst_residual = 0.0
        self.absent = []
        self.tag = None                      # input family of the op in flight
        self.proxies = {}
        self._stack = []                     # [layer, seconds in child spans]
        self._wrappers = {}
        self._undo = []
        self._probe_depth = 0
        self._quad_solves = []
        self._solver = getattr(self.modules["oep"], "optimize_omega_imag", None)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer, fn):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        stack, self_s, counts = self._stack, self.self_s, self.counts
        full = f"{layer}.{fn.__name__}"
        enter, leave = self._hook_actions(full)
        timed = full in TIMED
        solver = full == "oep.optimize_omega_imag"
        grid_aware = layer == "hyper"

        def wrapper(*args, **kwargs):
            if not stack or stack[-1][0] != layer:
                counts[layer + ".calls"] += 1
                if grid_aware:
                    grid = any(isinstance(a, np.ndarray) for a in args)
                    counts["hyper.grid_calls" if grid else "hyper.scalar_calls"] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            token = enter() if enter else None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if timed:
                    self.elapsed_s[full] += dt
                if leave:
                    leave(token)
            if solver:
                self._solve_result(token, out)
            return out

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):  # callers may manage a wrapped lru_cache
                setattr(wrapper, attr, getattr(fn, attr))
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _proxy(self, layer, module):
        proxy = types.ModuleType(module.__name__)
        for attr, value in vars(module).items():
            if _is_layer_function(value, module):
                value = self._wrap(layer, value)
            setattr(proxy, attr, value)
        return proxy

    # -- counters at the named hooks -----------------------------------------

    def _hook_actions(self, full):
        return {
            "oep.optimize_omega_imag": (self._solve_enter, None),
            "oep.optimize_omega_real": (None, self._count("oep.real_solves")),
            "oep.gap_residual_imag": (None, self._count("oep.residual_evals")),
            "thermo._grow_halfwidth": (self._probe_enter, self._probe_leave),
        }.get(full, (None, None))

    def _count(self, key):
        def leave(_token):
            self.counts[key] += 1
        return leave

    def _probe_enter(self):
        self._probe_depth += 1

    def _probe_leave(self, _token):
        self._probe_depth -= 1

    def _solve_enter(self):
        info = getattr(self._solver, "cache_info", None)
        return info().misses if info else None

    def _solve_result(self, misses_before, gap):
        """Counts a gap solve unless the call was answered from the cache."""
        c = self.counts
        if misses_before is not None and self._solve_enter() == misses_before:
            return
        c["oep.imag_solves"] += 1
        if self._probe_depth:
            c["thermo.probe_solves"] += 1
        if self._quad_solves:
            self._quad_solves[-1] += 1
        if getattr(gap, "fallback_used", False):
            c["oep.fallbacks"] += 1
            c[f"oep.fallbacks.{self.tag}"] += 1
        if getattr(gap, "n_roots", 0) > 1:
            c["oep.multi_root"] += 1
        self.worst_residual = max(self.worst_residual, getattr(gap, "residual", 0.0))

    def _quad_proxy(self, integrate):
        counts, quad_solves = self.counts, self._quad_solves
        quad = integrate.quad

        def traced_quad(func, *args, **kwargs):
            nodes = [0]

            def counted(x, *a):
                nodes[0] += 1
                return func(x, *a)

            quad_solves.append(0)
            try:
                return quad(counted, *args, **kwargs)
            finally:
                solves = quad_solves.pop()
                if quad_solves:
                    quad_solves[-1] += solves
                if solves:
                    # a quadrature whose nodes ran gap solves is an OEP trace
                    counts["thermo.traces"] += 1
                    counts["thermo.quad_nodes"] += nodes[0]

        proxy = types.ModuleType(integrate.__name__)
        vars(proxy).update(vars(integrate))
        proxy.quad = traced_quad
        return proxy

    # -- install / uninstall -------------------------------------------------

    def _rebind(self, namespace, name, value):
        self._undo.append((namespace, name, namespace[name]))
        namespace[name] = value

    def __enter__(self):
        mods = self.modules
        layer_of = {id(m): layer for layer, m in mods.items()}
        self.proxies = {layer: self._proxy(layer, m) for layer, m in mods.items()}
        for layer, module in mods.items():
            ns = vars(module)
            for name, value in list(ns.items()):
                other = layer_of.get(id(value))
                if other is not None and other != layer:
                    self._rebind(ns, name, self.proxies[other])
                    continue
                for other, om in mods.items():
                    if other != layer and _is_layer_function(value, om):
                        self._rebind(ns, name, self._wrap(other, value))
                        break
        for layer, name in HOOKS:
            ns = vars(mods[layer])
            value = ns.get(name)
            if name == "integrate" and value is not None:
                if hasattr(value, "quad"):
                    self._rebind(ns, name, self._quad_proxy(value))
                    continue
                value, name = None, "integrate.quad"
            if value is None:
                self.absent.append(f"{layer}.{name}")
            else:
                self._rebind(ns, name, self._wrap(layer, value))
        return self

    def __exit__(self, *exc):
        while self._undo:
            ns, name, value = self._undo.pop()
            ns[name] = value
