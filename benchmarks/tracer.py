"""Per-layer tracing from outside the library.

`Tracer.install()` replaces each traced public function by a wrapper in every
anomdiff module that holds it (so `laws.fox_h_eval`, `solvers.mellin_inverse`
and the defining module's own name are all wrapped), patches the traced
methods on their classes, and wraps `scipy.integrate.quad`, which every module
reaches through the `integrate` module object.  A wrapper records one span per
call; a span's self time is its duration minus the durations of the spans it
contains.  Spans are aggregated in memory; `uninstall()` restores the
originals.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# span name -> (module, attribute) of the public function to wrap
FUNCTIONS = {
    "specfun.wright_w": ("anomdiff.specfun", "wright_w"),
    "specfun.mittag_leffler": ("anomdiff.specfun", "mittag_leffler"),
    "specfun.gamma_fn": ("anomdiff.specfun", "gamma_fn"),
    "specfun.bessel_k": ("anomdiff.specfun", "bessel_k"),
    "specfun.bessel_j_zeros": ("anomdiff.specfun", "bessel_j_zeros"),
    "mellin.fox_h_eval": ("anomdiff.mellin", "fox_h_eval"),
    "mellin.mellin_inverse": ("anomdiff.mellin", "mellin_inverse"),
    "mellin.mellin_numeric": ("anomdiff.mellin", "mellin_numeric"),
    "mellin.mellin_convolve": ("anomdiff.mellin", "mellin_convolve"),
    "laws.h_density": ("anomdiff.laws", "h_density"),
    "laws.l_density": ("anomdiff.laws", "l_density"),
    "laws.compose_density": ("anomdiff.laws", "compose_density"),
    "laws.f_nu_beta": ("anomdiff.laws", "f_nu_beta"),
    "laws.gg_density": ("anomdiff.laws", "gg_density"),
    "solvers.time_fractional_solution": ("anomdiff.solvers", "time_fractional_solution"),
    "solvers.space_fractional_density": ("anomdiff.solvers", "space_fractional_density"),
    "solvers.fractional_power_operator": ("anomdiff.solvers", "fractional_power_operator"),
    "solvers.eigen_system": ("anomdiff.solvers", "eigen_system"),
    "solvers.sturm_liouville_solution": ("anomdiff.solvers", "sturm_liouville_solution"),
    "frac_calc.rl_right": ("anomdiff.frac_calc", "rl_right"),
    "frac_calc.rl_left": ("anomdiff.frac_calc", "rl_left"),
    "frac_calc.caputo": ("anomdiff.frac_calc", "caputo"),
    "frac_calc.frac_integral": ("anomdiff.frac_calc", "frac_integral"),
    "montecarlo.sample_subordinator": ("anomdiff.montecarlo", "sample_subordinator"),
    "montecarlo.sample_inverse_subordinator": ("anomdiff.montecarlo", "sample_inverse_subordinator"),
    "montecarlo.sample_gamma": ("anomdiff.montecarlo", "sample_gamma"),
    "montecarlo.sample_chain": ("anomdiff.montecarlo", "sample_chain"),
    "montecarlo.ks": ("anomdiff.montecarlo", "ks_distance"),
    "montecarlo.ks#2": ("anomdiff.montecarlo", "ks_two_sample"),
}
# span name -> (module, class, method)
METHODS = {
    "mellin.FoxH.kernel": ("anomdiff.mellin", "FoxH", "kernel"),
    "frac_calc.GridFunction.call": ("anomdiff.frac_calc", "GridFunction", "__call__"),
    "frac_calc.GridFunction.derivative": ("anomdiff.frac_calc", "GridFunction", "derivative"),
}
SAMPLERS = ("sample_subordinator", "sample_inverse_subordinator", "sample_gamma", "sample_chain")


class _Stat:
    __slots__ = ("calls", "total", "self", "points", "evals")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.points = 0  # kernel points, or draws for a sampler
        self.evals = 0  # integrand evaluations (quad)


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[float] = []  # child time accumulated per open span
        self._undo: list = []

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def _wrap(self, name, fn, count=None):
        st = self._stat(name.split("#")[0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                st.calls += 1
                st.total += dt
                st.self += dt - child
            if count is not None:
                st.points += count(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        import scipy.integrate

        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            count = (lambda args, out: int(np.size(out))) if attr in SAMPLERS else None
            wrapper = self._wrap(name, original, count)
            for mname, mod in list(sys.modules.items()):
                if mname == "anomdiff" or mname.startswith("anomdiff."):
                    if mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, wrapper)
        for name, (modname, cls, attr) in METHODS.items():
            klass = getattr(sys.modules[modname], cls)
            count = (lambda args, out: int(np.size(args[1]))) if attr == "kernel" else None
            self._patch(klass, attr, self._wrap(name, klass.__dict__[attr], count))

        quad_stat = self._stat("quad")
        timed_quad = self._wrap("quad", scipy.integrate.quad)

        def quad(func, *args, **kwargs):
            def counted(*a):
                quad_stat.evals += 1
                return func(*a)

            return timed_quad(counted, *args, **kwargs)

        self._patch(scipy.integrate, "quad", quad)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def raw(self) -> dict:
        return {
            name: {"calls": s.calls, "total": s.total, "self": s.self, "points": s.points, "evals": s.evals}
            for name, s in self.stats.items()
        }


def merge(into: dict, raw: dict):
    """Add one process's raw span statistics to another's."""
    for name, rec in raw.items():
        acc = into.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "points": 0, "evals": 0})
        for k, v in rec.items():
            acc[k] += v


def layer_metrics(raw: dict) -> dict:
    """Per-layer metric values, by the names in BENCHMARK.json, from raw span
    statistics; a layer the run never called reads 0."""
    def rec(name):
        return raw.get(name, {"calls": 0, "total": 0.0, "self": 0.0, "points": 0, "evals": 0})

    out = {}
    for name in FUNCTIONS:
        if "#" in name:
            continue
        r = rec(name)
        if name.startswith("montecarlo.sample_"):
            out[f"{name}.draws_per_s"] = r["points"] / r["total"] if r["total"] > 0 else 0.0
        else:
            out[f"{name}.calls"] = r["calls"]
            out[f"{name}.self_s"] = r["self"]
    out["mellin.FoxH.kernel.points"] = rec("mellin.FoxH.kernel")["points"]
    out["frac_calc.GridFunction.call.calls"] = rec("frac_calc.GridFunction.call")["calls"]
    out["frac_calc.GridFunction.derivative.calls"] = rec("frac_calc.GridFunction.derivative")["calls"]
    q = rec("quad")
    out["quad.calls"] = q["calls"]
    out["quad.integrand_evals"] = q["evals"]
    out["quad.self_s"] = q["self"]
    return out
