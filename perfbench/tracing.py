"""In-memory span tracing of the decrem layers, installed from outside.

The tracer wraps public functions of ``decrem.grid``, ``model``,
``kolmogorov``, ``fredholm``, ``seedpipe``, ``montecarlo`` and ``cli`` (plus
the private stepping core ``kolmogorov._march``, the one place time steps
are taken) by rebinding every module attribute that refers to them.  No file
under ``src/`` changes.  Each span records its name, start and end in
integer nanoseconds, its parent span and the op it belongs to, plus
deterministic counts taken from arguments or results (steps, iterations,
particles, bytes).  Spans stay in memory; :func:`op_metrics` derives the
per-layer metrics, self times included, after the run.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def dur_ns(self):
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans; ``op`` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def enter(self, name):
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter_ns(), 0, parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def leave(self, span):
        span.end_ns = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


def _arg(sig, args, kwargs, name):
    return sig.bind(*args, **kwargs).arguments.get(name)


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# counts(sig, args, kwargs, result) -> dict, evaluated after the call returns
def _march_counts(sig, a, kw, r):
    return {"steps": int(_arg(sig, a, kw, "config").n_steps)}


def _iterations(sig, a, kw, r):
    return {"iterations": int(r.iterations)}


def _simulate_counts(sig, a, kw, r):
    steps = int(r.step_offset - _arg(sig, a, kw, "ensemble").step_offset)
    return {"steps": steps, "particle_steps": steps * int(r.positions.shape[0])}


def _csv_counts(sig, a, kw, r):
    return {"bytes": _file_bytes(_arg(sig, a, kw, "path"))}


# (module, attribute, span name, counts); a missing attribute is skipped so the
# benchmark keeps running when a later version of the package drops it.
FUNCTIONS = (
    ("decrem.cli", "main", "cli.main", None),
    ("decrem.cli", "load_config", "cli.load_config", None),
    ("decrem.kolmogorov", "_march", "kolmogorov.march", _march_counts),
    ("decrem.kolmogorov", "build_stencil", "kolmogorov.build_stencil", None),
    ("decrem.kolmogorov", "generator_matrix", "kolmogorov.generator_matrix", None),
    ("decrem.kolmogorov", "evolve", "kolmogorov.evolve", None),
    ("decrem.fredholm", "apply_Q", "fredholm.q_apply", None),
    ("decrem.fredholm", "propagator_action", "fredholm.propagator_action", None),
    ("decrem.fredholm", "solve_resolvent", "fredholm.solve_resolvent", _iterations),
    ("decrem.fredholm", "assemble_Q", "fredholm.assemble_Q", None),
    ("decrem.fredholm", "spectral_radius", "fredholm.spectral_radius", _iterations),
    ("decrem.fredholm", "singular_values", "fredholm.singular_values", None),
    ("decrem.model", "check_ellipticity", "model.check_ellipticity", None),
    ("decrem.seedpipe", "run_seed", "seedpipe.run_seed", None),
    ("decrem.seedpipe", "verify_seed", "seedpipe.verify_seed", None),
    ("decrem.seedpipe", "realize_gamma", "seedpipe.realize_gamma", None),
    ("decrem.montecarlo", "sample_initial", "montecarlo.sample_initial", None),
    ("decrem.montecarlo", "simulate", "montecarlo.simulate", _simulate_counts),
    ("decrem.montecarlo", "estimate_density", "montecarlo.estimate_density", None),
)

# (module, class, method, span name, counts)
METHODS = (
    ("decrem.model", "DiffusionModel", "drift_at", "model.coeff_eval", None),
    ("decrem.model", "DiffusionModel", "beta_at", "model.coeff_eval", None),
    ("decrem.seedpipe", "SeedSolution", "save", "seedpipe.save", None),
    ("decrem.grid", "DensityField", "to_csv", "grid.to_csv", _csv_counts),
    ("decrem.grid", "DensityField", "from_csv", "grid.from_csv", _csv_counts),
)


def _wrap(tracer, fn, name, counts):
    sig = inspect.signature(fn) if counts else None

    def traced(*args, **kwargs):
        span = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(span)
        if counts:
            span.counts = counts(sig, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_propagator(tracer, fn, name):
    """``propagator_action`` returns Q as a callable; each call of that
    callable is one Q application."""
    inner = _wrap(tracer, fn, name, None)

    def traced(*args, **kwargs):
        return _wrap(tracer, inner(*args, **kwargs), "fredholm.q_apply", None)

    traced.__wrapped__ = fn
    return traced


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "decrem" or n.startswith("decrem."))]


def install(tracer):
    """Wrap every target; returns a function that restores the originals."""
    replaced = {}  # id(original) -> (original, wrapper)
    for mod_name, attr, name, counts in FUNCTIONS:
        fn = getattr(sys.modules.get(mod_name), attr, None)
        if fn is None or id(fn) in replaced:
            continue
        if attr == "propagator_action":
            replaced[id(fn)] = (fn, _wrap_propagator(tracer, fn, name))
        else:
            replaced[id(fn)] = (fn, _wrap(tracer, fn, name, counts))
    patched = []
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])
                patched.append((mod, key, value))
    for mod_name, cls_name, meth, name, counts in METHODS:
        cls = getattr(sys.modules.get(mod_name), cls_name, None)
        raw = vars(cls).get(meth) if cls is not None else None
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(tracer, raw.__func__, name, counts))
        else:
            wrapped = _wrap(tracer, raw, name, counts)
        setattr(cls, meth, wrapped)
        patched.append((cls, meth, raw))

    def uninstall():
        for owner, key, original in reversed(patched):
            setattr(owner, key, original)

    return uninstall


def check_nesting(spans):
    """Raise ValueError unless every span closed and sits inside its parent."""
    for s in spans:
        if s.end_ns < s.start_ns:
            raise ValueError(f"span {s.sid} {s.name} ends before it starts")
        if s.parent is not None:
            p = spans[s.parent]
            if p.op != s.op or s.start_ns < p.start_ns or s.end_ns > p.end_ns:
                raise ValueError(f"span {s.sid} {s.name} is not inside its parent {p.name}")


def self_times_ns(spans):
    """Span duration minus the time its children cover (they never overlap:
    the package runs its layers on one thread)."""
    self_ns = [s.dur_ns for s in spans]
    for s in spans:
        if s.parent is not None:
            self_ns[s.parent] -= s.dur_ns
    return self_ns


# per-layer metric name -> (span name, what to sum); "s" sums durations,
# "self_s" sums self times, "calls" counts spans, anything else sums a count
LAYER_METRICS = {
    "kolmogorov.steps": ("kolmogorov.march", "steps"),
    "kolmogorov.build_stencil.calls": ("kolmogorov.build_stencil", "calls"),
    "kolmogorov.build_stencil.s": ("kolmogorov.build_stencil", "s"),
    "kolmogorov.generator_matrix.calls": ("kolmogorov.generator_matrix", "calls"),
    "kolmogorov.generator_matrix.s": ("kolmogorov.generator_matrix", "s"),
    "kolmogorov.evolve.calls": ("kolmogorov.evolve", "calls"),
    "kolmogorov.evolve.s": ("kolmogorov.evolve", "s"),
    "fredholm.q_apply.calls": ("fredholm.q_apply", "calls"),
    "fredholm.q_apply.s": ("fredholm.q_apply", "s"),
    "fredholm.solve_resolvent.s": ("fredholm.solve_resolvent", "s"),
    "fredholm.solve_resolvent.iterations": ("fredholm.solve_resolvent", "iterations"),
    "fredholm.assemble_Q.s": ("fredholm.assemble_Q", "s"),
    "fredholm.spectral_radius.s": ("fredholm.spectral_radius", "s"),
    "fredholm.spectral_radius.iterations": ("fredholm.spectral_radius", "iterations"),
    "fredholm.singular_values.s": ("fredholm.singular_values", "s"),
    "montecarlo.sample_initial.s": ("montecarlo.sample_initial", "s"),
    "montecarlo.simulate.s": ("montecarlo.simulate", "s"),
    "montecarlo.simulate.steps": ("montecarlo.simulate", "steps"),
    "montecarlo.particle_steps": ("montecarlo.simulate", "particle_steps"),
    "montecarlo.estimate_density.s": ("montecarlo.estimate_density", "s"),
    "model.coeff_eval.calls": ("model.coeff_eval", "calls"),
    "model.coeff_eval.s": ("model.coeff_eval", "s"),
    "model.check_ellipticity.calls": ("model.check_ellipticity", "calls"),
    "model.check_ellipticity.s": ("model.check_ellipticity", "s"),
    "seedpipe.run_seed.s": ("seedpipe.run_seed", "s"),
    "seedpipe.run_seed.self_s": ("seedpipe.run_seed", "self_s"),
    "seedpipe.verify_seed.s": ("seedpipe.verify_seed", "s"),
    "seedpipe.realize_gamma.s": ("seedpipe.realize_gamma", "s"),
    "seedpipe.save.s": ("seedpipe.save", "s"),
    "grid.to_csv.calls": ("grid.to_csv", "calls"),
    "grid.to_csv.s": ("grid.to_csv", "s"),
    "grid.from_csv.calls": ("grid.from_csv", "calls"),
    "grid.from_csv.s": ("grid.from_csv", "s"),
    "cli.load_config.s": ("cli.load_config", "s"),
    "cli.self_s": ("cli.main", "self_s"),
}

# metrics that are counts and so must repeat exactly from op to op and run to run
EXACT = tuple(k for k, (_, what) in LAYER_METRICS.items() if what not in ("s", "self_s")) + (
    "grid.csv.bytes",
)


def op_metrics(spans, op, speed=1.0):
    """Per-layer metrics of one op, from its spans; durations are scaled by
    ``speed`` like the op's end-to-end times."""
    self_ns = self_times_ns(spans)
    totals = {}
    for s in spans:
        if s.op != op:
            continue
        t = totals.setdefault(s.name, {"calls": 0, "s": 0, "self_s": 0})
        t["calls"] += 1
        t["s"] += s.dur_ns
        t["self_s"] += self_ns[s.sid]
        for key, value in s.counts.items():
            t[key] = t.get(key, 0) + value
    out = {}
    for metric, (span_name, what) in LAYER_METRICS.items():
        value = totals.get(span_name, {}).get(what, 0)
        out[metric] = value * 1e-9 * speed if what in ("s", "self_s") else value
    march_s = totals.get("kolmogorov.march", {}).get("s", 0) * 1e-9 * speed
    steps = out["kolmogorov.steps"]
    out["kolmogorov.step_s"] = march_s / steps if steps else 0.0
    out["grid.csv.bytes"] = sum(
        totals.get(n, {}).get("bytes", 0) for n in ("grid.to_csv", "grid.from_csv")
    )
    sim_s = out["montecarlo.simulate.s"]
    out["montecarlo.particle_steps_per_s"] = (
        out["montecarlo.particle_steps"] / sim_s if sim_s else 0.0
    )
    return out
