"""Span tracing for the solitonlab benchmark, kept entirely outside the program.

Public functions of each solitonlab module are wrapped at their module
attributes (every ``solitonlab.*`` module that imported the function gets the
wrapper), so a call into a layer from another layer is timed as a span. A span
is ``(id, parent_id, name, start, end)`` with ``perf_counter`` times; names are
``<layer>.<function>`` where the layer is the defining module. Spans are kept
in memory and written out once, at the end of a run.

FFT calls through ``numpy.fft`` / ``scipy.fft`` are too frequent to keep as
spans; while an ``evolve`` span is open they are counted and timed instead.

Pool workers: ``solitonlab.experiments.ProcessPoolExecutor`` is replaced by a
subclass whose ``map`` runs each task inside :class:`InWorker`, which records
the task as an ``experiments.worker_task`` span in the worker and ships the
worker's spans and counters back with the result. The parent re-numbers them
and hangs the worker roots under the span that called ``map``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

LAYERS = ("grid", "potentials", "scattering", "propagation", "experiments", "reporting", "cli")

#: per layer (module), the public functions and methods that get a span
TRACED = {
    "grid": ["make_grid", "l2_norm", "edge_mass_fraction", "save_field"],
    "potentials": ["sample_potential", "decay_fit", "check_admissibility"],
    "scattering": ["jost", "wronskian", "detect_resonance", "scattering_table", "bound_states",
                   "build_spectral_report"],
    "propagation": ["soliton", "validate_step_rules", "energy", "evolve", "ObserverSeries.to_csv"],
    "experiments": ["plan_run", "transmission_run", "scaling_study"],
    "reporting": ["write_json", "svg_line_plot", "RunManifest.write"],
    "cli": ["main"],
}

#: spans whose outermost occurrence is output writing (files and manifests)
WRITERS = {"grid.save_field", "reporting.write_json", "reporting.svg_line_plot",
           "reporting.RunManifest.write", "propagation.ObserverSeries.to_csv"}
#: functions evolve calls once per observation
OBSERVER = {"propagation.energy", "propagation.soliton", "grid.l2_norm",
            "grid.edge_mass_fraction"}
_FFT_FUNCS = (("numpy.fft", "fft"), ("numpy.fft", "ifft"), ("scipy.fft", "fft"),
              ("scipy.fft", "ifft"))

# The tracer of this process while tracing is on. Wrappers hold their tracer
# directly; this is only how a pool task finds it (or learns that it must
# install one, in a worker started without the parent's memory).
_ACTIVE: "Tracer | None" = None


def _evolve_steps(args, kwargs, result) -> int:
    """Steps taken by evolve(u0, potential, t_span, config, ...): observations
    are k_obs steps apart, k_obs = max(1, floor(obs_cadence/dt))."""
    config = args[3] if len(args) > 3 else kwargs["config"]
    k_obs = max(1, int(math.floor(config.obs_cadence / config.dt + 1e-12)))
    return (len(result.series.times) - 1) * k_obs


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._next = 1
        self._in_evolve = 0
        self._undo: list[tuple] = []

    # --- recording -----------------------------------------------------------

    def _new_id(self) -> int:
        sid = self._next
        self._next += 1
        return sid

    def run_span(self, name, fn, *args, **kwargs):
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def _wrap(self, name, fn):
        tracer = self

        if name == "propagation.evolve":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._in_evolve += 1
                try:
                    result = tracer.run_span(name, fn, *args, **kwargs)
                finally:
                    tracer._in_evolve -= 1
                grid_n = result.final.grid.n
                tracer.counters["propagation.point_steps"] += grid_n * _evolve_steps(
                    args, kwargs, result)
                return result
        elif name == "scattering.scattering_table":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = tracer.run_span(name, fn, *args, **kwargs)
                potential = args[0] if args else kwargs["potential"]
                # one inward sweep per sign (+1 and -1) for every lambda
                tracer.counters["scattering.lambda_nodes"] += len(result) * potential.grid.n * 2
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.run_span(name, fn, *args, **kwargs)
        return wrapper

    def _wrap_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._in_evolve:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            tracer.counters["propagation.transform_s"] += perf_counter() - t0
            tracer.counters["propagation.transforms"] += 1
            return out
        return wrapper

    # --- install / remove ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        global _ACTIVE
        modules = [importlib.import_module(f"solitonlab.{layer}") for layer in LAYERS]
        lab = [m for name, m in sys.modules.items()
               if name == "solitonlab" or name.startswith("solitonlab.")]
        for layer, mod in zip(LAYERS, modules):
            for attr in TRACED[layer]:
                name = f"{layer}.{attr}"
                if "." in attr:  # method: patch the class attribute
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    self._set(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                fn = getattr(mod, attr)
                wrapper = self._wrap(name, fn)
                for m in lab:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._set(m, key, wrapper)
        for mod_name, attr in _FFT_FUNCS:
            mod = importlib.import_module(mod_name)
            self._set(mod, attr, self._wrap_fft(getattr(mod, attr)))
        experiments = modules[LAYERS.index("experiments")]
        if hasattr(experiments, "ProcessPoolExecutor"):
            self._set(experiments, "ProcessPoolExecutor", TracedPool)
        _ACTIVE = self

    def remove(self) -> None:
        global _ACTIVE
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        _ACTIVE = None

    # --- worker hand-back ----------------------------------------------------

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}

    def absorb(self, payload: dict) -> None:
        """Merge a worker's spans under the currently open span."""
        parent = self._stack[-1] if self._stack else None
        remap = {}
        for sid, _, _, _, _ in payload["spans"]:
            remap[sid] = self._new_id()
        for sid, par, name, t0, t1 in payload["spans"]:
            self.spans.append((remap[sid], remap.get(par, parent), name, t0, t1))
        self.counters.update(payload["counters"])

    # --- analysis -------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of its interval its child spans cover
        (children from parallel workers may overlap, so intervals are merged)."""
        children = defaultdict(list)
        for sid, parent, _, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = {}
        for sid, _, _, t0, t1 in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"counters": dict(self.counters),
                       "spans": [list(s) for s in self.spans]}, fh)


class InWorker:
    """Pool task wrapper: run ``fn`` as a traced span in the worker and return
    ``(result, worker trace)``."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        tracer = _ACTIVE
        if tracer is None:  # worker did not inherit the parent's tracer
            tracer = Tracer()
            tracer.install()
        tracer.reset()
        result = tracer.run_span("experiments.worker_task", self.fn, *args)
        return result, tracer.export()


class TracedPool(ProcessPoolExecutor):
    """ProcessPoolExecutor whose map collects worker spans into the parent."""

    def map(self, fn, *iterables, **kwargs):
        results = super().map(InWorker(fn), *iterables, **kwargs)
        tracer = _ACTIVE
        tracer.counters["experiments.pool_slots"] = max(
            tracer.counters["experiments.pool_slots"], self._max_workers)

        def unpack():
            for result, payload in results:
                tracer.absorb(payload)
                yield result
        return unpack()


def layer_metrics(tracer: Tracer, n_ops: int, output_bytes: float) -> dict[str, float]:
    """Per-operation per-layer figures from one tracer's spans and counters."""
    spans = tracer.spans
    names = {sid: name for sid, _, name, _, _ in spans}
    selfs = tracer.self_times()
    total = Counter()
    count = Counter()
    observer_s = 0.0
    observations = 0
    outputs_s = 0.0
    layer_self = Counter()
    for sid, parent, name, t0, t1 in spans:
        dur = t1 - t0
        total[name] += dur
        count[name] += 1
        layer_self[name.split(".")[0]] += selfs[sid]
        parent_name = names.get(parent)
        if parent_name == "propagation.evolve" and name in OBSERVER:
            observer_s += dur
            if name == "grid.edge_mass_fraction":
                observations += 1
        if name in WRITERS and parent_name not in WRITERS:
            outputs_s += dur
    c = tracer.counters
    per = 1.0 / n_ops
    busy = total["experiments.worker_task"]
    slots = c.get("experiments.pool_slots", 0)
    idle = slots * total["experiments.scaling_study"] - busy if slots else 0.0
    point_steps = c.get("propagation.point_steps", 0)
    table_s = total["scattering.scattering_table"]
    m = {
        "propagation.evolve_s": total["propagation.evolve"] * per,
        "propagation.point_steps": point_steps * per,
        "propagation.ns_per_point_step":
            1e9 * total["propagation.evolve"] / point_steps if point_steps else 0.0,
        "propagation.transforms": c.get("propagation.transforms", 0) * per,
        "propagation.transform_s": c.get("propagation.transform_s", 0.0) * per,
        "propagation.observations": observations * per,
        "propagation.observer_s": observer_s * per,
        "experiments.transmission_run_s": total["experiments.transmission_run"] * per,
        "experiments.runs": count["experiments.transmission_run"] * per,
        "experiments.worker_busy_s": busy * per,
        "experiments.worker_idle_s": idle * per,
        "potentials.check_admissibility_s": total["potentials.check_admissibility"] * per,
        "potentials.admissibility_calls": count["potentials.check_admissibility"] * per,
        "potentials.sample_potential_s": total["potentials.sample_potential"] * per,
        "scattering.scattering_table_s": table_s * per,
        "scattering.lambda_nodes_per_s":
            c.get("scattering.lambda_nodes", 0) / table_s if table_s else 0.0,
        "scattering.bound_states_s": total["scattering.bound_states"] * per,
        "scattering.detect_resonance_s": total["scattering.detect_resonance"] * per,
        "scattering.jost_calls": count["scattering.jost"] * per,
        "grid.save_field_s": total["grid.save_field"] * per,
        "reporting.write_json_s": total["reporting.write_json"] * per,
        "reporting.svg_line_plot_s": total["reporting.svg_line_plot"] * per,
        "cli.outputs_s": outputs_s * per,
        "cli.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] * per
    return m
