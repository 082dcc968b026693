"""Spans around the calls into each fluxlattice module, recorded from outside.

``Tracer.installed()`` replaces the public functions ``runner`` calls, at
the names ``runner`` imported them under, plus ``core.gauge_phase`` where
``dynamics`` and ``effective`` imported it, with wrappers that record a
span (name, start, end, parent) in memory.  Nothing under ``src/`` changes.
``layer_metrics`` turns one call's spans into the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _evolve_work(fn, args, kwargs, traj) -> dict:
    """Sites x simulated time, stored trajectory size, norm drift / budget."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    sites = a["initial"].amplitudes.size
    span = float(traj.times[-1]) - float(a.get("t_start", 0.0))
    if "hoppings" in a:
        j_ref = max(abs(a["hoppings"].kappa_x), abs(a["hoppings"].kappa_y)) or 1.0
    else:
        j_ref = max(abs(a["J_x"]), abs(a["J_y"])) or 1.0
    tol = a["opts"].norm_drift_tol if a.get("opts") is not None else 1e-8
    norms = traj.norms
    drift = float(abs(norms - norms[0]).max())
    return {"site_time": sites * span,
            "trajectory_bytes": traj.times.size * sites * 16,
            "drift_ratio": drift / (tol * j_ref * max(span, 1e-30))}


def _samples_work(fn, args, kwargs, result) -> dict:
    return {"samples": args[0].times.size}


def _flux_work(fn, args, kwargs, result) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    return {"fluxes": len(bound.arguments["flux_list"])}


# (module the name is looked up in, attribute, span name, work function)
TARGETS = (
    ("runner", "evolve_full", "dynamics.evolve_full", _evolve_work),
    ("runner", "gaussian_input", "dynamics.gaussian_input", None),
    ("runner", "evolve_effective", "effective.evolve_effective", _evolve_work),
    ("runner", "gauge_map", "effective.gauge_map", None),
    ("runner", "expectation_kinematics", "effective.expectation_kinematics", None),
    ("runner", "hoppings_from_drive", "hopping.hoppings_from_drive", None),
    ("runner", "butterfly", "spectrum.butterfly", _flux_work),
    ("runner", "vertical_profile", "observables.vertical_profile", _samples_work),
    ("runner", "with_visibility", "observables.with_visibility", None),
    ("runner", "revival_period", "observables.revival_period", None),
    ("runner", "com_path", "observables.com_path", _samples_work),
    ("runner", "model_deviation", "observables.model_deviation", _samples_work),
    ("dynamics", "gauge_phase", "core.gauge_phase", None),
    ("effective", "gauge_phase", "core.gauge_phase", None),
)


class Tracer:
    """In-memory span recorder for one scenario call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, parent=self._stack[-1] if self._stack else None))
        self._stack.append(index)
        self.spans[index].start = perf_counter()
        try:
            yield self.spans[index]
        finally:
            self.spans[index].end = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, work):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if work is not None:
                sp.work = work(fn, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, work in TARGETS:
                module = importlib.import_module(f"fluxlattice.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, work))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_time(self, index: int) -> float:
        """Duration minus the time direct children cover (children nest, never overlap)."""
        children = sum(s.duration for s in self.spans if s.parent == index)
        return self.spans[index].duration - children


def layer_metrics(tracer: Tracer, root: int, result) -> dict:
    """Per-layer numbers of one traced call whose run_scenario span is ``root``."""
    def spans(*names):
        return [s for s in tracer.spans if s.name in names]

    def busy(*names):
        return sum(s.duration for s in spans(*names))

    def total(key, *names):
        return sum(s.work.get(key, 0) for s in spans(*names))

    def rate(key, *names):
        seconds = busy(*names)
        return total(key, *names) / seconds if seconds > 0.0 else 0.0

    evolutions = spans("dynamics.evolve_full", "effective.evolve_effective")
    return {
        "hopping.calls": len(spans("hopping.hoppings_from_drive")),
        "hopping.busy_s": busy("hopping.hoppings_from_drive"),
        "core.gauge_phase_calls": len(spans("core.gauge_phase")),
        "core.gauge_phase_s": busy("core.gauge_phase"),
        "dynamics.evolve_full_calls": len(spans("dynamics.evolve_full")),
        "dynamics.evolve_full_s": busy("dynamics.evolve_full"),
        "dynamics.site_time_per_s": rate("site_time", "dynamics.evolve_full"),
        "dynamics.norm_drift_ratio": max((s.work["drift_ratio"] for s in evolutions),
                                         default=0.0),
        "dynamics.trajectory_mb": total("trajectory_bytes", "dynamics.evolve_full",
                                        "effective.evolve_effective") / 1e6,
        "effective.evolve_effective_s": busy("effective.evolve_effective"),
        "effective.site_time_per_s": rate("site_time", "effective.evolve_effective"),
        "effective.gauge_map_s": busy("effective.gauge_map"),
        "effective.kinematics_calls": len(spans("effective.expectation_kinematics")),
        "effective.kinematics_s": busy("effective.expectation_kinematics"),
        "spectrum.butterfly_s": busy("spectrum.butterfly"),
        "spectrum.fluxes": total("fluxes", "spectrum.butterfly"),
        "spectrum.fluxes_per_s": rate("fluxes", "spectrum.butterfly"),
        "observables.profile_s": busy("observables.vertical_profile",
                                      "observables.with_visibility",
                                      "observables.revival_period"),
        "observables.com_s": busy("observables.com_path"),
        "observables.deviation_s": busy("observables.model_deviation"),
        "observables.samples": total("samples", "observables.vertical_profile",
                                     "observables.com_path",
                                     "observables.model_deviation"),
        "runner.self_s": tracer.self_time(root),
        "runner.bytes_written": sum(p.stat().st_size for p in result.files),
        "runner.files": len(result.files),
    }
