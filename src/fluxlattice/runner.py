"""Scenario execution: run a validated config, write CSV data + JSON metadata.

Each handler computes its results and returns them as named tables,
{role: (header, table[, fmt])}; ``run_scenario`` alone writes them.  Role
``r`` of a run labelled ``L`` goes to ``L_r.csv``: comma-separated, CRLF
line ends, one header line (the final-field matrices ``L_field_final_re``
and ``_im`` have none), floats as ``%.12g``, and integer and flag columns
(band index, ``touching_next``, units ``M``) as ``%d``.  Every run also
writes ``L_meta.json``.  It embeds the fully resolved config under
"config", so the JSON file itself is a valid input to ``run`` and
reproduces the outputs exactly; complex numbers appear in it as [re, im].
``RunResult.metadata`` is that file, parsed.
"""

from __future__ import annotations

import dataclasses
import math
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import Scenario, load_config
from .dynamics import Trajectory, _full_run, evolve_full, gaussian_input
from .effective import (
    _effective_run,
    _kinematics,
    evolve_effective,
    expectation_kinematics,
    gauge_map,
    semiclassical_evolve,
)
from .hopping import hoppings_from_drive
from .observables import (
    com_path,
    model_deviation,
    revival_period,
    vertical_profile,
    with_visibility,
)
from .spectrum import butterfly, harper_bands

__all__ = ["RunResult", "run_scenario"]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one scenario run."""

    scenario: Scenario
    exit_code: int
    metadata: dict
    files: tuple[Path, ...]


# -- output ------------------------------------------------------------------

_CSV_BLOCK = 64  # rows formatted per write


def _write_csv(path: Path, header, table, fmt="%.12g") -> None:
    """np.savetxt's bytes for these arguments: one % per row, written by blocks."""
    table = np.asarray(table)
    line = ",".join([fmt] * table.shape[1] if isinstance(fmt, str) else fmt) + "\r\n"
    with path.open("w", newline="", encoding="utf-8") as fh:
        if header:
            fh.write(",".join(header) + "\r\n")
        for i in range(0, len(table), _CSV_BLOCK):
            fh.write("".join([line % tuple(row)
                              for row in table[i:i + _CSV_BLOCK].tolist()]))


def _plain(obj):
    """JSON form of the numpy and complex values ``json`` cannot encode."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _start(s: Scenario, i: int = 0):
    """Sample times of drive i's run and its input at t_start, in the driven
    and effective frames.

    The s.samples[i] samples lie on [0, t_max], every dt_sample or every
    drive period.  Full, effective, semiclassical and compare runs all
    start from this one prepared state, so both frames describe the same
    state at t_start.  The delta-kick train's pre-kick branch is used: a
    kick at t_start is still to act, and the integrators apply it.
    """
    drive = s.drives[i]
    step = drive.period if s.stroboscopic else s.dt_sample
    times = np.arange(s.samples[i]) * step
    c0 = gaussian_input(s.window, s.width, s.tilt, drive=drive,
                        imprint=s.imprint, t_start=s.t_start)
    f0 = gauge_map(c0, s.t_start, drive, side="left")
    return times, c0, f0


# -- per-kind handlers --------------------------------------------------------
# each returns (derived: dict, tables: {role: (header, table[, fmt])}); an
# evolution's derived["truncation"] is its window-truncation flag

def _run_hoppings(s: Scenario):
    methods = [s.method]
    if s.method == "auto":
        # surface both routes so their agreement is visible in the output
        methods = ["quadrature", "closed"]
    rows, derived = [], {}
    routes = {}
    for method in methods:
        h = routes[method] = hoppings_from_drive(s.drive, s.J_x, s.J_y, method)
        rows.append([method, h.kappa_x.real, h.kappa_x.imag,
                     h.kappa_y.real, h.kappa_y.imag,
                     abs(h.kappa_x), abs(h.kappa_y), h.alpha, h.flux_angle])
        derived[method] = {"kappa_x": h.kappa_x, "kappa_y": h.kappa_y,
                           "kappa_x_abs": abs(h.kappa_x),
                           "kappa_y_abs": abs(h.kappa_y)}
    any_h = next(iter(routes.values()))
    derived["alpha"] = any_h.alpha
    derived["flux_angle"] = any_h.flux_angle
    if len(routes) == 2:
        a, b = routes["quadrature"], routes["closed"]
        derived["route_max_diff"] = max(abs(a.kappa_x - b.kappa_x),
                                        abs(a.kappa_y - b.kappa_y))
    header = ["method", "kappa_x_re", "kappa_x_im", "kappa_y_re", "kappa_y_im",
              "kappa_x_abs", "kappa_y_abs", "alpha", "flux_angle"]
    table = np.array(rows, dtype=object)
    return derived, {"hoppings": (header, table, ["%s"] + ["%.12g"] * 8)}


def _run_spectrum(s: Scenario):
    h = s.hoppings[0]
    if s.flux_spec.startswith("farey:"):
        data = butterfly(abs(h.kappa_y) / abs(h.kappa_x), s.fluxes, s.k_grid)
        derived = {"flux_count": len(s.fluxes), "band_rows": data.shape[0],
                   "ratio": abs(h.kappa_y) / abs(h.kappa_x),
                   "k_grid": s.k_grid}
        return derived, {"butterfly": (["alpha", "E_min", "E_max"], data)}
    flux, = s.fluxes
    bands = harper_bands(h, flux, s.k_grid)
    rows = [[i, lo, hi, bands.touching[i] if i < len(bands.touching) else False]
            for i, (lo, hi) in enumerate(bands.intervals)]
    derived = {"flux": f"{flux.p}/{flux.q}", "alpha": flux.alpha,
               "band_count": len(bands.intervals),
               "total_bandwidth": bands.total_bandwidth,
               "touching": bands.touching,
               "kappa_x": h.kappa_x, "kappa_y": h.kappa_y, "k_grid": s.k_grid}
    return derived, {"bands": (["band", "E_min", "E_max", "touching_next"],
                               rows, ["%d", "%.12g", "%.12g", "%d"])}


def _trajectory_products(s: Scenario, traj: Trajectory):
    """Profile/visibility/COM/final-field outputs shared by evolution runs."""
    derived, tables = {}, {}
    if s.out_profile:
        record = vertical_profile(traj)
        tables["profile"] = (["t"] + [f"n={v}" for v in record.n_values],
                             np.column_stack([record.times, record.profiles]))
        try:
            record = with_visibility(record)
        except ValueError:
            record = None
        if record is not None:
            tables["visibility"] = (["t", "visibility"],
                                    np.column_stack([record.times, record.visibility]))
            derived["visibility_final"] = record.visibility[-1]
            try:
                derived["revival"] = revival_period(record)
            except ValueError:
                derived["revival"] = None
    if s.out_com:
        path = com_path(traj)
        tables["com"] = (["t", "n_mean", "m_mean"],
                         np.column_stack([traj.times, path]))
        derived["com_final"] = path[-1]
    if s.out_fields:
        # matrix layout: one row per m (ascending), one column per n
        tables["field_final_re"] = (None, traj.final.real.T)
        tables["field_final_im"] = (None, traj.final.imag.T)
    derived["norm_initial"] = traj.norms[0]
    derived["norm_final"] = traj.norms[-1]
    derived["norm_drift"] = np.max(np.abs(traj.norms - traj.norms[0]))
    derived["edge_mass_max"] = traj.edge_mass_max
    derived["truncation"] = traj.truncation_warning
    derived["samples"] = traj.times.size
    return derived, tables


def _run_full(s: Scenario):
    times, c0, _ = _start(s)
    keep = "sums" if s.out_profile or s.out_com else "final"
    traj = evolve_full(c0, s.drive, s.J_x, s.J_y, times, s.integrator, s.t_start,
                       keep=keep)
    return _trajectory_products(s, traj)


def _run_effective(s: Scenario):
    h = s.hoppings[0]
    times, _, f0 = _start(s)
    traj = evolve_effective(f0, h, times, s.integrator, s.t_start, keep="sums")
    derived, tables = _trajectory_products(s, traj)
    derived.update(kappa_x=h.kappa_x, kappa_y=h.kappa_y, alpha=h.alpha)
    table = np.column_stack([traj.times, _kinematics(traj._sums, traj.window, h)])
    tables["kinematics"] = (["t", "n_mean", "m_mean", "Pn", "Pm",
                             "sin_Pn", "sin_Pm", "v_n", "v_m"], table)
    return derived, tables


def _run_semiclassical(s: Scenario):
    h = s.hoppings[0]
    # same prepared state as an effective run, reduced to its expectations
    times, _, f0 = _start(s)
    initial = expectation_kinematics(f0, h).state
    states = semiclassical_evolve(initial, h, h.flux_angle, times)
    rows = [[t, st.n_mean, st.m_mean, st.Pn_mean, st.Pm_mean]
            for t, st in zip(times, states)]
    ax = math.atan2(h.kappa_x.imag, h.kappa_x.real)
    ay = math.atan2(h.kappa_y.imag, h.kappa_y.real)
    energy = np.array([-2.0 * abs(h.kappa_x) * math.cos(st.Pn_mean + ax)
                       - 2.0 * abs(h.kappa_y) * math.cos(st.Pm_mean + ay)
                       for st in states])
    inv1 = np.array([st.Pn_mean + h.flux_angle * st.m_mean for st in states])
    inv2 = np.array([st.Pm_mean - h.flux_angle * st.n_mean for st in states])
    derived = {
        "kappa_x": h.kappa_x, "kappa_y": h.kappa_y, "alpha": h.alpha,
        "initial": dataclasses.asdict(initial),
        "final": dataclasses.asdict(states[-1]),
        "energy_drift": np.max(np.abs(energy - energy[0])),
        "invariant_drift": [np.max(np.abs(inv1 - inv1[0])),
                            np.max(np.abs(inv2 - inv2[0]))],
        "samples": times.size,
    }
    return derived, {"semiclassical": (["t", "n_mean", "m_mean", "Pn", "Pm"], rows)}


def _run_compare(s: Scenario):
    rows, peaks, finals = [], [], []
    truncation = False
    for i, (omega, drive, h) in enumerate(zip(s.omegas, s.drives, s.hoppings)):
        times, c0, f0 = _start(s, i)
        # model_deviation makes the two runs in lockstep, so neither keeps a stack
        full = _full_run(c0, drive, s.J_x, s.J_y, times, s.integrator, s.t_start, "final")
        eff = _effective_run(f0, h, times, s.integrator, s.t_start, "final")
        dev = model_deviation(full, eff, drive)
        audits = full.trajectory(), eff.trajectory()
        truncation = truncation or any(a.truncation_warning for a in audits)
        rows.extend([omega, t, ma, inf] for t, ma, inf in
                    zip(dev.times, dev.max_abs, dev.infidelity))
        peaks.append(dev.peak)
        finals.append(dev.max_abs[-1])
    ratios = [peaks[i + 1] / peaks[i] if peaks[i] > 0.0 else None
              for i in range(len(peaks) - 1)]
    derived = {"omegas": s.omegas, "peak_deviation": peaks,
               "final_deviation": finals, "peak_ratios": ratios,
               "truncation": truncation}
    return derived, {"deviation": (["omega", "t", "max_abs", "infidelity"], rows)}


def _run_units(s: Scenario):
    record = dataclasses.asdict(s.units)
    fmt = ["%d" if isinstance(v, int) else "%.12g" for v in record.values()]
    return record, {"units": (list(record), [list(record.values())], fmt)}


_HANDLERS = {
    "full_evolve": _run_full,
    "effective_evolve": _run_effective,
    "semiclassical": _run_semiclassical,
    "hoppings": _run_hoppings,
    "spectrum": _run_spectrum,
    "compare": _run_compare,
    "units": _run_units,
}


def run_scenario(source, out_dir=".", strict: bool = False,
                 quiet: bool = False) -> RunResult:
    """Execute a scenario (config path or Scenario) and write its outputs.

    Returns a RunResult whose exit_code is 0 on success and 4 when strict
    is set and the run raised a window-truncation warning.  Config and
    validation problems raise ConfigError / ValidationError instead.
    """
    scenario = source if isinstance(source, Scenario) else load_config(source)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        derived, tables = _HANDLERS[scenario.kind](scenario)
    warning_texts = [str(w.message) for w in caught]
    exit_code = 4 if (strict and derived.get("truncation", False)) else 0
    names = {role: f"{scenario.label}_{role}.csv" for role in tables}
    for role, table in tables.items():
        _write_csv(out / names[role], *table)
    text = json.dumps({
        "version": __version__,
        "kind": scenario.kind,
        "label": scenario.label,
        "config": scenario.resolved_config(),
        "derived": derived,
        "warnings": warning_texts,
        "outputs": names,
        "exit_code": exit_code,
    }, indent=2, sort_keys=True, default=_plain)
    meta_path = out / f"{scenario.label}_meta.json"
    meta_path.write_text(text + "\n", encoding="utf-8")
    files = tuple(out / name for name in names.values()) + (meta_path,)
    if not quiet:
        print(f"{scenario.label}: {scenario.kind} -> "
              f"{len(files)} file(s) in {out}")
        for line in _summary_lines(scenario.kind, derived):
            print(f"  {line}")
        for warning in warning_texts:
            print(f"  warning: {warning}")
        if exit_code == 4:
            print("  strict: truncation warning treated as fatal")
    return RunResult(scenario=scenario, exit_code=exit_code,
                     metadata=json.loads(text), files=files)


def _summary_lines(kind: str, derived: dict) -> list[str]:
    lines = []
    if kind == "hoppings":
        for method in ("quadrature", "closed"):
            if method in derived:
                d = derived[method]
                lines.append(f"{method}: |kappa_x| = {d['kappa_x_abs']:.6g}, "
                             f"|kappa_y| = {d['kappa_y_abs']:.6g}")
        lines.append(f"alpha = {derived['alpha']:.6g}")
        if "route_max_diff" in derived:
            lines.append(f"route max diff = {derived['route_max_diff']:.3e}")
    elif kind == "spectrum":
        if "band_count" in derived:
            lines.append(f"flux {derived['flux']}: {derived['band_count']} band(s), "
                         f"total bandwidth {derived['total_bandwidth']:.6g}")
        else:
            lines.append(f"butterfly: {derived['flux_count']} fluxes, "
                         f"{derived['band_rows']} band rows")
    elif kind == "compare":
        peaks = ", ".join(f"{p:.3e}" for p in derived["peak_deviation"])
        lines.append(f"peak deviations: {peaks}")
        ratios = ", ".join("n/a" if r is None else f"{r:.3f}"
                           for r in derived["peak_ratios"])
        if ratios:
            lines.append(f"consecutive ratios: {ratios}")
    elif kind == "semiclassical":
        lines.append(f"energy drift = {derived['energy_drift']:.3e}")
    elif kind == "units":
        lines.append(f"R = {derived['R_cm']:.4g} cm, "
                     f"Lambda = {derived['Lambda_mod_mm']:.4g} mm, "
                     f"A = {derived['A_per_cm']:.4g} /cm, "
                     f"delta_n = {derived['delta_n']:.4g}")
    else:
        if "norm_drift" in derived:
            lines.append(f"norm drift = {derived['norm_drift']:.3e}, "
                         f"edge mass max = {derived['edge_mass_max']:.3e}")
        if derived.get("revival") is not None:
            lines.append(f"revival period = {derived['revival']:.6g}")
    return lines
