"""Scenario execution: run a validated config, write CSV data + JSON metadata.

Every run produces <label>_*.csv data files plus <label>_meta.json.  The
metadata embeds the fully resolved config under "config", so the JSON file
itself is a valid input to ``run`` and reproduces the outputs exactly.
Numbers are written with 12 significant digits.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import Scenario, ValidationError, load_config
from .core import WaveField
from .dynamics import Trajectory, evolve_full, gaussian_input
from .effective import (
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
from .physical import physical_units
from .spectrum import RationalFlux, butterfly, farey_fluxes, harper_bands

__all__ = ["RunResult", "run_scenario"]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one scenario run."""

    scenario: Scenario
    exit_code: int
    metadata: dict
    files: tuple[Path, ...]


# -- formatting helpers -------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _write_csv(path: Path, header, rows) -> Path:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    return path


def _cplx(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return _cplx(obj)
    return obj


def _hoppings(scenario: Scenario, drive, method: str | None = None):
    """Effective hoppings by ``method`` (the scenario's by default)."""
    try:
        return hoppings_from_drive(drive, scenario.J_x, scenario.J_y,
                                   method=method or scenario.method)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _start(s: Scenario, drive):
    """Sample times and the input at t_start, in the driven and effective frames.

    Samples lie on [0, t_max], every dt_sample or every drive period.  Full,
    effective, semiclassical and compare runs all start from this one
    prepared state, so both frames describe the same state at t_start.  The
    delta-kick train's pre-kick branch is used: a kick at t_start is still
    to act, and the integrators apply it.
    """
    step = drive.period if s.stroboscopic else s.dt_sample
    times = np.arange(int(math.floor(s.t_max / step + 1e-9)) + 1) * step
    c0 = gaussian_input(s.window, s.width, s.tilt, drive=drive,
                        imprint=s.imprint, t_start=s.t_start)
    f0 = gauge_map(c0, s.t_start, drive, side="left")
    return times, c0, f0


# -- per-kind handlers --------------------------------------------------------
# each returns (derived: dict, truncation: bool, files: list[Path])

def _run_hoppings(s: Scenario, out: Path):
    drive = s.drive
    methods = [s.method]
    if s.method == "auto":
        # surface both routes so their agreement is visible in the output
        methods = ["quadrature", "closed"]
    rows, derived = [], {}
    routes = {}
    for method in methods:
        h = routes[method] = _hoppings(s, drive, method)
        rows.append([method, h.kappa_x.real, h.kappa_x.imag,
                     h.kappa_y.real, h.kappa_y.imag,
                     abs(h.kappa_x), abs(h.kappa_y), h.alpha, h.flux_angle])
        derived[method] = {"kappa_x": _cplx(h.kappa_x),
                           "kappa_y": _cplx(h.kappa_y),
                           "kappa_x_abs": abs(h.kappa_x),
                           "kappa_y_abs": abs(h.kappa_y)}
    any_h = next(iter(routes.values()))
    derived["alpha"] = any_h.alpha
    derived["flux_angle"] = any_h.flux_angle
    if len(routes) == 2:
        a, b = routes["quadrature"], routes["closed"]
        derived["route_max_diff"] = max(abs(a.kappa_x - b.kappa_x),
                                        abs(a.kappa_y - b.kappa_y))
    path = _write_csv(out / f"{s.label}_hoppings.csv",
                      ["method", "kappa_x_re", "kappa_x_im", "kappa_y_re",
                       "kappa_y_im", "kappa_x_abs", "kappa_y_abs",
                       "alpha", "flux_angle"],
                      rows)
    return derived, False, [("hoppings", path)]


def _run_spectrum(s: Scenario, out: Path):
    h = _hoppings(s, s.drive)
    if s.flux_spec.startswith("farey:"):
        order = int(s.flux_spec.split(":", 1)[1])
        if abs(h.kappa_x) == 0.0:
            raise ValidationError("butterfly energies are in units of kappa_x; "
                                  "it must be nonzero")
        fluxes = farey_fluxes(order)
        data = butterfly(abs(h.kappa_y) / abs(h.kappa_x), fluxes, s.k_grid)
        path = _write_csv(out / f"{s.label}_butterfly.csv",
                          ["alpha", "E_min", "E_max"], data)
        derived = {"flux_count": len(fluxes), "band_rows": int(data.shape[0]),
                   "ratio": abs(h.kappa_y) / abs(h.kappa_x),
                   "k_grid": s.k_grid}
        return derived, False, [("butterfly", path)]
    try:
        if s.flux_spec == "auto":
            flux = RationalFlux.from_float(h.alpha)
        else:
            p, q = s.flux_spec.split("/")
            flux = RationalFlux(int(p), int(q))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    bands = harper_bands(h, flux, s.k_grid)
    rows = [[i, lo, hi, bands.touching[i] if i < len(bands.touching) else False]
            for i, (lo, hi) in enumerate(bands.intervals)]
    path = _write_csv(out / f"{s.label}_bands.csv",
                      ["band", "E_min", "E_max", "touching_next"], rows)
    derived = {"flux": f"{flux.p}/{flux.q}", "alpha": flux.alpha,
               "band_count": len(bands.intervals),
               "total_bandwidth": bands.total_bandwidth,
               "touching": [bool(t) for t in bands.touching],
               "kappa_x": _cplx(h.kappa_x), "kappa_y": _cplx(h.kappa_y),
               "k_grid": s.k_grid}
    return derived, False, [("bands", path)]


def _trajectory_products(s: Scenario, traj: Trajectory, out: Path,
                         derived: dict, files: list):
    """Profile/visibility/COM/final-field outputs shared by evolution runs."""
    if s.out_profile:
        record = vertical_profile(traj)
        files.append(("profile", _write_csv(
            out / f"{s.label}_profile.csv",
            ["t"] + [f"n={v}" for v in record.n_values],
            np.column_stack([record.times, record.profiles]))))
        try:
            record = with_visibility(record)
        except ValueError:
            record = None
        if record is not None:
            files.append(("visibility", _write_csv(
                out / f"{s.label}_visibility.csv", ["t", "visibility"],
                np.column_stack([record.times, record.visibility]))))
            derived["visibility_final"] = float(record.visibility[-1])
            revival = None
            if record.times.size >= 3:
                try:
                    revival = revival_period(record)
                except ValueError:
                    revival = None
            derived["revival"] = revival
    if s.out_com:
        path = com_path(traj)
        files.append(("com", _write_csv(
            out / f"{s.label}_com.csv", ["t", "n_mean", "m_mean"],
            np.column_stack([traj.times, path]))))
        derived["com_final"] = [float(path[-1, 0]), float(path[-1, 1])]
    if s.out_fields:
        final = traj.amplitudes[-1]
        for part, data in (("re", final.real), ("im", final.imag)):
            # matrix layout: one row per m (ascending), one column per n
            files.append((f"field_final_{part}", _write_csv(
                out / f"{s.label}_field_final_{part}.csv", None, data.T)))
    derived["norm_initial"] = float(traj.norms[0])
    derived["norm_final"] = float(traj.norms[-1])
    derived["norm_drift"] = float(np.max(np.abs(traj.norms - traj.norms[0])))
    derived["edge_mass_max"] = float(traj.edge_mass_max)
    derived["truncation"] = bool(traj.truncation_warning)
    derived["samples"] = int(traj.times.size)


def _run_full(s: Scenario, out: Path):
    drive = s.drive
    times, c0, _ = _start(s, drive)
    traj = evolve_full(c0, drive, s.J_x, s.J_y, times, s.integrator, s.t_start)
    derived: dict = {}
    files: list = []
    _trajectory_products(s, traj, out, derived, files)
    return derived, bool(traj.truncation_warning), files


def _run_effective(s: Scenario, out: Path):
    drive = s.drive
    h = _hoppings(s, drive)
    times, _, f0 = _start(s, drive)
    traj = evolve_effective(f0, h, times, s.integrator, s.t_start)
    derived: dict = {"kappa_x": _cplx(h.kappa_x), "kappa_y": _cplx(h.kappa_y),
                     "alpha": h.alpha}
    files: list = []
    _trajectory_products(s, traj, out, derived, files)
    rows = []
    for t, amps in zip(traj.times, traj.amplitudes):
        k = expectation_kinematics(WaveField(traj.window, amps), h)
        rows.append([t, k.state.n_mean, k.state.m_mean,
                     k.state.Pn_mean, k.state.Pm_mean,
                     k.sin_Pn, k.sin_Pm, k.v_n, k.v_m])
    files.append(("kinematics", _write_csv(
        out / f"{s.label}_kinematics.csv",
        ["t", "n_mean", "m_mean", "Pn", "Pm", "sin_Pn", "sin_Pm", "v_n", "v_m"],
        rows)))
    return derived, bool(traj.truncation_warning), files


def _run_semiclassical(s: Scenario, out: Path):
    drive = s.drive
    h = _hoppings(s, drive)
    # same prepared state as an effective run, reduced to its expectations
    times, _, f0 = _start(s, drive)
    initial = expectation_kinematics(f0, h).state
    states = semiclassical_evolve(initial, h, h.flux_angle, times)
    rows = [[t, st.n_mean, st.m_mean, st.Pn_mean, st.Pm_mean]
            for t, st in zip(times, states)]
    path = _write_csv(out / f"{s.label}_semiclassical.csv",
                      ["t", "n_mean", "m_mean", "Pn", "Pm"], rows)
    ax = math.atan2(h.kappa_x.imag, h.kappa_x.real)
    ay = math.atan2(h.kappa_y.imag, h.kappa_y.real)
    energy = np.array([-2.0 * abs(h.kappa_x) * math.cos(st.Pn_mean + ax)
                       - 2.0 * abs(h.kappa_y) * math.cos(st.Pm_mean + ay)
                       for st in states])
    inv1 = np.array([st.Pn_mean + h.flux_angle * st.m_mean for st in states])
    inv2 = np.array([st.Pm_mean - h.flux_angle * st.n_mean for st in states])
    derived = {
        "kappa_x": _cplx(h.kappa_x), "kappa_y": _cplx(h.kappa_y),
        "alpha": h.alpha,
        "initial": dataclasses.asdict(initial),
        "final": dataclasses.asdict(states[-1]),
        "energy_drift": float(np.max(np.abs(energy - energy[0]))),
        "invariant_drift": [float(np.max(np.abs(inv1 - inv1[0]))),
                            float(np.max(np.abs(inv2 - inv2[0])))],
        "samples": int(times.size),
    }
    return derived, False, [("semiclassical", path)]


def _run_compare(s: Scenario, out: Path):
    rows, peaks, finals = [], [], []
    truncation = False
    for omega in s.omegas:
        drive = s.drive_for(omega)
        times, c0, f0 = _start(s, drive)
        full = evolve_full(c0, drive, s.J_x, s.J_y, times, s.integrator,
                           s.t_start)
        h = _hoppings(s, drive)
        eff = evolve_effective(f0, h, times, s.integrator, s.t_start)
        dev = model_deviation(full, eff, drive)
        truncation = truncation or full.truncation_warning or eff.truncation_warning
        rows.extend([omega, t, ma, inf] for t, ma, inf in
                    zip(dev.times, dev.max_abs, dev.infidelity))
        peaks.append(dev.peak)
        finals.append(float(dev.max_abs[-1]))
    path = _write_csv(out / f"{s.label}_deviation.csv",
                      ["omega", "t", "max_abs", "infidelity"], rows)
    ratios = [peaks[i + 1] / peaks[i] if peaks[i] > 0.0 else None
              for i in range(len(peaks) - 1)]
    derived = {"omegas": list(s.omegas), "peak_deviation": peaks,
               "final_deviation": finals, "peak_ratios": ratios,
               "truncation": truncation}
    return derived, truncation, [("deviation", path)]


def _run_units(s: Scenario, out: Path):
    try:
        params = physical_units(**s.units_params)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    record = dataclasses.asdict(params)
    path = _write_csv(out / f"{s.label}_units.csv",
                      list(record), [list(record.values())])
    return dict(record), False, [("units", path)]


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
        derived, truncation, named_files = _HANDLERS[scenario.kind](scenario, out)
    warning_texts = [str(w.message) for w in caught]
    exit_code = 4 if (strict and truncation) else 0
    metadata = {
        "version": __version__,
        "kind": scenario.kind,
        "label": scenario.label,
        "config": scenario.resolved_config(),
        "derived": _jsonable(derived),
        "warnings": warning_texts,
        "outputs": {role: path.name for role, path in named_files},
        "exit_code": exit_code,
    }
    meta_path = out / f"{scenario.label}_meta.json"
    meta_path.write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    files = tuple(path for _, path in named_files) + (meta_path,)
    if not quiet:
        print(f"{scenario.label}: {scenario.kind} -> "
              f"{len(files)} file(s) in {out}")
        for line in _summary_lines(scenario.kind, derived):
            print(f"  {line}")
        for text in warning_texts:
            print(f"  warning: {text}")
        if exit_code == 4:
            print("  strict: truncation warning treated as fatal")
    return RunResult(scenario=scenario, exit_code=exit_code,
                     metadata=metadata, files=files)


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
