"""Scenario execution: run a validated config, write CSV data + JSON metadata.

Each handler computes its results and returns them as derived values,
named tables {role: (header, table[, fmt])} and its stdout summary lines;
``run_scenario`` alone writes the tables and prints the summary.  Role
``r`` of a run labelled ``L`` goes to ``L_r.csv``: comma-separated, CRLF
line ends, one header line (the final-field matrices ``L_field_final_re``
and ``_im`` have none), floats as ``%.12g``, and integer and flag columns
(band index, ``touching_next``, units ``M``) as ``%d``: np.savetxt's bytes.
Tables are formatted and written in blocks of whole rows that hold at
least ``_CSV_BLOCK_CELLS`` cells, each block by one format call on one of
two paths that give the same bytes.  A float table that fills a block is
formatted as arrays of digits; the few cells whose rounding that
arithmetic cannot settle (0, inf, nan, extreme magnitudes and near-ties)
are formatted by ``'%.12g' % v``.  Every other table, including any with a
per-column format, is formatted by one % of its row format repeated per row.
Every run also writes ``L_meta.json``.  It embeds the fully resolved
config under "config", so the JSON file itself is a valid input to ``run``
and reproduces the outputs exactly; complex numbers appear in it as
[re, im].  ``RunResult.metadata`` is that file, parsed.
An output that already exists is rewritten in place and cut to the length
written, not truncated when it is opened: on ext4 (``auto_da_alloc``) the
close of a file truncated to zero allocates its new blocks and starts
writing them out, a cost that grows with the file, and runs are often
repeated into one directory.  A write that raises partway, in formatting
or in the write itself, leaves the new bytes up to the failure and none of
the old file after them.  A process killed mid-write makes no cut: the file
then holds the new bytes and, after them, the rest of the old file.  A
file new to its directory is created as before.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
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

# Fewest cells formatted per write, whatever the width, and the fewest a
# float table needs for the array path: its fixed cost per block, paid with
# cold caches after a run's solve, outweighs its saving per cell on tables
# of a few hundred cells.  The measurements are in CHANGES.md.
_CSV_BLOCK_CELLS = 4096
_E0 = 300  # row of decimal exponent 0 in the per-exponent tables (E = -300 ... 300)
_J = np.arange(4)[:, None]  # the four 3-digit groups of a 12-digit mantissa
_GROUP_SCALE = 1e3 ** (3 - _J)
# The word tables are native words read from bytes, so the bytes of an array
# of words are the text.  A separator follows the exponent's 5 bytes.
_COMMA, _CRLF = np.frombuffer(b"\0\0\0\0\0,\0\0" b"\0\0\0\0\0\r\n\0", np.uint64)


@functools.cache
def _cell_tables():
    """Powers of ten and the word tables that lay out a '%.12g' cell.

    A cell is 32 bytes, NUL where unused: an 8-byte lead (the sign, and "0."
    plus zeros for a fixed-point value below 1), four 4-byte groups of 3
    mantissa digits with the point where it falls, and an 8-byte word of
    "e±XX[X]" and the separator.  %g writes a value whose rounded exponent E
    has -4 <= E < 12 in fixed point, strips the zeros that trail the point,
    and drops the point when nothing follows it.  Built on first use, so
    runs that write only small tables never pay for them.
    """
    pow10 = np.array([float(f"1e{k}") for k in range(-_E0, _E0 + 6)])  # correctly rounded
    E = np.arange(-_E0, _E0 + 1)
    fixed = (E >= -4) & (E < 12)
    below_one = [b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"" for e in E.tolist()]
    # lead[2 * row + negative]; exponent[row]
    lead = np.frombuffer(b"".join(text.ljust(8, b"\0") for zeros in below_one
                                  for text in (zeros, b"-" + zeros)), np.uint64)
    exponent = np.frombuffer(b"".join((b"" if f else b"e%+03d" % e).ljust(8, b"\0")
                                      for e, f in zip(E.tolist(), fixed.tolist())), np.uint64)
    # group[(keep * 4 + point) * 1000 + g]: the digits of g through its last
    # nonzero one and at least its first `keep`, with "." before digit
    # point - 1 (point >= 1) when that digit is kept
    g = np.arange(1000)
    digits = np.stack([g // 100, g // 10 % 10, g % 10]) + ord("0")
    keep = np.arange(4)[:, None, None]
    point = np.arange(4)[None, :, None]
    kept = np.maximum(keep, np.count_nonzero([g, g % 100, g % 10], axis=0))
    at = np.where((point > 0) & (kept >= point), point - 1, 4)  # slot of the "."; 4: none
    group = np.zeros((4, 4, 1000, 4), np.uint8)
    for slot in range(4):
        src = slot - (slot > at)
        digit = np.where(slot > at, digits[slot - 1], digits[min(slot, 2)])
        group[..., slot] = np.where(slot == at, ord("."), np.where(src < kept, digit, 0))
    # group_at[(row * 4 + last) * 4 + j]: where group j's word starts in
    # `group`, given the mantissa's last nonzero group.  The point follows
    # digit E in fixed point at E >= 0 and digit 0 in exponent form; below 1
    # it is in the lead.
    pos = np.where(fixed, E, 0)[:, None, None]
    in_digits = ~(fixed & (E < 0))[:, None, None]
    j = np.arange(4)
    keep = np.where(j < np.arange(4)[:, None], 3,
                    np.where(in_digits, np.clip(pos + 1 - 3 * j, 0, 3), 0))
    p = pos + 2 - 3 * j
    point = np.where(in_digits & (p >= 1) & (p <= 3), p, 0)
    group_at = ((keep * 4 + point) * 1000).ravel()
    return pow10, lead, exponent, group.view(np.uint32).ravel(), group_at


def _float_cells(block) -> bytes:
    """The '%.12g' CSV lines of a 2-D float64 block, formatted as arrays.

    A cell's exponent E is floor(log10|v|) and its 12-digit mantissa D is
    rint(|v| * 10**(11 - E)): the scaled value is within 3e-4 of exact, so
    D is the correctly rounded mantissa unless the scaled value lies within
    1e-3 of a tie.  A D that rounds up to 1e12 carries to 1e11 at E + 1.
    The cells this cannot decide are formatted by '%.12g' itself: 0, inf,
    nan and |v| outside [1e-290, 1e290], a scaled value outside [1e11, 1e12)
    (log10 off by one), and one near a tie.  So every byte equals the row
    path's.  The grid of words is packed by dropping its NUL bytes.
    """
    pow10, lead, exponent, group, group_at = _cell_tables()
    rows, cols = block.shape
    v = block.ravel()
    a = np.abs(v)
    ok = (a >= 1e-290) & (a <= 1e290)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    scaled = a * pow10[_E0 + 11 - e]
    d = np.rint(scaled)
    fallback = ~ok | (scaled < 1e11) | (scaled >= 1e12) | (np.abs(scaled - d) > 0.499)
    carry = d >= 1e12
    d[carry | fallback] = 1e11
    e += carry + _E0
    g = (d / _GROUP_SCALE).astype(np.intp)  # d // 1e9, d // 1e6, d // 1e3, d
    g[1:] -= 1000 * g[:-1]
    last = np.max((g != 0) * _J, axis=0)
    words = np.empty((v.size, 8), np.uint32)
    w64 = words.view(np.uint64)
    w64[:, 0] = lead[2 * e + (v < 0)]
    words[:, 2:6] = group[group_at[(e * 4 + last) * 4 + _J] + g].T
    sep = np.full(cols, _COMMA)
    sep[-1] = _CRLF
    np.bitwise_or(exponent[e].reshape(rows, cols), sep, out=w64.reshape(rows, cols, 4)[..., 3])
    redo = np.flatnonzero(fallback)
    if redo.size:  # a byte 1 marks each such cell's place among the packed bytes
        w64[redo, :3] = 0
        w64[redo, 0] = 1
        w64[redo, 3] = sep[redo % cols]
    packed = words.tobytes().translate(None, b"\0")
    if not redo.size:
        return packed
    parts = packed.split(b"\1")
    cells = [b""] * (2 * len(parts) - 1)
    cells[::2] = parts
    cells[1::2] = [b"%.12g" % x for x in v[redo].tolist()]
    return b"".join(cells)


def _write_over(path: Path, chunks) -> None:
    """Write the byte chunks to path in place, then cut the file where they end.

    The file is opened without O_TRUNC (see the module docstring) and
    written unbuffered, so ``end`` counts the bytes the system took.  The
    cut is made there even if a chunk or a write raises, so the file then
    holds the bytes written up to the failure and no old tail.  A new file
    is created, mode 0o666 less the umask, as Path.open("wb") creates it.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    end = 0
    try:
        for chunk in chunks:
            view = memoryview(chunk)
            while view:
                n = os.write(fd, view)
                end += n
                view = view[n:]
    finally:
        try:
            os.ftruncate(fd, end)
        finally:
            os.close(fd)


def _write_csv(path: Path, header, table, fmt="%.12g") -> None:
    """np.savetxt's bytes for these arguments, formatted and written by blocks.

    A block is the fewest whole rows that hold _CSV_BLOCK_CELLS cells.  A
    float64 table in the default '%.12g' that fills one block is formatted
    as arrays (``_float_cells``); every other table by one % of its row
    format repeated per row.  A table without rows writes its header alone.
    """
    table = np.asarray(table)
    rows = -(-_CSV_BLOCK_CELLS // max(1, table.shape[-1]))
    if fmt == "%.12g" and table.dtype == np.float64 and table.size >= _CSV_BLOCK_CELLS:
        block_bytes = _float_cells
    else:
        line = ",".join([fmt] * table.shape[-1] if isinstance(fmt, str) else fmt) + "\r\n"

        def block_bytes(block):
            return ((line * len(block)) % tuple(block.ravel().tolist())).encode()

    def chunks():
        if header:
            yield (",".join(header) + "\r\n").encode()
        for i in range(0, len(table), rows):
            yield block_bytes(table[i:i + rows])
    _write_over(path, chunks())


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
# each returns (derived: dict, tables: {role: (header, table[, fmt])},
# summary: [line]); an evolution's derived["truncation"] is its
# window-truncation flag

def _run_hoppings(s: Scenario):
    methods = [s.method]
    if s.method == "auto":
        # surface both routes so their agreement is visible in the output
        methods = ["quadrature", "closed"]
    rows, derived, summary = [], {}, []
    routes = {}
    for method in methods:
        h = routes[method] = hoppings_from_drive(s.drive, s.J_x, s.J_y, method)
        rows.append([method, h.kappa_x.real, h.kappa_x.imag,
                     h.kappa_y.real, h.kappa_y.imag,
                     abs(h.kappa_x), abs(h.kappa_y), h.alpha, h.flux_angle])
        derived[method] = {"kappa_x": h.kappa_x, "kappa_y": h.kappa_y,
                           "kappa_x_abs": abs(h.kappa_x),
                           "kappa_y_abs": abs(h.kappa_y)}
        summary.append(f"{method}: |kappa_x| = {abs(h.kappa_x):.6g}, "
                       f"|kappa_y| = {abs(h.kappa_y):.6g}")
    any_h = next(iter(routes.values()))
    derived["alpha"] = any_h.alpha
    derived["flux_angle"] = any_h.flux_angle
    summary.append(f"alpha = {any_h.alpha:.6g}")
    if len(routes) == 2:
        a, b = routes["quadrature"], routes["closed"]
        derived["route_max_diff"] = max(abs(a.kappa_x - b.kappa_x),
                                        abs(a.kappa_y - b.kappa_y))
        summary.append(f"route max diff = {derived['route_max_diff']:.3e}")
    header = ["method", "kappa_x_re", "kappa_x_im", "kappa_y_re", "kappa_y_im",
              "kappa_x_abs", "kappa_y_abs", "alpha", "flux_angle"]
    table = np.array(rows, dtype=object)
    return derived, {"hoppings": (header, table, ["%s"] + ["%.12g"] * 8)}, summary


def _run_spectrum(s: Scenario):
    h = s.hoppings[0]
    if len(s.fluxes) > 1:  # farey:N, which lists at least 0/1 and 1/1
        ratio = abs(h.kappa_y) / abs(h.kappa_x)
        data = butterfly(ratio, s.fluxes, s.k_grid)
        derived = {"flux_count": len(s.fluxes), "band_rows": data.shape[0],
                   "ratio": ratio, "k_grid": s.k_grid}
        return (derived, {"butterfly": (["alpha", "E_min", "E_max"], data)},
                [f"butterfly: {len(s.fluxes)} fluxes, {data.shape[0]} band rows"])
    flux, = s.fluxes
    bands = harper_bands(h, flux, s.k_grid)
    rows = [[i, lo, hi, bands.touching[i] if i < len(bands.touching) else False]
            for i, (lo, hi) in enumerate(bands.intervals)]
    derived = {"flux": f"{flux.p}/{flux.q}", "alpha": flux.alpha,
               "band_count": len(bands.intervals),
               "total_bandwidth": bands.total_bandwidth,
               "touching": bands.touching,
               "kappa_x": h.kappa_x, "kappa_y": h.kappa_y, "k_grid": s.k_grid}
    return (derived, {"bands": (["band", "E_min", "E_max", "touching_next"],
                                rows, ["%d", "%.12g", "%.12g", "%d"])},
            [f"flux {flux.p}/{flux.q}: {len(bands.intervals)} band(s), "
             f"total bandwidth {bands.total_bandwidth:.6g}"])


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
    derived["norm_drift"] = traj.norm_drift
    derived["edge_mass_max"] = traj.edge_mass_max
    derived["truncation"] = traj.truncation_warning
    derived["samples"] = traj.times.size
    return derived, tables


def _audit_lines(derived: dict) -> list[str]:
    """Summary of an evolution run: its audit, and the revival if one was found."""
    lines = [f"norm drift = {derived['norm_drift']:.3e}, "
             f"edge mass max = {derived['edge_mass_max']:.3e}"]
    if derived.get("revival") is not None:
        lines.append(f"revival period = {derived['revival']:.6g}")
    return lines


def _run_full(s: Scenario):
    times, c0 = _start(s)[:2]  # f0 is not read, so it is not held
    keep = "sums" if s.out_profile or s.out_com else "final"
    traj = evolve_full(c0, s.drive, s.J_x, s.J_y, times, s.integrator, s.t_start,
                       keep=keep)
    derived, tables = _trajectory_products(s, traj)
    return derived, tables, _audit_lines(derived)


def _run_effective(s: Scenario):
    h = s.hoppings[0]
    times, f0 = _start(s)[::2]  # c0 is not read, so it is not held
    traj = evolve_effective(f0, h, times, s.integrator, s.t_start, keep="sums")
    derived, tables = _trajectory_products(s, traj)
    derived.update(kappa_x=h.kappa_x, kappa_y=h.kappa_y, alpha=h.alpha)
    table = np.column_stack([traj.times, _kinematics(traj._sums, traj.window, h)])
    tables["kinematics"] = (["t", "n_mean", "m_mean", "Pn", "Pm",
                             "sin_Pn", "sin_Pm", "v_n", "v_m"], table)
    return derived, tables, _audit_lines(derived)


def _run_semiclassical(s: Scenario):
    h = s.hoppings[0]
    # same prepared state as an effective run, reduced to its expectations
    times, f0 = _start(s)[::2]
    initial = expectation_kinematics(f0, h).state
    states = semiclassical_evolve(initial, h, h.flux_angle, times)
    table = np.array([[t, st.n_mean, st.m_mean, st.Pn_mean, st.Pm_mean]
                      for t, st in zip(times, states)])
    _, n, m, pn, pm = table.T
    energy = (-2.0 * abs(h.kappa_x) * np.cos(pn + np.angle(h.kappa_x))
              - 2.0 * abs(h.kappa_y) * np.cos(pm + np.angle(h.kappa_y)))
    inv1 = pn + h.flux_angle * m
    inv2 = pm - h.flux_angle * n
    derived = {
        "kappa_x": h.kappa_x, "kappa_y": h.kappa_y, "alpha": h.alpha,
        "initial": dataclasses.asdict(initial),
        "final": dataclasses.asdict(states[-1]),
        "energy_drift": np.max(np.abs(energy - energy[0])),
        "invariant_drift": [np.max(np.abs(inv1 - inv1[0])),
                            np.max(np.abs(inv2 - inv2[0]))],
        "samples": times.size,
    }
    return (derived, {"semiclassical": (["t", "n_mean", "m_mean", "Pn", "Pm"], table)},
            [f"energy drift = {derived['energy_drift']:.3e}"])


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
    summary = ["peak deviations: " + ", ".join(f"{p:.3e}" for p in peaks)]
    if ratios:
        summary.append("consecutive ratios: " + ", ".join(
            "n/a" if r is None else f"{r:.3f}" for r in ratios))
    return derived, {"deviation": (["omega", "t", "max_abs", "infidelity"], rows)}, summary


def _run_units(s: Scenario):
    record = dataclasses.asdict(s.units)
    fmt = ["%d" if isinstance(v, int) else "%.12g" for v in record.values()]
    summary = [f"R = {record['R_cm']:.4g} cm, Lambda = {record['Lambda_mod_mm']:.4g} mm, "
               f"A = {record['A_per_cm']:.4g} /cm, delta_n = {record['delta_n']:.4g}"]
    return record, {"units": (list(record), [list(record.values())], fmt)}, summary


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
        derived, tables, summary = _HANDLERS[scenario.kind](scenario)
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
    _write_over(meta_path, [(text + "\n").encode("utf-8")])
    files = tuple(out / name for name in names.values()) + (meta_path,)
    if not quiet:
        print(f"{scenario.label}: {scenario.kind} -> "
              f"{len(files)} file(s) in {out}")
        for line in summary:
            print(f"  {line}")
        for warning in warning_texts:
            print(f"  warning: {warning}")
        if exit_code == 4:
            print("  strict: truncation warning treated as fatal")
    return RunResult(scenario=scenario, exit_code=exit_code,
                     metadata=json.loads(text), files=files)
