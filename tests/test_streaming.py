"""Streamed runs: each sample reduced once as it is made, no (T, Nn, Nm) stack.

The stored-stack route (evolve_* keeping amplitudes, then _sample_sums or
model_deviation on the stacks) is the reference; the streamed reductions
must equal it bit for bit, and a runner run's memory must not grow with T.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fluxlattice import (
    DriveSpec,
    LatticeWindow,
    Waveform,
    evolve_effective,
    evolve_full,
    gauge_map,
    gaussian_input,
    hoppings_from_drive,
    model_deviation,
    run_scenario,
)
from fluxlattice.config import _sections_from_ini, scenario_from_sections
from fluxlattice.core import _GaugePhase
from fluxlattice.dynamics import _full_run, _sample_sums
from fluxlattice.effective import _BLOCK_SPAN, _effective_run

PI = math.pi
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _drive(waveform, omega=8.0):
    return DriveSpec.resonant(omega=omega, Gamma=0.9, M=1, sigma=PI, rho=PI,
                              waveform=waveform)


def _audit_of_stack(traj):
    """Norms and edge-ring mass of the kept samples, in the stored-stack arithmetic."""
    flat = traj.amplitudes.reshape(traj.times.size, -1)
    ring = np.ones(traj.window.shape, dtype=bool)
    ring[1:-1, 1:-1] = False
    edge = np.flatnonzero(ring)
    norms = np.array([np.vdot(v, v).real for v in flat])
    edge_mass = max((float(np.sum(np.abs(v[edge]) ** 2)) / norm
                     for v, norm in zip(flat, norms) if norm > 0.0), default=0.0)
    return norms, edge_mass


def _assert_stream_matches_stack(streamed, stored):
    norms, edge_mass = _audit_of_stack(stored)
    for traj in (streamed, stored):
        assert np.array_equal(traj.norms, norms)
        assert traj.edge_mass_max == edge_mass
        assert traj.truncation_warning == stored.truncation_warning
    assert streamed.amplitudes is None
    assert np.array_equal(streamed.final, stored.amplitudes[-1])
    reference = _sample_sums(stored.amplitudes)
    for name, a, b in zip(reference._fields, streamed._sums, reference):
        assert np.array_equal(a, b), name


def _packet(window, drive, t_start=0.0):
    return gaussian_input(window, 2.0, tilt=0.4, drive=drive, imprint=True,
                          t_start=t_start)


@pytest.mark.parametrize("waveform", [Waveform.sinusoidal(), Waveform.delta_kicks()],
                         ids=["smooth", "kicks"])
def test_streamed_full_run_equals_the_stored_stack(waveform):
    window = LatticeWindow(-4, 4, -3, 3)
    drive = _drive(waveform)
    c0 = _packet(window, drive, t_start=0.05)
    times = np.linspace(0.1, 1.3, 7)
    stored = evolve_full(c0, drive, 1.0, 0.8, times, t_start=0.05)
    streamed = evolve_full(c0, drive, 1.0, 0.8, times, t_start=0.05, keep="sums")
    _assert_stream_matches_stack(streamed, stored)
    bare = evolve_full(c0, drive, 1.0, 0.8, times, t_start=0.05, keep="final")
    assert np.array_equal(bare.norms, stored.norms)
    assert np.array_equal(bare.final, stored.final)
    with pytest.raises(ValueError, match="kept neither"):
        bare._sums


def test_streamed_effective_run_spans_blocks_and_equals_the_stored_stack():
    window = LatticeWindow.centered(6)
    drive = _drive(Waveform.sinusoidal(), omega=20.0)
    h = hoppings_from_drive(drive, 1.0, 1.0)
    f0 = gauge_map(_packet(window, drive), 0.0, drive, side="left")
    times = np.linspace(0.0, 12.0, 121)
    R = 2.0 * (abs(h.kappa_x) + abs(h.kappa_y))
    assert R * times[-1] > 3 * _BLOCK_SPAN  # several Chebyshev blocks
    stored = evolve_effective(f0, h, times)
    streamed = evolve_effective(f0, h, times, keep="sums")
    _assert_stream_matches_stack(streamed, stored)
    with pytest.raises(ValueError, match="keep must be one of"):
        evolve_effective(f0, h, times, keep="stack")


def test_lockstep_compare_equals_the_stored_stacks():
    window = LatticeWindow.centered(5)
    for waveform in (Waveform.sinusoidal(), Waveform.delta_kicks()):
        drive = _drive(waveform, omega=20.0)
        h = hoppings_from_drive(drive, 1.0, 1.0)
        c0 = _packet(window, drive)
        f0 = gauge_map(c0, 0.0, drive, side="left")
        times = np.arange(9) * drive.period
        full = evolve_full(c0, drive, 1.0, 1.0, times)
        eff = evolve_effective(f0, h, times)
        runs = (_full_run(c0, drive, 1.0, 1.0, times, None, 0.0, "final"),
                _effective_run(f0, h, times, None, 0.0, "final"))
        streamed = model_deviation(*runs, drive)
        for run, stored in zip(runs, (full, eff)):
            audit = run.trajectory()
            assert np.array_equal(audit.norms, stored.norms)
            assert audit.edge_mass_max == stored.edge_mass_max
            assert np.array_equal(audit.final, stored.final)
        # the stored-stack arithmetic, whole stacks at once
        c, f = (tr.amplitudes.reshape(times.size, -1) for tr in (full, eff))
        max_abs = np.max(np.abs(np.abs(c) - np.abs(f)), axis=1)
        theta = _GaugePhase(drive, window)
        overlap = np.array([np.vdot(fi * theta.unit(t).conj(), ci)
                            for t, ci, fi in zip(times, c, f)])
        infid = 1.0 - np.abs(overlap) ** 2 / (full.norms * eff.norms)
        for dev in (streamed, model_deviation(full, eff, drive)):
            assert np.array_equal(dev.max_abs, max_abs)
            assert np.array_equal(dev.infidelity, infid)
        assert streamed.peak > 0.0


# -- memory ----------------------------------------------------------------------

def _peak_bytes(scenario, out_dir) -> int:
    """tracemalloc peak of one run_scenario call (numpy buffers included)."""
    tracemalloc.start()
    try:
        run_scenario(scenario, out_dir, quiet=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _extra_peak(make, t_short, t_long, out_dir):
    """Extra peak of the longer run, and the extra stack bytes it would have kept.

    The longer run goes first, so whatever a first call sets up counts
    against it.
    """
    short, long = make(t_short), make(t_long)
    extra = _peak_bytes(long, out_dir) - _peak_bytes(short, out_dir)
    stacks = 2 if short.kind == "compare" else 1
    sites = short.window.shape[0] * short.window.shape[1]
    stack = stacks * (max(long.samples) - max(short.samples)) * sites * 16
    return extra, stack


def test_streamed_effective_run_memory_does_not_grow_with_samples(tmp_path):
    def make(t_max):
        return scenario_from_sections({
            "scenario": {"kind": "effective_evolve", "label": "eff"},
            "drive": {"waveform": "sinusoidal", "omega": "20", "Gamma": "0.9",
                      "M": "1", "sigma": "pi", "rho": "pi"},
            "coupling": {"J_x": "1", "J_y": "1"},
            "lattice": {"n_half": "20", "m_half": "20"},
            "input": {"width": "4", "tilt": "1.5", "imprint": "true"},
            "time": {"t_max": t_max, "dt_sample": "0.02"},
            "output": {"fields": "true", "profile": "true", "com": "true"},
        })
    extra, stack = _extra_peak(make, "10", "40", tmp_path)
    assert stack > 20e6
    assert extra < 0.25 * stack, (extra, stack)


def test_streamed_compare_memory_does_not_grow_with_samples(tmp_path):
    sections = _sections_from_ini((CONFIGS / "compare.ini").read_text(encoding="utf-8"))

    def make(t_max):
        sections["time"]["t_max"] = t_max
        return scenario_from_sections(sections)
    extra, stack = _extra_peak(make, "5", "20", tmp_path)
    assert extra < 0.25 * stack, (extra, stack)
