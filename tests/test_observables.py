"""Fringe profiles, visibility, revivals, center of mass, model deviation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.signal import find_peaks

from fluxlattice import (
    DriveSpec,
    EffectiveHoppings,
    FringeRecord,
    LatticeWindow,
    Trajectory,
    WaveField,
    Waveform,
    central_columns,
    com_path,
    evolve_effective,
    evolve_full,
    fringe_visibility,
    gauge_map,
    gauge_unmap,
    gaussian_input,
    hoppings_from_drive,
    model_deviation,
    revival_period,
    vertical_profile,
    with_visibility,
)
from fluxlattice.config import scenario_from_sections
from fluxlattice.observables import _first_peak
from fluxlattice.runner import _trajectory_products

PI = math.pi


def _trajectory_from_amps(window, times, amp_list):
    amps = np.array(amp_list, dtype=complex)
    norms = np.sum(np.abs(amps) ** 2, axis=(1, 2))
    return Trajectory(times=np.asarray(times, dtype=float), window=window,
                      amplitudes=amps, norms=norms, edge_mass_max=0.0,
                      truncation_warning=False)


# -- profiles and visibility -------------------------------------------------------

def test_vertical_profile_sums_to_norm(rng):
    w = LatticeWindow.centered(4)
    amps = [rng.normal(size=w.shape) + 1j * rng.normal(size=w.shape)
            for _ in range(3)]
    traj = _trajectory_from_amps(w, [0.0, 1.0, 2.0], amps)
    rec = vertical_profile(traj)
    assert rec.profiles.shape == (3, 9)
    np.testing.assert_allclose(rec.profiles.sum(axis=1), traj.norms, atol=1e-12)
    np.testing.assert_allclose(rec.n_values, np.arange(-4, 5))


def test_profile_and_com_match_per_sample_loops(rng):
    # the shared pass against the loops it replaced: the profile bit for bit
    # (profile.csv stays byte-identical), the center of mass to rounding
    w = LatticeWindow(-3, 4, -2, 6)
    amps = [rng.normal(size=w.shape) + 1j * rng.normal(size=w.shape)
            for _ in range(5)]
    traj = _trajectory_from_amps(w, np.arange(5.0), amps)
    profiles = np.array([np.sum(np.abs(f) ** 2, axis=1) for f in amps])
    np.testing.assert_array_equal(vertical_profile(traj).profiles, profiles)
    com = [(np.sum(np.abs(f) ** 2, axis=1) @ w.n_values / np.sum(np.abs(f) ** 2),
            np.sum(np.abs(f) ** 2, axis=0) @ w.m_values / np.sum(np.abs(f) ** 2))
           for f in amps]
    np.testing.assert_allclose(com_path(traj), com, rtol=0.0, atol=1e-13)


def test_central_columns_window():
    assert central_columns(8) == slice(2, 6)
    assert central_columns(61) == slice(15, 46)
    assert central_columns(3, fraction=0.99) == slice(0, 3)
    # degenerate requests still leave at least one column
    assert central_columns(2, fraction=0.5) == slice(0, 2)
    with pytest.raises(ValueError):
        central_columns(5, fraction=0.0)
    with pytest.raises(ValueError):
        central_columns(5, fraction=1.5)


def test_fringe_visibility_limits():
    cols = slice(0, 5)
    assert fringe_visibility(np.ones(5), cols) == pytest.approx(0.0)
    spike = np.zeros(5)
    spike[2] = 1.0
    assert fringe_visibility(spike, cols) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="zero profile"):
        fringe_visibility(np.zeros(5), cols)


@pytest.mark.parametrize("columns", [slice(3, 14), slice(2, 16), slice(0, 21),
                                     np.arange(4, 12)],
                         ids=["odd", "even", "all", "index-array"])
def test_with_visibility_is_fringe_visibility_per_profile(rng, columns):
    profiles = rng.uniform(0.0, 1.0, size=(40, 21))
    profiles[5, ::2] *= 0.1  # strong fringes in one row
    rec = with_visibility(FringeRecord(np.arange(40.0), profiles, np.arange(21)),
                          columns)
    expected = [fringe_visibility(p, columns) for p in profiles]
    np.testing.assert_allclose(rec.visibility, expected, rtol=0.0, atol=1e-15)


def test_with_visibility_rejects_a_zero_profile_row():
    profiles = np.ones((3, 9))
    profiles[1, 2:7] = 0.0  # zero inside the central window only
    rec = FringeRecord(np.arange(3.0), profiles, np.arange(9))
    with pytest.raises(ValueError, match="zero profile"):
        with_visibility(rec)
    # the runner then writes the profile without a visibility table
    w = LatticeWindow(0, 8, 0, 2)
    amps = np.ones((3,) + w.shape, dtype=complex)
    amps[1, 2:7] = 0.0
    traj = _trajectory_from_amps(w, [0.0, 1.0, 2.0], amps)
    s = scenario_from_sections({
        "scenario": {"kind": "full_evolve"},
        "drive": {"waveform": "sinusoidal", "omega": "8", "Gamma": "0.717",
                  "M": "1", "sigma": "pi", "rho": "pi"},
        "coupling": {"J_x": "1", "J_y": "1"},
        "lattice": {"n_half": "1"}, "input": {"width": "1"},
        "time": {"t_max": "1", "dt_sample": "0.5"}})
    derived, tables = _trajectory_products(s, traj)
    assert "profile" in tables and "visibility" not in tables
    assert "visibility_final" not in derived
    np.testing.assert_array_equal(tables["profile"][1][:, 1:],
                                  np.sum(np.abs(amps) ** 2, axis=2))


def test_visibility_series_and_revival_period():
    # modulated fringes: contrast oscillates with period 2.5
    n = np.arange(-10, 11)
    omega = 2 * PI / 2.5
    times = np.arange(0.0, 10.0 + 1e-9, 0.125)
    profiles = np.empty((times.size, n.size))
    for i, t in enumerate(times):
        depth = 0.5 * (1 + math.cos(omega * t))
        profiles[i] = 1.0 + depth * np.cos(PI * n)
    rec = FringeRecord(times, profiles, n, None)
    rec = with_visibility(rec)
    assert rec.visibility[0] == pytest.approx(1.0, abs=1e-12)
    idx = np.argmin(np.abs(times - 1.25))  # contrast minimum, on-grid
    assert rec.visibility[idx] == pytest.approx(0.0, abs=1e-9)
    assert revival_period(rec) == pytest.approx(2.5, abs=0.125 + 1e-12)


def test_revival_none_for_decaying_contrast():
    n = np.arange(-10, 11)
    times = np.arange(0.0, 10.0 + 1e-9, 0.1)
    profiles = np.empty((times.size, n.size))
    for i, t in enumerate(times):
        profiles[i] = 1.0 + math.exp(-t) * np.cos(PI * n)
    rec = with_visibility(FringeRecord(times, profiles, n, None))
    assert revival_period(rec) is None


def test_revival_period_input_validation():
    n = np.arange(-2, 3)
    prof = np.ones((4, 5))
    rec = FringeRecord(np.array([0.0, 1.0, 2.0, 3.0]), prof, n, None)
    with pytest.raises(ValueError, match="visibility"):
        revival_period(rec)
    vis = with_visibility(rec)
    bad = FringeRecord(np.array([0.0, 1.0, 2.5, 3.0]), prof, n, vis.visibility)
    with pytest.raises(ValueError, match="uniform time grid"):
        revival_period(bad)
    short = FringeRecord(np.array([0.0, 1.0]), prof[:2], n, vis.visibility[:2])
    with pytest.raises(ValueError, match="uniform time grid"):
        revival_period(short)


def test_revival_none_for_constant_visibility():
    n = np.arange(-2, 3)
    rec = with_visibility(FringeRecord(np.arange(5.0), np.ones((5, 5)), n, None))
    assert np.all(rec.visibility == rec.visibility[0])
    assert revival_period(rec) is None


def _raise_next_to_end(levels, left):
    x = np.array(levels, dtype=float)
    x[1 if left else -2] = x.max() + 1.0
    return x


_series = st.one_of(
    st.lists(st.floats(-1.0, 1.0), max_size=40).map(np.array),
    # few levels: plateaus and ties with neighbours
    st.lists(st.integers(0, 3), max_size=40).map(lambda v: np.array(v, float)),
    st.builds(_raise_next_to_end, st.lists(st.integers(0, 3), min_size=3,
                                           max_size=40), st.booleans()),
)


@given(x=_series, prominence=st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]))
def test_first_peak_matches_scipy_find_peaks(x, prominence):
    peaks, _ = find_peaks(x, prominence=prominence)
    assert _first_peak(x, prominence) == (int(peaks[0]) if peaks.size else None)


# -- center of mass ----------------------------------------------------------------

def test_com_path_tracks_displaced_spike():
    w = LatticeWindow.centered(3)
    a0 = np.zeros(w.shape)
    a0[3, 3] = 1.0  # site (0, 0)
    a1 = np.zeros(w.shape)
    a1[5, 2] = 2.0  # site (2, -1); normalization must not matter
    traj = _trajectory_from_amps(w, [0.0, 1.0], [a0, a1])
    np.testing.assert_allclose(com_path(traj), [[0.0, 0.0], [2.0, -1.0]],
                               atol=1e-12)


def test_com_path_rejects_zero_field():
    w = LatticeWindow.centered(1)
    traj = _trajectory_from_amps(w, [0.0], [np.zeros(w.shape)])
    with pytest.raises(ValueError, match="zero-norm"):
        com_path(traj)


def test_com_path_rejects_a_zero_norm_sample_among_others():
    w = LatticeWindow.centered(2)
    a = np.ones(w.shape)
    traj = _trajectory_from_amps(w, [0.0, 1.0, 2.0], [a, np.zeros(w.shape), a])
    with pytest.raises(ValueError, match="zero-norm"):
        com_path(traj)


# -- model deviation ----------------------------------------------------------------

def _static_drive():
    # A = 0, F = 0: the driven model coincides with the bare effective one
    return DriveSpec(beta0=0.0, F=0.0, omega=2 * PI, A=0.0, M=0, sigma=0.3,
                     rho=0.7, waveform=Waveform.sinusoidal())


def test_model_deviation_vanishes_without_drive():
    w = LatticeWindow.centered(4)
    d = _static_drive()
    h = EffectiveHoppings(0.8, 0.5, alpha=0.0, M=0, sigma=0.3, rho=0.7)
    psi0 = gaussian_input(w, 2.0)
    ts = np.arange(1, 4) * d.period
    full = evolve_full(psi0, d, 0.8, 0.5, ts)
    eff = evolve_effective(psi0, h, ts)
    dev = model_deviation(full, eff, d)
    assert dev.peak < 1e-6
    assert np.all(dev.infidelity < 1e-10)
    assert dev.times.shape == (3,)


def test_model_deviation_ignores_global_phase():
    w = LatticeWindow.centered(2)
    d = _static_drive()
    base = gaussian_input(w, 1.5)
    shifted = base.with_amplitudes(base.amplitudes * np.exp(0.7j))
    ts = [d.period]
    ta = _trajectory_from_amps(w, ts, [base.amplitudes])
    tb = _trajectory_from_amps(w, ts, [shifted.amplitudes])
    dev = model_deviation(ta, tb, d)
    assert dev.peak < 1e-12
    assert dev.infidelity[0] < 1e-12


@pytest.mark.parametrize("waveform", [Waveform.sinusoidal(), Waveform.delta_kicks()],
                         ids=["sinusoidal", "delta_kicks"])
def test_model_deviation_matches_the_per_sample_formula(waveform):
    # the stacked max_abs and the recorded norms against the per-sample
    # loop with gauge_unmap and norms of its own
    w = LatticeWindow.centered(4)
    d = DriveSpec.resonant(omega=20.0, Gamma=0.717, M=1, sigma=PI, rho=PI,
                           waveform=waveform)
    c0 = gaussian_input(w, 2.0, drive=d, imprint=True)
    ts = np.arange(1, 4) * d.period
    full = evolve_full(c0, d, 1.0, 1.0, ts)
    eff = evolve_effective(gauge_map(c0, 0.0, d, side="left"),
                           hoppings_from_drive(d, 1.0, 1.0), ts)
    dev = model_deviation(full, eff, d)
    for i, t in enumerate(ts):
        c, f = full.amplitudes[i], eff.amplitudes[i]
        assert dev.max_abs[i] == np.max(np.abs(np.abs(c) - np.abs(f)))
        mapped = gauge_unmap(WaveField(w, f), t, d).amplitudes
        infid = 1.0 - abs(np.vdot(mapped, c)) ** 2 / (np.sum(np.abs(c) ** 2)
                                                     * np.sum(np.abs(f) ** 2))
        assert abs(dev.infidelity[i] - infid) <= 1e-14


def test_model_deviation_rejects_a_zero_norm_sample():
    d = _static_drive()
    w = LatticeWindow.centered(2)
    ts = [d.period, 2 * d.period]
    ones = _trajectory_from_amps(w, ts, [np.ones(w.shape)] * 2)
    gone = _trajectory_from_amps(w, ts, [np.ones(w.shape), np.zeros(w.shape)])
    for a, b in ((ones, gone), (gone, ones)):
        with pytest.raises(ValueError, match="zero-norm"):
            model_deviation(a, b, d)


def test_model_deviation_input_validation():
    d = _static_drive()
    w = LatticeWindow.centered(2)
    other = LatticeWindow.centered(3)
    a = _trajectory_from_amps(w, [d.period], [np.ones(w.shape)])
    with pytest.raises(ValueError, match="different windows"):
        model_deviation(a, _trajectory_from_amps(other, [d.period],
                                                 [np.ones(other.shape)]), d)
    with pytest.raises(ValueError, match="mismatched sample times"):
        model_deviation(a, _trajectory_from_amps(w, [2 * d.period],
                                                 [np.ones(w.shape)]), d)
    off = _trajectory_from_amps(w, [0.5 * d.period], [np.ones(w.shape)])
    with pytest.raises(ValueError, match="integer multiples"):
        model_deviation(off, off, d)


def test_model_deviation_needs_kept_amplitudes():
    d = _static_drive()
    w = LatticeWindow.centered(2)
    h = EffectiveHoppings(0.8, 0.5, alpha=0.0, M=0, sigma=0.3, rho=0.7)
    psi0, ts = gaussian_input(w, 1.5), [d.period]
    kept = evolve_effective(psi0, h, ts)
    final = evolve_effective(psi0, h, ts, keep="final")
    for a, b in ((kept, final), (final, kept)):
        with pytest.raises(ValueError, match="kept no amplitudes"):
            model_deviation(a, b, d)
