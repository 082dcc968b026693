"""Measured quantities: fringe profiles, visibility, revivals, COM paths,
and the deviation between exact and effective evolutions.

The vertically integrated intensity I_n(t) = sum_m |c[n,m](t)|^2 is the
quantity imaged in the waveguide-array setting; at rational flux its fringe
contrast revives at the cyclotron period, and at alpha = 3/(2 pi) it revives
near that period with contrast cut to about 0.4.  COM paths trace the
cyclotron orbits, and model_deviation quantifies how well the period-averaged
model tracks the exact driven one at stroboscopic times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import DriveSpec, TWO_PI, _GaugePhase
from .dynamics import Trajectory, _Run

__all__ = [
    "FringeRecord",
    "vertical_profile",
    "central_columns",
    "fringe_visibility",
    "with_visibility",
    "revival_period",
    "com_path",
    "ModelDeviation",
    "model_deviation",
]


@dataclass(frozen=True)
class FringeRecord:
    """I_n(t) profiles with optional visibility series and revival period."""

    times: np.ndarray
    profiles: np.ndarray  # (T, Nn), row t -> I_n
    n_values: np.ndarray
    visibility: np.ndarray | None = None
    revival: float | None = None


def vertical_profile(traj: Trajectory) -> FringeRecord:
    """Column-integrated intensities I_n(t) = sum_m |c[n,m]|^2 per sample."""
    return FringeRecord(times=np.asarray(traj.times, dtype=float),
                        profiles=traj._sums.rows,
                        n_values=traj.window.n_values.copy())


def central_columns(count: int, fraction: float = 0.5) -> slice:
    """Central slice covering ``fraction`` of the columns (margins split evenly)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    margin = int(round(count * (1.0 - fraction) / 2.0))
    margin = min(margin, (count - 1) // 2)
    return slice(margin, count - margin)


def fringe_visibility(profile, columns) -> float:
    """Period-2 fringe amplitude of the profile over the given column window.

    Normalized magnitude of the alternating-column component,
    |sum_i w_i (-1)^i I_i| / sum_i w_i I_i with half-weighted endpoints
    (trapezoid weights, so a constant profile scores exactly 0 for any
    window parity).  0 for a flat or smooth profile, 1 for full-contrast
    period-2 fringes; a raw max/min contrast would instead read the beam
    envelope whenever the window reaches into its tails.
    """
    seg = np.asarray(profile, dtype=float)[columns]
    if seg.size == 0 or not np.any(seg):
        raise ValueError("zero profile in visibility window")
    w = np.ones(seg.size)
    w[0] = w[-1] = 0.5
    signs = np.where(np.arange(seg.size) % 2 == 0, 1.0, -1.0)
    return abs(float(np.sum(w * signs * seg))) / float(np.sum(w * seg))


def with_visibility(record: FringeRecord, columns=None) -> FringeRecord:
    """Attach the per-time visibility series over the central columns.

    Row t is fringe_visibility(record.profiles[t], columns); every row's
    alternating and plain weighted sums come from one matrix product.
    """
    if columns is None:
        columns = central_columns(record.profiles.shape[1])
    seg = np.asarray(record.profiles, dtype=float)[:, columns]
    if seg.shape[1] == 0 or not np.all(np.any(seg, axis=1)):
        raise ValueError("zero profile in visibility window")
    w = np.ones(seg.shape[1])
    w[0] = w[-1] = 0.5
    signs = (-1.0) ** np.arange(w.size)
    alternating, plain = (seg @ np.column_stack([w * signs, w])).T
    return replace(record, visibility=np.abs(alternating) / plain)


def revival_period(record: FringeRecord) -> float | None:
    """Lag of the first dominant autocorrelation peak of the visibility.

    The visibility series is demeaned and autocorrelated; a peak qualifies
    when its prominence reaches 0.5 of the zero-lag value.  Returns None
    when no such peak exists (aperiodic fringe evolution).  Requires the
    record to carry a visibility series sampled on a uniform time grid.
    """
    if record.visibility is None:
        raise ValueError("record carries no visibility series; run with_visibility")
    t = record.times
    dt = np.diff(t)
    if t.size < 3 or np.max(np.abs(dt - dt[0])) > 1e-9 * max(1.0, abs(float(t[-1]))):
        raise ValueError("revival detection needs a uniform time grid")
    v = record.visibility - float(np.mean(record.visibility))
    ac = np.correlate(v, v, mode="full")[v.size - 1:]
    if ac[0] <= 0.0:
        return None
    acn = ac / ac[0]
    peak = _first_peak(acn, 0.5)
    return None if peak is None else float(peak * dt[0])


def _first_peak(x: np.ndarray, prominence: float) -> int | None:
    """First peak that scipy.signal.find_peaks(x, prominence=...) reports.

    A peak is an interior local maximum; a plateau counts once, at its
    midpoint.  Its prominence is its height above the higher of the two
    minima between it and the nearest strictly higher sample (or the end
    of x) on each side.
    """
    for i in np.flatnonzero(x[1:-1] > x[:-2]) + 1:  # rises: plateau starts
        j = i + 1
        while j < x.size - 1 and x[j] == x[i]:
            j += 1
        if x[j] < x[i]:
            p = (i + j - 1) // 2
            higher = np.flatnonzero(x > x[p])
            lo = max(higher[higher < p], default=-1) + 1
            hi = min(higher[higher > p], default=x.size)
            if x[p] - max(x[lo:p + 1].min(), x[p:hi].min()) >= prominence:
                return int(p)
    return None


def com_path(traj: Trajectory) -> np.ndarray:
    """Center of mass (<n>, <m>) per sample, shape (T, 2)."""
    return traj._sums.com(traj.window)[1]


@dataclass(frozen=True)
class ModelDeviation:
    """Per-sample exact-vs-effective mismatch at stroboscopic times."""

    times: np.ndarray
    max_abs: np.ndarray      # max_site | |c| - |f| |
    infidelity: np.ndarray   # 1 - |<f_mapped, c>|^2 (normalized)

    @property
    def peak(self) -> float:
        return float(np.max(self.max_abs))


def model_deviation(full: Trajectory | _Run, effective: Trajectory | _Run,
                    drive: DriveSpec) -> ModelDeviation:
    """Compare an exact run against an effective run, sample by sample.

    Both runs must share the window and identical sample times, and the
    times must be integer multiples of the drive period (the averaged model
    reproduces the exact one stroboscopically).  The modulus mismatch is
    gauge-free; the infidelity maps f back to the driven frame first, as
    evolve_full maps its samples, and is invariant under global phases of
    either input.  It normalizes by the runs' audited norms.  Each run is a
    Trajectory that kept its amplitudes, or a run still to be made
    (dynamics._Run, as the runner's compare passes): the two then advance
    in lockstep, one sample each at a time, and neither stack is held.
    """
    if full.window != effective.window:
        raise ValueError("trajectories live on different windows")
    tf = np.asarray(full.times, dtype=float)
    te = np.asarray(effective.times, dtype=float)
    if tf.shape != te.shape or np.max(np.abs(tf - te)) > 1e-9:
        raise ValueError("trajectories have mismatched sample times")
    period = TWO_PI / drive.omega
    cycles = tf / period
    if np.max(np.abs(cycles - np.round(cycles))) > 1e-6:
        raise ValueError("sample times must be integer multiples of 2*pi/omega")
    theta = _GaugePhase(drive, full.window)
    max_abs, overlap = np.empty(tf.size), np.empty(tf.size, dtype=complex)
    for i, (t, c, f) in enumerate(zip(tf, _flat_samples(full), _flat_samples(effective))):
        max_abs[i] = np.max(np.abs(np.abs(c) - np.abs(f)))
        overlap[i] = np.vdot(f * theta.unit(t).conj(), c)
    if np.any(full.norms <= 0.0) or np.any(effective.norms <= 0.0):
        raise ValueError("zero-norm field in deviation comparison")
    infid = 1.0 - np.abs(overlap) ** 2 / (full.norms * effective.norms)
    return ModelDeviation(times=tf, max_abs=max_abs, infidelity=infid)


def _flat_samples(run: Trajectory | _Run):
    """The samples of a run, each flat, as they are made or from the kept stack."""
    if isinstance(run, _Run):
        return run
    if run.amplitudes is None:
        raise ValueError("the trajectory kept no amplitudes to compare")
    return run.amplitudes.reshape(run.times.size, -1)
