"""Exact time propagation of the driven lattice and input-state builders.

The driven model, i dc/dt = H_hop c + beta(t) c with static hopping rates
Jx, Jy and on-site beta[n,m](t) = beta0 + F m + A H(omega t + phi[n,m]),
is propagated in the gauge frame f = c exp(i theta(t)), theta being the
gauge phase of core.gauge_phase.  Since d theta/dt = beta, the diagonal
drops out exactly:

    i df/dt = exp(i theta) H_hop exp(-i theta) f.

This right-hand side has norm 2(|Jx| + |Jy|) on any window; its time
dependence sits in the link phases theta_i - theta_j, which turn at a rate
of at most nu = |F| + 2 |A| max|H|.  For smooth drives, fixed-step RK4 on
f (the integrating-factor, or Lawson, form of RK4) therefore takes a step
set by omega, Gamma and J, not by the tilt F m_max of the window:

    h = min(dt_max, 0.1 / nu, norm-drift bound at lambda = 2(|Jx| + |Jy|)),

with dt_max defaulting to min(0.01/J, 0.02 * drive period); the last two
bounds apply to a user-set dt_max too.  0.1 rad per step errs by < 1e-8
against an 8x finer step and drifts by < 0.2 of the budget for omega 2-40
(0.2 rad exceeds it on fig1b).  The norm-drift bound keeps the drift of
explicit RK4 below norm_drift_tol * J * (t - t_start); drift is budgeted,
not corrected, and every trajectory records the norms of the samples it
returns so the budget can be audited after the fact.

Each propagator makes its samples one at a time (evolve_effective from
one Chebyshev basis a block, in slabs of samples, or past its buffer the
block, each within effective._BLOCK_BYTES) and hands each to one reducer,
_Run, which reads it once.  Runner runs keep no stack, so they hold one
sample, or a basis and one slab or block; API callers that keep the
amplitudes (the default) store them all, and config's trajectory cap
counts the bytes a run produces either way.

The hopping is the one operator a run applies: _neighbor_diagonals gives
it as a sorted {offset: coefficient} map, which _neighbor_matrix exports
to CSR and _Hop applies in the RK4 stages and the Chebyshev recurrence:
the lowest diagonal's product is written into the rows it covers, only
the rows it leaves are zeroed, and the others are added through a scratch
buffer in ascending offset order, as a CSR row does.

Every exp(+-i theta) of a run (RK4 stages, the input at t_start, each
returned sample, each kick span) is core._GaugePhase.unit: Nm column factors
times one factor per class of phi mod 2 pi, so a time costs Nm + K cos/sin
pairs for K classes (2 at sigma = rho = pi) instead of N.  The RK4 stages
run in buffers made once per span, and e(t) is kept from one stage time to
the next, so a step evaluates the phases at two times.

The delta-kick train takes no step.  Between kicks beta = beta0 + F m is
static, so U = U_x (x) U_y is exact from one eigh of each chain, the Nm
one tilted (the Wannier-Stark propagator; Hartmann, Keck, Korsch &
Mossmann, New J. Phys. 6, 2 (2004)).  f is continuous across the kicks,
which live in the square wave G of theta; each span stops where
_split_span says, every kick decision being a core._kick_count on G's own
phases, so each kick acts once.  Inputs are mapped in with the pre-kick
branch at t_start, so the first span applies a kick there once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (
    DriveSpec,
    LatticeWindow,
    WaveField,
    WaveformKind,
    _GaugePhase,
    gauge_phase,
)

__all__ = [
    "IntegratorOptions",
    "Trajectory",
    "evolve_full",
    "gaussian_input",
]

# largest turn of a gauge-frame link phase per RK4 step, in radians
_LINK_PHASE_STEP = 0.1


@dataclass(frozen=True)
class IntegratorOptions:
    """Step cap of evolve_full and monitoring tolerances of both models.

    dt_max = None resolves to min(0.01/J, 0.02 * drive period); the exact
    paths (evolve_effective, kick runs of evolve_full) ignore it.
    norm_drift_tol is a budget per unit J*t; edge_mass_tol flags window
    truncation when the boundary ring carries more relative intensity.
    """

    dt_max: float | None = None
    norm_drift_tol: float = 1e-8
    edge_mass_tol: float = 1e-6

    def __post_init__(self):
        if self.dt_max is not None and not 0.0 < self.dt_max < math.inf:
            raise ValueError("dt_max must be positive and finite")
        for name in ("norm_drift_tol", "edge_mass_tol"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled evolution: times, the monitoring record (norms, their
    ``norm_drift``, edge mass), the final field, and every amplitude when
    the run kept them.

    ``amplitudes`` is one read-only complex array of shape (T, Nn, Nm), row
    i the field on ``window`` at ``times[i]``, or None when the run kept no
    stack (evolve_* with keep="sums" or keep="final", as runner runs do).
    ``final`` is the last sample, (Nn, Nm), kept either way.  Wrap a row as
    ``WaveField(traj.window, traj.amplitudes[i])`` where a field is needed.
    The profile, center-of-mass and kinematics outputs read ``_sums``:
    filled as the samples were made (keep="sums"), or one pass over the
    kept amplitudes taken when the first of them asks.
    """

    times: np.ndarray
    window: LatticeWindow
    amplitudes: np.ndarray | None
    norms: np.ndarray
    edge_mass_max: float
    truncation_warning: bool
    final: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1:
            raise ValueError("times must be a 1-d sequence")
        if t.size > 1 and np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        amps, final = self.amplitudes, self.final
        if amps is not None:
            amps = np.ascontiguousarray(amps, dtype=np.complex128)
            if amps.shape != (t.size,) + self.window.shape:
                raise ValueError(f"amplitudes shape {amps.shape} != "
                                 f"{(t.size,) + self.window.shape} (samples, window)")
            final = amps[-1] if final is None else final
        if final is None:
            raise ValueError("a trajectory keeps its amplitudes or its final field")
        final = np.ascontiguousarray(final, dtype=np.complex128)
        if final.shape != self.window.shape:
            raise ValueError(f"final shape {final.shape} != window shape {self.window.shape}")
        norms = np.array(self.norms, dtype=float)
        if norms.shape != t.shape:
            raise ValueError(f"norms shape {norms.shape} != {t.shape} (samples)")
        for arr in (t, amps, final, norms):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "final", final)
        object.__setattr__(self, "norms", norms)

    @property
    def norm_drift(self) -> float:
        """max |norms - norms[0]|: the drift the budget check and runner read."""
        return float(np.max(np.abs(self.norms - self.norms[0])))

    @cached_property  # written straight into the instance __dict__, as _Run does
    def _sums(self) -> _SampleSums:
        if self.amplitudes is None:
            raise ValueError("the trajectory kept neither its amplitudes nor their "
                             "sums: evolve with keep='amplitudes' or keep='sums'")
        return _sample_sums(self.amplitudes)


class _SampleSums(NamedTuple):
    """Per-sample sums of |f|^2 and of the link correlators."""

    rows: np.ndarray    # (T, Nn): sum_m |f[n,m]|^2, the profile I_n
    cols: np.ndarray    # (T, Nm): sum_n |f[n,m]|^2
    link_x: np.ndarray  # (T,): sum f*[n,m] f[n+1,m]
    link_y: np.ndarray  # (T, Nn): sum_m f*[n,m] f[n,m+1], before any Peierls phase

    @classmethod
    def empty(cls, T: int, shape: tuple[int, int]) -> _SampleSums:
        Nn, Nm = shape
        return cls(np.empty((T, Nn)), np.empty((T, Nm)),
                   np.empty(T, dtype=complex), np.empty((T, Nn), dtype=complex))

    def add(self, i: int, f: np.ndarray, w: np.ndarray) -> None:
        """Row i from sample f (Nn, Nm); w is an (Nn, Nm) float scratch array."""
        Nm = f.shape[1]
        np.square(np.abs(f, out=w), out=w)
        w.sum(axis=1, out=self.rows[i])
        w.sum(axis=0, out=self.cols[i])
        flat = f.ravel()
        self.link_x[i] = np.vdot(flat[:-Nm], flat[Nm:])
        # vecdot conjugates its first argument itself: no conjugated copy
        np.vecdot(f[:, :-1], f[:, 1:], out=self.link_y[i])

    def frozen(self) -> _SampleSums:
        for a in self:  # shared by every reader of the trajectory
            a.setflags(write=False)
        return self

    def com(self, window: LatticeWindow):
        """Norms (T,) and centers of mass (<n>, <m>) (T, 2) of the samples."""
        norm = self.rows.sum(axis=1)
        if np.any(norm <= 0.0):
            raise ValueError("zero-norm field")
        moments = np.column_stack([self.rows @ window.n_values,
                                   self.cols @ window.m_values])
        return norm, moments / norm[:, None]


def _sample_sums(amps: np.ndarray) -> _SampleSums:
    """_SampleSums of samples amps (T, Nn, Nm), one sample at a time.

    A loop over samples keeps every temporary sample-sized; whole-array
    and chunked forms of the same sums measured slower.
    """
    sums = _SampleSums.empty(len(amps), amps.shape[1:])
    w = np.empty(amps.shape[1:])
    for i, f in enumerate(amps):
        sums.add(i, f, w)
    return sums.frozen()


_KEEP = ("amplitudes", "sums", "final")  # what a Trajectory keeps beyond its audit


class _Run:
    """One pass over a propagator's samples, each reduced as it is made.

    ``samples`` yields the flat samples in time order; each may be a view
    that the next overwrites.  Iterating the run hands each sample on after
    recording its norm and edge-ring mass (the audit of every Trajectory)
    and, as ``keep`` asks, its _SampleSums row or a copy into the
    (T, Nn, Nm) stack; the last sample is copied as the final field.  So a
    run holds what the propagator holds (one sample, or a Chebyshev basis
    and one slab or block), never the stack unless asked.  trajectory()
    runs what is left and returns the record.
    """

    def __init__(self, window: LatticeWindow, times: np.ndarray, samples,
                 keep: str, opts: IntegratorOptions, J_ref: float, t_start: float):
        if keep not in _KEEP:
            raise ValueError(f"keep must be one of {_KEEP}, not {keep!r}")
        self.window, self.times, self.norms = window, times, np.empty(times.size)
        self._samples, self._opts, self._J_ref, self._t_start = samples, opts, J_ref, t_start
        ring = np.ones(window.shape, dtype=bool)
        ring[1:-1, 1:-1] = False
        self._edge = np.flatnonzero(ring)
        self._edge_mass, self._count, self._final = 0.0, 0, None
        self._amps = (np.empty((times.size,) + window.shape, dtype=complex)
                      if keep == "amplitudes" else None)
        self._sums = _SampleSums.empty(times.size, window.shape) if keep == "sums" else None
        self._w = np.empty(window.shape)

    def __iter__(self):
        for v in self._samples:
            i, f = self._count, v.reshape(self.window.shape)
            norm = self.norms[i] = np.vdot(v, v).real
            if norm > 0.0:
                self._edge_mass = max(self._edge_mass,
                                      float(np.sum(np.abs(v[self._edge]) ** 2)) / norm)
            if self._amps is not None:
                self._amps[i] = f
            elif i == self.times.size - 1:
                self._final = f.copy()
            if self._sums is not None:
                self._sums.add(i, f, self._w)
            self._count += 1
            yield v

    def trajectory(self) -> Trajectory:
        """The record of the whole pass, with the norm-drift check against its budget."""
        for _ in self:
            pass
        traj = Trajectory(times=self.times, window=self.window, amplitudes=self._amps,
                          norms=self.norms, edge_mass_max=self._edge_mass,
                          truncation_warning=bool(self._edge_mass > self._opts.edge_mass_tol),
                          final=self._final)
        span = float(self.times[-1]) - self._t_start
        budget = self._opts.norm_drift_tol * self._J_ref * max(span, 1e-30)
        if traj.norm_drift > budget:
            warnings.warn(f"norm drift {traj.norm_drift:.3e} exceeds budget {budget:.3e}",
                          stacklevel=3)
        if self._sums is not None:
            traj.__dict__["_sums"] = self._sums.frozen()  # Trajectory._sums's cache
        return traj


# ---------------------------------------------------------------------------
# assembly and stepping


def _neighbor_diagonals(window: LatticeWindow, up_x, up_y, scale=1.0) -> dict:
    """scale * H_hop as _Hop's map (module docstring): up_x on c[n+1,m] and
    up_y, a scalar or one per column n, on c[n,m+1], with their conjugates."""
    Nn, Nm = window.shape
    diagonals = {}
    if Nn > 1:
        diagonals[-Nm], diagonals[Nm] = scale * np.conj(complex(up_x)), scale * complex(up_x)
    if Nm > 1:
        col = np.broadcast_to(np.asarray(up_y, dtype=complex).ravel(), (Nn,))
        dy = np.repeat(col, Nm)[:-1]
        dy[Nm - 1::Nm] = 0.0  # no wrap across column ends
        diagonals[-1], diagonals[1] = scale * dy.conj(), scale * dy
    return dict(sorted(diagonals.items()))


class _Hop:
    """v -> A v into self.out, A = {offset k: coefficient} with |k| < size:
    row i of diagonal k scales v[i+k] by a scalar or by its entry of a
    per-row array.  One pass per diagonal (module docstring)."""

    def __init__(self, diagonals: dict, size: int):
        self.out, tmp = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
        k0 = min(diagonals, default=-size)  # with no diagonal every row is zeroed
        self._zero = self.out[:-k0] if k0 < 0 else self.out[size - k0:]  # rows k0 leaves
        self._terms = []  # (d, source, product, rows it is added to: None for k0)
        for k, d in sorted(diagonals.items()):
            a, b = max(k, 0), max(-k, 0)  # rows b:size-a gain d * v[a:size-b]
            rows, src = self.out[b:size - a], slice(a, size - b)
            self._terms.append((d, src, rows, None) if k == k0 else
                               (d, src, tmp[b:size - a], rows))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        self._zero.fill(0.0)
        for d, src, prod, rows in self._terms:
            np.multiply(d, v[src], out=prod)
            if rows is not None:
                rows += prod
        return self.out


def _neighbor_matrix(window: LatticeWindow, up_x, up_y):
    """_neighbor_diagonals in scipy CSR form (scipy is imported here only)."""
    from scipy import sparse

    N, diagonals = math.prod(window.shape), _neighbor_diagonals(window, up_x, up_y)
    return (sparse.diags(list(diagonals.values()), list(diagonals), shape=(N, N),
                         format="csr", dtype=complex)
            if diagonals else sparse.csr_matrix((N, N), dtype=complex))


def _step_size(drive: DriveSpec, J_x: float, J_y: float,
               opts: IntegratorOptions) -> float | None:
    """RK4 step of a full run (module docstring), or None for the delta-kick
    train, whose spans are exact; config checks every full and compare drive."""
    if drive.waveform.kind is WaveformKind.DELTA_KICKS:
        return None
    J_ref = max(abs(J_x), abs(J_y)) or 1.0
    lam = 2.0 * (abs(J_x) + abs(J_y))
    nu = abs(drive.F) + 2.0 * abs(drive.A) * drive.waveform.pointwise_bound
    h = opts.dt_max
    if h is None:
        h = min(0.01 / J_ref, 0.02 * drive.period)
    if nu > 0.0:
        h = min(h, _LINK_PHASE_STEP / nu)
    if lam > 0.0 and opts.norm_drift_tol > 0.0:
        # One RK4 step on the extreme mode i*lam changes |psi|^2 by at most
        # (lam h)^6/72, so over T/h steps the drift stays below the budget
        # tol * J_ref * T provided h^5 <= 72 tol J_ref / lam^6.
        h = min(h, (72.0 * opts.norm_drift_tol * J_ref / lam ** 6) ** 0.2)
    if h < 1e-12:
        raise ValueError(f"step-size underflow: required step {h:.3e} < 1e-12")
    return h


def _rk4_span(psi: np.ndarray, t0: float, t1: float, h_cap: float, rhs) -> np.ndarray:
    """psi advanced from t0 to t1 by classical RK4 in equal steps <= h_cap.

    rhs(t, v, out) writes dpsi/dt at (t, v) into out and returns it.  The
    stages live in four buffers made once per span, and the update keeps
    the operation order of psi + h/6 (k1 + 2 (k2 + k3) + k4).  psi itself
    is left unchanged; a new array is returned.
    """
    span = t1 - t0
    if span <= 0.0:
        return psi
    steps = max(1, int(math.ceil(span / h_cap - 1e-12)))
    h = span / steps
    psi = psi.copy()
    y, k1, k2, k3 = (np.empty_like(psi) for _ in range(4))
    t = t0
    for k in range(steps):
        # the next step starts at exactly this step's end time, so an rhs
        # can reuse what it computed there
        t_next = t0 + (k + 1) * h
        rhs(t, psi, k1)
        rhs(t + 0.5 * h, np.add(psi, np.multiply(k1, 0.5 * h, out=y), out=y), k2)
        rhs(t + 0.5 * h, np.add(psi, np.multiply(k2, 0.5 * h, out=y), out=y), k3)
        np.add(psi, np.multiply(k3, h, out=y), out=y)
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += rhs(t_next, y, k3)  # k4, in the buffer k3 no longer needs
        k2 *= h / 6.0
        psi += k2
        t = t_next
    return psi


def _split_span(drive: DriveSpec, window: LatticeWindow, J_x: float,
                J_y: float, theta: _GaugePhase):
    """span(f, t_a, t_b): exact gauge-frame propagation across the kick train.

    It maps f to the lab frame once and stops at the kicks that G's right
    branch does not count at t_a and its left branch counts at t_b
    (_GaugePhase.kick_times), the rest acting at the ends; each piece is
    U_x (x) U_y, and each stop applies the kicks since the last one as one
    phase from G's post-kick branches, which telescope (_GaugePhase.kick).
    """
    Nn, Nm = window.shape
    lx, vx = np.linalg.eigh(-J_x * (np.eye(Nn, k=1) + np.eye(Nn, k=-1)))
    ly, vy = np.linalg.eigh(np.diag(drive.beta0 + drive.F * window.m_values)
                            - J_y * (np.eye(Nm, k=1) + np.eye(Nm, k=-1)))
    lam = lx[:, None] + ly[None, :]

    def span(f, t_a, t_b):
        c = (f * theta.unit(t_a).conj()).reshape(Nn, Nm)
        for t_k in [*theta.kick_times(t_a, t_b, ("right", "left")), t_b]:
            c = vx @ ((vx.T @ c @ vy) * np.exp(-1j * (t_k - t_a) * lam)) @ vy.T
            c, t_a = c * theta.kick(t_a, t_k).reshape(Nn, Nm), t_k
        return c.ravel() * theta.unit(t_b)
    return span


def _check_samples(t_samples, t_start):
    t = np.asarray(t_samples, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_samples must be a nonempty 1-d sequence")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("t_samples must be strictly increasing")
    if t[0] < t_start - 1e-12:
        raise ValueError("t_samples must not precede t_start")
    return t


def evolve_full(initial: WaveField, drive: DriveSpec, J_x: float, J_y: float,
                t_samples, opts: IntegratorOptions | None = None,
                t_start: float = 0.0, *, keep: str = "amplitudes") -> Trajectory:
    """Propagate the driven model, sampling the field at exactly t_samples.

    i dc/dt = -Jx (c[n+1,m] + c[n-1,m]) - Jy (c[n,m+1] + c[n,m-1])
              + beta[n,m](t) c[n,m]

    Both paths work in the gauge frame (module docstring) and take one span
    per sample: RK4 for smooth drives, at a step min(dt_max, 0.1 / nu,
    norm-drift bound) independent of the window, and for the delta-kick
    train an exact span that crosses the kicks between its ends and ignores
    dt_max.  The input is mapped in with the pre-kick branch, so a kick at
    t = t_start acts once; each sample is mapped back with the post-kick
    branch as it is made, and Trajectory.norms are the norms of these
    returned samples.  t_start (default 0) may precede the first sample.
    keep says what the Trajectory holds besides its audit and final field:
    "amplitudes" (the default) every sample, "sums" only the per-sample
    sums the profile, COM and kinematics read, "final" nothing more.
    """
    return _full_run(initial, drive, J_x, J_y, t_samples, opts, t_start, keep).trajectory()


def _full_run(initial: WaveField, drive: DriveSpec, J_x: float, J_y: float,
              t_samples, opts: IntegratorOptions | None, t_start: float,
              keep: str) -> _Run:
    """evolve_full's samples as a _Run, each made as the run is iterated: exact
    kick spans where _step_size gives no step, RK4 spans of its step otherwise."""
    opts = opts or IntegratorOptions()
    window = initial.window
    t = _check_samples(t_samples, t_start)
    theta = _GaugePhase(drive, window)
    f0 = initial.amplitudes.ravel() * theta.unit(t_start, "left")

    h = _step_size(drive, J_x, J_y, opts)
    if h is None:
        span = _split_span(drive, window, J_x, J_y, theta)
    else:
        hop = _Hop(_neighbor_diagonals(window, -J_x, -J_y, scale=-1j), f0.size)
        e, e_conj, w = (np.empty_like(f0) for _ in range(3))
        t_e = math.nan  # the time e holds: RK4 asks for each at most twice, in a row

        def rhs(tt, v, out):
            nonlocal t_e
            if tt != t_e:
                np.conjugate(theta.unit(tt, out=e), out=e_conj)
                t_e = tt
            return np.multiply(e, hop(np.multiply(e_conj, v, out=w)), out=out)

        def span(v, t_a, t_b):
            return _rk4_span(v, t_a, t_b, h, rhs)

    def samples(f):
        # a sample at or before the current time repeats the state
        t_cur = t_start
        for ts in t:
            if ts > t_cur:
                f, t_cur = span(f, t_cur, ts), ts
            yield f * theta.unit(float(ts), "right").conj()

    return _Run(window, t, samples(f0), keep, opts, max(abs(J_x), abs(J_y)) or 1.0, t_start)


def gaussian_input(window: LatticeWindow, width: float, tilt: float = 0.0,
                   drive: DriveSpec | None = None, imprint: bool = False,
                   t_start: float = 0.0) -> WaveField:
    """Normalized Gaussian input c ~ exp[-(n^2+m^2)/w^2 - i*tilt*n].

    With imprint=True the gauge pattern of the drive at the preparation
    time t_start is stamped on as exp(-i theta(t_start)), preparing a state
    that maps onto a clean (tilted) Gaussian in the effective frame at
    t_start; hand the same t_start to the integrator.  For the delta-kick
    train the pre-kick branch of G is used: the integrator applies any kick
    at t_start itself, and imprinting the post-kick value too would count
    that kick twice.
    """
    if not 0.0 < width < math.inf or width * width == 0.0:  # 0/0 at the origin below
        raise ValueError(f"width must be positive and finite, with a nonzero square: {width!r}")
    if not math.isfinite(tilt):
        raise ValueError("tilt must be finite")
    n, m = window.n_grid, window.m_grid
    psi = np.exp(-(n ** 2 + m ** 2) / width ** 2) * np.exp(-1j * tilt * n)
    if imprint:
        if drive is None:
            raise ValueError("imprint=True requires a drive")
        psi = psi * np.exp(-1j * gauge_phase(drive, window, t_start, side="left"))
    psi = psi / math.sqrt(float(np.sum(np.abs(psi) ** 2)))
    return WaveField(window, psi)
