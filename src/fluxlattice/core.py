"""Driven photonic square lattice: geometry, waveforms, drives, gauge phases.

The underlying model is a tight-binding lattice of coupled single-mode
elements,

    i dc[n,m]/dt = -Jx (c[n+1,m] + c[n-1,m]) - Jy (c[n,m+1] + c[n,m-1])
                   + beta[n,m](t) c[n,m],

with on-site detunings modulated around a static gradient along m,

    beta[n,m](t) = beta0 + F m + A H(omega t + phi[n,m]),
    phi[n,m]     = n sigma + m rho,

where H is a zero-mean, 2*pi-periodic waveform.  On resonance (F = M omega,
integer M) the combination of gradient and travelling-wave modulation acts
as a synthetic gauge field: the lattice behaves like a charged particle
hopping in a uniform magnetic flux alpha = sigma M / (2 pi) per plaquette.

This module holds the shared building blocks: the finite lattice window,
waveform objects together with their antiderivatives (the antiderivative G
is what enters both the gauge transformation and the effective couplings),
the drive parameter bundle, and the site-resolved gauge phase that maps the
driven frame onto the static effective one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

# A kick within this of an evaluation point, in units of phase / pi (pi /
# omega of time), counts as at it.  Only _kick_count reads it: every kick
# decision is a kick count on G's own phases, so no two of them disagree.
_KICK_GUARD = 1e-9

__all__ = [
    "TWO_PI",
    "LatticeWindow",
    "WaveformKind",
    "Waveform",
    "smoothed_delta_train",
    "DriveSpec",
    "WaveField",
    "phase_offsets",
    "beta_site",
    "gauge_phase",
]


@dataclass(frozen=True)
class LatticeWindow:
    """Finite rectangular window of lattice sites, n/m ranges inclusive."""

    n_min: int
    n_max: int
    m_min: int
    m_max: int

    def __post_init__(self):
        if self.n_max < self.n_min or self.m_max < self.m_min:
            raise ValueError("window must contain at least one site")

    @classmethod
    def centered(cls, n_half: int, m_half: int | None = None) -> "LatticeWindow":
        """Window [-n_half, n_half] x [-m_half, m_half] around the origin."""
        if m_half is None:
            m_half = n_half
        return cls(-n_half, n_half, -m_half, m_half)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_max - self.n_min + 1, self.m_max - self.m_min + 1)

    @cached_property
    def n_values(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    @cached_property
    def m_values(self) -> np.ndarray:
        return np.arange(self.m_min, self.m_max + 1)

    @cached_property
    def n_grid(self) -> np.ndarray:
        """Column of n indices, shape (Nn, 1), broadcasts against fields."""
        return self.n_values[:, None].astype(float)

    @cached_property
    def m_grid(self) -> np.ndarray:
        """Row of m indices, shape (1, Nm)."""
        return self.m_values[None, :].astype(float)


class WaveformKind(enum.Enum):
    SINUSOIDAL = "sinusoidal"
    DELTA_KICKS = "delta_kicks"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class Waveform:
    """Zero-mean 2*pi-periodic modulation waveform H and its antiderivative G.

    Three kinds are supported:

    * ``SINUSOIDAL``: H(x) = cos x, G(x) = sin x.
    * ``DELTA_KICKS``: an alternating train of unit kicks,
      H(x) = sum_l (-1)^l delta(x - l pi).  H has no pointwise values; its
      antiderivative is the square wave G(x) = 1 on [0, pi), 0 on [pi, 2 pi),
      taken right-continuous so a kick at x is included in G(x).
    * ``SAMPLED``: H given by linear interpolation through nodes on
      [0, 2*pi] (closed periodically), G by exact piecewise-quadratic
      integration of the interpolant.

    Instances are immutable; build them through the factory classmethods.
    """

    kind: WaveformKind
    xs: tuple[float, ...] = ()
    ys: tuple[float, ...] = ()

    @classmethod
    def sinusoidal(cls) -> "Waveform":
        return cls(WaveformKind.SINUSOIDAL)

    @classmethod
    def delta_kicks(cls) -> "Waveform":
        return cls(WaveformKind.DELTA_KICKS)

    @classmethod
    def sampled(cls, xs, ys) -> "Waveform":
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("need matching 1-d sample arrays with >= 2 nodes")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("sample nodes and values must be finite")
        if xs[0] != 0.0:
            raise ValueError("sample grid must start at x = 0")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("sample grid must be strictly increasing")
        if xs[-1] > TWO_PI + 1e-12:
            raise ValueError("sample grid must not extend past 2*pi")
        scale = max(1.0, float(np.max(np.abs(ys))))
        if xs[-1] < TWO_PI:
            # close the period explicitly with the x = 0 value
            xs = np.append(xs, TWO_PI)
            ys = np.append(ys, ys[0])
        elif abs(ys[-1] - ys[0]) > 1e-12 * scale:
            raise ValueError("periodic closure requires ys[-1] == ys[0]")
        mean = (np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0).sum() / TWO_PI
        if abs(mean) > 1e-12 * scale:
            raise ValueError(f"waveform must have zero mean, got {mean:.3e}")
        return cls(WaveformKind.SAMPLED, tuple(xs), tuple(ys))

    # -- arrays cached per instance (works with frozen dataclasses because
    #    cached_property writes straight into the instance __dict__)

    @cached_property
    def _xs_arr(self) -> np.ndarray:
        return np.asarray(self.xs, dtype=float)

    @cached_property
    def _ys_arr(self) -> np.ndarray:
        return np.asarray(self.ys, dtype=float)

    @cached_property
    def _g_nodes(self) -> np.ndarray:
        xs, ys = self._xs_arr, self._ys_arr
        seg = 0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)
        return np.concatenate([[0.0], np.cumsum(seg)])

    @cached_property
    def _slopes(self) -> np.ndarray:
        xs, ys = self._xs_arr, self._ys_arr
        return np.diff(ys) / np.diff(xs)

    @property
    def pointwise_bound(self) -> float:
        """max |H| over one period; undefined for the delta-kick train."""
        if self.kind is WaveformKind.SINUSOIDAL:
            return 1.0
        if self.kind is WaveformKind.SAMPLED:
            return float(np.max(np.abs(self._ys_arr)))
        raise ValueError("delta kicks are not pointwise bounded")

    def values(self, x):
        """H(x).  Raises for the delta-kick train, which is not a function."""
        if self.kind is WaveformKind.SINUSOIDAL:
            return np.cos(x)
        if self.kind is WaveformKind.SAMPLED:
            return np.interp(np.mod(x, TWO_PI), self._xs_arr, self._ys_arr)
        raise ValueError("alternating delta kicks have no pointwise waveform values")

    def antiderivative(self, x, side: str = "right"):
        """G(x) = integral of H from 0 to x.

        ``side`` selects the branch at kick points of the delta train:
        "right" includes a kick sitting exactly at x, "left" excludes it.
        Continuous kinds ignore ``side``.
        """
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        if self.kind is WaveformKind.SINUSOIDAL:
            return np.sin(x)
        if self.kind is WaveformKind.SAMPLED:
            return self._sampled_G(x)
        # the delta train's square wave: the parity of the kick count up to x
        g = 1.0 - _kick_count(np.asarray(x, dtype=float) / math.pi, side) % 2.0
        return float(g) if g.ndim == 0 else g

    def _sampled_G(self, x):
        x = np.asarray(x, dtype=float)
        r = np.mod(x, TWO_PI)
        k = np.round((x - r) / TWO_PI)
        xs, ys = self._xs_arr, self._ys_arr
        i = np.clip(np.searchsorted(xs, r, side="right") - 1, 0, xs.size - 2)
        dx = r - xs[i]
        g = self._g_nodes[i] + ys[i] * dx + 0.5 * self._slopes[i] * dx * dx
        # zero mean makes the per-period term vanish analytically; keep the
        # bookkeeping exact for the actual node values anyway
        g = g + k * self._g_nodes[-1]
        return float(g) if g.ndim == 0 else g


def _kick_count(u, side: str):
    """Kicks up to phase u = (omega t + phi) / pi on G's branch side, as a float.

    Kicks sit at integer u; "right" counts one within _KICK_GUARD of u, "left" not.
    """
    if side == "right":
        return np.floor(u + _KICK_GUARD)
    return np.ceil(u - _KICK_GUARD) - 1.0


def smoothed_delta_train(width: float, num_samples: int = 8192) -> Waveform:
    """Sampled waveform: alternating Gaussian pulses of rms width ``width``.

    Converges (weakly) to the alternating delta-kick train as width -> 0;
    useful for checking kick dynamics against a smooth drive.
    """
    if not 0.0 < width < 0.5 * math.pi:
        raise ValueError("width must lie in (0, pi/2)")
    xs = np.linspace(0.0, TWO_PI, num_samples + 1)
    h = np.zeros_like(xs)
    norm = 1.0 / (width * math.sqrt(TWO_PI))
    for l in range(-4, 7):
        h += (-1) ** l * norm * np.exp(-0.5 * ((xs - l * math.pi) / width) ** 2)
    # +/- pulses already cancel; scrub rounding (trapezoid rule)
    h -= (np.diff(xs) * (h[1:] + h[:-1]) / 2.0).sum() / TWO_PI
    h[-1] = h[0]
    return Waveform.sampled(xs, h)


@dataclass(frozen=True)
class DriveSpec:
    """Gradient plus travelling-wave modulation of the on-site energies.

    beta[n,m](t) = beta0 + F m + A H(omega t + n sigma + m rho).

    Gamma = A / omega is the dimensionless drive strength.  The resonant
    relation F = M omega is what produces a static effective model; use
    :meth:`resonant` to construct drives on resonance directly.
    """

    beta0: float
    F: float
    omega: float
    A: float
    M: int
    sigma: float
    rho: float
    waveform: Waveform

    def __post_init__(self):
        if not (0.0 < self.omega < math.inf and TWO_PI / self.omega < math.inf):
            raise ValueError(f"omega = {self.omega!r} must be positive and finite, "
                             "with a finite period 2 pi / omega")
        if not all(map(math.isfinite, (self.beta0, self.F, self.A))):
            raise ValueError(f"beta0 = {self.beta0!r}, F = {self.F!r} and A = {self.A!r} "
                             "must be finite")
        if isinstance(self.M, bool) or not isinstance(self.M, (int, np.integer)):
            raise ValueError("M must be an integer")
        if not abs(self.sigma) <= math.pi + 1e-12:  # nan too
            raise ValueError("sigma must lie in [-pi, pi]")
        if not abs(self.rho) <= math.pi + 1e-12:
            raise ValueError("rho must lie in [-pi, pi]")

    @classmethod
    def resonant(cls, *, omega: float, Gamma: float, M: int, sigma: float,
                 rho: float, waveform: Waveform, beta0: float = 0.0) -> "DriveSpec":
        """Drive with F = M omega and A = Gamma omega."""
        return cls(beta0=beta0, F=M * omega, omega=omega, A=Gamma * omega,
                   M=M, sigma=sigma, rho=rho, waveform=waveform)

    @property
    def Gamma(self) -> float:
        return self.A / self.omega

    @property
    def period(self) -> float:
        return TWO_PI / self.omega

    @property
    def is_resonant(self) -> bool:
        return abs(self.F - self.M * self.omega) <= 1e-12 * max(1.0, abs(self.F))


@dataclass(frozen=True, eq=False)
class WaveField:
    """Complex amplitudes on a lattice window, shape (Nn, Nm), read-only."""

    window: LatticeWindow
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if arr.shape != self.window.shape:
            raise ValueError(f"amplitudes shape {arr.shape} != window shape {self.window.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def with_amplitudes(self, amplitudes) -> "WaveField":
        return WaveField(self.window, amplitudes)


def phase_offsets(window: LatticeWindow, sigma: float, rho: float) -> np.ndarray:
    """Site phase lags phi[n,m] = n sigma + m rho, shape (Nn, Nm)."""
    return window.n_grid * sigma + window.m_grid * rho


def beta_site(drive: DriveSpec, window: LatticeWindow, t: float) -> np.ndarray:
    """Instantaneous on-site energies beta[n,m](t), shape (Nn, Nm).

    Only defined for pointwise waveforms; the delta-kick train must be
    handled through its integrated phase kicks instead.
    """
    phi = phase_offsets(window, drive.sigma, drive.rho)
    h = drive.waveform.values(drive.omega * t + phi)
    return drive.beta0 + drive.F * window.m_grid + drive.A * h


class _GaugePhase:
    """theta[n,m](t) of one drive on one window, and exp(i theta) by classes.

    theta (gauge_phase) splits into a part per column and a drive part,

        theta[n,m](t) = [(M/2) rho m (m-1) + (beta0 + F m) t]
                        + Gamma G(omega t + phi[n,m]),

    and G repeats with period 2 pi, so the drive part depends on phi[n,m]
    modulo 2 pi only.  unit() builds exp(i theta) as the product of Nm
    column factors and one factor exp(i Gamma G(omega t + phi_c)) per class
    c of phi mod 2 pi (phi / 2 pi mod 1 equal to 12 digits), gathered by a
    class index made once per instance.  On a 61 x 61 window sigma = rho =
    pi gives 2 classes and sigma = -pi/25, rho = pi gives 50; incommensurate
    sigma, rho give one class per site.
    kick_times reads the delta train's kicks off the same classes, and
    every kick decision is a _kick_count on G's phase.  Calling the
    instance evaluates theta itself and redoes only the time-dependent part.
    """

    def __init__(self, drive: DriveSpec, window: LatticeWindow):
        m = window.m_grid
        self._drive = drive
        self._shape = window.shape
        self._phi = phase_offsets(window, drive.sigma, drive.rho)
        self._staircase = 0.5 * drive.M * drive.rho * m * (m - 1.0)
        self._rate = drive.beta0 + drive.F * m

    def __call__(self, t: float, side: str = "right") -> np.ndarray:
        d = self._drive
        g = d.waveform.antiderivative(d.omega * t + self._phi, side=side)
        return self._staircase + self._rate * t + d.Gamma * g

    @cached_property
    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(phi_c of each class, class index of each flattened site)."""
        phi = self._phi.ravel()
        key = np.round(np.mod(phi / TWO_PI, 1.0), 12) % 1.0
        _, first, index = np.unique(key, return_index=True, return_inverse=True)
        return np.mod(phi[first], TWO_PI), index.ravel()

    def kick_times(self, t0: float, t1: float, sides=("left", "right")) -> np.ndarray:
        """Sorted times at which the delta-kick train kicks some site, by default in [t0, t1].

        Class c is kicked where u_c(t) = (omega t + phi_c) / pi is an integer
        j, at (j - r + v) pi / omega with v = (-phi_c / pi) mod 1 and
        r = round(phi_c / pi + v).  Listed are the pairs (c, j) that G's
        sides[0] branch does not count at t0 and its sides[1] branch counts
        at t1 (_kick_count on u_c).  From the latest back, a pair joins the
        later kept time unless G's left branch there already counts it.
        """
        omega, s = self._drive.omega, self._drive.omega / math.pi
        pairs, kept = [], []
        for phi in self.classes[0].tolist():
            v = (-phi / math.pi) % 1.0
            r = round(phi / math.pi + v)
            lo = int(_kick_count((omega * t0 + phi) / math.pi, sides[0]))
            hi = int(_kick_count((omega * t1 + phi) / math.pi, sides[1]))
            pairs.extend(((j - r + v) / s, phi, j) for j in range(lo + 1, hi + 1))
        for t, phi, j in sorted(pairs, reverse=True):
            if not kept or _kick_count((omega * kept[-1] + phi) / math.pi, "left") >= j:
                kept.append(t)
        return np.array(kept[::-1])

    def kick(self, t0: float, t1: float) -> np.ndarray:
        """exp(-i Gamma [G(omega t1 + phi) - G(omega t0 + phi)]) flattened: the kicks in (t0, t1]."""
        d, (phi_c, index) = self._drive, self.classes
        g0, g1 = (d.waveform.antiderivative(d.omega * t + phi_c) for t in (t0, t1))
        return _cis(d.Gamma * (g0 - g1)).take(index)

    def unit(self, t: float, side: str = "right", out: np.ndarray | None = None) -> np.ndarray:
        """exp(i theta(t)) flattened (i = n*Nm + m), written into out if given."""
        d = self._drive
        phi_c, index = self.classes
        g = d.Gamma * d.waveform.antiderivative(d.omega * t + phi_c, side=side)
        # mode="clip" lets take write straight into out; every index is valid
        out = _cis(g).take(index, out=out, mode="clip")
        grid = out.reshape(self._shape)  # a view: out is contiguous
        grid *= _cis(self._staircase + self._rate * t)
        return out


def _cis(x: np.ndarray) -> np.ndarray:
    """exp(i x), cos and sin written straight into the real and imaginary parts."""
    e = np.empty(x.shape, dtype=complex)
    np.cos(x, out=e.real)
    np.sin(x, out=e.imag)
    return e


def gauge_phase(drive: DriveSpec, window: LatticeWindow, t: float,
                side: str = "right") -> np.ndarray:
    """Local phase theta[n,m](t) relating driven and effective frames.

    The driven amplitudes factorize as c = f exp(-i theta) with

        theta[n,m](t) = (M/2) rho m (m-1) + (beta0 + F m) t
                        + Gamma G(omega t + phi[n,m]),

    which strips the gradient and the periodic modulation from the equation
    of motion, leaving f governed by static effective couplings.  The static
    m-staircase term makes the residual vertical Peierls phase depend on n
    only.  ``side`` picks the G branch at kick points of the delta train
    (continuous kinds are unaffected): "right" is the post-kick frame, the
    one sampled trajectory fields are in; "left" is the pre-kick frame, the
    branch a state prepared at t carries when the kick scheduled at that
    same t is still to act on it.
    """
    return _GaugePhase(drive, window)(t, side)
