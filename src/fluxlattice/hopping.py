"""Effective hopping amplitudes of the driven lattice.

Averaging the driven model over one modulation period turns the bare
couplings Jx, Jy into complex effective hoppings

    kappa_x = (Jx / 2 pi) Int_0^{2 pi} exp{ i Gamma [G(x) - G(x + sigma)] } dx
    kappa_y = (Jy / 2 pi) Int_0^{2 pi} exp{ -i M x
                                            + i Gamma [G(x) - G(x + rho)] } dx

with G the waveform antiderivative.  kappa_y in addition carries the
plaquette flux through the column-dependent phase exp(i n M sigma) of the
effective model; the flux density is alpha = sigma M / (2 pi).

Two independent routes are provided on purpose: direct numerical
quadrature, which works for any waveform, and closed-form expressions for
the sinusoidal and delta-kick drives.  Keeping both lets each validate the
other; do not fold them together.  bessel_table gives every Bessel value (the
closed form's, and the effective model's Chebyshev series'): Miller's backward
recurrence, and J_0 = 1, J_1 = x/2 below x = 1e-300.  _tail_order's one bound
|J_v(x)| <= (x/2)^v / v! starts that recurrence and caps that series.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, DriveSpec, Waveform, WaveformKind

__all__ = [
    "EffectiveHoppings",
    "kappa_x_quadrature",
    "kappa_y_quadrature",
    "kappa_closed_sinusoidal",
    "kappa_closed_delta",
    "hoppings_from_drive",
]

_MILLER_FROM = 1e-300  # below: J_0 = 1, J_1 = x/2, higher orders underflow; 2j/x overflows
_MILLER_START = 1e-280  # Miller's recurrence starts here, rescales past 1e300


def _tail_order(x: float, start: int = 0, drop: float = 0.0) -> int:
    """First order v >= max(start, x) at which (x/2)^v / v!, the bound on J_v(x),
    is <= 1e-17 and, when start >= x, at least e^-drop below its value at start.

    Past x the bound falls by more than half per order, so J_v and all later
    orders sum to below 2e-17, at x and at every smaller argument.  At x = 0
    only J_0 is nonzero.
    """
    v = max(start, math.ceil(x))
    if x == 0.0:
        return max(v, 1)
    log_b = v * math.log(0.5 * x) - math.lgamma(v + 1.0)
    target = min(math.log(1e-17), log_b - drop if v == start else 0.0)
    while log_b > target:
        v += 1
        log_b += math.log(0.5 * x / v)
    return v


def _bessel_miller(top: int, x: np.ndarray) -> np.ndarray:
    """J_0..J_top at x >= _MILLER_FROM by Miller's backward recurrence.

    f_(j-1) = (2j/x) f_j - f_(j+1) from f_(N+1) = 0, normalised by
    J_0 + 2 sum J_2k = 1.  No column grows by more than prod_j (2j/x_min + 1),
    a bound the loop keeps as it goes, rescaling the rows when it passes 1e300.
    """
    N = _tail_order(float(x.max()), top, 25.0)  # J_top keeps 1e-13 relative
    N += N % 2
    f = np.zeros((N + 2, x.size))
    f[N] = _MILLER_START
    ratio = (2.0 * np.arange(N + 1))[:, None] / x
    bound, scale = _MILLER_START, 2.0 / float(x.min())
    cur, nxt = f[N], f[N + 1]
    for j in range(N, 0, -1):
        bound *= 1.0 + scale * j  # inf past the largest double, so it rescales too
        if bound > 1e300:
            f[j:] /= np.maximum(np.abs(cur), np.abs(nxt))
            bound = 1.0 + scale * j
        prev = f[j - 1]
        np.subtract(np.multiply(ratio[j], cur, out=prev), nxt, out=prev)
        cur, nxt = prev, cur
    return (f[:top + 1] / (f[0] + 2.0 * f[2:N + 1:2].sum(axis=0))).T


def bessel_table(top: int, x) -> np.ndarray:
    """J_0(x) .. J_top(x) for x >= 0, in an array of shape x.shape + (top + 1,)."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if not np.all((flat >= 0.0) & (flat < math.inf)):
        raise ValueError("bessel_table needs finite x >= 0")
    out = np.zeros((flat.size, top + 1))
    tiny = flat < _MILLER_FROM  # 0 too: J_n(0) = delta_n0
    out[tiny, 0] = 1.0
    out[tiny, 1:2] = 0.5 * flat[tiny, None]
    if not tiny.all():
        out[~tiny] = _bessel_miller(top, flat[~tiny])
    return out.reshape(x.shape + (top + 1,))


def jv(n: int, x):
    """Bessel function J_n(x) of integer order n, elementwise over x."""
    x = np.asarray(x, dtype=float)
    value = bessel_table(abs(n), np.abs(x))[..., abs(n)]
    # J_-n = (-1)^n J_n and J_n(-x) = (-1)^n J_n(x)
    return np.where((n < 0) != (x < 0), -value, value) if n % 2 else value


@dataclass(frozen=True)
class EffectiveHoppings:
    """Complex effective couplings and the flux they imply.

    alpha is the magnetic flux per plaquette in units of the flux quantum;
    it is tied to the drive geometry by alpha = sigma M / (2 pi).  The bound
    2(|kappa_x| + |kappa_y|) on every energy must be finite.
    """

    kappa_x: complex
    kappa_y: complex
    alpha: float
    M: int
    sigma: float
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "kappa_x", complex(self.kappa_x))
        object.__setattr__(self, "kappa_y", complex(self.kappa_y))
        if not math.isfinite(2.0 * (abs(self.kappa_x) + abs(self.kappa_y))):  # nan, inf too
            raise ValueError("kappa_x and kappa_y must be finite, and so must "
                             "2(|kappa_x| + |kappa_y|)")
        expected = self.M * self.sigma / TWO_PI
        if abs(self.alpha - expected) > 1e-12 * max(1.0, abs(expected)):
            raise ValueError(f"alpha {self.alpha} inconsistent with sigma*M/(2*pi) = {expected}")

    @property
    def flux_angle(self) -> float:
        """Phase picked up around one plaquette, 2 pi alpha = M sigma."""
        return self.M * self.sigma


def _delta_average(Gamma: float, shift: float, M: int) -> complex:
    """Exact period average for the delta-kick train.

    G, the square wave 1 where x mod 2 pi < pi and 0 elsewhere, is constant
    between kicks, so the integrand is a constant phase times exp(-iMx) on
    each of at most four segments.  G is read at each segment's midpoint,
    off every kick however narrow the segment, and exp(-iMx) integrated.
    """
    a = (-shift) % math.pi
    pts = sorted({0.0, a, math.pi, a + math.pi, TWO_PI})
    total = 0.0 + 0.0j
    for u, v in zip(pts[:-1], pts[1:]):
        xm = 0.5 * (u + v)
        jump = (xm % TWO_PI < math.pi) - ((xm + shift) % TWO_PI < math.pi)
        seg = v - u if M == 0 else (cmath.exp(-1j * M * u) - cmath.exp(-1j * M * v)) / (1j * M)
        total += cmath.exp(1j * Gamma * jump) * seg
    return total / TWO_PI


def _phase_average(Gamma: float, shift: float, M: int, waveform: Waveform) -> complex:
    """(1/2 pi) Int_0^{2 pi} exp(-iMx + i Gamma [G(x) - G(x+shift)]) dx."""
    if waveform.kind is WaveformKind.DELTA_KICKS:
        return _delta_average(Gamma, shift, M)
    results = []
    for num in (4096, 8192):
        x = np.arange(num) * (TWO_PI / num)
        arg = Gamma * (waveform.antiderivative(x) - waveform.antiderivative(x + shift)) - M * x
        # uniform nodes on the full period: the rectangle rule is spectrally
        # accurate for periodic integrands
        results.append(complex(np.mean(np.exp(1j * arg))))
    if abs(results[1] - results[0]) > 1e-9:
        warnings.warn(
            f"period-average quadrature changed by {abs(results[1] - results[0]):.2e} "
            "between 4096 and 8192 nodes; waveform may be under-resolved",
            stacklevel=3,
        )
    return results[1]


def kappa_x_quadrature(J_x: float, Gamma: float, sigma: float, waveform: Waveform) -> complex:
    """Horizontal effective hopping by direct period averaging."""
    return J_x * _phase_average(Gamma, sigma, 0, waveform)


def kappa_y_quadrature(J_y: float, Gamma: float, rho: float, M: int, waveform: Waveform) -> complex:
    """Vertical effective hopping (M-th harmonic) by direct period averaging."""
    return J_y * _phase_average(Gamma, rho, M, waveform)


def kappa_closed_sinusoidal(J_x: float, J_y: float, Gamma: float, sigma: float,
                            rho: float, M: int) -> EffectiveHoppings:
    """Closed-form hoppings for H(x) = cos x.

    G(x) - G(x + s) = -2 sin(s/2) cos(x + s/2), so the period averages are
    Bessel functions:

        kappa_x = Jx J_0(2 Gamma sin(sigma/2))
        kappa_y = Jy J_M(2 Gamma sin(rho/2)) exp(i M (rho - pi) / 2).
    """
    kx = J_x * jv(0, 2.0 * Gamma * math.sin(0.5 * sigma))
    ky = (J_y * jv(M, 2.0 * Gamma * math.sin(0.5 * rho))
          * cmath.exp(0.5j * M * (rho - math.pi)))
    return EffectiveHoppings(complex(kx), ky, alpha=M * sigma / TWO_PI,
                             M=M, sigma=sigma, rho=rho)


def kappa_closed_delta(J_x: float, J_y: float, Gamma: float, sigma: float,
                       rho: float, M: int) -> EffectiveHoppings:
    """Closed-form hoppings for the alternating delta-kick train.

    The square-wave antiderivative makes the period averages elementary:

        kappa_x = Jx [1 - (2|sigma|/pi) sin^2(Gamma/2)]
        kappa_y = (4 Jy / M pi) sin(M rho / 2) sin(Gamma/2)
                  sin(M pi / 2 - sgn(rho) Gamma / 2) exp(i M (rho - pi) / 2).

    kappa_y is the M-th harmonic of a two-level phase pattern; it needs a
    nonzero harmonic index and a nonzero vertical phase lag to exist.
    """
    if M == 0 or rho == 0.0:
        raise ValueError("degenerate drive: delta-kick closed form needs M != 0 and rho != 0")
    kx = J_x * (1.0 - (2.0 * abs(sigma) / math.pi) * math.sin(0.5 * Gamma) ** 2)
    mag = (4.0 * J_y / (M * math.pi)
           * math.sin(0.5 * M * rho)
           * math.sin(0.5 * Gamma)
           * math.sin(0.5 * M * math.pi - math.copysign(0.5, rho) * Gamma))
    ky = mag * cmath.exp(0.5j * M * (rho - math.pi))
    return EffectiveHoppings(complex(kx), ky, alpha=M * sigma / TWO_PI,
                             M=M, sigma=sigma, rho=rho)


def hoppings_from_drive(drive: DriveSpec, J_x: float, J_y: float,
                        method: str = "auto") -> EffectiveHoppings:
    """Effective hoppings for a drive, by quadrature or closed form.

    method: "quadrature" (any waveform), "closed" (sinusoidal or delta-kick
    only), or "auto" (closed form when one exists, else quadrature).
    """
    kind = drive.waveform.kind
    if method not in ("auto", "quadrature", "closed"):
        raise ValueError(f"unknown method {method!r}")
    if method == "closed" or (method == "auto" and kind is not WaveformKind.SAMPLED):
        if kind is WaveformKind.SINUSOIDAL:
            return kappa_closed_sinusoidal(J_x, J_y, drive.Gamma, drive.sigma, drive.rho, drive.M)
        if kind is WaveformKind.DELTA_KICKS:
            return kappa_closed_delta(J_x, J_y, drive.Gamma, drive.sigma, drive.rho, drive.M)
        raise ValueError("no closed form for sampled waveforms; use quadrature")
    kx = kappa_x_quadrature(J_x, drive.Gamma, drive.sigma, drive.waveform)
    ky = kappa_y_quadrature(J_y, drive.Gamma, drive.rho, drive.M, drive.waveform)
    return EffectiveHoppings(kx, ky, alpha=drive.M * drive.sigma / TWO_PI,
                             M=drive.M, sigma=drive.sigma, rho=drive.rho)
