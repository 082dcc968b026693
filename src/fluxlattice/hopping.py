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
other; do not fold them together.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .core import TWO_PI, DriveSpec, Waveform, WaveformKind

__all__ = [
    "EffectiveHoppings",
    "kappa_x_quadrature",
    "kappa_y_quadrature",
    "kappa_closed_sinusoidal",
    "kappa_closed_delta",
    "hoppings_from_drive",
]


@dataclass(frozen=True)
class EffectiveHoppings:
    """Complex effective couplings and the flux they imply.

    alpha is the magnetic flux per plaquette in units of the flux quantum;
    it is tied to the drive geometry by alpha = sigma M / (2 pi).
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
        expected = self.M * self.sigma / TWO_PI
        if abs(self.alpha - expected) > 1e-12 * max(1.0, abs(expected)):
            raise ValueError(f"alpha {self.alpha} inconsistent with sigma*M/(2*pi) = {expected}")

    @property
    def flux_angle(self) -> float:
        """Phase picked up around one plaquette, 2 pi alpha = M sigma."""
        return self.M * self.sigma


def _delta_average(Gamma: float, shift: float, M: int) -> complex:
    """Exact period average for the delta-kick train.

    G, the right-continuous square wave, is piecewise constant, so the
    integrand is a product of a constant phase and exp(-iMx) on each of at
    most four segments; integrate each segment analytically.
    """
    G = Waveform.delta_kicks().antiderivative
    a = (-shift) % math.pi
    pts = sorted({0.0, a, math.pi, a + math.pi, TWO_PI})
    total = 0.0 + 0.0j
    for u, v in zip(pts[:-1], pts[1:]):
        if v <= u:
            continue
        xm = 0.5 * (u + v)
        w = cmath.exp(1j * Gamma * (G(xm) - G(xm + shift)))
        if M == 0:
            seg = v - u
        else:
            seg = (cmath.exp(-1j * M * u) - cmath.exp(-1j * M * v)) / (1j * M)
        total += w * seg
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
