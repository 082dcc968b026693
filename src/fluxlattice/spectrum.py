"""Magnetic band structure of the effective lattice at rational flux.

At flux alpha = p/q per plaquette the effective model is periodic over a
magnetic cell of q columns; the Bloch ansatz
f[n,m] = e^{i kx n + i ky m} u[n mod q] reduces it to a q x q hermitian
eigenproblem per quasimomentum,

    E u[n] = -kappa_x e^{i kx} u[n+1] - kappa_x* e^{-i kx} u[n-1]
             - 2 |kappa_y| cos(ky + 2 pi alpha n + arg kappa_y) u[n],

(indices mod q, so q = 1 and q = 2 pick up both wrap-around couplings on
the same entry).  The hopping phases only shift the quasimomenta, to
kx' = kx + arg kappa_x and ky' = ky + arg kappa_y, and by Chambers'
relation (Chambers 1965; Hofstadter, PRB 14, 2239 (1976)) det(E - H)
depends on them only through |kappa_x|^q cos(q kx') + |kappa_y|^q cos(q ky'),
whose two terms share a sign at the points kx' = ky' in {0, pi/q}.  Only
there does it reach its extremes +-(|kappa_x|^q + |kappa_y|^q); the mixed
points give +-(|kappa_x|^q - |kappa_y|^q), inside a band.  Every band edge is
thus an eigenvalue at one of the two points: exact, with no k-grid, and set
by |kappa_x| and |kappa_y| alone.  At both points the gauge
u[n] -> e^{-i kx' n} u[n] moves the whole x-phase onto the wrap link
q-1 -> 0 as e^{i q kx'} = +-1, so each Bloch matrix is a real symmetric
chain, periodic at kx' = 0 and antiperiodic at kx' = pi/q.  Many rationals
give the Hofstadter butterfly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import TWO_PI
from .hopping import EffectiveHoppings

__all__ = [
    "RationalFlux",
    "BandSet",
    "harper_bands",
    "band_count",
    "butterfly",
    "farey_fluxes",
]


@dataclass(frozen=True)
class RationalFlux:
    """Flux alpha = p/q per plaquette, p and q coprime, q >= 1."""

    p: int
    q: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not isinstance(self.q, int):
            raise ValueError("p and q must be integers")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p/q = {self.p}/{self.q} must be coprime")

    @property
    def alpha(self) -> float:
        return self.p / self.q

    def folded(self) -> "RationalFlux":
        """Equivalent flux in (-1/2, 1/2] (flux is defined modulo 1)."""
        p = self.p % self.q
        if 2 * p > self.q:
            p -= self.q
        return RationalFlux(p, self.q)

    @classmethod
    def from_float(cls, alpha: float, q_max: int = 64) -> "RationalFlux":
        """Best rational approximant with denominator <= q_max."""
        frac = Fraction(alpha).limit_denominator(q_max)
        return cls(frac.numerator, frac.denominator)


def farey_fluxes(q_max: int) -> list[RationalFlux]:
    """All reduced fractions p/q in [0, 1] with q <= q_max, ascending."""
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    fluxes = [RationalFlux(p, q)
              for q in range(1, q_max + 1)
              for p in range(0, q + 1)
              if math.gcd(p, q) == 1]
    fluxes.sort(key=lambda f: f.alpha)
    return fluxes


@dataclass(frozen=True)
class BandSet:
    """Sorted energy bands; touching[i] flags a point contact of bands i, i+1."""

    intervals: tuple[tuple[float, float], ...]
    touching: tuple[bool, ...]
    k_grid: int

    def __post_init__(self):
        if len(self.touching) != max(len(self.intervals) - 1, 0):
            raise ValueError("need one touching flag per adjacent band pair")

    @property
    def total_bandwidth(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)


def _chambers_eigenvalues(kappa_x_abs: float, kappa_y_abs: float, q: int,
                          alphas: np.ndarray) -> np.ndarray:
    """Bloch eigenvalues, shape (F, 2, q) and ascending, of F fluxes alphas = p/q.

    Solved in one real float64 stack (F, 2, q, q) at kx' = ky' in {0, pi/q},
    where both Chambers terms share a sign and so every band edge lies.  In
    the gauge u[n] -> e^{-i kx' n} u[n] each link n -> n+1 is -|kappa_x|,
    but the wrap link q-1 -> 0 carries the x-phase, -|kappa_x| e^{i q kx'}:
    -|kappa_x| at kx' = 0 (periodic) and +|kappa_x| at kx' = pi/q
    (antiperiodic).  The diagonal is -2|kappa_y| cos(ky' + 2 pi alpha n).
    For q = 1 and q = 2 both couplings land on one entry.
    """
    k = np.array([0.0, math.pi / q])
    diag = -2.0 * kappa_y_abs * np.cos(k[:, None] + TWO_PI * alphas[:, None, None] * np.arange(q))
    ring = np.eye(q, k=1) + np.eye(q, k=-1)
    wrap = np.eye(q, k=q - 1) + np.eye(q, k=1 - q)  # the link q-1 -> 0
    H = np.empty((alphas.size, 2, q, q))
    H[:] = -kappa_x_abs * np.stack([ring + wrap, ring - wrap])
    H.reshape(alphas.size, 2, q * q)[..., ::q + 1] += diag
    return np.linalg.eigvalsh(H)


def harper_bands(hoppings: EffectiveHoppings, flux: RationalFlux,
                 k_grid: int = 64) -> BandSet:
    """Exact energy bands over the magnetic Brillouin zone.

    Band b spans the b-th eigenvalues at the two Chambers points kx' = ky'
    in {0, pi/q}, where both Chambers terms share a sign; adjacent bands
    whose gap is within 1e-6 * max|kappa| of zero are flagged as
    point-touching.  Harper bands never overlap, so a gap below
    -1e-6 * max|kappa| raises AssertionError.  ``k_grid`` (>= 32) is
    validated and recorded in the BandSet but does not affect the edges.
    """
    if k_grid < 32:
        raise ValueError("k_grid must be >= 32")
    kx, ky = abs(hoppings.kappa_x), abs(hoppings.kappa_y)
    evals = _chambers_eigenvalues(kx, ky, flux.q, np.array([flux.alpha]))[0]
    lo, hi = evals.min(axis=0), evals.max(axis=0)
    tol = 1e-6 * max(kx, ky)
    gaps = lo[1:] - hi[:-1]
    if np.any(gaps < -tol):
        raise AssertionError(f"Harper bands overlap by {-gaps.min():.3e}")
    return BandSet(tuple(zip(lo.tolist(), hi.tolist())),
                   tuple(bool(abs(g) <= tol) for g in gaps), k_grid)


def band_count(hoppings: EffectiveHoppings, flux: RationalFlux,
               k_grid: int = 64) -> int:
    """Number of distinct bands (point-touching bands counted separately)."""
    return len(harper_bands(hoppings, flux, k_grid).intervals)


def butterfly(ratio: float, flux_list, k_grid: int = 64) -> np.ndarray:
    """Band intervals over many fluxes, for |kappa_y / kappa_x| = ratio.

    Energies are in units of kappa_x.  Returns rows (alpha, E_min, E_max),
    one per band, ordered by flux then energy — the Hofstadter-butterfly
    dataset for plotting.  ``k_grid`` (>= 32) is validated but does not
    affect the edges, which are exact.  ratio must be finite.
    """
    if k_grid < 32:
        raise ValueError("k_grid must be >= 32")
    if not math.isfinite(ratio):
        raise ValueError("ratio must be finite")
    fluxes = list(flux_list)
    qs = np.array([f.q for f in fluxes], dtype=int)
    alphas = np.array([f.alpha for f in fluxes])
    rows = np.empty((qs.sum(), 3))
    for q in np.unique(qs):  # one stacked eigensolve per denominator
        at = np.flatnonzero(qs == q)
        evals = _chambers_eigenvalues(1.0, abs(ratio), q, alphas[at])
        band = np.cumsum(qs)[at, None] - q + np.arange(q)  # rows of the fluxes at
        rows[band, 0] = alphas[at, None]
        rows[band, 1], rows[band, 2] = evals.min(axis=1), evals.max(axis=1)
    return rows
