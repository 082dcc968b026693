"""Effective magnetic-lattice dynamics, gauge maps, and semiclassics.

After period-averaging the driven model, the amplitudes f = c exp(+i theta)
obey the static equations

    i df/dt = -kappa_x f[n+1,m] - kappa_x* f[n-1,m]
              - kappa_y e^{+i n M sigma} f[n,m+1]
              - kappa_y* e^{-i n M sigma} f[n,m-1],

a charged particle on a square lattice threaded by flux
alpha = sigma M / (2 pi) per plaquette in Landau gauge (Peierls phase on
the vertical links, winding with the column index n).  This module
propagates that model exactly, converts fields between the driven and effective
frames, evaluates expectation-value kinematics, and integrates the
semiclassical closure of the mean-value equations.

The exact propagator is a Chebyshev series, one basis a block of samples.
A run holds the basis and a store of half as many samples, filled a slab
at a time; each slab multiplies only the orders its own samples' series
need, so a slab of short spans costs less.  A series longer than its
byte-capped buffer is summed into a store of the whole block instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DriveSpec, LatticeWindow, WaveField, gauge_phase
from .dynamics import (
    IntegratorOptions,
    Trajectory,
    _check_samples,
    _Hop,
    _neighbor_diagonals,
    _neighbor_matrix,
    _rk4_span,
    _Run,
    _sample_sums,
    _SampleSums,
)
from .hopping import EffectiveHoppings, _tail_order, bessel_table

__all__ = [
    "effective_matrix",
    "evolve_effective",
    "gauge_map",
    "gauge_unmap",
    "SemiclassicalState",
    "semiclassical_evolve",
    "Kinematics",
    "expectation_kinematics",
]

_BLOCK_SPAN = 4.0  # largest R (t - t_b) one Chebyshev basis serves
_BLOCK_BYTES = 32 * 2**20  # largest block of samples, or of U_k vectors, at 16 B a site


def _effective_links(window: LatticeWindow, hoppings: EffectiveHoppings):
    """(up_x, up_y) of the effective Hamiltonian, up_y with its Peierls phase."""
    peierls = np.exp(1j * hoppings.flux_angle * window.n_values)
    return -hoppings.kappa_x, -hoppings.kappa_y * peierls


def effective_matrix(window: LatticeWindow, hoppings: EffectiveHoppings):
    """Static effective Hamiltonian on the flattened window (scipy CSR); needs scipy."""
    return _neighbor_matrix(window, *_effective_links(window, hoppings))


def _chebyshev_rate(hoppings: EffectiveHoppings) -> float:
    """R = 2(|kappa_x| + |kappa_y|) >= ||H||, with x = R (t - t_b); 1 at H = 0."""
    return 2.0 * (abs(hoppings.kappa_x) + abs(hoppings.kappa_y)) or 1.0


def _chebyshev_block(hop2: _Hop, psi: np.ndarray, x: np.ndarray, space: list):
    """Yield exp(-i x_i Hs) psi = sum_k (2 - delta_k0) J_k(x_i) U_k as slabs of rows.

    hop2 applies -2i Hs, so U_k = (-i)^k T_k(Hs) psi = hop2(U_(k-1)) + U_(k-2)
    has real coefficients.  They are computed up to the bound _tail_order(max x).
    Row i stops at its own order, the first past which its computed |c_k|
    sum to below 4e-17, and the series at the largest of these stops.  That
    order lies past max x, where each J_k(x) still rises with x, so it is
    the stop of the row of max x.

    space is the run's [U_k buffer, store], each replaced by a longer one
    when this series needs more.  The buffer holds up to the series' terms
    vectors, within _BLOCK_BYTES (at least two).  When it holds the whole
    series, the store holds half as many rows (at least two) but no more
    than the block has, and the rows are made in near-equal slabs of at
    most the store's length, each one real product of its coefficient rows
    with the orders up to the largest stop among them.  (numpy makes a
    one-row product another way, which rounds differently; near-equal slabs
    have one row only in one-sample blocks or two-row stores.)  Otherwise
    the store holds the block's rows, as many as the buffer at most: the
    buffer is flushed into it as it fills, the first time as one product
    and then row by row, and the block is the one slab.  A store is only
    lengthened, so a later block may find it longer than this one needs.
    Each slab is a view of the store that the next overwrites.  psi may be
    a row of the store: the buffer takes it before any slab is written.
    """
    c = bessel_table(_tail_order(float(x.max())) - 1, x)
    c[:, 1:] *= 2.0
    # a row's |c_k| sum to at least 1 (J_0^2 + 2 sum J_k^2 = 1), so it keeps an order
    stops = (np.abs(c[:, ::-1]).cumsum(axis=1) >= 4e-17).sum(axis=1).tolist()
    terms = max(stops)
    c = c[:, :terms]
    size = min(terms, max(2, _BLOCK_BYTES // (16 * psi.size)))
    outrun = terms > size
    store_rows = min(len(c), size if outrun else max(2, -(-size // 2)))
    if len(space[0]) < size:
        space[0] = np.empty((size, psi.size), complex)
    if len(space[1]) < store_rows:
        space[1] = np.empty((store_rows, psi.size), complex)
    buf, store = space
    buf_f, store_f = buf.view(float), store.view(float)
    for k in range(terms):
        j = k % len(buf)
        if k == 0:
            buf[0] = psi
        elif k == 1:
            np.multiply(hop2(psi), 0.5, out=buf[1])
        else:  # rows j-1 and j-2 wrap around
            np.add(hop2(buf[j - 1]), buf[j - 2], out=buf[j])
        if outrun and (j == len(buf) - 1 or k == terms - 1):
            if k == j:
                np.matmul(c[:, :k + 1], buf_f[:k + 1], out=store_f[:len(c)])
            else:
                for coeffs, out in zip(c[:, k - j:k + 1], store_f):
                    out += coeffs @ buf_f[:j + 1]
    if outrun:
        yield store[:len(c)]
        return
    first = 0
    for rows in np.array_split(c, -(-len(c) // len(store))):
        k = max(stops[first:first + len(rows)])  # the orders these rows need
        first += len(rows)
        np.matmul(rows[:, :k], buf_f[:k], out=store_f[:len(rows)])
        yield store[:len(rows)]


def evolve_effective(initial: WaveField, hoppings: EffectiveHoppings, t_samples,
                     opts: IntegratorOptions | None = None,
                     t_start: float = 0.0, *, keep: str = "amplitudes") -> Trajectory:
    """Propagate the effective model exactly, with evolve_full's contract.

    exp(-i H dt) is a Chebyshev series in H/R, R = 2(|kappa_x| + |kappa_y|)
    >= ||H|| (Tal-Ezer and Kosloff 1984).  From the state at a block start
    t_b, one set of U_k = (-i)^k T_k(H/R) psi(t_b) serves every following
    sample with R (t - t_b) <= _BLOCK_SPAN (at least one; the samples, and
    the U_k, at most _BLOCK_BYTES each): each is a row of a product with the
    real coefficients (2 - delta_k0) J_k(R (t - t_b)), made a slab of rows
    at a time; the block's last sample starts the next.  A sample at or
    before t_start is the input.
    opts.dt_max has no effect; the drift and edge-mass checks still apply.
    keep is evolve_full's.
    """
    return _effective_run(initial, hoppings, t_samples, opts, t_start, keep).trajectory()


def _effective_run(initial: WaveField, hoppings: EffectiveHoppings, t_samples,
                   opts: IntegratorOptions | None, t_start: float, keep: str) -> _Run:
    """evolve_effective's samples as a _Run, made one Chebyshev block at a time.

    The run makes one U_k buffer of a series' terms and one store of half
    as many samples (at least two, at most the block's), or of the block
    while a series outruns the buffer, each within _BLOCK_BYTES, and
    lengthens them only when a block needs more.  So it holds the basis and
    one slab of samples, each slab stopping at its own series tail, or,
    while a series outruns the buffer, the block; no flush makes a product
    larger than a sample.  A block starts from the last sample of the one
    before, a row of the store, so a block that lengthens the store holds
    the old one too.
    """
    opts = opts or IntegratorOptions()
    window = initial.window
    t = _check_samples(t_samples, t_start)
    kx, ky = abs(hoppings.kappa_x), abs(hoppings.kappa_y)
    R = _chebyshev_rate(hoppings)
    hop2 = _Hop(_neighbor_diagonals(window, *_effective_links(window, hoppings),
                                     scale=-2j / R), initial.amplitudes.size)

    def samples(psi):
        space = [np.empty((0, psi.size), dtype=complex)] * 2
        start, t_b, rows = 0, t_start, _BLOCK_BYTES // (16 * psi.size)
        while start < t.size:
            stop = max(start + 1, min(start + rows, int(np.searchsorted(
                t, t_b + _BLOCK_SPAN / R, side="right"))))
            x = R * np.maximum(t[start:stop] - t_b, 0.0)
            for slab in _chebyshev_block(hop2, psi, x, space):
                yield from slab
            # a row of the store, which the next block reads before it writes a slab
            start, t_b, psi = stop, max(t_b, t[stop - 1]), slab[-1]

    return _Run(window, t, samples(initial.amplitudes.ravel()), keep,
                opts, max(kx, ky) or 1.0, t_start)


def gauge_map(exact: WaveField, t: float, drive: DriveSpec,
              side: str = "right") -> WaveField:
    """Driven frame -> effective frame: f = c exp(+i theta(t)).

    Unimodular, so |f| = |c| site by site.  For states prepared at a kick
    time of the delta train but not yet kicked (fresh inputs handed to the
    integrator), map with side="left"; sampled trajectory fields are
    post-kick and use the default right branch.
    """
    theta = gauge_phase(drive, exact.window, t, side=side)
    return WaveField(exact.window, exact.amplitudes * np.exp(1j * theta))


def gauge_unmap(field: WaveField, t: float, drive: DriveSpec,
                side: str = "right") -> WaveField:
    """Effective frame -> driven frame: c = f exp(-i theta(t))."""
    theta = gauge_phase(drive, field.window, t, side=side)
    return WaveField(field.window, field.amplitudes * np.exp(-1j * theta))


@dataclass(frozen=True)
class SemiclassicalState:
    """Mean position and generalized momenta of a wavepacket."""

    n_mean: float
    m_mean: float
    Pn_mean: float
    Pm_mean: float

    def __post_init__(self):
        vals = (self.n_mean, self.m_mean, self.Pn_mean, self.Pm_mean)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("semiclassical state must be finite")


@dataclass(frozen=True)
class Kinematics:
    """Expectation-value snapshot of a field: state plus exact velocities."""

    state: SemiclassicalState
    v_n: float
    v_m: float
    sin_Pn: float
    sin_Pm: float


def expectation_kinematics(field: WaveField, hoppings: EffectiveHoppings) -> Kinematics:
    """Positions, momenta, and velocities of an effective-frame field.

    Momentum expectations follow the link-correlator convention

        <sin Pn> = Im sum f*[n,m] f[n+1,m] / sum |f|^2
        <sin Pm> = Im sum e^{i n M sigma} f*[n,m] f[n,m+1] / sum |f|^2,

    the vertical one carrying the same Peierls offset as the Hamiltonian so
    that the Ehrenfest identities d<n>/dt = 2 Im(kappa_x Cx) and
    d<m>/dt = 2 Im(kappa_y Cy) hold exactly (= 2 kappa <sin P> for real
    kappa).  A field factor e^{-i p n} therefore reads out as <Pn> = -p.
    Reported momenta are the arcsin branch in [-pi/2, pi/2].
    """
    table = _kinematics(_sample_sums(field.amplitudes[None]), field.window, hoppings)
    n_mean, m_mean, pn, pm, sin_pn, sin_pm, v_n, v_m = table[0].tolist()
    return Kinematics(SemiclassicalState(n_mean, m_mean, pn, pm),
                      v_n, v_m, sin_pn, sin_pm)


def _kinematics(sums: _SampleSums, window: LatticeWindow,
                hoppings: EffectiveHoppings) -> np.ndarray:
    """Kinematics of every sample from their sums; expectation_kinematics reads row 0.

    Columns: n_mean, m_mean, Pn, Pm, sin_Pn, sin_Pm, v_n, v_m; one row per
    sample.  The Peierls phase meets the per-row correlators in one product.
    """
    norm, com = sums.com(window)
    cx = sums.link_x / norm
    cy = sums.link_y @ np.exp(1j * hoppings.flux_angle * window.n_values) / norm
    return np.column_stack([
        com,
        np.arcsin(np.clip(cx.imag, -1.0, 1.0)),
        np.arcsin(np.clip(cy.imag, -1.0, 1.0)),
        cx.imag, cy.imag,
        2.0 * (hoppings.kappa_x * cx).imag,
        2.0 * (hoppings.kappa_y * cy).imag,
    ])


def _semiclassical_step(hoppings: EffectiveHoppings, sigma: float) -> float:
    """RK4 step cap of semiclassical_evolve: 0.001 over its fastest rate, or 1."""
    kx, ky = abs(hoppings.kappa_x), abs(hoppings.kappa_y)
    scale = max(abs(kx * sigma), abs(ky * sigma), kx, ky)
    if scale == math.inf:
        raise ValueError("semiclassical rates |kappa sigma| overflow")
    return 0.001 / scale if scale > 0.0 else 1.0


def semiclassical_evolve(initial: SemiclassicalState, hoppings: EffectiveHoppings,
                         sigma: float, t_samples) -> list[SemiclassicalState]:
    """Integrate the mean-value closure from t = 0.

        d<n>/dt = 2 kappa_x sin Pn        dPn/dt = -2 kappa_y sigma sin Pm
        d<m>/dt = 2 kappa_y sin Pm        dPm/dt = +2 kappa_x sigma sin Pn

    sigma is the flux angle per plaquette (2 pi alpha, i.e.
    hoppings.flux_angle for a drive-derived model).  Complex hoppings are
    reduced to real ones by shifting each momentum by arg kappa before
    integration and shifting back afterwards; momenta are integrated
    unwrapped.
    """
    t = _check_samples(t_samples, 0.0)
    ax = math.atan2(hoppings.kappa_x.imag, hoppings.kappa_x.real)
    ay = math.atan2(hoppings.kappa_y.imag, hoppings.kappa_y.real)
    kx, ky = abs(hoppings.kappa_x), abs(hoppings.kappa_y)
    y = np.array([initial.n_mean, initial.m_mean,
                  initial.Pn_mean + ax, initial.Pm_mean + ay])

    def rhs(_, s, out):
        spn, spm = math.sin(s[2]), math.sin(s[3])
        out[:] = (2.0 * kx * spn, 2.0 * ky * spm,
                  -2.0 * ky * sigma * spm, 2.0 * kx * sigma * spn)
        return out

    h_cap = _semiclassical_step(hoppings, sigma)
    out, t_cur = [], 0.0
    for ts in t:
        y = _rk4_span(y, t_cur, float(ts), h_cap, rhs)
        t_cur = float(ts)
        out.append(SemiclassicalState(y[0], y[1], y[2] - ax, y[3] - ay))
    return out
