"""Magnetic band structure: rational fluxes, Harper bands, butterfly."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fluxlattice import (
    BandSet,
    DriveSpec,
    EffectiveHoppings,
    RationalFlux,
    band_count,
    butterfly,
    Waveform,
    farey_fluxes,
    harper_bands,
    hoppings_from_drive,
)

PI = math.pi


def _hoppings(kx, ky, flux):
    sig = 2 * PI * flux.alpha
    return EffectiveHoppings(kx, ky, alpha=flux.alpha, M=1, sigma=sig, rho=PI)


# -- rational flux bookkeeping ----------------------------------------------------

def test_rational_flux_validation():
    with pytest.raises(ValueError, match="coprime"):
        RationalFlux(2, 4)
    with pytest.raises(ValueError, match=">= 1"):
        RationalFlux(1, 0)
    with pytest.raises(ValueError, match="integers"):
        RationalFlux(0.5, 2)
    assert RationalFlux(1, 3).alpha == pytest.approx(1 / 3)


def test_rational_flux_folding_and_from_float():
    f = RationalFlux(3, 4).folded()
    assert (f.p, f.q) == (-1, 4)
    g = RationalFlux.from_float(1 / 3)
    assert (g.p, g.q) == (1, 3)
    h = RationalFlux.from_float(0.5)
    assert (h.p, h.q) == (1, 2)


def test_farey_fluxes_ordering_and_coprimality():
    fluxes = farey_fluxes(5)
    alphas = [f.alpha for f in fluxes]
    assert alphas == sorted(alphas)
    assert alphas[0] == 0.0 and alphas[-1] == 1.0
    assert all(math.gcd(f.p, f.q) == 1 for f in fluxes)
    assert len(fluxes) == len(set(Fraction(f.p, f.q) for f in fluxes))
    with pytest.raises(ValueError):
        farey_fluxes(0)


# -- band structure ----------------------------------------------------------------

def test_zero_flux_single_band():
    h = _hoppings(1.0, 0.7, RationalFlux(0, 1))
    bands = harper_bands(h, RationalFlux(0, 1), k_grid=64)
    assert len(bands.intervals) == 1
    lo, hi = bands.intervals[0]
    # extremes hit on-grid at k = 0 and k = pi
    assert hi == pytest.approx(2 * (1.0 + 0.7), abs=1e-12)
    assert lo == pytest.approx(-2 * (1.0 + 0.7), abs=1e-12)


def test_half_flux_dirac_bands():
    # alpha = 1/2: E = +-2 sqrt(kx^2 cos^2 qx + ky^2 cos^2 qy)
    for kx, ky in ((1.0, 1.0), (1.0, 2.0)):
        h = _hoppings(kx, ky, RationalFlux(1, 2))
        bands = harper_bands(h, RationalFlux(1, 2), k_grid=64)
        assert len(bands.intervals) == 2
        top = bands.intervals[1]
        assert top[1] == pytest.approx(2 * math.hypot(kx, ky), abs=1e-9)
        assert top[0] == pytest.approx(0.0, abs=1e-9)
        assert bands.intervals[0][0] == pytest.approx(-top[1], abs=1e-9)
        assert bands.touching == (True,)  # Dirac points at E = 0


def test_band_count_matches_denominator():
    for p, q in ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5)):
        flux = RationalFlux(p, q)
        h = _hoppings(1.0, 1.0, flux)
        assert band_count(h, flux, k_grid=32) == q


def test_band_set_validation():
    with pytest.raises(ValueError, match="touching"):
        BandSet(((0.0, 1.0), (2.0, 3.0)), (), np.linspace(0, 2 * PI, 8))
    with pytest.raises(ValueError, match="k_grid"):
        h = _hoppings(1.0, 1.0, RationalFlux(1, 2))
        harper_bands(h, RationalFlux(1, 2), k_grid=16)


@pytest.mark.parametrize("k_grid", [32, 64, 128])
def test_half_flux_touches_for_complex_kappa_y(k_grid):
    # rho = 2 pi / 3 gives arg kappa_y = -30 degrees, which moves the Dirac
    # points off any unshifted k-grid; the bands still touch at E = 0
    drive = DriveSpec.resonant(omega=8.0, Gamma=0.717, M=1, sigma=PI,
                               rho=2 * PI / 3, waveform=Waveform.sinusoidal())
    h = hoppings_from_drive(drive, 1.0, 1.0)
    assert math.degrees(np.angle(h.kappa_y)) == pytest.approx(-30.0)
    bands = harper_bands(h, RationalFlux(1, 2), k_grid)
    assert bands.touching == (True,)
    assert abs(bands.intervals[1][0] - bands.intervals[0][1]) <= 1e-12


def _bloch_matrix(kappa_x, kappa_y, flux, kx, ky):
    # the Bloch matrix with complex hoppings, written out independently
    q = flux.q
    h = np.zeros((q, q), dtype=complex)
    for n in range(q):
        h[n, n] = -2 * abs(kappa_y) * math.cos(
            ky + 2 * PI * flux.alpha * n + np.angle(kappa_y))
        h[n, (n + 1) % q] += -kappa_x * np.exp(1j * kx)
        h[(n + 1) % q, n] += -np.conj(kappa_x) * np.exp(-1j * kx)
    return h


_coprime_flux = st.integers(1, 9).flatmap(
    lambda q: st.sampled_from([p for p in range(q) if math.gcd(p, q) == 1])
    .map(lambda p: RationalFlux(p, q)))
_kappa = st.builds(lambda r, phi: r * np.exp(1j * phi),
                   st.floats(0.1, 2.0), st.floats(-PI, PI))


@given(kappa_x=_kappa, kappa_y=_kappa, flux=_coprime_flux)
def test_exact_edges_bound_a_dense_grid(kappa_x, kappa_y, flux):
    q = flux.q
    bands = harper_bands(_hoppings(kappa_x, kappa_y, flux), flux)
    assert len(bands.intervals) == q
    lo, hi = np.array(bands.intervals).T
    grid = np.array([np.linalg.eigvalsh(_bloch_matrix(kappa_x, kappa_y, flux, kx, ky))
                     for kx in np.linspace(0.0, 2 * PI / q, 24, endpoint=False)
                     for ky in np.linspace(0.0, 2 * PI, 48, endpoint=False)])
    assert np.all(grid >= lo - 1e-9) and np.all(grid <= hi + 1e-9)
    shifted = np.array([np.linalg.eigvalsh(_bloch_matrix(kappa_x, kappa_y, flux,
                                                         -np.angle(kappa_x) + dx,
                                                         -np.angle(kappa_y) + dy))
                        for dx in (0.0, PI / q) for dy in (0.0, PI / q)])
    np.testing.assert_allclose(shifted.min(axis=0), lo, atol=1e-9)
    np.testing.assert_allclose(shifted.max(axis=0), hi, atol=1e-9)


def test_total_bandwidth_shrinks_with_flux():
    # fragmented spectrum at alpha = 1/3 occupies less of the energy axis
    h0 = _hoppings(1.0, 1.0, RationalFlux(0, 1))
    b0 = harper_bands(h0, RationalFlux(0, 1), k_grid=64)
    h3 = _hoppings(1.0, 1.0, RationalFlux(1, 3))
    b3 = harper_bands(h3, RationalFlux(1, 3), k_grid=64)
    assert b3.total_bandwidth < b0.total_bandwidth


# -- butterfly ---------------------------------------------------------------------

def test_butterfly_symmetries():
    rows = butterfly(1.0, farey_fluxes(5), k_grid=32)
    by_alpha = {}
    for alpha, lo, hi in rows:
        by_alpha.setdefault(round(alpha, 12), []).append((lo, hi))
    for alpha, intervals in by_alpha.items():
        # spectrum symmetric under E -> -E
        lows = sorted(lo for lo, _ in intervals)
        highs = sorted(-hi for _, hi in intervals)
        np.testing.assert_allclose(lows, highs, atol=1e-9)
        # and under alpha -> 1 - alpha
        partner = by_alpha[round(1.0 - alpha, 12)]
        np.testing.assert_allclose(sorted(intervals), sorted(partner), atol=1e-9)


def test_butterfly_row_counts():
    rows = butterfly(1.0, farey_fluxes(3), k_grid=32)
    # 0/1, 1/3, 1/2, 2/3, 1/1 -> 1 + 3 + 2 + 3 + 1 band rows
    assert len(rows) == 10


# -- the two Chambers points -------------------------------------------------------

def _four_point_edges(kappa_x, kappa_y, flux):
    # band edges as the extremes over all four points kx', ky' in {0, pi/q}
    q = flux.q
    evals = np.array([np.linalg.eigvalsh(_bloch_matrix(kappa_x, kappa_y, flux, kx, ky))
                      for kx in (0.0, PI / q) for ky in (0.0, PI / q)])
    return evals.min(axis=0), evals.max(axis=0)


@pytest.mark.parametrize("ratio", [1.0, 0.5, 2.0, 0.1, 1e-3, 3.7])
def test_two_point_edges_match_the_four_point_reference(ratio):
    # at extreme anisotropy a mixed point can win the four-point min/max by
    # roundoff only, so the edges agree to 1e-13 max|kappa|
    tol = 1e-13 * max(1.0, ratio)
    fluxes = farey_fluxes(24)
    rows = butterfly(ratio, fluxes)
    reference = [_four_point_edges(1.0, ratio, flux) for flux in fluxes]
    lo, hi = (np.concatenate(edges) for edges in zip(*reference))
    np.testing.assert_allclose(rows[:, 1], lo, rtol=0, atol=tol)
    np.testing.assert_allclose(rows[:, 2], hi, rtol=0, atol=tol)
    for flux, (lo, hi) in zip(fluxes, reference):
        bands = np.array(harper_bands(_hoppings(1.0, ratio, flux), flux).intervals)
        np.testing.assert_allclose(bands, np.column_stack([lo, hi]), rtol=0, atol=tol)


def test_one_stacked_eigensolve_per_denominator(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    fluxes = farey_fluxes(12)
    butterfly(0.7, fluxes)
    per_q = Counter(f.q for f in fluxes)
    assert len(shapes) == 12  # 47 fluxes, one call per distinct q
    assert shapes == [(per_q[q], 2, q, q) for q in sorted(per_q)]
    shapes.clear()
    flux = RationalFlux(2, 5)
    harper_bands(_hoppings(1.0, 0.7, flux), flux)
    assert shapes == [(1, 2, 5, 5)]  # two matrices


@pytest.mark.parametrize("ratio", [1.0, 0.3317, 2.5])
def test_butterfly_rows_equal_harper_bands_bitwise(ratio):
    fluxes = farey_fluxes(12)
    rows = butterfly(ratio, fluxes)
    start = 0
    for flux in fluxes:
        bands = harper_bands(_hoppings(1.0, ratio, flux), flux)
        block = rows[start:start + flux.q]
        assert np.all(block[:, 0] == flux.alpha)
        assert np.array_equal(block[:, 1:], np.array(bands.intervals))
        start += flux.q
    assert start == len(rows)


def test_butterfly_of_no_fluxes_is_empty():
    assert butterfly(1.0, []).shape == (0, 3)


def test_butterfly_rejects_a_coarse_k_grid():
    fluxes = farey_fluxes(3)
    assert len(butterfly(1.0, fluxes, k_grid=32)) == sum(f.q for f in fluxes)
    with pytest.raises(ValueError, match="k_grid"):
        butterfly(1.0, fluxes, k_grid=31)


# -- real Bloch stacks -------------------------------------------------------------

def _complex_two_point_edges(kappa_x_abs, kappa_y_abs, q, alphas):
    # the complex Hermitian two-point construction H = D + h S + h* S^T, with
    # h = -|kappa_x| e^{i kx'} and S the cyclic shift, solved at kx' = ky' in
    # {0, pi/q}; rows (E_min, E_max), q per flux, in the order of alphas
    k = np.array([0.0, PI / q])
    diag = -2.0 * kappa_y_abs * np.cos(k[:, None] + 2 * PI * alphas[:, None, None] * np.arange(q))
    S = np.roll(np.eye(q), 1, axis=1)
    hop = (-kappa_x_abs * np.exp(1j * k))[:, None, None]
    H = diag[..., None] * np.eye(q) + hop * S + np.conj(hop) * S.T
    evals = np.linalg.eigvalsh(H)
    return np.stack([evals.min(axis=1), evals.max(axis=1)], axis=-1).reshape(-1, 2)


def test_bloch_stacks_are_real_symmetric_and_match_the_complex_form(monkeypatch):
    # every stack eigvalsh sees is real symmetric, one per denominator, and
    # every edge matches the complex form to 1e-13 max|kappa|: a butterfly,
    # and harper_bands with complex kappa at q = 1, 2 and 5
    ratio, fluxes = 0.7, farey_fluxes(12)
    kx, ky = 1.3 * np.exp(0.4j), 0.8 * np.exp(-2.1j)
    single = [RationalFlux(0, 1), RationalFlux(1, 2), RationalFlux(2, 5)]
    ref_rows = np.concatenate([_complex_two_point_edges(1.0, ratio, f.q, np.array([f.alpha]))
                               for f in fluxes])
    ref_bands = [_complex_two_point_edges(abs(kx), abs(ky), f.q, np.array([f.alpha]))
                 for f in single]
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        stacks.append(a.copy())
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    rows = butterfly(ratio, fluxes)
    np.testing.assert_allclose(rows[:, 1:], ref_rows, rtol=0, atol=1e-13)
    for f, ref in zip(single, ref_bands):
        bands = np.array(harper_bands(_hoppings(kx, ky, f), f).intervals)
        np.testing.assert_allclose(bands, ref, rtol=0, atol=1e-13 * max(abs(kx), abs(ky)))
    per_q = Counter(f.q for f in fluxes)
    assert [a.shape for a in stacks] == ([(per_q[q], 2, q, q) for q in sorted(per_q)]
                                         + [(1, 2, f.q, f.q) for f in single])
    for a in stacks:
        assert a.dtype == np.float64 and np.array_equal(a, a.swapaxes(-1, -2))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_spectrum_input_is_rejected(bad):
    with pytest.raises(ValueError, match="ratio must be finite"):
        butterfly(bad, farey_fluxes(3))
    for kappa_x, kappa_y in ((bad, 1.0), (1.0, bad), (complex(1.0, bad), 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            EffectiveHoppings(kappa_x, kappa_y, alpha=0.5, M=1, sigma=PI, rho=PI)
