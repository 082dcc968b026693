"""Effective magnetic model, gauge maps, kinematics, semiclassics."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply
from scipy.special import jv

from fluxlattice import (
    DriveSpec,
    EffectiveHoppings,
    IntegratorOptions,
    LatticeWindow,
    SemiclassicalState,
    WaveField,
    Waveform,
    effective_matrix,
    evolve_effective,
    expectation_kinematics,
    gauge_map,
    gauge_unmap,
    gaussian_input,
    hoppings_from_drive,
    semiclassical_evolve,
)
from fluxlattice import effective as effective_module
from fluxlattice.dynamics import _sample_sums
from fluxlattice.hopping import _tail_order, bessel_table
from fluxlattice.observables import com_path

PI = math.pi


def _fig_hoppings():
    # anisotropic couplings with a weak flux, vertical link phase = 1
    d = DriveSpec.resonant(omega=20.0, Gamma=0.9, M=1, sigma=-PI / 25, rho=PI,
                           waveform=Waveform.sinusoidal())
    return hoppings_from_drive(d, 1.0, 2.0)


# -- effective Hamiltonian -------------------------------------------------------

def test_effective_matrix_entries():
    w = LatticeWindow(0, 1, 0, 1)
    h = EffectiveHoppings(0.5, 0.25, alpha=0.25, M=1, sigma=PI / 2, rho=PI)
    H = effective_matrix(w, h).toarray()
    # flattened i = n*2 + m; x links n -> n+1, y links m -> m+1 with Peierls
    assert H[0, 2] == pytest.approx(-0.5)
    assert H[1, 3] == pytest.approx(-0.5)
    assert H[0, 1] == pytest.approx(-0.25 * np.exp(0j))
    assert H[2, 3] == pytest.approx(-0.25 * np.exp(1j * PI / 2))
    np.testing.assert_allclose(H, H.conj().T, atol=1e-15)


def test_one_dimensional_chain_bessel_propagator():
    # kappa_y = 0 reduces to independent chains: from a single site,
    # f_n(t) = i^n J_n(2 kappa t)
    w = LatticeWindow(-15, 15, 0, 0)
    h = EffectiveHoppings(0.5, 0.0, alpha=0.5, M=1, sigma=PI, rho=PI)
    amps = np.zeros((31, 1))
    amps[15, 0] = 1.0
    traj = evolve_effective(WaveField(w, amps), h, [2.0])
    n = np.arange(-15, 16)
    expect = (1j ** n) * jv(n, 2.0 * 0.5 * 2.0)
    np.testing.assert_allclose(traj.amplitudes[0][:, 0], expect, atol=1e-8)


def _random_field(rng, w):
    amps = rng.normal(size=w.shape) + 1j * rng.normal(size=w.shape)
    return WaveField(w, amps / np.linalg.norm(amps))


def _expm_reference(field, h, ts, t_start=0.0):
    # exp(-i H (t - t_start)) applied to the input, one oracle call per sample
    A = -1j * effective_matrix(field.window, h).tocsc()
    psi = field.amplitudes.ravel()
    return np.array([expm_multiply(A * (t - t_start), psi) for t in ts])


@pytest.mark.parametrize("case", ["dense", "stroboscopic", "t_start",
                                  "zero_hoppings", "long_span", "many_blocks",
                                  "irregular", "near_t_start", "lone_t_start"])
def test_propagator_matches_expm_multiply(rng, case):
    h = _fig_hoppings()
    w = LatticeWindow.centered(12, 10)
    ts, t_start = np.linspace(0.0, 2.0, 201), 0.0
    if case == "stroboscopic":
        ts = (2 * PI / 20.0) * np.arange(1, 33)
    elif case == "t_start":
        # the first sample sits on t_start itself and must return the input
        ts, t_start = np.array([-0.3, 0.0, 0.45, 1.7]), -0.3
    elif case == "zero_hoppings":
        # H = 0: R falls back to 1 and the series must sum to the identity
        h = EffectiveHoppings(0.0, 0.0, alpha=0.0, M=1, sigma=0.0, rho=PI)
        ts = [0.5, 3.0, 40.0]
    elif case == "long_span":
        # one span with R dt ~ 600, beyond a fixed number of extra terms
        h = EffectiveHoppings(1.0, 1.0, alpha=0.2, M=1, sigma=0.4 * PI, rho=PI)
        w = LatticeWindow.centered(40)
        ts = [150.0]
    elif case == "many_blocks":
        # R t_max ~ 35: about nine blocks of Chebyshev vectors
        ts = np.linspace(0.0, 8.0, 401)
    elif case == "irregular":
        # gaps from far below to far above one block's span in R t
        gaps = np.exp(rng.uniform(np.log(1e-4), np.log(3.0), size=60))
        ts = 0.2 + np.cumsum(gaps)
    elif case == "near_t_start":
        # a first sample 5e-13 before t_start is the input itself
        ts, t_start = np.array([0.7 - 5e-13, 0.9, 3.0]), 0.7
    elif case == "lone_t_start":
        # the only sample is t_start: one block whose series argument is 0
        ts, t_start = np.array([0.7]), 0.7
    field = _random_field(rng, w)
    traj = evolve_effective(field, h, ts, t_start=t_start)
    ref = _expm_reference(field, h, ts, t_start)
    err = np.max(np.abs(traj.amplitudes.reshape(len(ts), -1) - ref))
    assert err <= 1e-12
    if case in ("t_start", "near_t_start", "lone_t_start"):
        np.testing.assert_array_equal(traj.amplitudes[0], field.amplitudes)


def test_chebyshev_series_is_sized_by_the_bessel_bound(rng, monkeypatch):
    # blocks with x <= 0.737 need J_0..J_13: the bound (x/2)^k / k! first
    # falls below 1e-17 at k = 14
    asked = []

    def spy(top, x):
        asked.append((top, np.array(x)))
        return bessel_table(top, x)

    monkeypatch.setattr(effective_module, "bessel_table", spy)
    h = _fig_hoppings()
    R = 2.0 * (abs(h.kappa_x) + abs(h.kappa_y))
    field = _random_field(rng, LatticeWindow.centered(5))
    evolve_effective(field, h, np.linspace(0.0, 0.73 / R, 6))
    assert asked
    for top, x in asked:
        assert np.max(x) <= 0.737 and top + 1 == _tail_order(float(np.max(x))) <= 14
        # every coefficient (2 - delta_k0) J_k(x) left out is below 1e-16
        dropped = 2.0 * np.abs(jv(np.arange(top + 1, 60)[:, None], x))
        assert np.all(dropped < 1e-16)


def test_a_long_span_stops_at_the_computed_tail(rng, monkeypatch):
    # long_span's one block has x = R t = 600: the series stops at the first
    # order K with 2 sum_{k >= K} |J_k(600)| < 4e-17, K = 696, where the
    # (x/2)^k / k! bound would run to 850 terms
    products, block = [], effective_module._chebyshev_block

    def spy(hop2, psi, x, space):
        def counted(v):
            products.append(1)
            return hop2(v)
        return block(counted, psi, x, space)

    monkeypatch.setattr(effective_module, "_chebyshev_block", spy)
    h = EffectiveHoppings(1.0, 1.0, alpha=0.2, M=1, sigma=0.4 * PI, rho=PI)  # R = 4
    field = _random_field(rng, LatticeWindow.centered(40))
    evolve_effective(field, h, [150.0])
    tail = np.cumsum((2.0 * np.abs(jv(np.arange(1, 900), 600.0)))[::-1])[::-1]
    terms = 1 + np.count_nonzero(tail >= 4e-17)
    assert terms == 696 < _tail_order(600.0)
    assert len(products) == terms - 1  # U_1 .. U_(terms-1)


def test_the_series_stops_where_the_tail_of_every_row_does(rng):
    # the stop is read off the row of max x alone; on blocks of one to five
    # samples between x = 1e-4 and 700 it must be where the computed tail of
    # every row first falls below 4e-17
    for _ in range(200):
        x = np.sort(np.exp(rng.uniform(math.log(1e-4), math.log(700.0), rng.integers(1, 6))))
        c = bessel_table(_tail_order(float(x[-1])) - 1, x)
        c[:, 1:] *= 2.0
        terms = np.count_nonzero(np.cumsum(np.abs(c[:, ::-1]), axis=1).max(axis=0) >= 4e-17)
        products = []

        def hop2(v):
            products.append(1)
            return np.zeros_like(v)

        list(effective_module._chebyshev_block(hop2, np.ones(1, complex), x,
                                               [np.empty((0, 1), complex)] * 2))
        assert len(products) == terms - 1


def _complex_chebyshev_block(hop2, psi, x, out):
    # the block with complex coefficients (2 - delta_k0) (-i)^k J_k(x) on
    # T_k(Hs) psi; hop2 applies 2 Hs
    terms = _tail_order(float(np.max(x)))
    k = np.arange(terms)
    c = np.where(k == 0, 1.0, 2.0) * (-1j) ** (k % 4) * bessel_table(terms - 1, x)
    buf = np.empty((min(32, terms), psi.size), dtype=complex)
    for k in range(terms):
        j = k % len(buf)
        if k < 2:
            buf[k] = 0.5 * hop2(psi) if k else psi
        else:
            np.subtract(hop2(buf[j - 1]), buf[j - 2], out=buf[j])
        if j == len(buf) - 1 or k == terms - 1:
            if k == j:
                np.matmul(c[:, :k + 1], buf[:k + 1], out=out)
            else:
                out += c[:, k - j:k + 1] @ buf[:j + 1]


def test_real_coefficients_match_the_complex_form(rng, monkeypatch):
    # several blocks, and one gap whose series needs more than the 32 buffered
    # vectors, so that a block flushes more than once
    h = _fig_hoppings()
    R = 2.0 * (abs(h.kappa_x) + abs(h.kappa_y))
    assert _tail_order(20.0) > 32
    ts = np.concatenate([np.linspace(0.0, 3.0, 61), 3.0 + 20.0 / R + np.linspace(0.0, 1.0, 11)])
    field = _random_field(rng, LatticeWindow.centered(12))
    real = evolve_effective(field, h, ts)
    terms = []

    def complex_block(hop2, psi, x, space):  # 1j * hop2 applies 2 Hs
        terms.append(_tail_order(float(np.max(x))))
        out = np.empty((x.size, psi.size), complex)
        _complex_chebyshev_block(lambda v: 1j * hop2(v), psi, x, out)
        yield out

    monkeypatch.setattr(effective_module, "_chebyshev_block", complex_block)
    ref = evolve_effective(field, h, ts)
    assert len(terms) >= 4 and max(terms) > 32
    assert np.max(np.abs(real.amplitudes - ref.amplitudes)) <= 1e-14


def test_a_chebyshev_block_holds_at_most_its_byte_budget(monkeypatch):
    # on 101 x 101 sites one span of R (t - t_b) = 4 holds twice the samples
    # the budget allows, so the span is cut into budget-sized blocks
    held, block = [], effective_module._chebyshev_block

    def spy(hop2, psi, x, space):
        held.append(0)
        for slab in block(hop2, psi, x, space):
            held[-1] += slab.nbytes
            yield slab

    monkeypatch.setattr(effective_module, "_chebyshev_block", spy)
    budget = effective_module._BLOCK_BYTES
    w = LatticeWindow.centered(50)
    h = EffectiveHoppings(1.0, 1.0, alpha=0.1, M=1, sigma=0.2 * PI, rho=PI)  # R = 4
    sites = w.shape[0] * w.shape[1]
    ts = np.linspace(0.0, 1.0, 2 * budget // (16 * sites))
    assert ts.size * sites * 16 > budget
    amps = np.zeros(w.shape)
    amps[50, 50] = 1.0
    evolve_effective(WaveField(w, amps), h, ts, keep="final")
    assert len(held) >= 2 and max(held) <= budget
    assert sum(held) == ts.size * sites * 16


def test_capped_blocks_give_the_same_samples(rng, monkeypatch):
    # a budget of three samples a block, or below one sample, changes only
    # where the blocks start
    h = _fig_hoppings()
    w = LatticeWindow.centered(6)
    ts = np.linspace(0.0, 2.0, 41)
    field = _random_field(rng, w)
    ref = evolve_effective(field, h, ts)
    for budget in (3 * 16 * 13 * 13, 1):
        monkeypatch.setattr(effective_module, "_BLOCK_BYTES", budget)
        traj = evolve_effective(field, h, ts)
        assert np.max(np.abs(traj.amplitudes - ref.amplitudes)) <= 1e-13


def _extra_peak(field, h, t, t_ref):
    # tracemalloc peak of a run over t, less that of a run over t_ref
    def peak(times):
        tracemalloc.start()
        try:
            evolve_effective(field, h, times, keep="final")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak(t) - peak(t_ref)


def test_the_chebyshev_vectors_share_the_byte_budget(rng, monkeypatch):
    # a budget of four vectors on 41 x 41 sites, four samples a block and
    # x <= 3.8, so each series has 24 terms and outruns the buffer
    h = _fig_hoppings()
    R = 2.0 * (abs(h.kappa_x) + abs(h.kappa_y))
    w = LatticeWindow.centered(20)
    vector = 16 * w.shape[0] * w.shape[1]
    ts = 0.95 / R * np.arange(13)
    assert _tail_order(3.8) >= 20
    field = _random_field(rng, w)
    ref = evolve_effective(field, h, ts)
    monkeypatch.setattr(effective_module, "_BLOCK_BYTES", 4 * vector)
    # over a run whose one block and series hold one vector each, the run
    # adds at most the budget and the block, which each flush past the
    # first accumulates into row by row
    assert _extra_peak(field, h, ts, ts[:1]) <= 4 * vector + 4 * vector
    traj = evolve_effective(field, h, ts)
    assert np.max(np.abs(traj.amplitudes - ref.amplitudes)) <= 1e-13


def test_a_block_of_samples_is_held_one_slab_at_a_time(rng):
    # 200 samples on 41 x 41 sites with x = R t <= 3.9 make one Chebyshev
    # block, whose series fits its buffer: the run holds the series and one
    # slab of as many rows, never the 200 samples of the block
    h = _fig_hoppings()
    R = 2.0 * (abs(h.kappa_x) + abs(h.kappa_y))
    w = LatticeWindow.centered(20)
    vector = 16 * w.shape[0] * w.shape[1]
    ts = np.linspace(0.0, 3.9 / R, 200)
    assert ts.size * vector <= effective_module._BLOCK_BYTES
    terms = _tail_order(3.9)  # at least the series' length
    extra = _extra_peak(_random_field(rng, w), h, ts, ts[:1])
    # the basis and the slab, plus a few window vectors
    assert extra <= (2 * terms + 4) * vector < ts.size * vector


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1), (2, 2), (9, 13), (25, 25)])
def test_row_correlators_match_a_vdot_loop(rng, shape):
    f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    expect = np.array([np.vdot(row[:-1], row[1:]) for row in f])
    got = _sample_sums(f[None]).link_y[0]
    # relative to each row's sum of |f*[n,m] f[n,m+1]|, which no cancellation shrinks
    scale = (np.abs(f[:, :-1]) * np.abs(f[:, 1:])).sum(axis=1)
    assert np.all(np.abs(got - expect) <= 1e-15 * scale)


def test_dt_max_does_not_steer_effective_runs(rng):
    h = _fig_hoppings()
    field = _random_field(rng, LatticeWindow.centered(6))
    ts = np.linspace(0.0, 3.0, 7)
    fine = evolve_effective(field, h, ts, IntegratorOptions(dt_max=1e-3))
    default = evolve_effective(field, h, ts)
    np.testing.assert_array_equal(fine.amplitudes, default.amplitudes)


# -- gauge maps -------------------------------------------------------------------

def test_gauge_roundtrip_and_modulus(rng):
    w = LatticeWindow.centered(3)
    d = DriveSpec.resonant(omega=8.0, Gamma=0.717, M=1, sigma=PI, rho=PI,
                           waveform=Waveform.sinusoidal(), beta0=0.4)
    amps = rng.normal(size=w.shape) + 1j * rng.normal(size=w.shape)
    c = WaveField(w, amps)
    for t in (0.0, 0.37, 2.1):
        f = gauge_map(c, t, d)
        back = gauge_unmap(f, t, d)
        np.testing.assert_allclose(back.amplitudes, c.amplitudes, atol=1e-14)
        np.testing.assert_allclose(np.abs(f.amplitudes), np.abs(c.amplitudes),
                                   atol=1e-14)


def test_imprinted_input_maps_to_bare_gaussian():
    # the frame map at t = 0 (pre-kick branch) undoes the input imprint
    w = LatticeWindow.centered(5)
    for wf in (Waveform.sinusoidal(), Waveform.delta_kicks()):
        d = DriveSpec.resonant(omega=8.0, Gamma=0.717, M=1, sigma=PI, rho=PI,
                               waveform=wf)
        bare = gaussian_input(w, 2.0, tilt=0.3)
        stamped = gaussian_input(w, 2.0, tilt=0.3, drive=d, imprint=True)
        f0 = gauge_map(stamped, 0.0, d, side="left")
        np.testing.assert_allclose(f0.amplitudes, bare.amplitudes, atol=1e-14)


# -- kinematics --------------------------------------------------------------------

def test_expectation_kinematics_momentum_convention():
    w = LatticeWindow.centered(12)
    h = EffectiveHoppings(1.0, 0.7, alpha=0.0, M=1, sigma=0.0, rho=PI)
    n = w.n_grid
    m = w.m_grid
    width, p, q = 5.0, 0.5, 0.8
    f = np.exp(-(n ** 2 + m ** 2) / width ** 2 - 1j * p * n - 1j * q * m)
    k = expectation_kinematics(WaveField(w, f), h)
    damp = math.exp(-1.0 / (2.0 * width ** 2))
    assert k.sin_Pn == pytest.approx(-math.sin(p) * damp, abs=1e-6)
    assert k.sin_Pm == pytest.approx(-math.sin(q) * damp, abs=1e-6)
    assert k.state.Pn_mean == pytest.approx(math.asin(-math.sin(p) * damp), abs=1e-6)
    assert k.v_n == pytest.approx(2.0 * 1.0 * k.sin_Pn, abs=1e-12)
    assert k.v_m == pytest.approx(2.0 * 0.7 * k.sin_Pm, abs=1e-12)
    assert k.state.n_mean == pytest.approx(0.0, abs=1e-12)


def test_expectation_kinematics_rejects_zero_field():
    w = LatticeWindow.centered(1)
    h = EffectiveHoppings(1.0, 1.0, alpha=0.0, M=0, sigma=0.0, rho=PI)
    with pytest.raises(ValueError, match="zero-norm"):
        expectation_kinematics(WaveField(w, np.zeros((3, 3))), h)


@pytest.mark.parametrize("window", [LatticeWindow(2, 2, -1, -1),
                                    LatticeWindow(3, 3, -2, 2),
                                    LatticeWindow(-2, 2, 1, 1)],
                         ids=["1x1", "1x5", "5x1"])
def test_expectation_kinematics_on_windows_without_links(window):
    # a 1 x Nm window has no x-links and an Nn x 1 one no y-links
    h = EffectiveHoppings(0.8 + 0.3j, 1.1 - 0.4j, alpha=0.7 / (2.0 * PI), M=1,
                          sigma=0.7, rho=PI)
    rng = np.random.default_rng(5)
    f = rng.normal(size=window.shape) + 1j * rng.normal(size=window.shape)
    n, m = window.n_grid, window.m_grid
    weight = np.abs(f) ** 2
    norm = weight.sum()
    cx = np.sum(np.conj(f[:-1, :]) * f[1:, :]) / norm
    cy = np.sum(np.exp(0.7j * n) * np.conj(f[:, :-1]) * f[:, 1:]) / norm
    k = expectation_kinematics(WaveField(window, f), h)
    np.testing.assert_allclose(
        [k.state.n_mean, k.state.m_mean, k.state.Pn_mean, k.state.Pm_mean,
         k.sin_Pn, k.sin_Pm, k.v_n, k.v_m],
        [np.sum(n * weight) / norm, np.sum(m * weight) / norm,
         math.asin(cx.imag), math.asin(cy.imag), cx.imag, cy.imag,
         2.0 * (h.kappa_x * cx).imag, 2.0 * (h.kappa_y * cy).imag],
        rtol=0.0, atol=1e-14)


def test_ehrenfest_velocities_match_com_motion():
    h = _fig_hoppings()
    w = LatticeWindow.centered(12)
    n = w.n_grid
    m = w.m_grid
    f0 = np.exp(-(n ** 2 + m ** 2) / 9.0 - 0.7j * n - 0.4j * m)
    field = WaveField(w, f0 / np.linalg.norm(f0))
    dt = 0.01
    traj = evolve_effective(field, h, [0.5 - dt, 0.5, 0.5 + dt])
    com = com_path(traj)
    k = expectation_kinematics(WaveField(w, traj.amplitudes[1]), h)
    assert (com[2, 0] - com[0, 0]) / (2 * dt) == pytest.approx(k.v_n, abs=1e-4)
    assert (com[2, 1] - com[0, 1]) / (2 * dt) == pytest.approx(k.v_m, abs=1e-4)


# -- semiclassics -------------------------------------------------------------------

def test_semiclassical_conserves_energy_and_momenta():
    h = _fig_hoppings()
    sig = h.flux_angle
    init = SemiclassicalState(0.0, 0.0, -1.3, -0.2)
    ts = np.linspace(0.5, 20.0, 40)
    states = semiclassical_evolve(init, h, sig, ts)
    ax = math.atan2(h.kappa_x.imag, h.kappa_x.real)
    ay = math.atan2(h.kappa_y.imag, h.kappa_y.real)
    kx, ky = abs(h.kappa_x), abs(h.kappa_y)

    def energy(s):
        return (-2 * kx * math.cos(s.Pn_mean + ax)
                - 2 * ky * math.cos(s.Pm_mean + ay))

    e0 = energy(init)
    i1_0 = init.Pn_mean + sig * init.m_mean
    i2_0 = init.Pm_mean - sig * init.n_mean
    for s in states:
        assert abs(energy(s) - e0) <= 1e-8
        assert abs(s.Pn_mean + sig * s.m_mean - i1_0) <= 1e-8
        assert abs(s.Pm_mean - sig * s.n_mean - i2_0) <= 1e-8


def test_semiclassical_flux_free_is_ballistic():
    h = EffectiveHoppings(0.8, 0.5, alpha=0.0, M=1, sigma=0.0, rho=PI)
    init = SemiclassicalState(1.0, -2.0, 0.4, -0.9)
    ts = np.array([1.0, 3.0, 7.0])
    states = semiclassical_evolve(init, h, 0.0, ts)
    for t, s in zip(ts, states):
        assert s.n_mean == pytest.approx(1.0 + 2 * 0.8 * math.sin(0.4) * t, abs=1e-9)
        assert s.m_mean == pytest.approx(-2.0 + 2 * 0.5 * math.sin(-0.9) * t, abs=1e-9)
        assert s.Pn_mean == pytest.approx(0.4, abs=1e-12)
        assert s.Pm_mean == pytest.approx(-0.9, abs=1e-12)


def test_semiclassical_small_orbit_frequency():
    # linearized cyclotron motion: Omega = 2 sigma sqrt(kappa_x kappa_y)
    kx = ky = 0.5
    sig = 0.1
    h = EffectiveHoppings(kx, ky, alpha=sig / (2 * PI), M=1, sigma=sig, rho=PI)
    T = 2 * PI / (2 * sig * math.sqrt(kx * ky))
    init = SemiclassicalState(0.0, 0.0, 0.01, 0.0)
    half, full = semiclassical_evolve(init, h, sig, [0.5 * T, T])
    assert full.Pn_mean == pytest.approx(0.01, abs=2e-6)
    assert full.Pm_mean == pytest.approx(0.0, abs=2e-6)
    assert half.Pn_mean == pytest.approx(-0.01, abs=2e-6)


def test_semiclassical_complex_hopping_reduction():
    # kappa e^{i chi} with momentum P behaves as |kappa| with momentum P + chi
    chi = 0.6
    base = EffectiveHoppings(0.9, 0.7, alpha=0.05, M=1, sigma=0.1 * PI, rho=PI)
    rot = EffectiveHoppings(0.9 * np.exp(1j * chi), 0.7, alpha=0.05, M=1,
                            sigma=0.1 * PI, rho=PI)
    ts = np.array([0.7, 2.3, 5.0])
    init_rot = SemiclassicalState(0.0, 0.0, 0.3, -0.4)
    init_base = SemiclassicalState(0.0, 0.0, 0.3 + chi, -0.4)
    for a, b in zip(semiclassical_evolve(init_rot, rot, 0.1 * PI, ts),
                    semiclassical_evolve(init_base, base, 0.1 * PI, ts)):
        assert a.n_mean == pytest.approx(b.n_mean, abs=1e-12)
        assert a.m_mean == pytest.approx(b.m_mean, abs=1e-12)
        assert a.Pn_mean == pytest.approx(b.Pn_mean - chi, abs=1e-12)
        assert a.Pm_mean == pytest.approx(b.Pm_mean, abs=1e-12)


def test_semiclassical_time_grid_validation():
    h = EffectiveHoppings(1.0, 1.0, alpha=0.0, M=0, sigma=0.0, rho=PI)
    init = SemiclassicalState(0.0, 0.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        semiclassical_evolve(init, h, 0.0, [-1.0, 0.0])
    with pytest.raises(ValueError):
        semiclassical_evolve(init, h, 0.0, [1.0, 0.5])
    with pytest.raises(ValueError):
        semiclassical_evolve(init, h, 0.0, [])
    with pytest.raises(ValueError, match="finite"):
        SemiclassicalState(0.0, math.nan, 0.0, 0.0)


def test_wider_packets_track_semiclassics_better():
    # the mean-value closure error shrinks with packet width
    h = _fig_hoppings()
    devs = []
    for width in (3.0, 5.0, 8.0):
        w = LatticeWindow.centered(32, 26)
        f0 = gaussian_input(w, width, tilt=PI / 2)
        ts = np.linspace(0.5, 10.0, 20)
        traj = evolve_effective(f0, h, ts)
        com = com_path(traj)
        init = expectation_kinematics(f0, h).state
        states = semiclassical_evolve(init, h, h.flux_angle, ts)
        path = np.array([[s.n_mean, s.m_mean] for s in states])
        devs.append(float(np.max(np.abs(com - path))))
    assert devs[0] > devs[1] > devs[2]
