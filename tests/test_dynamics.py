"""Exact driven-lattice integration: stepping, kicks, inputs, monitoring."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fluxlattice import (
    DriveSpec,
    IntegratorOptions,
    LatticeWindow,
    Trajectory,
    WaveField,
    Waveform,
    evolve_effective,
    evolve_full,
    gauge_map,
    gaussian_input,
    hoppings_from_drive,
    model_deviation,
    smoothed_delta_train,
)
from fluxlattice import dynamics
from fluxlattice.core import _KICK_GUARD, _GaugePhase, beta_site, gauge_phase
from fluxlattice.dynamics import _Hop, _neighbor_matrix

PI = math.pi
TWO_PI = 2.0 * PI


def _sinusoidal(omega=8.0, Gamma=0.717, M=1, sigma=PI, rho=PI, beta0=0.0):
    return DriveSpec.resonant(omega=omega, Gamma=Gamma, M=M, sigma=sigma,
                              rho=rho, waveform=Waveform.sinusoidal(),
                              beta0=beta0)


def _delta(omega=8.0, Gamma=0.717, M=1, sigma=PI, rho=PI, beta0=0.0):
    return DriveSpec.resonant(omega=omega, Gamma=Gamma, M=M, sigma=sigma,
                              rho=rho, waveform=Waveform.delta_kicks(),
                              beta0=beta0)


# -- hopping matrix assembly ----------------------------------------------------

def test_neighbor_matrix_matches_dense_reference():
    w = LatticeWindow(0, 2, 0, 1)  # 3 x 2, flattened i = n*2 + m
    up_x = -0.7 + 0.2j
    up_y = np.array([-0.4 * np.exp(1j * 0.3 * n) for n in range(3)])
    H = _neighbor_matrix(w, up_x, up_y).toarray()
    ref = np.zeros((6, 6), dtype=complex)
    for n in range(2):
        for m in range(2):
            i, j = n * 2 + m, (n + 1) * 2 + m
            ref[i, j] = up_x
            ref[j, i] = np.conj(up_x)
    for n in range(3):
        i = n * 2 + 0
        ref[i, i + 1] = up_y[n]
        ref[i + 1, i] = np.conj(up_y[n])
    np.testing.assert_allclose(H, ref, atol=0)
    np.testing.assert_allclose(H, H.conj().T, atol=0)


def test_neighbor_matrix_single_site_is_empty():
    H = _neighbor_matrix(LatticeWindow(0, 0, 0, 0), -1.0, -1.0)
    assert H.nnz == 0


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (3, 4), (31, 31)])
def test_hop_matches_neighbor_matrix(shape):
    w = LatticeWindow(0, shape[0] - 1, 0, shape[1] - 1)
    rng = np.random.default_rng(11)
    up_x = -0.7 + 0.2j
    up_y = -0.4 * np.exp(1j * rng.uniform(0.0, TWO_PI, shape[0])) * (1.0 - 0.5j)
    H = _neighbor_matrix(w, up_x, up_y)
    hop = _Hop(w, up_x, up_y)
    v1, v2 = (rng.normal(size=H.shape[0]) + 1j * rng.normal(size=H.shape[0])
              for _ in range(2))
    first = hop(v1).copy()
    np.testing.assert_allclose(first, H @ v1, rtol=0, atol=1e-15)
    # two calls in a row reuse hop's buffers; each answer is still its own
    np.testing.assert_allclose(hop(v2), H @ v2, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(hop(v1), first)


# -- single-site and two-site analytic checks -----------------------------------

def test_single_site_accumulates_modulation_phase():
    # no hopping, one site at the origin: i dc/dt = A cos(omega t) c exactly
    w = LatticeWindow(0, 0, 0, 0)
    d = _sinusoidal(omega=6.0, Gamma=0.4, beta0=0.9)
    c0 = WaveField(w, np.ones((1, 1)))
    ts = np.array([0.3, 0.8, 1.7])
    traj = evolve_full(c0, d, 0.0, 0.0, ts)
    for t, a in zip(ts, traj.amplitudes):
        phase = d.beta0 * t + d.Gamma * (math.sin(d.omega * t) - 0.0)
        assert a[0, 0] == pytest.approx(np.exp(-1j * phase), abs=1e-7)


def test_two_site_rabi_effective_and_full():
    # vertical pair: the effective model is a two-level system with coupling
    # |kappa_y|, so the upper-site population is sin^2(|kappa_y| t)
    w = LatticeWindow(0, 0, 0, 1)
    d = _sinusoidal(omega=40.0)
    h = hoppings_from_drive(d, 0.0, 0.5)
    f0 = WaveField(w, np.array([[1.0, 0.0]]))
    k = abs(h.kappa_y)
    ts = np.linspace(0.5, PI / k, 7)
    eff = evolve_effective(f0, h, ts)
    for t, a in zip(ts, eff.amplitudes):
        assert abs(a[0, 1]) ** 2 == pytest.approx(
            math.sin(k * t) ** 2, abs=2e-7)
    # the driven run reproduces it stroboscopically up to O(1/omega)
    period = TWO_PI / 40.0
    t_str = np.arange(1, int(5.8 / period)) * period
    full = evolve_full(f0, d, 0.0, 0.5, t_str)
    pops = np.array([abs(a[0, 1]) ** 2 for a in full.amplitudes])
    np.testing.assert_allclose(pops, np.sin(k * t_str) ** 2, atol=0.05)


# -- smooth drives against a dense reference ------------------------------------

@pytest.mark.parametrize("waveform", [Waveform.sinusoidal(),
                                      smoothed_delta_train(0.3, num_samples=64)],
                         ids=["sinusoidal", "smoothed_delta"])
def test_smooth_drive_against_dense_reference(waveform):
    # 3 x 7 window with F m_max = 9 omega: the tilt, not the drive, is the
    # fastest on-site term.  Reference: the lab-frame equation with beta
    # from beta_site, integrated by DOP853 at rtol = atol = 1e-12
    w = LatticeWindow.centered(1, 3)
    J_x, J_y = 0.7, 0.4
    d = DriveSpec.resonant(omega=5.0, Gamma=0.8, M=3, sigma=PI / 2, rho=PI / 3,
                           waveform=waveform, beta0=0.25)
    rng = np.random.default_rng(11)
    amps = rng.normal(size=w.shape) + 1j * rng.normal(size=w.shape)
    amps /= np.linalg.norm(amps)
    ts = np.array([0.4, 0.9, 1.7, 2.5])
    traj = evolve_full(WaveField(w, amps), d, J_x, J_y, ts)

    sites = [(n, m) for n in w.n_values for m in w.m_values]
    index = {s: i for i, s in enumerate(sites)}
    H = np.zeros((len(sites), len(sites)), dtype=complex)
    for (n, m), i in index.items():
        for dn, dm, J in ((1, 0, J_x), (0, 1, J_y)):
            j = index.get((n + dn, m + dm))
            if j is not None:
                H[i, j] -= J
                H[j, i] -= J

    def rhs(t, c):
        return -1j * (H @ c + beta_site(d, w, t).ravel() * c)

    ref = solve_ivp(rhs, (0.0, ts[-1]), amps.ravel().astype(complex),
                    method="DOP853", t_eval=ts, rtol=1e-12, atol=1e-12)
    assert ref.success
    for si, a in enumerate(traj.amplitudes):
        np.testing.assert_allclose(a.ravel(), ref.y[:, si], atol=5e-7)


def test_step_does_not_grow_with_window_height(monkeypatch):
    # fig1b drive on a 61 x 3 and a 61 x 61 window: the tilt F m_max differs
    # 30-fold, the RK4 step evolve_full picks must not
    caps = []
    rk4_span = dynamics._rk4_span

    def spy(psi, t0, t1, h_cap, rhs):
        caps.append(h_cap)
        return rk4_span(psi, t0, t1, h_cap, rhs)

    monkeypatch.setattr(dynamics, "_rk4_span", spy)
    d = _sinusoidal(omega=8.0, Gamma=0.717)
    steps = []
    for m_half in (1, 30):
        caps.clear()
        c0 = gaussian_input(LatticeWindow.centered(30, m_half), 5.0)
        evolve_full(c0, d, 1.0, 1.0, [0.01])
        steps.append(set(caps))
    assert len(steps[0]) == 1
    assert steps[0] == steps[1]


def _spy_step_caps(monkeypatch):
    """Record the step cap of every RK4 span evolve_full runs."""
    caps = []
    rk4_span = dynamics._rk4_span

    def spy(psi, t0, t1, h_cap, rhs):
        caps.append(h_cap)
        return rk4_span(psi, t0, t1, h_cap, rhs)

    monkeypatch.setattr(dynamics, "_rk4_span", spy)
    return caps


def test_link_phase_bound_sets_the_fig1b_step(monkeypatch):
    # fig1b drive: 0.1 / nu (5.1e-3) lies below the dt_max rule
    # min(0.01/J, 0.02 T) = 0.01 and the norm-drift bound (1.1e-2), so the
    # link-phase turn is the bound that binds
    caps = _spy_step_caps(monkeypatch)
    d = _sinusoidal(omega=8.0, Gamma=0.717, M=1)
    c0 = gaussian_input(LatticeWindow.centered(3), 1.5)
    evolve_full(c0, d, 1.0, 1.0, [0.05, 0.1])
    nu = abs(d.F) + 2.0 * abs(d.A)
    assert set(caps) == {0.1 / nu}


@pytest.mark.parametrize("drive", [_sinusoidal(omega=8.0)], ids=["sinusoidal"])
def test_default_step_matches_a_fine_step(monkeypatch, drive):
    # 21 x 21, J t <= 2, against the same integrator at an 8x finer step.
    # Measured max error 2.5e-9; a 0.2 rad link-phase turn gives 3.7e-8,
    # with a drift warning.  Kick runs take no step (see the exact-kick test)
    caps = _spy_step_caps(monkeypatch)
    c0 = gaussian_input(LatticeWindow.centered(10), 3.0, drive=drive, imprint=True)
    ts = np.linspace(0.25, 2.0, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coarse = evolve_full(c0, drive, 1.0, 1.0, ts)
        fine = evolve_full(c0, drive, 1.0, 1.0, ts,
                           IntegratorOptions(dt_max=caps[0] / 8.0))
    assert np.max(np.abs(coarse.amplitudes - fine.amplitudes)) < 2e-8


# -- gauge factor -----------------------------------------------------------------

@pytest.mark.parametrize("sigma, rho, classes", [(PI, PI, 2), (-PI / 25, PI, 50),
                                                 (3.0, math.sqrt(2.0), 61 * 61)],
                         ids=["pi_pi", "fig2", "incommensurate"])
@pytest.mark.parametrize("waveform", [Waveform.sinusoidal(),
                                      smoothed_delta_train(0.3, 64),
                                      Waveform.delta_kicks()],
                         ids=["sinusoidal", "sampled", "delta_kicks"])
def test_unit_phase_matches_gauge_phase(waveform, sigma, rho, classes):
    # exp(i theta) from column and phase-class factors against the site-wise
    # theta; 3 pi / omega is a kick time of site (0, 0), 0.37 none of it
    w = LatticeWindow.centered(30)
    d = DriveSpec.resonant(omega=8.0, Gamma=0.717, M=1, sigma=sigma, rho=rho,
                           waveform=waveform, beta0=0.25)
    theta = _GaugePhase(d, w)
    assert theta.classes[0].size == classes
    for t in (3.0 * PI / d.omega, 0.37):
        for side in ("right", "left"):
            ref = gauge_phase(d, w, t, side)
            err = np.max(np.abs(theta.unit(t, side) - np.exp(1j * ref).ravel()))
            assert err <= 1e-15 * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("sigma, rho", [(PI, PI), (-PI / 25, PI),
                                        (3.0, math.sqrt(2.0)), (PI / 2, PI / 3)],
                         ids=["pi_pi", "fig2", "incommensurate", "sixths"])
@pytest.mark.parametrize("omega", [8.0, 20.0])
def test_kick_times_match_a_per_site_brute_force(sigma, rho, omega):
    # site (n, m) kicks at (j pi - phi[n,m]) / omega; the class rule must
    # give each of these times once, and no two kick times closer than the
    # guard, since kick times within the guard are merged into one stop
    w = LatticeWindow(-4, 5, -3, 6)
    d = DriveSpec.resonant(omega=omega, Gamma=0.717, M=1, sigma=sigma, rho=rho,
                           waveform=Waveform.delta_kicks(), beta0=0.25)
    t0, t1 = -0.3, 2.0
    brute = []
    for n in w.n_values:
        for m in w.m_values:
            phi = n * sigma + m * rho
            j = np.arange(math.ceil((t0 * omega + phi) / PI),
                          math.floor((t1 * omega + phi) / PI) + 1)
            brute.extend((j * PI - phi) / omega)
    brute = np.sort(brute)
    brute = brute[np.concatenate([[True], np.diff(brute) > 1e-12])]
    kicks = _GaugePhase(d, w).kick_times(t0, t1)
    assert kicks.shape == brute.shape
    np.testing.assert_allclose(kicks, brute, rtol=0, atol=1e-12)
    assert np.min(np.diff(kicks)) > _KICK_GUARD * PI / omega


# -- delta-kick engine -----------------------------------------------------------

def test_kick_phase_pattern_no_hopping():
    # sigma = rho = pi: every site kicks at t = j T/2 with site sign (-1)^(n+m),
    # so just after t = 0 the state is c0 * exp(-i F m t) * exp(-i G (-1)^(n+m))
    w = LatticeWindow.centered(1)
    d = _delta(omega=8.0, Gamma=0.6)
    c0 = WaveField(w, np.ones((3, 3)) / 3.0)
    t = 0.3 * d.period / 2.0
    traj = evolve_full(c0, d, 0.0, 0.0, [t])
    n = w.n_grid
    m = w.m_grid
    expect = (np.ones((3, 3)) / 3.0
              * np.exp(-1j * d.F * m * t)
              * np.exp(-1j * 0.6 * (-1.0) ** (n + m)))
    np.testing.assert_allclose(traj.amplitudes[0], expect, atol=1e-9)


def test_kick_engine_against_dense_reference():
    # 3 x 3 window against the dense per-site reference (kick times and signs
    # recomputed from first principles per site, exact propagation between)
    w = LatticeWindow.centered(1)
    J_x, J_y = 0.7, 0.4
    d = DriveSpec.resonant(omega=7.3, Gamma=0.9, M=1, sigma=PI / 2, rho=PI / 3,
                           waveform=Waveform.delta_kicks(), beta0=0.25)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    amps /= np.linalg.norm(amps)
    c0 = WaveField(w, amps)
    opts = IntegratorOptions(norm_drift_tol=1e-12)

    # the phi = 0 sites kick at t = l pi/omega, the phi = pi/3 sites at
    # t = (l - 1/3) pi/omega: samples on kick times pin right-continuity,
    # a t_start on a kick pins the pre-kick state the run starts from
    kick = PI / d.omega
    cases = [
        (np.array([0.3, 0.7, 1.1, 1.5]), 0.0),
        (np.array([kick, 0.7, 2.0 * kick, 3.0 * kick]), 0.0),
        (np.array([0.3, 0.7, 1.1, 1.5]), -kick / 3.0),
        (np.array([-kick / 3.0, 2.0 * kick / 3.0, 3.0 * kick]), -kick / 3.0),
    ]
    for ts, t_start in cases:
        traj = evolve_full(c0, d, J_x, J_y, ts, opts, t_start=t_start)
        ref = _dense_kick_reference(d, w, J_x, J_y, amps, ts, t_start)
        np.testing.assert_allclose(traj.amplitudes, ref, rtol=0, atol=1e-11)


def _dense_kick_reference(d, w, J_x, J_y, amps, ts, t_start):
    """Samples of the kicked run from a dense eigh of the whole window.

    Every site's kicks are listed from its own phase lag; between events
    the static lab-frame Hamiltonian is propagated exactly.  A kick within
    the kick guard (in phase units, as core._kick_count reads it) before
    t_start is still to act, and one within the guard after a sample has
    acted by then.
    """
    sites = [(n, m) for n in w.n_values for m in w.m_values]
    index = {s: i for i, s in enumerate(sites)}
    H = np.zeros((len(sites), len(sites)), dtype=complex)
    for (n, m), i in index.items():
        H[i, i] = d.beta0 + d.F * m
        for dn, dm, J in ((1, 0, J_x), (0, 1, J_y)):
            j = index.get((n + dn, m + dm))
            if j is not None:
                H[i, j] -= J
                H[j, i] -= J
    evals, vecs = np.linalg.eigh(H)
    events = []  # (t, site index, kick sign)
    for (n, m), i in index.items():
        phi = n * d.sigma + m * d.rho
        l_lo = math.ceil(t_start * d.omega / PI + phi / PI - _KICK_GUARD)
        l_hi = math.floor(ts[-1] * d.omega / PI + phi / PI + _KICK_GUARD)
        events += [((l * PI - phi) / d.omega, i, (-1.0) ** l)
                   for l in range(l_lo, l_hi + 1)]
    events.sort(key=lambda e: e[0])
    psi = amps.ravel().astype(complex)
    t_cur, k, out = t_start, 0, []
    guard = _KICK_GUARD * PI / d.omega
    for t_target in ts:
        while k < len(events) and events[k][0] <= t_target + guard:
            te, i, sgn = events[k]
            psi = vecs @ (np.exp(-1j * evals * max(te - t_cur, 0.0))
                          * (vecs.conj().T @ psi))
            t_cur = max(t_cur, te)
            psi[i] *= np.exp(-1j * d.Gamma * sgn)
            k += 1
        psi = vecs @ (np.exp(-1j * evals * (t_target - t_cur)) * (vecs.conj().T @ psi))
        t_cur = t_target
        out.append(psi.reshape(w.shape))
    return np.array(out)


@pytest.mark.parametrize("guards", [0.5, 2.2, 4.2, 6.2, 8.0])
def test_dense_kick_reference_reads_the_kick_guard(guards):
    # the 1 x 2 chain of test_kicks_merged_near_a_span_end_act_on_time, from
    # t_start a few guards after site 0's kick: a kick more than the guard
    # before t_start is done, in the reference as in the program.  A guard of
    # 1e-9 s (6.4 phase guards at omega = 20) put the reference 0.68 off at
    # 2.2, 4.2 and 6.2
    omega = 20.0
    d = _delta(omega=omega, Gamma=0.7, M=0, sigma=0.0, rho=0.8e-9 * PI)
    w = LatticeWindow(0, 0, 0, 1)
    amps = np.array([[1.0, 0.0]])
    t_start = PI / omega + guards * _KICK_GUARD * PI / omega
    ts = np.array([t_start + 0.15])
    traj = evolve_full(WaveField(w, amps), d, 0.0, 1.0, ts, t_start=t_start)
    ref = _dense_kick_reference(d, w, 0.0, 1.0, amps, ts, t_start)
    np.testing.assert_allclose(traj.amplitudes, ref, rtol=0, atol=1e-9)


def test_kicked_run_is_exact():
    # 5 x 4 window off-centre in m, Jx != Jy, beta0 != 0: every multiple of
    # pi/(6 omega) is a kick time of some site.  Case 1 starts on a kick,
    # case 2 samples on kick times.  Measured error 1.3e-13; an RK4 step of
    # 0.1 rad link-phase turn errs by 1.7e-9 here
    w = LatticeWindow(-2, 2, -1, 2)
    J_x, J_y = 0.7, 0.4
    d = DriveSpec.resonant(omega=7.3, Gamma=0.9, M=1, sigma=PI / 2, rho=PI / 3,
                           waveform=Waveform.delta_kicks(), beta0=0.25)
    rng = np.random.default_rng(17)
    amps = rng.normal(size=w.shape) + 1j * rng.normal(size=w.shape)
    amps /= np.linalg.norm(amps)
    c0 = WaveField(w, amps)
    kick = PI / d.omega
    cases = [
        (np.array([0.3, 0.7, 1.1, 1.5]), -kick / 3.0),
        (np.array([kick / 6.0, kick / 2.0, 0.7, 2.0 * kick, 11.0 * kick / 3.0]), -0.05),
    ]
    for ts, t_start in cases:
        traj = evolve_full(c0, d, J_x, J_y, ts, t_start=t_start)
        ref = _dense_kick_reference(d, w, J_x, J_y, amps, ts, t_start)
        np.testing.assert_allclose(traj.amplitudes, ref, rtol=0, atol=1e-11)
        # dt_max caps the RK4 step of smooth drives only
        for dt_max in (1e-3, 0.5):
            other = evolve_full(c0, d, J_x, J_y, ts, IntegratorOptions(dt_max=dt_max),
                                t_start=t_start)
            np.testing.assert_array_equal(other.amplitudes, traj.amplitudes)


def test_a_kick_near_a_sample_or_t_start_acts_once():
    # single site, phi = 0, no hopping: c(t) = exp(-i [theta_right(t) -
    # theta_left(t_start)]).  The site kicks at every j pi / omega; a sample
    # delta before the kick at pi / omega, or a t_start delta before the one
    # at 0, sits inside or outside the kick guard of 1e-9 pi / omega, and
    # for omega != pi a guard in seconds lost or doubled the kick there
    w = LatticeWindow(0, 0, 0, 0)
    c0 = WaveField(w, np.ones((1, 1)))
    deltas = (0.0, 1e-10, -1e-10, 5e-10, -5e-10, 9e-10, -9e-10, 2e-9, -2e-9)
    cases = [(omega, np.array([PI / omega - delta, 1.5 * PI / omega]), 0.0)
             for omega in (1.0, 20.0, 40.0, 300.0) for delta in deltas]
    cases += [(omega, np.array([0.5 * PI / omega]), -delta)
              for omega in (1.0, 20.0, 40.0)
              for delta in (1e-10, 5e-10, 9e-10, 2e-9, 5e-9)]
    failed = []
    for omega, ts, t_start in cases:
        d = _delta(omega=omega, Gamma=0.7)
        traj = evolve_full(c0, d, 0.0, 0.0, ts, t_start=t_start)
        theta0 = gauge_phase(d, w, t_start, "left")
        expect = [np.exp(-1j * (gauge_phase(d, w, t, "right") - theta0)) for t in ts]
        err = float(np.max(np.abs(traj.amplitudes - np.array(expect))))
        if err > 1e-12:
            failed.append((omega, ts.tolist(), t_start, err))
    assert not failed, failed


@pytest.mark.parametrize("Nm, rho", [(2, 5e-10 * PI), (2, 5e-9 * PI),
                                     (3, 6e-10 * PI), (4, 4e-10 * PI)])
def test_near_coincident_kicks_act_once(Nm, rho):
    # on a 1 x Nm window with phi = m rho, the sites kick within the guard of
    # their neighbours near pi / omega, yet each kick time stays distinct; a
    # stop that counted a neighbour's kick early must not count it again.
    # No hopping: c(t) = c0 exp(-i [theta_right(t) - theta_left(t_start)])
    w = LatticeWindow(0, 0, 0, Nm - 1)
    d = _delta(omega=20.0, Gamma=0.7, M=0, sigma=0.0, rho=rho)
    c0 = WaveField(w, np.ones(w.shape) / math.sqrt(Nm))
    traj = evolve_full(c0, d, 0.0, 0.0, [0.2], t_start=0.1)
    expect = c0.amplitudes * np.exp(-1j * (gauge_phase(d, w, 0.2, "right")
                                           - gauge_phase(d, w, 0.1, "left")))
    np.testing.assert_allclose(traj.amplitudes[0], expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("Nm, rho, kept", [(2, 5e-10 * PI, 1), (3, 6e-10 * PI, 2),
                                           (4, 4e-10 * PI, 2)])
def test_kick_times_within_the_guard_are_one_stop(Nm, rho, kept):
    # every site kick lies at most the guard before a kept time (up to
    # roundoff), and kept times lie more than the guard apart
    d = _delta(omega=20.0, Gamma=0.7, M=0, sigma=0.0, rho=rho)
    kicks = _GaugePhase(d, LatticeWindow(0, 0, 0, Nm - 1)).kick_times(0.1, 0.2)
    guard = _KICK_GUARD * PI / d.omega
    assert kicks.size == kept
    assert np.all(np.diff(kicks) > guard)
    site_kicks = (PI - np.arange(Nm) * rho) / d.omega
    lead = kicks[np.searchsorted(kicks, site_kicks - 1e-15)] - site_kicks
    assert np.all((lead >= -1e-15) & (lead <= guard))


def test_kicked_span_stops_once_per_kept_time(monkeypatch):
    d = _delta(omega=20.0, Gamma=0.7, M=0, sigma=0.0, rho=4e-10 * PI)
    w = LatticeWindow(0, 0, 0, 3)
    stops = []
    kick = _GaugePhase.kick

    def spy(self, t0, t1):
        stops.append(t1)
        return kick(self, t0, t1)

    monkeypatch.setattr(_GaugePhase, "kick", spy)
    evolve_full(WaveField(w, np.ones(w.shape) / 2.0), d, 0.0, 1.0, [0.2], t_start=0.1)
    assert stops == [*_GaugePhase(d, w).kick_times(0.1, 0.2), 0.2]


@pytest.mark.parametrize("offset", [-1.5, -0.5, 0.5])
def test_kicks_merged_near_a_span_end_act_on_time(offset):
    # 1 x 2 chain, J_y = 1: site 1 kicks at k, site 0 at k + 0.8 guard, each by
    # exp(i Gamma). With a span end (t_start or a sample) at k + offset guard,
    # each kick must still act within about a guard of its time, never at the
    # next stop.
    omega, Gamma = 20.0, 0.7
    guard = _KICK_GUARD * PI / omega
    d = _delta(omega=omega, Gamma=Gamma, M=0, sigma=0.0, rho=0.8e-9 * PI)
    w = LatticeWindow(0, 0, 0, 1)
    k = (PI - d.rho) / omega
    t_end = k + 0.15

    def hop(c, t):  # exp(-i H t) with H = -sigma_x
        return np.cos(t) * c + 1j * np.sin(t) * c[::-1]

    def exact(t0):
        c = hop(np.array([1.0, 0.0]), max(k - t0, 0.0))
        c = hop(c * [1.0, np.exp(1j * Gamma)], 0.8 * guard)
        return hop(c * [np.exp(1j * Gamma), 1.0], t_end - max(k, t0) - 0.8 * guard)

    c0 = WaveField(w, np.array([[1.0, 0.0]]))
    t_edge = k + offset * guard
    from_edge = evolve_full(c0, d, 0.0, 1.0, [t_end], t_start=t_edge)
    via_edge = evolve_full(c0, d, 0.0, 1.0, [t_edge, t_end], t_start=k - 0.05)
    np.testing.assert_allclose(from_edge.amplitudes[-1].ravel(), exact(t_edge),
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose(via_edge.amplitudes[-1].ravel(), exact(k - 0.05),
                               rtol=0, atol=1e-9)


def _chain_input(Nm, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(1, Nm)) + 1j * rng.normal(size=(1, Nm))
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("c0, lag, offsets, atol", [
    (np.array([[1.0, 0.0]]), 0.8, np.arange(-20, 21) / 10, 1e-9),
    (_chain_input(4, 23), 0.37, np.arange(-80, 81) / 20, 1e-8),
], ids=["pair", "cluster"])
def test_a_span_end_swept_across_kicks_leaves_each_on_time(c0, lag, offsets, atol):
    # 1 x Nm chain, J_y = 1: site m kicks by exp(i Gamma) at k + (Nm - 1 - m)
    # lag guard, so "pair" is the chain of the test above.  With a span end
    # (t_start or a sample) at k + offset guard, every kick must act once,
    # within a guard of its time: one more than a guard before t_start is
    # done, any other acts at max(its time, t_start); within 1e-3 guard of
    # that edge either answer holds.  At offset -0.2 "pair"'s site-0 kick
    # lies one guard after the end, where a stop decided apart from G's
    # branches can leave it to the next sample (0.10 off).
    omega, Gamma, Nm = 20.0, 0.7, c0.shape[1]
    guard = _KICK_GUARD * PI / omega
    d = _delta(omega=omega, Gamma=Gamma, M=0, sigma=0.0, rho=lag * 1e-9 * PI)
    w = LatticeWindow(0, 0, 0, Nm - 1)
    site_kicks = (PI - np.arange(Nm) * d.rho) / omega
    k, t_end = site_kicks[-1], site_kicks[-1] + 0.15
    lam, vecs = np.linalg.eigh(-(np.eye(Nm, k=1) + np.eye(Nm, k=-1)))

    def reference(t0, lead):
        c, t = c0.ravel().astype(complex), t0
        for t_k, m in sorted((max(t_k, t0), m) for m, t_k in enumerate(site_kicks)
                             if t_k >= t0 - lead):
            c = vecs @ (np.exp(-1j * lam * (t_k - t)) * (vecs.T @ c))
            c[m] *= np.exp(1j * Gamma)
            t = t_k
        return vecs @ (np.exp(-1j * lam * (t_end - t)) * (vecs.T @ c))

    def err(c, t0):
        return min(np.max(np.abs(c.ravel() - reference(t0, lead)))
                   for lead in (0.999 * guard, 1.001 * guard))

    failed = []
    for offset in offsets:
        t_edge = k + offset * guard
        from_edge = evolve_full(WaveField(w, c0), d, 0.0, 1.0, [t_end], t_start=t_edge)
        via_edge = evolve_full(WaveField(w, c0), d, 0.0, 1.0, [t_edge, t_end],
                               t_start=k - 0.05)
        errs = err(from_edge.amplitudes[-1], t_edge), err(via_edge.amplitudes[-1], k - 0.05)
        if max(errs) > atol:
            failed.append((offset, *errs))
    assert not failed, failed


def test_delta_kicks_converge_to_smoothed_drive():
    # same run with kicks replaced by narrow smooth pulses; samples mid-gap,
    # moduli compared (the two runs differ by a global phase)
    w = LatticeWindow.centered(2)
    omega = 20.0
    T = TWO_PI / omega
    dk = _delta(omega=omega, Gamma=0.7)
    sm = DriveSpec.resonant(omega=omega, Gamma=0.7, M=1, sigma=PI, rho=PI,
                            waveform=smoothed_delta_train(0.02))
    c0 = gaussian_input(w, 1.5)
    ts = (np.arange(6) + 0.25) * T
    t_start = -0.25 * T  # cover the t = 0 pulse of the smooth drive in full
    r1 = evolve_full(c0, dk, 0.5, 0.5, ts, t_start=t_start)
    r2 = evolve_full(c0, sm, 0.5, 0.5, ts, t_start=t_start)
    mismatch = max(np.max(np.abs(np.abs(a) - np.abs(b)))
                   for a, b in zip(r1.amplitudes, r2.amplitudes))
    assert mismatch < 2e-3


# -- monitoring and validation ----------------------------------------------------

def test_norm_budget_holds_without_warning():
    w = LatticeWindow.centered(5)
    d = _sinusoidal()
    c0 = gaussian_input(w, 2.0, drive=d, imprint=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve_full(c0, d, 1.0, 1.0, np.linspace(0.0, 3.0, 7))
    drift = np.max(np.abs(traj.norms - traj.norms[0]))
    assert drift <= 1e-8 * 1.0 * 3.0
    assert traj.norms[0] == pytest.approx(1.0, abs=1e-12)


def test_truncation_flag_on_saturated_window():
    w = LatticeWindow.centered(4)
    d = _sinusoidal()
    c0 = gaussian_input(w, 3.0)  # tail already on the edge ring
    traj = evolve_full(c0, d, 1.0, 1.0, [0.5])
    assert traj.truncation_warning
    assert traj.edge_mass_max > 1e-6


@pytest.mark.parametrize("run", ["sinusoidal", "delta_kicks", "effective"])
def test_recorded_norms_are_those_of_the_returned_samples(run):
    # the audit describes the lab-frame samples the run returns, bit for bit
    w = LatticeWindow.centered(10)
    d = _delta() if run == "delta_kicks" else _sinusoidal()
    c0 = gaussian_input(w, 3.0, drive=d, imprint=True)
    ts = np.linspace(0.1, 1.0, 10)
    if run == "effective":
        traj = evolve_effective(gauge_map(c0, 0.0, d, side="left"),
                                hoppings_from_drive(d, 1.0, 1.0), ts)
    else:
        traj = evolve_full(c0, d, 1.0, 1.0, ts)
    assert np.array_equal(traj.norms, [np.vdot(a, a).real for a in traj.amplitudes])


@pytest.mark.parametrize("drive", [_sinusoidal(), _delta()], ids=["sinusoidal", "delta_kicks"])
def test_samples_and_input_are_not_overwritten(drive):
    # the stages run in buffers reused from step to step: the input field
    # and every stored sample must stay as they were when written
    w = LatticeWindow.centered(6)
    c0 = gaussian_input(w, 2.0, tilt=0.3, drive=drive, imprint=True)
    before = c0.amplitudes.copy()
    both = evolve_full(c0, drive, 1.0, 0.8, [0.1, 0.2])
    one = evolve_full(c0, drive, 1.0, 0.8, [0.1])
    assert np.array_equal(c0.amplitudes, before)
    assert np.array_equal(both.amplitudes[0], one.amplitudes[0])


def test_step_size_underflow_raises():
    w = LatticeWindow(0, 0, 0, 0)
    d = _sinusoidal(omega=1e12, Gamma=1.0)
    c0 = WaveField(w, np.ones((1, 1)))
    with pytest.raises(ValueError, match="underflow"):
        evolve_full(c0, d, 1.0, 1.0, [0.1])


def test_sample_grid_validation():
    w = LatticeWindow(0, 0, 0, 0)
    d = _sinusoidal()
    c0 = WaveField(w, np.ones((1, 1)))
    with pytest.raises(ValueError, match="nonempty"):
        evolve_full(c0, d, 1.0, 1.0, [])
    with pytest.raises(ValueError, match="increasing"):
        evolve_full(c0, d, 1.0, 1.0, [0.2, 0.1])
    with pytest.raises(ValueError, match="precede"):
        evolve_full(c0, d, 1.0, 1.0, [0.1], t_start=0.2)
    with pytest.raises(ValueError, match="dt_max"):
        IntegratorOptions(dt_max=-0.1)
    traj = evolve_full(c0, d, 1.0, 1.0, [0.1, 0.2])
    with pytest.raises(ValueError, match="amplitudes shape"):
        Trajectory(times=traj.times, window=w, amplitudes=traj.amplitudes[:1],
                   norms=traj.norms, edge_mass_max=0.0, truncation_warning=False)
    with pytest.raises(ValueError, match="amplitudes shape"):
        Trajectory(times=traj.times, window=LatticeWindow(0, 1, 0, 0),
                   amplitudes=traj.amplitudes, norms=traj.norms,
                   edge_mass_max=0.0, truncation_warning=False)
    with pytest.raises(ValueError, match="read-only"):
        traj.amplitudes[0, 0, 0] = 0.0
    with pytest.raises(ValueError, match="norms shape"):
        Trajectory(times=traj.times, window=w, amplitudes=traj.amplitudes,
                   norms=[1.0], edge_mass_max=0.0, truncation_warning=False)
    with pytest.raises(ValueError, match="read-only"):
        traj.norms[0] = 0.0


def test_integrator_options_reject_non_finite_and_negative():
    for name, bad in (("dt_max", math.nan), ("dt_max", math.inf),
                      ("norm_drift_tol", math.nan), ("norm_drift_tol", -1.0),
                      ("norm_drift_tol", math.inf), ("edge_mass_tol", math.nan),
                      ("edge_mass_tol", -1.0), ("edge_mass_tol", math.inf)):
        with pytest.raises(ValueError, match=name):
            IntegratorOptions(**{name: bad})
    # zero tolerances stay legal; a zero edge_mass_tol flags any edge mass
    opts = IntegratorOptions(norm_drift_tol=0.0, edge_mass_tol=0.0)
    c0 = gaussian_input(LatticeWindow.centered(2), 1.0)
    assert evolve_full(c0, _sinusoidal(), 1.0, 1.0, [0.1], opts).truncation_warning


# -- input states -------------------------------------------------------------------

def test_gaussian_input_norm_and_tilt():
    w = LatticeWindow.centered(15)
    width, p = 5.0, 0.5
    c = gaussian_input(w, width, tilt=p)
    assert c.norm_sq == pytest.approx(1.0, abs=1e-12)
    # e^{-i p n} reads out as <sin Pn> = -sin(p) e^{-1/(2 w^2)}
    f = c.amplitudes
    corr = np.sum(np.conj(f[:-1, :]) * f[1:, :])
    assert corr.imag == pytest.approx(-math.sin(p) * math.exp(-1 / (2 * width ** 2)),
                                      abs=1e-6)


def test_gaussian_input_imprint():
    w = LatticeWindow.centered(4)
    d = _sinusoidal()
    plain = gaussian_input(w, 2.0)
    stamped = gaussian_input(w, 2.0, drive=d, imprint=True)
    np.testing.assert_allclose(np.abs(stamped.amplitudes), np.abs(plain.amplitudes),
                               atol=1e-14)
    assert not np.allclose(stamped.amplitudes, plain.amplitudes)
    with pytest.raises(ValueError, match="drive"):
        gaussian_input(w, 2.0, imprint=True)
    with pytest.raises(ValueError, match="width"):
        gaussian_input(w, 0.0)


def test_gaussian_input_rejects_non_finite():
    w = LatticeWindow.centered(2)
    for width, tilt in ((math.nan, 0.0), (math.inf, 0.0), (1.5, math.nan),
                        (1.5, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            gaussian_input(w, width, tilt=tilt)


# -- gradient suppression and drive-restored tunneling -------------------------------

def _row_input(window, width):
    n = window.n_grid
    m = window.m_grid
    psi = np.exp(-n ** 2 / width ** 2) * (m == 0.0)
    return WaveField(window, psi / np.linalg.norm(psi))


def _m_stats(w, amps):
    weight = np.abs(amps) ** 2
    weight /= weight.sum()
    m1 = float(np.sum(w.m_grid * weight))
    m2 = float(np.sum(w.m_grid ** 2 * weight))
    return m1, math.sqrt(max(m2 - m1 ** 2, 0.0))


def test_gradient_freezes_vertical_motion():
    # no modulation: the gradient detunes vertical tunneling, pinning <m>;
    # the leaked population saturates at O((J/F)^2), so the width stays put
    w = LatticeWindow.centered(8)
    d = _sinusoidal(Gamma=0.0)
    c0 = _row_input(w, 3.0)
    traj = evolve_full(c0, d, 1.0, 1.0, np.linspace(1.0, 5.0, 5))
    for a in traj.amplitudes:
        m1, m_std = _m_stats(w, a)
        assert abs(m1) < 0.05
        assert m_std < 0.5


def test_modulation_restores_vertical_tunneling():
    # same input, resonant flux-free drive on: the effective model separates
    # into plain 1-d chains, so the row spreads at std = sqrt(2) kappa_y t
    w = LatticeWindow.centered(8, 14)
    d = _sinusoidal(sigma=0.0)
    k_y = abs(hoppings_from_drive(d, 1.0, 1.0).kappa_y)
    c0 = _row_input(w, 3.0)
    traj = evolve_full(c0, d, 1.0, 1.0, [5.0])
    m1, m_std = _m_stats(w, traj.amplitudes[0])
    assert abs(m1) < 0.5
    assert m_std == pytest.approx(math.sqrt(2.0) * k_y * 5.0, rel=0.1)
    assert m_std > 2.0


def test_modulation_restores_ballistic_transport():
    # broad m-tilted packet, flux-free drive geometry: center of mass moves
    # at 2 kappa_y sin(p); with the drive off it only Bloch-oscillates
    w = LatticeWindow.centered(10, 14)
    d = _sinusoidal(sigma=0.0)
    n = w.n_grid
    m = w.m_grid
    bare = np.exp(-(n ** 2 + m ** 2) / 25.0) * np.exp(-1j * (PI / 2) * m)
    bare /= np.linalg.norm(bare)
    from fluxlattice import gauge_unmap
    c0 = gauge_unmap(WaveField(w, bare), 0.0, d, side="left")
    traj = evolve_full(c0, d, 1.0, 1.0, [3.0])
    m1, _ = _m_stats(w, traj.amplitudes[0])
    k_y = abs(hoppings_from_drive(d, 1.0, 1.0).kappa_y)
    drift = 2.0 * k_y * math.sin(PI / 2) * math.exp(-1 / 50.0) * 3.0
    assert abs(m1) > 0.5
    assert m1 == pytest.approx(-drift, rel=0.15)  # tilt e^{-ipm} moves down

    off = _sinusoidal(sigma=0.0, Gamma=0.0)
    ctrl = evolve_full(WaveField(w, bare), off, 1.0, 1.0,
                       np.linspace(0.5, 3.0, 6))
    for a in ctrl.amplitudes:
        m1c, _ = _m_stats(w, a)
        assert abs(m1c) < 0.3


# -- effective-model consistency ------------------------------------------------------

def test_deviation_shrinks_when_omega_doubles():
    w = LatticeWindow.centered(7)
    peaks = []
    for om in (8.0, 16.0):
        d = _sinusoidal(omega=om)
        c0 = gaussian_input(w, 3.0, drive=d, imprint=True)
        period = TWO_PI / om
        ts = np.arange(int(3.0 / period) + 1) * period
        full = evolve_full(c0, d, 1.0, 1.0, ts)
        h = hoppings_from_drive(d, 1.0, 1.0)
        eff = evolve_effective(gauge_map(c0, 0.0, d, side="left"), h, ts)
        peaks.append(model_deviation(full, eff, d).peak)
    assert 0.35 < peaks[1] / peaks[0] < 0.7


def test_undriven_model_equals_bare_effective_model():
    # A = 0, F = 0: both integrators solve the same bare lattice
    w = LatticeWindow.centered(6)
    d = DriveSpec(beta0=0.0, F=0.0, omega=TWO_PI, A=0.0, M=0, sigma=0.4,
                  rho=0.9, waveform=Waveform.sinusoidal())
    h = hoppings_from_drive(d, 0.8, 0.6, method="quadrature")
    assert h.kappa_x == pytest.approx(0.8, abs=1e-12)
    assert h.kappa_y == pytest.approx(0.6, abs=1e-12)
    c0 = gaussian_input(w, 2.0)
    ts = np.arange(4, dtype=float)  # period = 1, stroboscopic by construction
    full = evolve_full(c0, d, 0.8, 0.6, ts)
    eff = evolve_effective(c0, h, ts)
    assert model_deviation(full, eff, d).peak < 1e-6
