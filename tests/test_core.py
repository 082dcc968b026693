"""Waveforms, drive parameters, windows, and gauge phases."""

import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from fluxlattice import (
    TWO_PI,
    DriveSpec,
    LatticeWindow,
    WaveField,
    Waveform,
    beta_site,
    gauge_phase,
    phase_offsets,
    smoothed_delta_train,
)
from fluxlattice.core import WaveformKind


# -- lattice window -----------------------------------------------------------

def test_window_centered_shape_and_grids():
    w = LatticeWindow.centered(3, 2)
    assert w.shape == (7, 5)
    assert w.n_values.tolist() == [-3, -2, -1, 0, 1, 2, 3]
    assert w.m_values.tolist() == [-2, -1, 0, 1, 2]
    assert w.n_grid.shape == (7, 1)
    assert w.m_grid.shape == (1, 5)


def test_window_centered_square_default():
    assert LatticeWindow.centered(4).shape == (9, 9)


def test_window_rejects_empty():
    with pytest.raises(ValueError):
        LatticeWindow(1, 0, 0, 0)


# -- sinusoidal waveform ------------------------------------------------------

def test_sinusoidal_values_and_antiderivative():
    wf = Waveform.sinusoidal()
    x = np.linspace(-7.0, 7.0, 41)
    np.testing.assert_allclose(wf.values(x), np.cos(x), atol=0)
    np.testing.assert_allclose(wf.antiderivative(x), np.sin(x), atol=0)
    assert wf.pointwise_bound == 1.0


# -- delta-kick train ---------------------------------------------------------

def test_delta_kicks_have_no_pointwise_values():
    wf = Waveform.delta_kicks()
    with pytest.raises(ValueError):
        wf.values(0.3)
    with pytest.raises(ValueError):
        _ = wf.pointwise_bound


def test_delta_G_square_wave_branches():
    wf = Waveform.delta_kicks()
    pi = math.pi
    # right-continuous: the kick at x is included in G(x)
    right = {0.0: 1.0, 0.5 * pi: 1.0, pi: 0.0, 1.5 * pi: 0.0, TWO_PI: 1.0}
    for x, g in right.items():
        assert wf.antiderivative(x, side="right") == g
    # left branch excludes a kick sitting exactly at x
    left = {0.0: 0.0, 0.5 * pi: 1.0, pi: 1.0, 1.5 * pi: 0.0, TWO_PI: 0.0}
    for x, g in left.items():
        assert wf.antiderivative(x, side="left") == g


def test_delta_G_periodic_and_side_agrees_off_kicks():
    wf = Waveform.delta_kicks()
    x = np.array([0.3, 1.7, 2.9, 4.0, 5.9])
    gr = wf.antiderivative(x, side="right")
    gl = wf.antiderivative(x, side="left")
    np.testing.assert_array_equal(gr, gl)
    np.testing.assert_array_equal(wf.antiderivative(x + TWO_PI), gr)
    np.testing.assert_array_equal(wf.antiderivative(x - 3 * TWO_PI), gr)


def test_delta_G_rejects_bad_side():
    with pytest.raises(ValueError):
        Waveform.delta_kicks().antiderivative(0.0, side="middle")


# -- sampled waveforms --------------------------------------------------------

def _triangle():
    # zero-mean triangle: 0 -> 1 -> -1 -> 0 over one period
    xs = [0.0, 0.5 * math.pi, 1.5 * math.pi, TWO_PI]
    ys = [0.0, 1.0, -1.0, 0.0]
    return Waveform.sampled(xs, ys)


def test_sampled_interpolates_and_wraps():
    wf = _triangle()
    assert wf.kind is WaveformKind.SAMPLED
    assert wf.values(0.25 * math.pi) == pytest.approx(0.5)
    assert wf.values(0.25 * math.pi + TWO_PI) == pytest.approx(0.5)
    assert wf.values(math.pi) == pytest.approx(0.0)


def test_sampled_G_exact_quadratic_segments():
    wf = _triangle()
    # on [0, pi/2] the interpolant is (2/pi) x, so G(x) = x^2/pi
    assert wf.antiderivative(0.25 * math.pi) == pytest.approx(math.pi / 16, abs=1e-15)
    assert wf.antiderivative(0.5 * math.pi) == pytest.approx(math.pi / 4, abs=1e-15)
    # zero mean => G is 2*pi-periodic, including negative arguments
    assert wf.antiderivative(TWO_PI) == pytest.approx(0.0, abs=1e-12)
    assert wf.antiderivative(-0.25 * math.pi) == pytest.approx(math.pi / 16, abs=1e-14)
    x = np.linspace(-5.0, 9.0, 57)
    np.testing.assert_allclose(wf.antiderivative(x + TWO_PI), wf.antiderivative(x),
                               atol=1e-12)


def test_sampled_dense_cosine_matches_sinusoidal():
    xs = np.linspace(0.0, TWO_PI, 4097)
    wf = Waveform.sampled(xs, np.cos(xs))
    x = np.linspace(0.0, TWO_PI, 301)
    np.testing.assert_allclose(wf.values(x), np.cos(x), atol=5e-7)
    np.testing.assert_allclose(wf.antiderivative(x), np.sin(x), atol=5e-7)


def test_sampled_auto_closes_open_grids():
    # final node at 3*pi/2 -> closed with the x = 0 value
    wf = Waveform.sampled([0.0, 0.5 * math.pi, 1.5 * math.pi], [0.0, 1.0, -1.0])
    assert wf.xs[-1] == pytest.approx(TWO_PI)
    assert wf.ys[-1] == wf.ys[0]


def test_sampled_validation_rejections():
    with pytest.raises(ValueError, match="start at x = 0"):
        Waveform.sampled([0.1, 1.0, TWO_PI], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        Waveform.sampled([0.0, 2.0, 1.0, TWO_PI], [0.0, 1.0, -1.0, 0.0])
    with pytest.raises(ValueError, match="past 2\\*pi"):
        Waveform.sampled([0.0, 7.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="zero mean"):
        Waveform.sampled([0.0, math.pi, TWO_PI], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="closure"):
        Waveform.sampled([0.0, math.pi, TWO_PI], [0.5, 0.0, -0.5])
    with pytest.raises(ValueError, match=">= 2 nodes"):
        Waveform.sampled([0.0], [0.0])


@pytest.mark.parametrize("xs, ys", [([0.0, 1.0, 2.0], [0.0, math.nan, 0.0]),
                                     ([0.0, math.nan, 2.0], [0.0, 0.0, 0.0]),
                                     ([0.0, 1.0, 2.0], [0.0, math.inf, 0.0])])
def test_sampled_waveform_rejects_non_finite_samples(xs, ys):
    # a nan node passes every ordering check; a nan value made a silent all-nan run
    with pytest.raises(ValueError, match="finite"):
        Waveform.sampled(xs, ys)


def test_smoothed_delta_train_limits():
    wf = smoothed_delta_train(0.05)
    ys = np.asarray(wf.ys)
    xs = np.asarray(wf.xs)
    assert abs(trapezoid(ys, xs)) < 1e-10
    # pulses integrate to ~+1 at x = 0 (half on each period edge) and -1 at pi
    mid = wf.antiderivative(0.5 * math.pi) - wf.antiderivative(1.5 * math.pi)
    assert mid == pytest.approx(1.0, abs=1e-8)
    assert wf.pointwise_bound == pytest.approx(1.0 / (0.05 * math.sqrt(TWO_PI)), rel=1e-6)
    for bad in (0.0, -0.1, 0.5 * math.pi, 2.0):
        with pytest.raises(ValueError):
            smoothed_delta_train(bad)


# -- drive spec ---------------------------------------------------------------

def test_resonant_drive_relations():
    d = DriveSpec.resonant(omega=8.0, Gamma=0.717, M=2, sigma=math.pi,
                           rho=-math.pi / 25, waveform=Waveform.sinusoidal())
    assert d.F == pytest.approx(16.0)
    assert d.A == pytest.approx(0.717 * 8.0)
    assert d.Gamma == pytest.approx(0.717)
    assert d.period == pytest.approx(TWO_PI / 8.0)
    assert d.is_resonant
    off = DriveSpec(beta0=0.0, F=15.0, omega=8.0, A=1.0, M=2, sigma=0.1,
                    rho=0.1, waveform=Waveform.sinusoidal())
    assert not off.is_resonant


def test_drive_validation():
    wf = Waveform.sinusoidal()
    with pytest.raises(ValueError, match="omega"):
        DriveSpec(beta0=0.0, F=0.0, omega=0.0, A=0.0, M=1, sigma=0.0, rho=0.0,
                  waveform=wf)
    with pytest.raises(ValueError, match="integer"):
        DriveSpec(beta0=0.0, F=1.0, omega=1.0, A=0.0, M=1.5, sigma=0.0, rho=0.0,
                  waveform=wf)
    with pytest.raises(ValueError, match="integer"):
        DriveSpec(beta0=0.0, F=1.0, omega=1.0, A=0.0, M=True, sigma=0.0, rho=0.0,
                  waveform=wf)
    with pytest.raises(ValueError, match="sigma"):
        DriveSpec.resonant(omega=1.0, Gamma=0.0, M=1, sigma=3.5, rho=0.0, waveform=wf)
    with pytest.raises(ValueError, match="rho"):
        DriveSpec.resonant(omega=1.0, Gamma=0.0, M=1, sigma=0.0, rho=-3.5, waveform=wf)


@pytest.mark.parametrize("omega", [1e-320, math.inf, math.nan])
def test_drive_rejects_omega_without_finite_period(omega):
    # 2 pi / 1e-320 overflows to inf; nan slips past a bare omega <= 0 check
    with pytest.raises(ValueError, match="omega"):
        DriveSpec.resonant(omega=omega, Gamma=0.5, M=1, sigma=0.1, rho=0.1,
                           waveform=Waveform.sinusoidal())


@pytest.mark.parametrize("key", ["beta0", "F", "A", "sigma", "rho"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_drive_rejects_non_finite_terms(key, value):
    # nan passed every check, and evolve_full returned nan amplitudes without
    # a warning; inf failed later as a step-size underflow
    params = dict(beta0=0.0, F=8.0, omega=8.0, A=4.0, M=1, sigma=0.1, rho=0.1,
                  waveform=Waveform.sinusoidal())
    with pytest.raises(ValueError, match=key):
        DriveSpec(**{**params, key: value})


# -- fields -------------------------------------------------------------------

def test_wavefield_validation_and_norm():
    w = LatticeWindow.centered(1)
    amps = np.full((3, 3), 0.5 + 0.5j)
    f = WaveField(w, amps)
    assert f.norm_sq == pytest.approx(9 * 0.5)
    with pytest.raises(ValueError):
        f.amplitudes[0, 0] = 1.0
    with pytest.raises(ValueError, match="shape"):
        WaveField(w, np.zeros((2, 3)))
    g = f.with_amplitudes(np.zeros((3, 3)))
    assert g.norm_sq == 0.0


# -- site phases and gauge ----------------------------------------------------

def test_phase_offsets_values():
    w = LatticeWindow(0, 5, 0, 2)
    phi = phase_offsets(w, -math.pi / 25, math.pi)
    # phi[n, m] = n*sigma + m*rho at (n, m) = (5, 1)
    assert phi[5, 1] == pytest.approx(5 * (-math.pi / 25) + math.pi)
    assert phi[0, 0] == 0.0


def test_beta_site_sinusoidal_and_delta():
    w = LatticeWindow.centered(1)
    d = DriveSpec.resonant(omega=8.0, Gamma=0.5, M=1, sigma=0.3, rho=0.7,
                           waveform=Waveform.sinusoidal(), beta0=2.0)
    t = 0.37
    phi = phase_offsets(w, 0.3, 0.7)
    expect = 2.0 + 8.0 * w.m_grid + d.A * np.cos(8.0 * t + phi)
    np.testing.assert_allclose(beta_site(d, w, t), expect, atol=1e-14)
    dk = DriveSpec.resonant(omega=8.0, Gamma=0.5, M=1, sigma=0.3, rho=0.7,
                            waveform=Waveform.delta_kicks())
    with pytest.raises(ValueError):
        beta_site(dk, w, t)


def test_gauge_phase_structure():
    w = LatticeWindow.centered(2)
    d = DriveSpec.resonant(omega=8.0, Gamma=0.717, M=1, sigma=math.pi,
                           rho=math.pi, waveform=Waveform.sinusoidal(),
                           beta0=0.3)
    t = 0.21
    phi = phase_offsets(w, math.pi, math.pi)
    m = w.m_grid
    expect = (0.5 * 1 * math.pi * m * (m - 1.0) + (0.3 + 8.0 * m) * t
              + 0.717 * np.sin(8.0 * t + phi))
    np.testing.assert_allclose(gauge_phase(d, w, t), expect, atol=1e-12)


def test_gauge_phase_delta_sides_differ_at_kick_times():
    w = LatticeWindow.centered(1)
    d = DriveSpec.resonant(omega=4.0, Gamma=0.6, M=1, sigma=math.pi,
                           rho=math.pi, waveform=Waveform.delta_kicks())
    # at t = 0 every site phase is a multiple of pi: all sites sit on a kick
    right = gauge_phase(d, w, 0.0, side="right")
    left = gauge_phase(d, w, 0.0, side="left")
    assert np.max(np.abs(right - left)) == pytest.approx(0.6)
    # between kicks the branches agree
    t_mid = 0.5 * math.pi / 4.0
    np.testing.assert_array_equal(gauge_phase(d, w, t_mid, side="right"),
                                  gauge_phase(d, w, t_mid, side="left"))


def test_waveform_G_helper_matches_method():
    wf = Waveform.sinusoidal()
    assert wf.antiderivative(0.4) == pytest.approx(math.sin(0.4))
