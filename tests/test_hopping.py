"""Effective hoppings: closed forms vs quadrature, and their frozen values.

The closed forms and the period-average quadrature are independent routes
to the same couplings; their agreement is the main correctness check here.
Reference values were computed separately (power-series Bessel functions
and a brute-force midpoint average of the raw integrand) and are asserted
as literals.
"""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fluxlattice import (
    DriveSpec,
    EffectiveHoppings,
    TWO_PI,
    Waveform,
    hoppings_from_drive,
    kappa_closed_delta,
    kappa_closed_sinusoidal,
    kappa_x_quadrature,
    kappa_y_quadrature,
    smoothed_delta_train,
)
from fluxlattice.hopping import bessel_table, jv

PI = math.pi

# frozen references, see module docstring
J0_1434 = 0.5483275887203334        # J0(2 * 0.717 * sin(pi/2))
J1_1434 = 0.5478308605460803        # J1(2 * 0.717 * sin(pi/2))
TWO_J1_18 = 1.1630339034623305      # 2 * J1(2 * 0.9 * sin(pi/2))
J0_SMALL = 0.9968090028117802       # J0(2 * 0.9 * sin(pi/50))
DELTA_KX_0717_PI = 0.753780497066336
DELTA_KX_09_S25 = 0.9848643987308265
DELTA_KY_0717_PI_1 = 0.41833958975394214   # (2/pi) sin(0.717)


# -- closed-form values -------------------------------------------------------

def test_sinusoidal_closed_form_values():
    h = kappa_closed_sinusoidal(1.0, 1.0, 0.717, PI, PI, 1)
    assert h.kappa_x.real == pytest.approx(J0_1434, abs=1e-14)
    assert h.kappa_x.imag == 0.0
    assert abs(h.kappa_y) == pytest.approx(J1_1434, abs=1e-14)
    # rho = pi makes the phase factor exp(i M (rho - pi)/2) = 1
    assert h.kappa_y.imag == pytest.approx(0.0, abs=1e-16)

    h2 = kappa_closed_sinusoidal(1.0, 2.0, 0.9, -PI / 25, PI, 1)
    assert h2.kappa_x.real == pytest.approx(J0_SMALL, abs=1e-14)
    assert abs(h2.kappa_y) == pytest.approx(TWO_J1_18, abs=1e-14)
    assert h2.alpha == pytest.approx(-1.0 / 50.0)


def test_delta_closed_form_values():
    h = kappa_closed_delta(1.0, 1.0, PI, PI, PI, 1)
    assert h.kappa_x.real == pytest.approx(-1.0, abs=1e-14)
    h2 = kappa_closed_delta(1.0, 1.0, 0.717, PI, PI, 1)
    assert h2.kappa_x.real == pytest.approx(DELTA_KX_0717_PI, abs=1e-14)
    assert abs(h2.kappa_y) == pytest.approx(DELTA_KY_0717_PI_1, abs=1e-14)
    h3 = kappa_closed_delta(1.0, 1.0, 0.9, -PI / 25, PI, 1)
    assert h3.kappa_x.real == pytest.approx(DELTA_KX_09_S25, abs=1e-14)
    # half-gradient resonance: sin(M rho / 2) = sin(pi) kills kappa_y
    h4 = kappa_closed_delta(1.0, 1.0, 0.9, PI, PI, 2)
    assert abs(h4.kappa_y) == pytest.approx(0.0, abs=1e-15)
    assert abs(kappa_closed_delta(1.0, 1.0, PI / 2, PI, PI, 1).kappa_y) \
        == pytest.approx(2.0 / PI, abs=1e-14)


def test_delta_closed_form_degenerate_drives():
    with pytest.raises(ValueError, match="degenerate"):
        kappa_closed_delta(1.0, 1.0, 0.7, PI, PI, 0)
    with pytest.raises(ValueError, match="degenerate"):
        kappa_closed_delta(1.0, 1.0, 0.7, PI, 0.0, 1)


# -- quadrature vs closed forms (independent routes) --------------------------

@given(Gamma=st.floats(0.0, 3.0), sigma=st.floats(-PI, PI),
       rho=st.floats(-PI, PI), M=st.integers(1, 4))
def test_sinusoidal_routes_agree(Gamma, sigma, rho, M):
    wf = Waveform.sinusoidal()
    closed = kappa_closed_sinusoidal(1.0, 1.0, Gamma, sigma, rho, M)
    kx = kappa_x_quadrature(1.0, Gamma, sigma, wf)
    ky = kappa_y_quadrature(1.0, Gamma, rho, M, wf)
    assert abs(kx - closed.kappa_x) <= 1e-9
    assert abs(ky - closed.kappa_y) <= 1e-9


@given(Gamma=st.floats(0.0, 3.0), sigma=st.floats(-PI, PI),
       rho_mag=st.floats(1e-3, PI), rho_sign=st.sampled_from([-1.0, 1.0]),
       M=st.integers(1, 4))
# sigma = +-1e-9: the segment between the two kicks is 1e-9 wide
@example(Gamma=1.0, sigma=1e-9, rho_mag=1.0, rho_sign=-1.0, M=1)
@example(Gamma=1.0, sigma=-1e-9, rho_mag=1.0, rho_sign=-1.0, M=1)
def test_delta_routes_agree(Gamma, sigma, rho_mag, rho_sign, M):
    wf = Waveform.delta_kicks()
    rho = rho_sign * rho_mag
    closed = kappa_closed_delta(1.0, 1.0, Gamma, sigma, rho, M)
    kx = kappa_x_quadrature(1.0, Gamma, sigma, wf)
    ky = kappa_y_quadrature(1.0, Gamma, rho, M, wf)
    assert abs(kx - closed.kappa_x) <= 1e-10
    assert abs(ky - closed.kappa_y) <= 1e-10


@pytest.mark.parametrize("shift", [1e-9, -1e-9, 3e-10, -3e-10])
def test_delta_average_resolves_narrow_segments(shift):
    # a segment between two nearly coincident kicks is still read on the
    # right branch of the square wave, so the routes agree to rounding
    wf = Waveform.delta_kicks()
    for Gamma in (1.0, 2.5):
        for M in (1, 2, 3):
            kx = kappa_x_quadrature(1.0, Gamma, shift, wf)
            ky = kappa_y_quadrature(1.0, Gamma, shift, M, wf)
            assert abs(kx - kappa_closed_delta(1.0, 1.0, Gamma, shift, 1.0, M).kappa_x) <= 1e-15
            assert abs(ky - kappa_closed_delta(1.0, 1.0, Gamma, 0.1, shift, M).kappa_y) <= 1e-15


@given(Gamma=st.floats(0.0, 3.0), shift=st.floats(-PI, PI), M=st.integers(0, 3))
def test_averages_bounded_by_bare_coupling(Gamma, shift, M):
    # period averages of unimodular phases can never exceed |J|
    for wf in (Waveform.sinusoidal(), Waveform.delta_kicks()):
        assert abs(kappa_y_quadrature(1.0, Gamma, shift, M, wf)) <= 1.0 + 1e-12


def test_zero_drive_limits():
    wf = Waveform.sinusoidal()
    # Gamma = 0: kappa_x -> Jx, and the M-th harmonic average vanishes
    assert kappa_x_quadrature(2.5, 0.0, 1.1, wf) == pytest.approx(2.5, abs=1e-12)
    assert abs(kappa_y_quadrature(1.0, 0.0, 1.1, 1, wf)) < 1e-14
    # rho = 0: no vertical phase lag, the harmonic integral averages to zero
    assert abs(kappa_y_quadrature(1.0, 0.8, 0.0, 1, wf)) < 1e-14
    assert abs(kappa_y_quadrature(1.0, 0.8, 0.0, 2, Waveform.delta_kicks())) < 1e-14


@given(Gamma=st.floats(0.1, 2.5), rho=st.floats(0.2, PI), M=st.integers(1, 3))
def test_kappa_y_phase_convention(Gamma, rho, M):
    # both closed forms carry the same link phase exp(i M (rho - pi) / 2)
    expect = cmath.exp(0.5j * M * (rho - PI))
    for h in (kappa_closed_sinusoidal(1.0, 1.0, Gamma, PI, rho, M),
              kappa_closed_delta(1.0, 1.0, Gamma, PI, rho, M)):
        if abs(h.kappa_y) > 1e-12:
            ratio = h.kappa_y / expect
            assert abs(ratio.imag) < 1e-12 * abs(ratio)


def test_smoothed_train_converges_to_delta_kicks():
    target = kappa_closed_delta(1.0, 1.0, 0.717, PI, PI, 1)
    errs = []
    for width in (0.05, 0.02, 0.008):
        wf = smoothed_delta_train(width)
        kx = kappa_x_quadrature(1.0, 0.717, PI, wf)
        ky = kappa_y_quadrature(1.0, 0.717, PI, 1, wf)
        err = max(abs(kx - target.kappa_x), abs(ky - target.kappa_y))
        assert err < 0.2 * width
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]


def test_quadrature_warns_when_under_resolved():
    # spike pair far narrower than the coarse quadrature node spacing
    a = 5e-4
    wf = Waveform.sampled([0.0, a, 2 * a, 3 * a, 4 * a, TWO_PI],
                          [0.0, 2000.0, 0.0, -2000.0, 0.0, 0.0])
    with pytest.warns(UserWarning, match="under-resolved"):
        kappa_x_quadrature(1.0, 1.0, PI, wf)


# -- drive wrapper and container ----------------------------------------------

def _drive(waveform, Gamma=0.717, sigma=PI, rho=PI, M=1, omega=8.0):
    return DriveSpec.resonant(omega=omega, Gamma=Gamma, M=M, sigma=sigma,
                              rho=rho, waveform=waveform)


def test_hoppings_from_drive_auto_prefers_closed():
    d = _drive(Waveform.sinusoidal())
    auto = hoppings_from_drive(d, 1.0, 1.0)
    closed = hoppings_from_drive(d, 1.0, 1.0, method="closed")
    assert auto.kappa_x == closed.kappa_x and auto.kappa_y == closed.kappa_y
    quad = hoppings_from_drive(d, 1.0, 1.0, method="quadrature")
    assert abs(quad.kappa_x - closed.kappa_x) <= 1e-9
    assert abs(quad.kappa_y - closed.kappa_y) <= 1e-9


def test_hoppings_from_drive_sampled_paths():
    d = _drive(smoothed_delta_train(0.05))
    auto = hoppings_from_drive(d, 1.0, 1.0)  # auto falls back to quadrature
    quad = hoppings_from_drive(d, 1.0, 1.0, method="quadrature")
    assert auto.kappa_x == quad.kappa_x and auto.kappa_y == quad.kappa_y
    with pytest.raises(ValueError, match="closed"):
        hoppings_from_drive(d, 1.0, 1.0, method="closed")
    with pytest.raises(ValueError, match="method"):
        hoppings_from_drive(d, 1.0, 1.0, method="magic")


def test_effective_hoppings_container():
    h = EffectiveHoppings(0.5, 0.25j, alpha=0.5, M=1, sigma=PI, rho=PI)
    assert isinstance(h.kappa_x, complex)
    assert h.flux_angle == pytest.approx(PI)
    with pytest.raises(ValueError, match="alpha"):
        EffectiveHoppings(0.5, 0.25, alpha=0.3, M=1, sigma=PI, rho=PI)


def test_hoppings_carry_drive_geometry():
    d = _drive(Waveform.sinusoidal(), sigma=-PI / 25, M=1)
    h = hoppings_from_drive(d, 1.0, 2.0)
    assert h.alpha == pytest.approx(-1.0 / 50.0)
    assert h.flux_angle == pytest.approx(-PI / 25)
    assert h.M == 1 and h.sigma == d.sigma and h.rho == d.rho


# x = 0, Miller's recurrence without and with rescaling, and the region x > n
BESSEL_X = np.array([0.0, 1e-12, 1e-7, 2e-6, 1e-3, 0.1, 1.0, 4.0, 25.0, 60.0])


def test_bessel_table_and_jv_match_scipy():
    from scipy.special import jv as scipy_jv

    n = np.arange(151)
    ref = scipy_jv(n, BESSEL_X[:, None])
    # absolute bound up to x = 25 only.  At x = 25 scipy's own J_20, J_25
    # and J_26 lie 1.2e-16 to 2.6e-16 from their 40-digit values, and
    # bessel_table's within 8e-17, so the bound there is 4e-16
    atol = np.select([BESSEL_X < 25.0, BESSEL_X == 25.0], [2e-16, 4e-16], np.inf)[:, None]
    large = np.abs(ref) > 1e-280
    signs_n = np.array([-7, -6, -1, 0, 1, 6, 7])
    signs_x = np.array([-25.0, -4.0, -0.1, -1e-7, 0.0, 1e-7, 0.1, 4.0, 25.0])
    # a RuntimeWarning from the recurrence would land in every run's meta.json
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = [np.array([bessel_table(150, x) for x in BESSEL_X]),
                  bessel_table(150, BESSEL_X)]
        signed = np.array([jv(int(n), signs_x) for n in signs_n])
    for table in tables:
        assert table.shape == ref.shape
        err = np.abs(table - ref)
        assert np.all(err <= atol)
        assert np.all(err[large] <= 1e-12 * np.abs(ref[large]))
    np.testing.assert_allclose(signed, scipy_jv(signs_n[:, None], signs_x),
                               rtol=1e-12, atol=2e-16)
    assert jv(3, -2.0) == -jv(3, 2.0) == jv(-3, 2.0) == -jv(-3, -2.0)
    with pytest.raises(ValueError, match="x >= 0"):
        bessel_table(3, [-1.0])


def test_bessel_table_below_the_recurrence_range():
    # Miller's ratios 2j/x overflow below about 1e-305 (nan at 1e-310, a
    # math-domain error at 5e-324); below 1e-300 every term past x/2 underflows
    from scipy.special import jv as scipy_jv

    tiny = np.array([0.0, 5e-324, 1e-310, 1e-301])
    mixed = np.array([1e-301, 1e-12, 5e-4, 0.1, 25.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = bessel_table(40, tiny)
        mixed_table = bessel_table(150, mixed)
        assert bessel_table(0, tiny).tolist() == [[1.0]] * 4
    expected = np.zeros((4, 41))
    expected[:, 0], expected[:, 1] = 1.0, tiny / 2
    assert np.array_equal(table, expected)
    ref = scipy_jv(np.arange(151), mixed[:, None])
    err = np.abs(mixed_table - ref)
    assert np.all(err <= np.where(mixed == 25.0, 4e-16, 2e-16)[:, None])
    large = np.abs(ref) > 1e-280
    assert np.all(err[large] <= 1e-12 * np.abs(ref[large]))


def test_a_long_bessel_recurrence_holds_no_row_per_order():
    # jv(0, 3e4) runs Miller's recurrence over about 4e4 orders: its two
    # tables of 8 B an order peak near 1 MB, where one Python view per order
    # and table took 10 MB
    from scipy.special import jv as scipy_jv

    tracemalloc.start()
    try:
        value = jv(0, 3e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
    assert abs(value - scipy_jv(0, 3e4)) <= 1e-12 * abs(scipy_jv(0, 3e4))
