"""Conversion from dimensionless drive parameters to waveguide-array units."""

import math

import pytest

from fluxlattice import physical_units

PI = math.pi

# reference geometry: 19 um pitch, 633 nm light, n_s = 1.45, J = 1 / cm
REF = dict(J_per_cm=1.0, Gamma=0.717, omega_over_J=8.0, M=1,
           d_m=19e-6, lambda_m=633e-9, n_s=1.45)


def test_reference_design_point():
    p = physical_units(**REF)
    # helix radius R = 2 pi n_s (d / lambda) / F with F = M omega
    assert p.R_cm == pytest.approx(
        2 * PI * 1.45 * (19e-6 / 633e-9) / 8.0, rel=1e-12)
    assert p.R_cm == pytest.approx(34.18, abs=0.05)
    # modulation pitch Lambda = 2 pi / omega, reported in mm
    assert p.Lambda_mod_mm == pytest.approx(10 * 2 * PI / 8.0, rel=1e-12)
    assert p.Lambda_mod_mm == pytest.approx(7.854, abs=0.005)
    # detuning amplitude A = Gamma omega
    assert p.A_per_cm == pytest.approx(0.717 * 8.0, rel=1e-12)
    # index contrast delta n = lambda A / (2 pi)
    assert p.delta_n == pytest.approx(633e-9 * 100 * 0.717 * 8.0 / (2 * PI),
                                      rel=1e-12)
    assert p.delta_n == pytest.approx(5.78e-5, abs=2e-7)
    assert p.L_cm == pytest.approx(10.0, rel=1e-12)
    assert p.F_per_cm == pytest.approx(8.0, rel=1e-12)


def test_round_trip_consistency():
    p = physical_units(**REF)
    # invert the published formulas from the returned record
    assert p.omega_per_cm == pytest.approx(p.A_per_cm / p.Gamma, rel=1e-12)
    assert p.F_per_cm == pytest.approx(p.M * p.omega_per_cm, rel=1e-12)
    assert 2 * PI * p.n_s * (p.d_m / p.lambda_m) / p.F_per_cm == pytest.approx(
        p.R_cm, rel=1e-12)


def test_doubled_resonance_order_halves_radius():
    p1 = physical_units(**REF)
    p2 = physical_units(**{**REF, "M": 2})
    assert p2.R_cm == pytest.approx(p1.R_cm / 2, rel=1e-12)
    assert p2.F_per_cm == pytest.approx(2 * p1.F_per_cm, rel=1e-12)


def test_zero_modulation_is_allowed():
    p = physical_units(**{**REF, "Gamma": 0.0})
    assert p.A_per_cm == 0.0
    assert p.delta_n == 0.0
    assert p.R_cm > 0


def test_longer_propagation_scales_sample_length():
    p = physical_units(**REF, J_t_max=25.0)
    assert p.L_cm == pytest.approx(25.0, rel=1e-12)


def test_input_validation():
    with pytest.raises(ValueError, match="positive integer"):
        physical_units(**{**REF, "M": 0})
    with pytest.raises(ValueError, match="positive integer"):
        physical_units(**{**REF, "M": -1})
    with pytest.raises(ValueError, match="positive integer"):
        physical_units(**{**REF, "M": True})
    with pytest.raises(ValueError, match="positive"):
        physical_units(**{**REF, "J_per_cm": 0.0})
    with pytest.raises(ValueError, match="positive"):
        physical_units(**{**REF, "d_m": 0.0})
    with pytest.raises(ValueError, match="Gamma"):
        physical_units(**{**REF, "Gamma": -0.1})


@pytest.mark.parametrize("key", ["J_per_cm", "Gamma", "omega_over_J", "d_m",
                                 "lambda_m", "n_s", "J_t_max"])
def test_non_finite_inputs_rejected(key):
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            physical_units(**{**REF, key: bad})


@pytest.mark.parametrize("override", [
    {"J_per_cm": 1e-200, "omega_over_J": 1e-200},  # omega underflows: F = 0
    {"J_per_cm": 1e200, "omega_over_J": 1e200},    # omega overflows: F = inf
    {"J_per_cm": 1e-310},  # subnormal J: F > 0 but R, Lambda and L are inf
    {"Gamma": 1e308},      # the modulation amplitude overflows
])
def test_degenerate_derived_values_rejected(override):
    with pytest.raises(ValueError, match="finite"):
        physical_units(**{**REF, **override})
