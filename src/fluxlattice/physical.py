"""Conversion from normalized drive parameters to fabrication numbers.

In a femtosecond-written waveguide array the gradient F is realized by
circularly bending the sample (F = 2 pi n_s d / (lambda R) for bend radius
R), and the travelling-wave modulation by a longitudinally periodic index
pattern of period Lambda = 2 pi / omega, amplitude A = Gamma omega, i.e.
an index contrast delta_n ~ lambda A / (2 pi).  Rates are quoted per cm of
propagation; transverse geometry in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import TWO_PI

__all__ = ["PhysicalParams", "physical_units"]


@dataclass(frozen=True)
class PhysicalParams:
    """Fabrication parameters of a bent, index-modulated waveguide array."""

    d_m: float             # waveguide spacing (m)
    lambda_m: float        # operating wavelength (m)
    n_s: float             # substrate refractive index
    J_per_cm: float        # bare coupling rate (1/cm)
    omega_per_cm: float    # modulation frequency (1/cm)
    F_per_cm: float        # gradient M * omega (1/cm)
    Gamma: float           # dimensionless drive strength A / omega
    M: int                 # resonance harmonic
    R_cm: float            # bend radius (cm)
    Lambda_mod_mm: float   # modulation period 2 pi / omega (mm)
    A_per_cm: float        # modulation amplitude Gamma * omega (1/cm)
    delta_n: float         # index contrast lambda A / (2 pi)
    L_cm: float            # sample length realizing the run horizon (cm)

    def __post_init__(self):
        positive = (self.d_m, self.lambda_m, self.n_s, self.J_per_cm,
                    self.omega_per_cm, self.F_per_cm, self.R_cm,
                    self.Lambda_mod_mm, self.L_cm)
        if not all(0.0 < v < math.inf for v in positive):
            raise ValueError("physical parameters must be positive and finite")
        strength = (self.A_per_cm, self.delta_n, self.Gamma)
        if not all(0.0 <= v < math.inf for v in strength):
            raise ValueError("modulation strength must be finite and not negative")


def physical_units(J_per_cm: float, Gamma: float, omega_over_J: float, M: int,
                   d_m: float, lambda_m: float, n_s: float,
                   J_t_max: float = 10.0) -> PhysicalParams:
    """Resolve a normalized resonant drive into fabrication numbers.

        omega = omega_over_J * J          F = M * omega
        R = 2 pi n_s d / (lambda F)       Lambda = 2 pi / omega
        A = Gamma * omega                 delta_n = lambda A / (2 pi)
        L = J_t_max / J

    J in 1/cm; d and lambda in meters; every input finite, Gamma >= 0,
    everything else > 0, M a positive integer.
    """
    if isinstance(M, bool) or not isinstance(M, int) or M < 1:
        raise ValueError("M must be a positive integer")
    positive = (J_per_cm, omega_over_J, d_m, lambda_m, n_s, J_t_max)
    if not all(0.0 < v < math.inf for v in positive):
        raise ValueError("inputs must be positive and finite")
    if not 0.0 <= Gamma < math.inf:
        raise ValueError("Gamma must be finite and not negative")
    omega = omega_over_J * J_per_cm
    F = M * omega
    if not 0.0 < F < math.inf:  # omega_over_J * J under- or overflowed
        raise ValueError(f"gradient F = {F!r} per cm must be positive and finite")
    R_cm = TWO_PI * n_s * (d_m / lambda_m) / F
    Lambda_mm = (TWO_PI / omega) * 10.0       # cm -> mm
    A = Gamma * omega
    delta_n = (lambda_m * 100.0) * A / TWO_PI  # lambda in cm x A in 1/cm
    return PhysicalParams(
        d_m=d_m, lambda_m=lambda_m, n_s=n_s, J_per_cm=J_per_cm,
        omega_per_cm=omega, F_per_cm=F, Gamma=Gamma, M=M,
        R_cm=R_cm, Lambda_mod_mm=Lambda_mm, A_per_cm=A, delta_n=delta_n,
        L_cm=J_t_max / J_per_cm,
    )
