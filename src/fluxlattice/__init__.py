"""Artificial magnetic fields for light in periodically driven lattices.

A square array of coupled single-mode channels with a site-local drive
beta[n,m](t) = beta0 + F m + A H(omega t + sigma n + rho m) realizes, at
the resonance F = M omega and after period-averaging, a charged particle
hopping on a magnetic lattice with flux alpha = sigma M / (2 pi) per
plaquette.  The package integrates the exact driven model, builds and
integrates the effective magnetic model, evaluates the effective hoppings
by quadrature and by closed forms, computes magnetic band structure,
follows semiclassical orbits, extracts fringe/COM observables, and
converts normalized parameters to fabrication numbers for bent,
index-modulated waveguide arrays.
"""

from ._version import __version__
from .config import (
    ConfigError,
    Scenario,
    ValidationError,
    expand_sweep,
    load_config,
    parse_real,
    scenario_from_sections,
)
from .core import (
    TWO_PI,
    DriveSpec,
    LatticeWindow,
    WaveField,
    Waveform,
    WaveformKind,
    beta_site,
    gauge_phase,
    phase_offsets,
    smoothed_delta_train,
)
from .dynamics import IntegratorOptions, Trajectory, evolve_full, gaussian_input
from .effective import (
    Kinematics,
    SemiclassicalState,
    effective_matrix,
    evolve_effective,
    expectation_kinematics,
    gauge_map,
    gauge_unmap,
    semiclassical_evolve,
)
from .hopping import (
    EffectiveHoppings,
    hoppings_from_drive,
    kappa_closed_delta,
    kappa_closed_sinusoidal,
    kappa_x_quadrature,
    kappa_y_quadrature,
)
from .observables import (
    FringeRecord,
    ModelDeviation,
    central_columns,
    com_path,
    fringe_visibility,
    model_deviation,
    revival_period,
    vertical_profile,
    with_visibility,
)
from .physical import PhysicalParams, physical_units
from .runner import RunResult, run_scenario
from .spectrum import (
    BandSet,
    RationalFlux,
    band_count,
    butterfly,
    farey_fluxes,
    harper_bands,
)

__all__ = [
    "__version__",
    # core model
    "TWO_PI",
    "LatticeWindow",
    "WaveformKind",
    "Waveform",
    "smoothed_delta_train",
    "DriveSpec",
    "WaveField",
    "phase_offsets",
    "beta_site",
    "gauge_phase",
    # integration
    "IntegratorOptions",
    "Trajectory",
    "evolve_full",
    "gaussian_input",
    # effective model
    "EffectiveHoppings",
    "kappa_x_quadrature",
    "kappa_y_quadrature",
    "kappa_closed_sinusoidal",
    "kappa_closed_delta",
    "hoppings_from_drive",
    "effective_matrix",
    "evolve_effective",
    "gauge_map",
    "gauge_unmap",
    "SemiclassicalState",
    "Kinematics",
    "expectation_kinematics",
    "semiclassical_evolve",
    # spectrum
    "RationalFlux",
    "farey_fluxes",
    "BandSet",
    "harper_bands",
    "band_count",
    "butterfly",
    # observables
    "FringeRecord",
    "vertical_profile",
    "central_columns",
    "fringe_visibility",
    "with_visibility",
    "revival_period",
    "com_path",
    "ModelDeviation",
    "model_deviation",
    # physical units
    "PhysicalParams",
    "physical_units",
    # configs and execution
    "ConfigError",
    "ValidationError",
    "Scenario",
    "parse_real",
    "load_config",
    "scenario_from_sections",
    "expand_sweep",
    "RunResult",
    "run_scenario",
]
