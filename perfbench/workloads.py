"""Workload definitions: scenario sections generated from a seed.

Standard library only, so the set-up timing in ``worker.py`` can build the
sections before ``fluxlattice`` (and with it numpy) is imported.

A seed picks one of ``VARIANTS`` input variants: ``variant = seed % VARIANTS``.
Each variant draws Gamma, the packet width and the tilt from the small ranges
stated per workload, from a generator seeded by the workload name and the
variant number.  The ranges are narrow enough that the cost of a run does
not depend on the draw (see README.md), so ten seeds measure one cost.  The
evolution references in ``refs/`` are stored per variant.  Why each workload
was chosen and what it should show is in README.md and BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict  # scenario sections, without the drawn keys
    ranges: dict  # drawn key -> (section, low, high)
    kernel_ref_s: float  # worker.Kernel seconds at reference speed (quiet reference host)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="driven_fringe",
            base={
                "scenario": {"kind": "full_evolve", "label": "driven_fringe"},
                "drive": {"waveform": "sinusoidal", "omega": "8", "M": "1",
                          "sigma": "pi", "rho": "pi"},
                "coupling": {"J_x": "1", "J_y": "1"},
                "lattice": {"n_half": "30", "m_half": "30"},
                "input": {"imprint": "true"},
                "time": {"t_max": "0.1", "dt_sample": "0.05"},
                "output": {"profile": "true", "com": "true"},
            },
            ranges={"Gamma": ("drive", 0.70, 0.74),
                    "width": ("input", 1000.0, 2000.0),
                    "tilt": ("input", 0.0, 0.1)},
            kernel_ref_s=0.0170,
        ),
        Workload(
            name="kicked_compare",
            base={
                "scenario": {"kind": "compare", "label": "kicked_compare"},
                "drive": {"waveform": "delta_kicks", "M": "1",
                          "sigma": "pi", "rho": "pi"},
                "coupling": {"J_x": "1", "J_y": "1"},
                "lattice": {"n_half": "12", "m_half": "12"},
                "input": {"imprint": "true"},
                "time": {"t_max": "0.32"},
                "compare": {"omegas": "20, 40"},
            },
            ranges={"Gamma": ("drive", 0.70, 0.74),
                    "width": ("input", 3.0, 4.0),
                    "tilt": ("input", 0.0, 0.2)},
            kernel_ref_s=0.0145,
        ),
        Workload(
            name="butterfly",
            base={
                "scenario": {"kind": "spectrum", "label": "butterfly"},
                "drive": {"waveform": "sinusoidal", "omega": "8", "M": "1",
                          "sigma": "pi", "rho": "pi"},
                "coupling": {"J_x": "1", "J_y": "1"},
                "spectrum": {"flux": "farey:12", "k_grid": "64"},
            },
            ranges={"Gamma": ("drive", 0.70, 0.74)},
            kernel_ref_s=0.0190,
        ),
        Workload(
            name="effective_dense",
            base={
                "scenario": {"kind": "effective_evolve", "label": "effective_dense"},
                "drive": {"waveform": "sinusoidal", "omega": "40", "M": "1",
                          "sigma": "-pi/25", "rho": "pi"},
                "coupling": {"J_x": "1", "J_y": "2"},
                "lattice": {"n_half": "50", "m_half": "50"},
                "input": {},
                "time": {"t_max": "5", "dt_sample": "0.01"},
                "output": {"fields": "true", "profile": "true", "com": "true"},
            },
            ranges={"Gamma": ("drive", 0.85, 0.95),
                    "width": ("input", 4.5, 5.5),
                    "tilt": ("input", 1.47, 1.67)},
            kernel_ref_s=0.0290,
        ),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def drawn_values(name: str, variant: int) -> dict:
    """The keys a variant draws, each rounded to six decimals."""
    rng = random.Random(f"{name}:{variant}")
    return {key: round(low + (high - low) * rng.random(), 6)
            for key, (_, low, high) in WORKLOADS[name].ranges.items()}


def sections_for(name: str, seed: int) -> dict:
    """Scenario sections for a workload and seed, ready for scenario_from_sections."""
    workload = WORKLOADS[name]
    sections = {sec: dict(keys) for sec, keys in workload.base.items()}
    for key, value in drawn_values(name, variant_of(seed)).items():
        sections[workload.ranges[key][0]][key] = repr(value)
    return sections
