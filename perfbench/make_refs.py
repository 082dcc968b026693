"""Regenerate the evolution references in ``refs/``.

    python3 perfbench/make_refs.py [--workload NAME ...] [--variant N ...]

For every input variant of every evolution workload, this runs the scenario
with ``[integrator] dt_max`` at a quarter of the step the variant picks by
default (the smallest step of the run, for compare), reads the tables it
writes and stores the rows the gate compares.  It also runs the scenario at
its default step and prints the difference, which must be far inside the
gate's tolerance.  The stored references were made at the commit that added
this benchmark; regenerate them only there, since a later commit is what
they check.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fluxlattice import (WaveformKind, hoppings_from_drive, run_scenario,  # noqa: E402
                         scenario_from_sections)
from gate import (compare_tables, read_tables, reference_from_tables,  # noqa: E402
                  reference_path)
from workloads import VARIANTS, WORKLOADS, sections_for  # noqa: E402

EVOLUTION = [name for name in WORKLOADS if name != "butterfly"]


def _drift_bound(j_ref: float, lam: float, cap: float, tol: float) -> float:
    # the default RK4 step: the cap, or the norm-drift bound if smaller
    return min(cap, (72.0 * tol * j_ref / lam ** 6) ** 0.2)


def picked_step(s) -> float:
    """Smallest step the scenario's integrations take with default options."""
    tol = 1e-8
    steps = []
    for omega in s.omegas or (None,):
        drive = s.drive_for(omega)
        j_ref = max(abs(s.J_x), abs(s.J_y))
        if s.kind != "effective_evolve":
            static = float(np.abs(drive.beta0 + drive.F * s.window.m_values).max())
            lam = static + 2.0 * (abs(s.J_x) + abs(s.J_y))
            if drive.waveform.kind is not WaveformKind.DELTA_KICKS:
                lam += abs(drive.A) * drive.waveform.pointwise_bound
            steps.append(_drift_bound(j_ref, lam, min(0.01 / j_ref, 0.02 * drive.period), tol))
        if s.kind != "full_evolve":
            h = hoppings_from_drive(drive, s.J_x, s.J_y)
            kx, ky = abs(h.kappa_x), abs(h.kappa_y)
            steps.append(_drift_bound(max(kx, ky), 2.0 * (kx + ky), 0.01 / max(kx, ky), tol))
    return float(min(steps))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", choices=EVOLUTION, default=EVOLUTION)
    parser.add_argument("--variant", nargs="*", type=int, default=list(range(VARIANTS)))
    args = parser.parse_args(argv)
    work = ROOT / ".bench_work" / "make_refs"
    try:
        for name in args.workload:
            for variant in args.variant:
                sections = sections_for(name, variant)
                step = picked_step(scenario_from_sections(sections))
                fine = {**sections, "integrator": {"dt_max": repr(step / 4.0)}}
                ref = reference_from_tables(read_tables(
                    run_scenario(scenario_from_sections(fine), work, quiet=True)))
                path = reference_path(name, variant)
                path.parent.mkdir(parents=True, exist_ok=True)
                np.savez_compressed(path, **ref, step=step, dt_max=step / 4.0)
                default = read_tables(
                    run_scenario(scenario_from_sections(sections), work, quiet=True))
                err = compare_tables(default, ref)
                print(f"{name} v{variant}: step {step:.4e}, reference dt_max "
                      f"{step / 4.0:.4e}, default-step error {err:.2e}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
