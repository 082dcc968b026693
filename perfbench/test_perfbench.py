"""Self-tests of the benchmark: input generation, the gate, failure counting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fluxlattice import run_scenario, scenario_from_sections  # noqa: E402

import worker  # noqa: E402
from gate import (AMP_TOL, Gate, GateFailure, chambers_edges,  # noqa: E402
                  read_tables, reference_from_tables)
from workloads import VARIANTS, WORKLOADS, drawn_values, sections_for  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    for seed in range(2 * VARIANTS):
        assert sections_for(name, seed) == sections_for(name, seed)
        assert sections_for(name, seed) == sections_for(name, seed + VARIANTS)
        for key, value in drawn_values(name, seed % VARIANTS).items():
            _, low, high = WORKLOADS[name].ranges[key]
            assert low <= value <= high
    gammas = {drawn_values(name, v)["Gamma"] for v in range(VARIANTS)}
    assert len(gammas) == VARIANTS


def _tiny_effective_run(out_dir):
    sections = sections_for("effective_dense", 0)
    sections["lattice"] = {"n_half": "4", "m_half": "4"}
    sections["time"] = {"t_max": "0.2", "dt_sample": "0.05"}
    return run_scenario(scenario_from_sections(sections), out_dir, quiet=True)


def _loop(call, gate):
    return worker.measure_loop(lambda traced: (call(), {}), gate.check, 0.0,
                               lambda: 0.02, 0.02, trace=False)


def test_gate_counts_perturbed_output_and_raising_run(tmp_path):
    result = _tiny_effective_run(tmp_path)
    gate = Gate(reference_from_tables(read_tables(result)))

    def perturbed():
        path = tmp_path / result.metadata["outputs"]["profile"]
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        data = np.array([[float(x) for x in row.split(",")] for row in rows])
        data[:, 1:] += 1e-5  # every I_n shifted by 10x the tolerance
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.12g")
        return result

    def raising():
        raise RuntimeError("integrator blew up")

    reports = [_loop(lambda: result, gate), _loop(perturbed, gate), _loop(raising, gate)]
    assert [r["attempted"] for r in reports] == [1, 1, 1]
    assert [r["failed"] for r in reports] == [0, 1, 1]
    assert reports[0]["max_err"] <= AMP_TOL
    with pytest.raises(GateFailure, match="exceeds"):
        gate.check(result)  # the file stays perturbed


def test_gate_rejects_a_missing_table(tmp_path):
    result = _tiny_effective_run(tmp_path)
    ref = reference_from_tables(read_tables(result))
    ref["roles"] = np.array(sorted(list(ref["roles"]) + ["extra"]))
    with pytest.raises(GateFailure, match="differ from reference"):
        Gate(ref).check(result)


@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (1, 3), (2, 5), (3, 7)])
def test_chambers_edges_bound_a_dense_k_grid(p, q):
    ratio = 0.37
    edges = chambers_edges(ratio, p, q)
    n = np.arange(q)
    grid = []
    for kx in np.linspace(0.0, 2 * np.pi / q, 41):
        for ky in np.linspace(0.0, 2 * np.pi, 41):
            h = np.diag(-2.0 * ratio * np.cos(ky + 2 * np.pi * p * n / q)).astype(complex)
            for j in range(q):
                h[j, (j + 1) % q] += -np.exp(1j * kx)
                h[(j + 1) % q, j] += -np.exp(-1j * kx)
            grid.append(np.linalg.eigvalsh(h))
    grid = np.array(grid)
    assert np.all(edges[:, 0] <= grid.min(axis=0) + 1e-12)
    assert np.all(edges[:, 1] >= grid.max(axis=0) - 1e-12)
    assert np.allclose(edges[:, 0], grid.min(axis=0), atol=0.05)
    assert np.allclose(edges[:, 1], grid.max(axis=0), atol=0.05)
