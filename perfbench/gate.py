"""Correctness gate: every measured run is checked against a reference the
code under test does not produce.

* Evolution workloads compare the CSV tables a run writes with references
  stored in ``refs/``.  ``make_refs.py`` produced them once, at the commit
  that added this benchmark, with ``[integrator] dt_max`` at a quarter of
  the step the variant picks.  Tolerance: ``AMP_TOL`` max abs on every
  amplitude-derived table.
* ``butterfly`` compares each band row with exact Chambers edges computed
  here: det(E - H(k)) depends on k only through cos(q kx') and cos(q ky'),
  so every band edge is an eigenvalue at kx', ky' in {0, pi/q}.  That is four
  q x q ``eigvalsh`` calls per flux.  Tolerance: ``EDGE_TOL`` * max|kappa|.

``butterfly()`` always passes real |kappa|, and with k_grid = 64 the grid
then contains the extremal points for every q up to 32, so the grid edges
are exact at this commit.  The known false gap of ``harper_bands`` for a
complex kappa_y (ROADMAP item 3) is therefore outside this workload and is
left to that item's tests; the workload was not chosen to hide it.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.special import jv

from workloads import drawn_values, sections_for, variant_of

AMP_TOL = 1e-6
EDGE_TOL = 1e-9
REF_DIR = Path(__file__).resolve().parent / "refs"
MAX_REF_ROWS = 25  # rows kept per stored table, evenly strided, last row included


class GateFailure(Exception):
    """A run's outputs are missing, malformed or outside tolerance."""


def read_tables(result) -> dict:
    """Every CSV a run wrote, by output role, as a 2-d float array."""
    out_dir = Path(result.files[-1]).parent
    tables = {}
    for role, name in result.metadata["outputs"].items():
        path = out_dir / name
        with path.open(encoding="utf-8") as fh:
            first = fh.readline().split(",")[0]
        try:
            float(first)
            skip = 0
        except ValueError:
            skip = 1  # header row
        tables[role] = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    return tables


def reference_rows(count: int) -> np.ndarray:
    stride = max(1, -(-count // MAX_REF_ROWS))
    return np.unique(np.r_[np.arange(0, count, stride), count - 1])


def reference_from_tables(tables: dict) -> dict:
    """The arrays ``make_refs.py`` stores for one variant."""
    ref = {"roles": np.array(sorted(tables))}
    for role, arr in tables.items():
        rows = reference_rows(arr.shape[0])
        ref[f"{role}__shape"] = np.array(arr.shape)
        ref[f"{role}__rows"] = rows
        ref[f"{role}__values"] = arr[rows]
    return ref


def reference_path(workload: str, variant: int) -> Path:
    return REF_DIR / workload / f"v{variant}.npz"


def compare_tables(tables: dict, ref) -> float:
    """Max abs difference from the reference; raises GateFailure on a mismatch."""
    roles = sorted(str(r) for r in ref["roles"])
    if sorted(tables) != roles:
        raise GateFailure(f"outputs {sorted(tables)} differ from reference {roles}")
    err = 0.0
    for role in roles:
        arr = tables[role]
        shape = tuple(int(n) for n in ref[f"{role}__shape"])
        if arr.shape != shape:
            raise GateFailure(f"{role}: shape {arr.shape} != reference {shape}")
        diff = float(np.max(np.abs(arr[ref[f"{role}__rows"]] - ref[f"{role}__values"])))
        if not math.isfinite(diff):
            raise GateFailure(f"{role}: non-finite values")
        err = max(err, diff)
    if err > AMP_TOL:
        raise GateFailure(f"max abs error {err:.3e} exceeds {AMP_TOL:.0e}")
    return err


def farey(order: int) -> list[tuple[int, int]]:
    """Reduced fractions p/q in [0, 1] with q <= order, ascending."""
    pairs = {(p, q) for q in range(1, order + 1) for p in range(q + 1)
             if math.gcd(p, q) == 1}
    return sorted(pairs, key=lambda pq: pq[0] / pq[1])


def chambers_edges(ratio: float, p: int, q: int) -> np.ndarray:
    """Exact (E_min, E_max) per band of the Harper matrix, kappa_x = 1, kappa_y = ratio."""
    n = np.arange(q)
    evals = []
    for kx in (0.0, math.pi / q):
        for ky in (0.0, math.pi / q):
            h = np.diag(-2.0 * ratio * np.cos(ky + 2.0 * math.pi * p * n / q)).astype(complex)
            hop = -np.exp(1j * kx)
            for j in range(q):
                h[j, (j + 1) % q] += hop
                h[(j + 1) % q, j] += np.conj(hop)
            evals.append(np.linalg.eigvalsh(h))
    evals = np.array(evals)
    return np.column_stack([evals.min(axis=0), evals.max(axis=0)])


def butterfly_reference(seed: int):
    """Exact butterfly rows (alpha, E_min, E_max) and max|kappa| in units of kappa_x."""
    sections = sections_for("butterfly", seed)
    gamma = drawn_values("butterfly", variant_of(seed))["Gamma"]
    # sinusoidal drive with sigma = rho = pi, M = 1, J_x = J_y = 1 (see
    # workloads.py): kappa_x = J_0(2 Gamma), |kappa_y| = |J_1(2 Gamma)|
    ratio = abs(jv(1, 2.0 * gamma)) / abs(jv(0, 2.0 * gamma))
    order = int(sections["spectrum"]["flux"].split(":")[1])
    rows = [np.column_stack([np.full(q, p / q), chambers_edges(ratio, p, q)])
            for p, q in farey(order)]
    return np.vstack(rows), max(1.0, ratio)


class Gate:
    """Checks one run's outputs; ``check`` returns the error it measured or raises.

    Give ``ref`` (stored tables) for an evolution workload, ``edges`` and
    ``kappa_max`` (exact band rows) for the butterfly.
    """

    def __init__(self, ref=None, edges=None, kappa_max=1.0):
        self.ref, self.edges, self.kappa_max = ref, edges, kappa_max

    @classmethod
    def for_workload(cls, workload: str, seed: int) -> "Gate":
        if workload == "butterfly":
            return cls(None, *butterfly_reference(seed))
        with np.load(reference_path(workload, variant_of(seed))) as data:
            return cls({key: data[key] for key in data.files})

    def check(self, result) -> float:
        if result.exit_code != 0:
            raise GateFailure(f"exit code {result.exit_code}")
        tables = read_tables(result)
        if self.ref is not None:
            return compare_tables(tables, self.ref)
        rows = tables.get("butterfly")
        if rows is None or rows.shape != self.edges.shape:
            raise GateFailure("butterfly rows differ in number from the exact edges")
        err = float(np.max(np.abs(rows - self.edges)))
        if not err <= EDGE_TOL * self.kappa_max:
            raise GateFailure(f"band edges off by {err:.3e}")
        return err
