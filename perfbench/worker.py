"""One workload process: set-up timing, the measured loop, the gate, tracing.

``run.py`` starts this file in fresh processes, never imports it:

    python3 perfbench/worker.py --workload W --seed N --seconds S
                                --trace 0|1 --work-dir DIR

It prints one JSON object as its last line of standard output.  Nothing
heavier than the standard library is imported before the set-up clock
starts, so ``setup_s`` covers importing fluxlattice (numpy and scipy
included) and validating the scenario, and nothing of the benchmark's own.

Times are reported at reference machine speed.  The reference host, a
2-core x86-64 VM, shares its cores with other machines' work, and its
speed drifts by up to a factor of two over minutes.  So a fixed calibration
kernel runs just before every measured span, and the span's wall time is
scaled by ``reference / measured`` kernel time.  The raw wall times are
reported too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, sections_for  # noqa: E402  (standard library only)

# py_kernel seconds at reference speed: the quiet reference host, a 2-core x86-64 VM
PY_KERNEL_REF_S = 0.0170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def py_kernel() -> float:
    """Seconds for a fixed pure-Python loop (used before numpy is imported)."""
    start = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return perf_counter() - start


def setup(workload: str, seed: int):
    """Import fluxlattice from this checkout and validate the scenario, timed."""
    sections = sections_for(workload, seed)
    before = py_kernel()
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import fluxlattice
    if Path(fluxlattice.__file__).resolve().parent != ROOT / "src" / "fluxlattice":
        raise SystemExit(f"imported fluxlattice from {fluxlattice.__file__}, "
                         f"not from {ROOT / 'src'}")
    loaded = perf_counter()
    scenario = fluxlattice.scenario_from_sections(sections)
    end = perf_counter()
    factor = PY_KERNEL_REF_S / (0.5 * (before + py_kernel()))
    return scenario, {"setup_s": (end - start) * factor,
                      "setup_wall_s": end - start,
                      "load_s": (end - loaded) * factor}


class Kernel:
    """Fixed work shaped like the workload's hot loop, timed between calls.

    Contention from other machines slows code by different amounts
    depending on what it does, so the kernel mirrors the program's inner
    loop: RK4 steps of a sparse hopping RHS on the scenario's own lattice,
    or, for a spectrum, a stack of small hermitian eigensolves.  Measured on
    the reference host, such a kernel tracked the call times twice as closely
    as a generic one.
    """

    def __init__(self, window):
        import numpy as np
        from scipy import sparse
        self.np = np
        if window is None:
            k = np.arange(8)
            base = np.diag(np.cos(k)) + 0.3 * (np.eye(8, k=1) + np.eye(8, k=-1))
            self.stack = np.broadcast_to(base + 0j, (4096, 8, 8)).copy()
            self.steps = 0
            return
        nn, nm = window.shape
        sites = nn * nm
        along = np.ones(sites - 1, dtype=complex)
        along[nm - 1::nm] = 0.0
        across = np.ones(sites - nm, dtype=complex)
        hopping = sparse.diags([along, along, across, across], [1, -1, nm, -nm],
                               shape=(sites, sites), format="csr")
        self.matrix = (-1e-3j) * hopping
        self.drive = 1e-3j * np.cos(np.arange(sites))
        self.vector = np.exp(1j * np.arange(sites) / sites)
        self.steps = 100_000 // sites + 20

    def _rhs(self, t, v):
        return self.matrix @ v + (self.np.cos(t) * self.drive) * v

    def _work(self):
        if not self.steps:
            self.np.linalg.eigvalsh(self.stack)
            return
        psi, h = self.vector, 1e-3
        for k in range(self.steps):
            t = k * h
            k1 = self._rhs(t, psi)
            k2 = self._rhs(t + 0.5 * h, psi + (0.5 * h) * k1)
            k3 = self._rhs(t + 0.5 * h, psi + (0.5 * h) * k2)
            k4 = self._rhs(t + h, psi + h * k3)
            psi = psi + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

    def __call__(self) -> float:
        """Seconds for one pass, after an untimed pass refills the caches the call evicted."""
        self._work()
        start = perf_counter()
        self._work()
        return perf_counter() - start


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_loop(call, check, seconds: float, kernel, reference_s: float,
                 trace: bool) -> dict:
    """Closed loop: one call at a time until ``seconds`` have passed.

    ``call(traced)`` runs the scenario once and returns (result, metrics);
    ``check(result)`` returns the gate's error or raises.  A call that
    raises or fails the gate counts in ``failed``.  ``kernel()`` runs just
    before each call, after the previous call's outputs were checked; the
    call's speed factor is ``reference_s`` over its time.  With ``trace``, calls
    alternate untraced and traced, and at least one call of each is made.
    """
    records = []
    failed = 0
    max_err = 0.0
    deadline = perf_counter() + seconds
    while len(records) < 1 + trace or perf_counter() < deadline:
        traced = trace and len(records) % 2 == 1
        factor = reference_s / kernel()
        start = perf_counter()
        try:
            result, layers = call(traced)
        except Exception:  # a failing run is counted, the loop goes on
            traceback.print_exc()
            result, layers = None, {}
        wall = perf_counter() - start
        ok = False
        if result is not None:
            try:
                max_err = max(max_err, check(result))
                ok = True
            except Exception as exc:  # GateFailure, or outputs that cannot be read
                print(f"gate: {type(exc).__name__}: {exc}", file=sys.stderr)
        failed += not ok
        records.append({"wall_s": wall, "factor": factor, "traced": traced,
                        "layers": _scaled(layers, factor)})
    return {"attempted": len(records), "failed": failed, "max_err": max_err,
            "records": records}


def _scaled(layers: dict, factor: float) -> dict:
    """Per-layer numbers at reference speed: seconds times, rates divided."""
    out = {}
    for name, value in layers.items():
        if name.endswith("_per_s"):
            value = value / factor
        elif name.endswith("_s"):
            value = value * factor
        out[name] = value
    return out


def measure(args) -> dict:
    scenario, setup_sample = setup(args.workload, args.seed)
    from fluxlattice import run_scenario

    from gate import Gate
    from tracing import Tracer, layer_metrics

    gate = Gate.for_workload(args.workload, args.seed)
    out_dir = Path(args.work_dir)
    last_spans = []

    def call(traced):
        if not traced:
            return run_scenario(scenario, out_dir, quiet=True), {}
        tracer = Tracer()
        with tracer.installed(), tracer.span("runner.run_scenario"):
            result = run_scenario(scenario, out_dir, quiet=True)
        last_spans[:] = tracer.spans
        return result, layer_metrics(tracer, 0, result)

    report = measure_loop(call, gate.check, args.seconds, Kernel(scenario.window),
                          WORKLOADS[args.workload].kernel_ref_s, bool(args.trace))
    if last_spans:
        spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([vars(s) for s in last_spans], indent=1) + "\n",
                              encoding="utf-8")
    report["setup"] = setup_sample
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    report["env"] = environment()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
