"""fluxlattice benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Each workload runs in fresh child processes
(``worker.py``) with BLAS and OpenMP pinned to one thread: three processes
in turn, each timing its own set-up and then running the closed measurement
loop for a third of ``--seconds``.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
under ``--trace 1``.  The lines before it give the inputs, the environment,
each timing's median, tail percentile and sample count, and the raw wall
times.  See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, drawn_values, variant_of  # noqa: E402

PROCESSES = 3  # a process's memory layout moves its speed; pool several
DEADLINE_S = 170.0  # the whole run, children included
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(args, work_dir: Path, deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / PROCESSES), "--trace", str(args.trace),
               "--work-dir", str(work_dir)]
    env = {**os.environ, **PINNED}
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError("workload process exceeded the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name: str, values, unit: str, raw=None) -> str:
    text = f"{name}: median {statistics.median(values):.6g} {unit}"
    high = tail(values)
    text += (f", p{high[0]:.1f} {high[1]:.6g} {unit}" if high
             else ", no percentile with 10 samples beyond it")
    text += f", n={len(values)}"
    if raw:
        text += f"; raw wall median {statistics.median(raw):.6g} s"
    return text


def summarize(args, reports: list) -> tuple[dict, list]:
    records = [r for report in reports for r in report["records"]]
    setups = [report["setup"] for report in reports]
    peak_rss_mb = statistics.median(report["peak_rss_mb"] for report in reports)
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    scenario = [r["wall_s"] * r["factor"] for r in plain]
    setup = [s["setup_s"] for s in setups]
    lines = [
        describe("scenario_s", scenario, "s", [r["wall_s"] for r in plain]),
        describe("setup_s", setup, "s", [s["setup_wall_s"] for s in setups]),
        f"peak_rss_mb: median {peak_rss_mb:.6g} MB over {len(reports)} processes",
        f"speed factor (reference / measured kernel time): median "
        f"{statistics.median(r['factor'] for r in records):.4g}",
    ]
    if not args.trace:
        values = {"scenario_s": statistics.median(scenario),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_rss_mb}
        return _metrics(values, "end_to_end"), lines

    done = [r for r in traced if r["layers"]]  # traced calls that returned
    values = {name: statistics.median(r["layers"][name] for r in done)
              for name in (done[0]["layers"] if done else ())}
    traced_s = [r["wall_s"] * r["factor"] for r in traced]
    values["config.load_s"] = statistics.median(s["load_s"] for s in setups)
    error_name = "spectrum.edge_err" if args.workload == "butterfly" else "dynamics.max_amp_err"
    values[error_name] = max(report["max_err"] for report in reports)
    values["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(scenario)
                                  if traced_s else 0.0)
    if traced_s:
        lines.append(describe("traced scenario_s", traced_s, "s"))
    lines.append(f"tracing overhead: {values['trace.overhead_s']:.6g} s per call")
    # a layer that did not run reports 0
    values = {**dict.fromkeys((m["name"] for m in SPEC["per_layer"]), 0.0), **values}
    return _metrics(values, "per_layer"), lines


def _metrics(values: dict, group: str) -> dict:
    """Every metric BENCHMARK.json lists under ``group``, with its unit."""
    listed = {m["name"]: m["unit"] for m in SPEC[group]}
    if set(values) != set(listed):
        raise BenchError(f"computed {sorted(values)} but BENCHMARK.json lists {sorted(listed)}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in listed.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "fluxlattice" / "__init__.py").is_file():
        print(f"perfbench: no fluxlattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_dir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        reports = [child(args, work_dir, deadline) for _ in range(PROCESSES)]
        metrics, lines = summarize(args, reports)
        attempted = sum(report["attempted"] for report in reports)
        failed = sum(report["failed"] for report in reports)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"perfbench {args.workload} seed={args.seed} variant={variant_of(args.seed)} "
          f"inputs={json.dumps(drawn_values(args.workload, variant_of(args.seed)))}")
    print(f"env: {json.dumps(reports[0]['env'])}")
    for line in lines:
        print(line)
    print(f"failed_frac: {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
