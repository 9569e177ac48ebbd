"""Benchmark of curvlab's public API on seeded workloads.

Run from the root of a checkout, which must hold curvlab's sources in src/:

    python3 perfbench/run.py --workload grid-surface --seed 1 --seconds 20 --trace 0

The seed makes the scenario configs (perfbench/inputs.py); curvlab receives
only those configs, through load_config / run_scenario / sweep / emit_report,
in this single process.  A run is one run_scenario (or sweep) followed by
emit_report of every report as JSON with per-point detail.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a separate traced window at jobs=1 (perfbench/tracing.py) and the
tracing overhead.  Every run's reports go through the independent oracle
(perfbench/oracle.py); the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from calibration import Clock
from inputs import WORKLOADS
from oracle import KNOWN_DEFECTS, ReportOracle, Tally
from tracing import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 7  # fresh interpreters per process, after one untimed warm-up
MIN_RUNS = 3

# Imports curvlab and loads one config in a fresh interpreter, as every CLI run
# does.  numpy is imported first, on its own, to time a fixed reference.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import curvlab.cli
t2 = time.perf_counter()
from curvlab.scenario import load_config
load_config(json.loads(sys.stdin.read()))
t3 = time.perf_counter()
print(json.dumps({"file": curvlab.__file__, "numpy_s": t1 - t0, "import_s": t2 - t0,
                  "load_s": t3 - t2}))
"""
# About `import numpy` in a fresh interpreter on the reference VM; like
# calibration.REFERENCE_LOOP_S it only sets the scale of the set-up figures.
NUMPY_IMPORT_REF_S = 0.13

LAYER_SECONDS = {  # per-layer metric -> span name; each value is self time per run
    "jets.product_s": "jets.product",
    "jets.elementary_s": "jets.elementary",
    "expressions.jet_eval_s": "expressions.jet_eval",
    "expressions.array_eval_s": "expressions.array_eval",
    "immersions.evaluate_s": "immersions.evaluate",
    "immersions.grid_s": "immersions.grid",
    "geometry.point_s": "geometry.point",
    "geometry.rank_s": "geometry.rank",
    "geometry.canonical_s": "geometry.canonical",
    "geometry.alignment_s": "geometry.alignment",
    "geometry.complex_s": "geometry.complex",
    "geometry.curvature_s": "geometry.curvature",
    "geometry.scalar_field_s": "geometry.scalar_field",
    "geometry.laplace_s": "geometry.laplace",
    "checks.evaluate_point_s": "checks.evaluate_point",
    "checks.aggregate_s": "checks.aggregate",
    "checks.growth_s": "checks.growth",
    "checks.probe_s": "checks.probe",
    "scenario.run_s": "scenario.run",
    "scenario.emit_s": "scenario.emit",
}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_curvlab() -> None:
    """Import curvlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "curvlab" / "__init__.py").is_file():
        fail(f"no curvlab sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import curvlab

    if Path(curvlab.__file__).resolve().parent != (SRC / "curvlab").resolve():
        fail(f"imported curvlab from {curvlab.__file__}, not from {SRC}")


def measure_setup(config: dict) -> tuple[list, list]:
    """Scaled import and config-load seconds of SETUP_REPEATS fresh interpreters.

    Import time moves with the host's speed much as `import numpy` does, and
    far less like the calibration loop, so each interpreter's figures are
    scaled by NUMPY_IMPORT_REF_S over its own numpy import time.  numpy's
    import is a fixed cost that no curvlab change moves.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    payload = json.dumps(config)
    imports, loads = [], []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], input=payload, env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"set-up interpreter failed:\n{proc.stderr}")
        times = json.loads(proc.stdout)
        if Path(times["file"]).resolve().parent != (SRC / "curvlab").resolve():
            fail(f"set-up interpreter imported curvlab from {times['file']}")
        scale = NUMPY_IMPORT_REF_S / times["numpy_s"]
        if i:  # the first interpreter may compile bytecode, which users pay once
            imports.append(times["import_s"] * scale)
            loads.append(times["load_s"] * scale)
    return imports, loads


class Bench:
    """Runs one workload, times it and feeds every report to the oracle."""

    def __init__(self, name: str, work, outdir: Path):
        from curvlab import scenario

        self.scenario = scenario
        self.work = work
        self.outdir = outdir
        self.config = None if work.sweep else scenario.load_config(work.config)
        self.oracle = ReportOracle(work)
        self.tally = Tally(name)
        self.reference = None

    def run(self, jobs: int) -> list:
        """One run: the scenario or sweep, then every report emitted to disk."""
        scenario = self.scenario
        if self.work.sweep:
            reports, _ = scenario.sweep(self.work.config, jobs=jobs)
        else:
            reports = [scenario.run_scenario(self.config, jobs=jobs)]
        paths = []
        for i, report in enumerate(reports):
            paths.append(self.outdir / f"report-{i}.json")
            scenario.emit_report(report, "json", paths[-1], detail=True)
        return paths

    def check(self, paths) -> None:
        """Record the run's outcomes; the first checked run is the reference."""
        data = [p.read_bytes() for p in paths]
        if self.reference is None:
            self.reference = data
        self.tally.record("report:count", len(data) == len(self.reference))
        for got, want in zip(data, self.reference):
            self.tally.record("report:bytes", got == want)
            for name, ok in self.oracle.outcomes(got):
                self.tally.record(name, ok)

    def warm_up(self) -> None:
        """The reference run at jobs=1, then one run on the pool path if the workload has one."""
        self.check(self.run(1))
        if self.work.jobs > 1:
            self.check(self.run(self.work.jobs))

    def window(self, seconds: float, jobs: int, tracer: Tracer | None = None) -> list:
        """Runs for `seconds` (at least MIN_RUNS).

        Returns one Run per run; with a tracer, its self seconds and call
        counts per span name, the seconds scaled like the run's.
        """
        runs = []
        clock = Clock()
        end = time.perf_counter() + seconds
        while len(runs) < MIN_RUNS or time.perf_counter() < end:
            t0 = time.perf_counter()
            paths = self.run(jobs)
            wall = time.perf_counter() - t0
            scaled = clock.scale(wall)
            layers = calls = None
            if tracer is not None:
                layers, calls = tracer.take()
                layers = {k: v * scaled / wall for k, v in layers.items()}
            self.check(paths)
            runs.append(Run(scaled, wall, layers, calls))
        return runs


@dataclass
class Run:
    seconds: float  # scaled to the reference speed (calibration.py)
    wall: float
    layers: dict | None = None
    calls: Counter | None = None


def points_per_run(data) -> int:
    return sum(json.loads(d)["n_grid_points"] for d in data)


def skipped_per_run(data) -> int:
    return sum(c["n_skipped"] for d in data for c in json.loads(d)["checks"])


def end_to_end(bench: Bench, seconds: float, setup: float) -> tuple[dict, list]:
    work = bench.work
    bench.warm_up()
    runs = bench.window(seconds, work.jobs)
    run_s = statistics.median(r.seconds for r in runs)
    points = points_per_run(bench.reference)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup, "s"),
        "run_s": (run_s, "s"),
        "ms_per_point": (1000.0 * run_s / points, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = [f"{len(runs)} timed runs at jobs={work.jobs}, {points} grid points per run",
             f"run_s quartiles, scaled: {fmt_quartiles([r.seconds for r in runs])}",
             f"run_s quartiles, wall:   {fmt_quartiles([r.wall for r in runs])}"]
    return metrics, notes


def per_layer(bench: Bench, seconds: float, imports: list, loads: list) -> tuple[dict, list]:
    work = bench.work
    bench.warm_up()
    plain = bench.window(seconds / 2.0, 1)
    tracer = Tracer()
    with tracer.installed():
        traced = bench.window(seconds / 2.0, 1, tracer)
    for run in traced[1:]:
        bench.tally.record("counters:repeat", run.calls == traced[0].calls)
    calls = traced[0].calls
    data = bench.reference  # every run's reports, or a failed report:bytes outcome
    points = points_per_run(data)
    metrics = {}
    for metric, span in LAYER_SECONDS.items():
        metrics[metric] = (statistics.median(r.layers.get(span, 0.0) for r in traced), "s")
    metrics.update({
        "jets.products_per_point": (calls["jets.product"] / points, "count"),
        "jets.elementary_per_point": (calls["jets.elementary"] / points, "count"),
        "geometry.point_calls_per_point": (calls["geometry.point"] / points, "count"),
        "immersions.points": (points, "count"),
        "immersions.points_masked": (work.masked * len(data), "count"),
        "checks.points_skipped": (skipped_per_run(data), "count"),
        "checks.quad_cells": (calls["checks.quad_cells"], "count"),
        "checks.quad_rel_err": (bench.oracle.quad_rel_err, "frac"),
        "scenario.emit_bytes": (sum(len(d) for d in data), "bytes"),
        "cli.import_s": (statistics.median(imports), "s"),
        "scenario.load_s": (statistics.median(loads), "s"),
        "trace.overhead_frac": (
            statistics.median(r.seconds for r in traced)
            / statistics.median(r.seconds for r in plain) - 1.0, "frac"),
    })
    notes = [f"{len(plain)} untraced and {len(traced)} traced runs at jobs=1, "
             f"{points} grid points per run"]
    return metrics, notes


def fmt_quartiles(values) -> str:
    if len(values) < 2:
        return "n/a"
    q = statistics.quantiles(values, n=4)
    return f"{q[0]:.4f} / {statistics.median(values):.4f} / {q[2]:.4f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_curvlab()
    import numpy

    work = WORKLOADS[args.workload](args.seed)
    imports, loads = measure_setup(work.config)
    setup = statistics.median(i + l for i, l in zip(imports, loads))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bench = Bench(args.workload, work, Path(tmp))
        if args.trace:
            metrics, notes = per_layer(bench, args.seconds, imports, loads)
        else:
            metrics, notes = end_to_end(bench, args.seconds, setup)

    tally = bench.tally
    print(f"workload {args.workload}, seed {args.seed}: python {sys.version.split()[0]}, "
          f"numpy {numpy.__version__}, nproc {os.cpu_count()}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<32} {tally.failed / tally.attempted:>14.6g} "
          f"({tally.failed} of {tally.attempted} outcomes)")
    if args.workload == "quadrature":
        print(f"  {'quad_rel_err':<32} {bench.oracle.quad_rel_err:>14.6g}")
    for name in sorted(tally.known):
        print(f"  known defect, left standing: {name}: {KNOWN_DEFECTS[(args.workload, name)]}")
    for name in tally.unexpected:
        print(f"  UNEXPECTED mismatch: {name}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
