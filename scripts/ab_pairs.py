#!/usr/bin/env python3
"""A/B timing of two checkouts with perfbench, in alternating pairs of runs.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload W --seed S --pairs N --seconds T

Runs `perfbench/run.py --trace 0` in the checkout PARENT and in CHANGE by
turns, PARENT first in odd pairs and CHANGE first in even ones, so that a
drift of the host's speed falls on both sides.  Before every run it deletes
the __pycache__ directories under each checkout's src/, since a bytecode
cache left by an earlier run lowers setup_s.  Every run must report
`correct` with 0 failed outcomes.

Prints, per side, the first quartile, median and third quartile over the
runs of each end-to-end metric, of the scaled and wall run_s quartiles
that perfbench prints for a run, and of each run's calibration factor, its
wall run_s median over its scaled one; then the pairs in which CHANGE was
lower, and whether the rule for a claimed gain holds: lower in at least 9
of 10 pairs, with the medians further apart than PARENT's quartile
distance.  For each end-to-end metric of BENCHMARK.json (read, never
written) it prints the no-regression rule as well: it holds when CHANGE's
median is at most PARENT's median times (1 + the metric's bound), and is
unresolved when PARENT's runs spread wider than the bound,
(q3 - q1) / median > bound, unless every CHANGE run is lower than every
PARENT run.  run_s's verdict is flagged "calibration moved" when the two
sides' median calibration factors are further apart than PARENT's
quartile distance: perfbench scales run_s by a timing loop whose speed
can shift between processes while curvlab's wall times stay level, so
the scaled figure then compares the loop as much as the change.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUARTILE_LINE = re.compile(r"run_s quartiles, (scaled|wall): +(\S+) / (\S+) / (\S+) s")
WIN_SHARE = 0.9


def parse_run(stdout: str) -> dict:
    """One perfbench output -> {metric: value}, with its run_s quartiles as "run_s scaled q1" ...

    and its calibration factor, the wall run_s median over the scaled one,
    as "calibration".  ValueError unless the run reported `correct` with 0
    failed outcomes.
    """
    result = json.loads(stdout.strip().splitlines()[-1])
    if result["correct"] is not True or result["failed"] != 0:
        raise ValueError(f"perfbench reported correct={result['correct']}, "
                         f"failed={result['failed']} of {result['attempted']}")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    for kind, *quartiles in QUARTILE_LINE.findall(stdout):
        for label, value in zip(("q1", "median", "q3"), quartiles):
            values[f"run_s {kind} {label}"] = float(value)
    values["calibration"] = values["run_s wall median"] / values["run_s scaled median"]
    return values


def quartiles(values) -> tuple:
    if len(values) < 2:
        return (values[0],) * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end_bounds(path: Path = ROOT / "BENCHMARK.json") -> dict:
    """{metric: bound} of the benchmark's end-to-end metrics."""
    return {metric["name"]: metric["bound"]
            for metric in json.loads(path.read_text(encoding="utf-8"))["end_to_end"]}


def no_regression(a: list, b: list, bound: float) -> str:
    """'holds', 'fails' or 'unresolved': CHANGE's runs `b` against PARENT's `a`, lower is better."""
    q1, median, q3 = quartiles(a)
    if (q3 - q1) / median > bound and max(b) >= min(a):
        return "unresolved"
    return "holds" if quartiles(b)[1] <= median * (1.0 + bound) else "fails"


def calibration_moved(a: list, b: list) -> bool:
    """Whether the median of CHANGE's calibration factors `b` is further from that of
    PARENT's `a` than a's q3 - q1."""
    q1, median, q3 = quartiles(a)
    return abs(quartiles(b)[1] - median) > q3 - q1


def summarize(parent: list, change: list, bounds: dict) -> list:
    """The summary lines for runs paired by position; every metric is better lower.

    `bounds` gives the no-regression bound of each end-to-end metric.
    """
    moved = calibration_moved(*([run["calibration"] for run in runs] for runs in (parent, change)))
    lines = [f"{len(parent)} pairs; q1 / median / q3 over the runs; won: pairs where CHANGE "
             f"is lower; gain: won in >= {WIN_SHARE:.0%} of pairs and a median gap above "
             "PARENT's q3 - q1; no-regression: CHANGE's median <= PARENT's x (1 + bound), "
             "unresolved where PARENT's (q3 - q1) / median > bound; calibration: wall / scaled "
             "run_s median, and run_s's verdict is flagged [calibration moved] where the two "
             "sides' medians of it are further apart than PARENT's q3 - q1",
             f"{'metric':<22} {'PARENT':>32} {'CHANGE':>32} {'won':>7}  gain   no-regression"]
    for name in parent[0]:
        a, b = [run[name] for run in parent], [run[name] for run in change]
        qa, qb = quartiles(a), quartiles(b)
        won = sum(y < x for x, y in zip(a, b))
        holds = won >= WIN_SHARE * len(a) and qa[1] - qb[1] > qa[2] - qa[0]
        rule = "-"
        if name in bounds:
            flag = " [calibration moved]" if name == "run_s" and moved else ""
            rule = (f"{no_regression(a, b, bounds[name])}{flag} ({qb[1] / qa[1] - 1:+.1%} against "
                    f"{bounds[name]:.0%}; PARENT spread {(qa[2] - qa[0]) / qa[1]:.1%})")
        lines.append(f"{name:<22} {' / '.join(f'{q:.4g}' for q in qa):>32} "
                     f"{' / '.join(f'{q:.4g}' for q in qb):>32} "
                     f"{f'{won}/{len(a)}':>7}  {'holds' if holds else 'fails'}  {rule}")
    return lines


def clear_caches(checkouts) -> None:
    for checkout in checkouts:
        for cache in list((checkout / "src").rglob("__pycache__")):
            shutil.rmtree(cache)


def run_perfbench(checkout: Path, args) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench failed in {checkout} (exit code {proc.returncode}):\n{proc.stderr}")
    try:
        return parse_run(proc.stdout)
    except ValueError as err:
        sys.exit(f"{checkout}: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the checkout measured first in odd pairs")
    parser.add_argument("change", type=Path, help="the checkout measured first in even pairs")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in checkouts}
    for pair in range(1, args.pairs + 1):
        for side in ("parent", "change") if pair % 2 else ("change", "parent"):
            clear_caches(checkouts.values())
            runs[side].append(run_perfbench(checkouts[side], args))
        print(f"pair {pair}: run_s {runs['parent'][-1]['run_s']:.4g} (PARENT), "
              f"{runs['change'][-1]['run_s']:.4g} (CHANGE)", flush=True)
    clear_caches(checkouts.values())
    print("\n".join(summarize(runs["parent"], runs["change"], end_to_end_bounds())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
