#!/usr/bin/env python3
"""Write a fixed set of curvlab reports, for byte comparison between two checkouts.

    python3 scripts/emit_reports.py OUTDIR [--checkout PATH]

Imports curvlab from PATH/src (default: this checkout) and writes 34 files
to OUTDIR:

* `check <name> --out`, `--out --detail` and `--format csv` of every bundled
  scenario (18 files);
* `sweep z2-probe --out --detail` (1 file);
* every report of the grid-surface, grid-solid and quadrature benchmark
  workloads at seeds 3, 5 and 11, as JSON with per-point detail, the way
  perfbench emits them (15 files).

The 22 files with detail are format 2: a report's grid points once, as
`points`, and each check's `details` as columns over them.  Writers older
than format 2 wrote one record per point instead; to compare with one, zip
each check's columns back into records (null where a record omits a key).

The workload configs come from this checkout's perfbench/inputs.py, so two
checkouts get the same inputs, and `diff -r` of two OUTDIRs shows any byte
that moved.  A report holds no timing, so two runs of one checkout write
identical files, whatever PYTHONHASHSEED is.
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (3, 5, 11)
WORKLOADS = ("grid-surface", "grid-solid", "quadrature")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="the checkout whose src/ is imported (default: this one)")
    args = parser.parse_args(argv)
    src = (args.checkout / "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import curvlab
    from curvlab import cli, scenario
    from inputs import WORKLOADS as INPUTS

    if Path(curvlab.__file__).resolve().parent != src / "curvlab":
        sys.exit(f"imported curvlab from {curvlab.__file__}, not from {src}")
    out = args.outdir
    out.mkdir(parents=True, exist_ok=True)

    commands = []
    for path in sorted((src / "curvlab" / "scenarios").glob("*.json")):
        name = path.stem
        commands += [["check", name, "--out", str(out / f"{name}.json")],
                     ["check", name, "--out", str(out / f"{name}-detail.json"), "--detail"],
                     ["check", name, "--out", str(out / f"{name}.csv"), "--format", "csv"]]
    commands.append(["sweep", "z2-probe", "--out", str(out / "sweep-z2-probe.json"), "--detail"])
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(command)
        if code not in (0, 1):  # 1: a check failed, which a report records
            sys.exit(f"curvlab {' '.join(command)} exited {code}")

    for workload in WORKLOADS:
        for seed in SEEDS:
            work = INPUTS[workload](seed)
            if work.sweep:
                reports, _ = scenario.sweep(work.config)
            else:
                reports = [scenario.run_scenario(scenario.load_config(work.config))]
            for i, report in enumerate(reports):
                scenario.emit_report(report, "json", out / f"{workload}-{seed}-{i}.json", detail=True)

    files = sorted(p.name for p in out.iterdir())
    print(f"wrote {len(files)} files to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
