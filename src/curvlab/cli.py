"""Command-line scenario runner.

Exit codes: 0 = overall pass, 1 = at least one check failed,
2 = usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .checks import CHECK_DESCRIPTIONS, CheckConfigError, DEFAULT_TOLERANCES
from .immersions import catalogue_names
from .scenario import (
    ConfigError,
    Report,
    emit_report,
    emit_sweep,
    load_config_file,
    load_json,
    run_scenario,
    sweep,
)


JOBS_HELP = "deprecated and ignored: grid points are evaluated in blocks in one process"


def _resolve_config_path(name: str) -> str:
    """Accept a file path or the name of a bundled scenario."""
    if os.path.exists(name):
        return name
    candidate = name if name.endswith(".json") else f"{name}.json"
    bundle = resources.files("curvlab") / "scenarios" / candidate
    if bundle.is_file():
        return str(bundle)
    raise ConfigError("config", f"no such config file or bundled scenario: {name}")


def _print_report(report: Report) -> None:
    width = max((len(r.name) for r in report.results), default=10)
    print(f"{'check':<{width}}  {'points':>6}  {'worst residual':>14}  {'tol':>9}  verdict")
    for res in report.results:
        worst = "-" if res.worst_residual is None else f"{res.worst_residual:.3e}"
        print(
            f"{res.name:<{width}}  {res.n_points:>6}  {worst:>14}  {res.tolerance:>9.1e}  {res.verdict}"
        )
        if res.reason:
            print(f"{'':<{width}}  reason: {res.reason}")
    print(f"overall: {report.overall}  ({report.n_grid_points} grid points, "
          f"{report.elapsed_seconds:.2f}s)")


def _cmd_check(args) -> int:
    config = load_config_file(_resolve_config_path(args.config))
    report = run_scenario(config)
    _print_report(report)
    out = args.out or config.output_path
    fmt = args.format or config.output_format
    detail = args.detail or config.detail
    if out:
        emit_report(report, fmt, out, detail=detail)
        print(f"wrote {fmt} report to {out}")
    return 0 if report.overall == "pass" else 1


def _cmd_sweep(args) -> int:
    reports, table = sweep(load_json(_resolve_config_path(args.config)))
    for report, row in zip(reports, table):
        print(f"-- {row['parameter']} = {row['value']}")
        _print_report(report)
    if table:
        print("sweep aggregation:")
        print(json.dumps(table, indent=2))
    if args.out:
        emit_sweep(reports, table, args.out, detail=args.detail)
        print(f"wrote sweep report to {args.out}")
    ok = all(r.overall == "pass" for r in reports)
    return 0 if ok else 1


def _cmd_list_surfaces(_args) -> int:
    for name, doc in catalogue_names():
        print(f"{name:<14} {doc}")
    return 0


def _cmd_list_checks(_args) -> int:
    for name, desc in CHECK_DESCRIPTIONS.items():
        print(f"{name:<21} tol={DEFAULT_TOLERANCES[name]:<8.0e} {desc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="numerical checks of curvature identities on immersed submanifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a scenario config")
    p_check.add_argument("config", help="config file path or bundled scenario name")
    p_check.add_argument("--out", help="write the report to this path")
    p_check.add_argument("--format", choices=("json", "csv"), help="report format")
    p_check.add_argument("--jobs", type=int, help=JOBS_HELP)
    p_check.add_argument("--detail", action="store_true", help="include per-point records")
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="run a scenario once per swept parameter value")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--jobs", type=int, help=JOBS_HELP)
    p_sweep.add_argument("--detail", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    sub.add_parser("list-surfaces", help="catalogue surfaces").set_defaults(
        func=_cmd_list_surfaces
    )
    sub.add_parser("list-checks", help="available checks").set_defaults(
        func=_cmd_list_checks
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, CheckConfigError, OSError) as exc:  # OSError: a file it cannot open
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
