"""Scenario configs, the runner, report emission and parameter sweeps.

A scenario is a single JSON document describing a surface, a grid, a
reference frame, a list of checks with optional tolerance overrides, and
probe/growth parameters.  `run_checks` is the one loop over grid blocks.
Runs are deterministic: a fixed config yields a byte-identical report,
because grid points are evaluated in blocks whose per-point results do not
depend on the block, and reduced in a fixed order.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .checks import (
    CheckConfigError,
    CheckResult,
    DEFAULT_TOLERANCES,
    GLOBAL_CHECKS,
    GRID_CHECKS,
    ProbeParams,
    aggregate_check,
    blocks,
    check_options,
    evaluate_point,
    growth_check_result,
    growth_option_fault,
    make_check_state,
    probe_check_result,
)
from .expressions import ParseError, parse_expression
from .immersions import (
    GridSpec,
    Immersion,
    ImmersionError,
    build_graph_immersion,
    catalogue_lookup,
)


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class CheckSpec:
    """One configured check; `tol=None` means its DEFAULT_TOLERANCES entry."""

    name: str
    tol: float | None = None
    options: dict = field(default_factory=dict)


@dataclass
class ScenarioConfig:
    """Validated scenario: surface, grid, frame, checks, probe parameters."""

    surface: Immersion
    grid: GridSpec
    reference_frame: np.ndarray | None
    checks: list[CheckSpec]
    probe: ProbeParams | None
    output_path: str | None
    output_format: str
    detail: bool
    raw: dict

    @property
    def frame_or_default(self) -> np.ndarray:
        return _frame_or_default(self.reference_frame, self.surface)


def _frame_or_default(frame, surface: Immersion) -> np.ndarray:
    # the coordinate n-plane when no frame is given; for graphs it makes the alignment positive
    return frame if frame is not None else np.eye(surface.n, surface.n + surface.m)


def _require(cond, path, message):
    if not cond:
        raise ConfigError(path, message)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # a JSON integer too large for a float
        return False


def _number(value, path: str, integral: bool = False):
    """A number a config gives: finite and not a bool, and integral if `integral`."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and _finite(value), path, f"must be a finite number, got {value!r}")
    _require(not integral or float(value).is_integer(), path, f"must be an integer, got {value!r}")
    return value


def _build_surface(d: dict) -> Immersion:
    _require(isinstance(d, dict), "surface", "must be an object")
    kind = d.get("kind", "catalogue")
    if kind == "catalogue":
        name = d.get("name")
        _require(isinstance(name, str), "surface.name", "catalogue surfaces need a name")
        try:
            return catalogue_lookup(name, d.get("params", {}))
        except ImmersionError as exc:
            raise ConfigError("surface", str(exc)) from exc
    if kind == "graph":
        exprs = d.get("exprs")
        _require(isinstance(exprs, list) and exprs, "surface.exprs", "graph surfaces need expressions")
        n = d.get("n", 2)
        _require(n in (2, 3), "surface.n", "domain dimension must be 2 or 3")
        try:
            return build_graph_immersion(exprs, n, name=d.get("name", "graph"))
        except (ParseError, ImmersionError) as exc:
            raise ConfigError("surface.exprs", str(exc)) from exc
    raise ConfigError("surface.kind", f"unknown kind {kind!r} (catalogue | graph)")


def _build_grid(d: dict, n: int) -> GridSpec:
    _require(isinstance(d, dict), "grid", "must be an object")
    ranges = d.get("ranges")
    counts = d.get("counts")
    _require(isinstance(ranges, list) and len(ranges) == n
             and all(isinstance(pair, list) and len(pair) == 2 for pair in ranges),
             "grid.ranges", f"need {n} [lo, hi] pairs")
    _require(isinstance(counts, list) and len(counts) == n, "grid.counts",
             f"need {n} sample counts")
    for i, (pair, count) in enumerate(zip(ranges, counts)):
        for j, value in enumerate(pair):
            _number(value, f"grid.ranges[{i}][{j}]")
        _number(count, f"grid.counts[{i}]", integral=True)
    mask = None
    if d.get("mask"):
        try:
            mask = parse_expression(d["mask"], n)
        except ParseError as exc:
            raise ConfigError("grid.mask", str(exc)) from exc
    try:
        return GridSpec(
            tuple((float(lo), float(hi)) for lo, hi in ranges),
            tuple(int(c) for c in counts),
            mask,
        )
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from exc


def _build_frame(rows, surface: Immersion) -> np.ndarray | None:
    if rows is None:
        return None
    frame = np.asarray(rows, dtype=float)
    n, N = surface.n, surface.n + surface.m
    _require(frame.shape == (n, N), "reference_frame", f"must be {n} rows of length {N}")
    gram = frame @ frame.T
    _require(
        float(np.abs(gram - np.eye(n)).max()) <= 1e-8,
        "reference_frame",
        "rows must be orthonormal",
    )
    return frame


def _build_checks(items, surface, frame) -> list[CheckSpec]:
    _require(isinstance(items, list), "checks", "must be a list")
    specs = []
    known = set(GRID_CHECKS) | set(GLOBAL_CHECKS)
    for idx, item in enumerate(items):
        path = f"checks[{idx}]"
        _require(isinstance(item, dict), path, "must be an object")
        name = item.get("name")
        _require(isinstance(name, str), f"{path}.name", "missing check name")
        _require(name in known, f"{path}.name",
                 f"unknown check {name!r} (known: {', '.join(sorted(known))})")
        tol = _number(item.get("tol", DEFAULT_TOLERANCES[name]), f"{path}.tol")
        _require(tol > 0, f"{path}.tol", "tolerance must be positive")
        options = {k: v for k, v in item.items() if k not in ("name", "tol")}
        accepted = check_options(name)
        for key, value in options.items():
            _require(key in accepted, f"{path}.{key}", f"unknown option for check {name!r} "
                     f"(accepted: {', '.join(accepted) or 'none'})")
            if key == "radii":
                _require(isinstance(value, list), f"{path}.radii", "must be a list of numbers")
                for j, radius in enumerate(value):
                    _number(radius, f"{path}.radii[{j}]")
            else:
                _number(value, f"{path}.{key}", integral=key == "cells")
            fault = growth_option_fault(key, value) if name == "growth" else None
            _require(fault is None, f"{path}.{key}", fault)
        if name in GRID_CHECKS:
            try:
                make_check_state(name, surface, frame, options, float(tol))
            except CheckConfigError as exc:
                raise ConfigError(path, str(exc)) from exc
        specs.append(CheckSpec(name=name, tol=float(tol), options=options))
    return specs


def _build_probe(d: dict | None) -> ProbeParams | None:
    if d is None:
        return None
    _require(isinstance(d, dict), "probe", "must be an object")
    known = {f.name for f in fields(ProbeParams)}
    for key, value in d.items():
        _require(key in known, f"probe.{key}", "unknown probe parameter")
        _number(value, f"probe.{key}", integral=key == "cells")
    params = ProbeParams(**{k: int(v) if k == "cells" else float(v) for k, v in d.items()})
    try:
        params.validate()
    except CheckConfigError as exc:
        raise ConfigError("probe", str(exc)) from exc
    return params


def load_config(data: dict) -> ScenarioConfig:
    """Validate a raw config dict into a ScenarioConfig."""
    _require(isinstance(data, dict), "config", "must be a JSON object")
    surface = _build_surface(data.get("surface", {}))
    grid = _build_grid(data.get("grid", {}), surface.n)
    frame = _build_frame(data.get("reference_frame"), surface)
    specs = _build_checks(data.get("checks", []), surface, _frame_or_default(frame, surface))
    probe = _build_probe(data.get("probe"))
    if any(s.name == "probe" for s in specs) and probe is None:
        probe = _build_probe({})  # defaults, already legal
    output = data.get("output", {}) or {}
    _require(isinstance(output, dict), "output", "must be an object")
    fmt = output.get("format", "json")
    _require(fmt in ("json", "csv"), "output.format", "format must be json or csv")
    path = output.get("path")
    _require(path is None or isinstance(path, str) and path, "output.path",
             f"must be a non-empty string, got {path!r}")
    detail = output.get("detail", False)
    _require(isinstance(detail, bool), "output.detail", f"must be true or false, got {detail!r}")
    return ScenarioConfig(
        surface=surface,
        grid=grid,
        reference_frame=frame,
        checks=specs,
        probe=probe,
        output_path=path,
        output_format=fmt,
        detail=detail,
        raw=data,
    )


def load_config_file(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"not valid JSON: {exc}") from exc
    return load_config(data)


@dataclass
class Report:
    """Everything a scenario run produced."""

    scenario: dict
    results: list[CheckResult]
    overall: str  # 'pass' | 'fail'
    n_grid_points: int
    elapsed_seconds: float  # console-only; excluded from emitted files

    def to_dict(self, detail: bool = False) -> dict:
        out = {
            "scenario": self.scenario,
            "n_grid_points": self.n_grid_points,
            "overall": self.overall,
            "checks": [],
        }
        for res in self.results:
            entry = {
                "name": res.name,
                "verdict": res.verdict,
                "worst_residual": res.worst_residual,
                "tolerance": res.tolerance,
                "n_points": res.n_points,
                "n_skipped": res.n_skipped,
            }
            if res.reason:
                entry["reason"] = res.reason
            if res.extras:
                entry["extras"] = res.extras
            if detail:  # records hold only Python scalars, tuples and None
                entry["details"] = res.details
            out["checks"].append(entry)
        return out


def run_checks(imm: Immersion, grid: GridSpec, specs: list[CheckSpec], frame=None,
               points=None) -> list[CheckResult]:
    """Evaluate grid checks in one pass over `grid`: one CheckResult per spec, in order.

    All specs share one block context per block of grid points, so the
    geometry is computed once per block however many checks run; a point's
    records do not depend on its block.  Raises CheckConfigError for options
    outside a check's domain, a missing requirement (reference frame, graph,
    n = 2), or a surface that fails to evaluate at every grid point.
    `points` may pass `grid.points()` when the caller has it already.
    """
    if not specs:
        return []
    tols = [DEFAULT_TOLERANCES[s.name] if s.tol is None else s.tol for s in specs]
    states = [(s.name, make_check_state(s.name, imm, frame, s.options, tol))
              for s, tol in zip(specs, tols)]
    records = [[] for _ in specs]  # per spec, one record per grid point
    for chunk in blocks(grid.points() if points is None else points):
        for mine, block_records in zip(records, evaluate_point(imm, frame, states, chunk)):
            mine.extend(block_records)
    if records[0] and all(rec["skipped"] and str(rec["reason"]).startswith("evaluation error")
                          for spec_records in records for rec in spec_records):
        raise CheckConfigError(
            f"surface evaluation failed at every grid point: {records[0][0]['reason']}"
        )
    return [aggregate_check(spec.name, tol, spec_records)
            for spec, tol, spec_records in zip(specs, tols, records)]


def run_scenario(config: ScenarioConfig, jobs: int | None = None) -> Report:
    """Execute every configured check; deterministic for a fixed config.

    The grid checks, and a probe's subharmonicity part, run in one
    `run_checks` pass.  `jobs` is deprecated and ignored: one process
    evaluates a block faster than a pool did.
    """
    start = time.perf_counter()
    imm = config.surface
    frame = config.frame_or_default
    params = config.probe if config.probe is not None else ProbeParams()

    in_pass = {}  # index in config.checks -> the spec evaluated for it on the grid
    for i, spec in enumerate(config.checks):
        if spec.name in GRID_CHECKS:
            in_pass[i] = spec
        elif spec.name == "probe" and imm.kind == "graph":
            in_pass[i] = CheckSpec("subharmonicity", spec.tol, {"s": params.s, "q": params.q})
    points = config.grid.points()
    on_grid = dict(zip(in_pass, run_checks(imm, config.grid, list(in_pass.values()), frame,
                                           points)))

    results = []
    for i, spec in enumerate(config.checks):
        if spec.name in GRID_CHECKS:
            results.append(on_grid[i])
        elif spec.name == "growth":
            radii = spec.options.get("radii", [1.0, 2.0, 4.0])
            cells = int(spec.options.get("cells", 256))
            results.append(growth_check_result(imm, radii, cells, spec.tol)[0])
        elif spec.name == "probe":
            results.append(probe_check_result(imm, frame, params, on_grid.get(i), spec.tol)[0])

    overall = "pass" if all(r.verdict != "fail" for r in results) else "fail"
    return Report(
        scenario=copy.deepcopy(config.raw),
        results=results,
        overall=overall,
        n_grid_points=len(points),
        elapsed_seconds=time.perf_counter() - start,
    )


# -- emission --------------------------------------------------------------------

def _format_float(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


# Where a JSON file holds per-point records: each record of a check's
# `details` list is one compact line, written by json's C encoder (`indent`
# selects its pure-Python one); everything else is indented as by
# `json.dumps(..., indent=2)`.
_RECORDS = object()
_REPORT_LAYOUT = {"checks": [{"details": _RECORDS}]}
_SWEEP_LAYOUT = {"reports": [_REPORT_LAYOUT]}


def _json_text(obj, layout, pad: str = "") -> str:
    """`obj` as JSON starting at indentation `pad`, with the lists `layout` marks one record a line.

    `layout` mirrors the containers on the way to those lists: a dict maps
    keys to the layout of their values, a one-item list gives the layout of
    every item, `_RECORDS` marks a list of records, and None (a key that
    `layout` does not name) is plain `json.dumps(obj, indent=2)`.
    """
    if layout is None:  # json escapes newlines in strings, so every "\n" here is layout
        return json.dumps(obj, indent=2).replace("\n", "\n" + pad)
    inner = pad + "  "
    if layout is _RECORDS:
        items = [json.dumps(record) for record in obj]
    elif isinstance(layout, dict):
        items = [f"{json.dumps(key)}: {_json_text(value, layout.get(key), inner)}"
                 for key, value in obj.items()]
    else:
        items = [_json_text(item, layout[0], inner) for item in obj]
    brackets = "{}" if isinstance(obj, dict) else "[]"
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def emit_report(report: Report, fmt: str, path, detail: bool = False) -> None:
    """Write a report to disk; floats round-trip at full double precision.

    JSON is indented, with one compact line per detail record.  The
    wall-clock timing is deliberately omitted so identical configs produce
    byte-identical files.
    """
    if fmt == "json":
        text = _json_text(report.to_dict(detail=detail), _REPORT_LAYOUT) + "\n"
    elif fmt == "csv":
        lines = ["check,u1,u2,u3,residual,status"]
        for res in report.results:
            if not res.details:
                continue
            for rec in res.details:
                pt = list(rec.get("point", ()))
                coords = [_format_float(c) for c in pt] + [""] * (3 - len(pt))
                if rec["skipped"]:
                    status = "skipped"
                    resid = ""
                else:
                    status = "ok" if rec["residual"] <= res.tolerance else "violation"
                    resid = _format_float(rec["residual"])
                lines.append(",".join([res.name, *coords, resid, status]))
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def emit_sweep(reports: list[Report], table: list, path, detail: bool = False) -> None:
    """Write a sweep's reports and aggregation table as one JSON file, laid out as emit_report's."""
    payload = {"reports": [r.to_dict(detail=detail) for r in reports], "aggregation": table}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(payload, _SWEEP_LAYOUT) + "\n")


# -- sweeps ----------------------------------------------------------------------

def _set_by_path(data: dict, dotted: str, value):
    keys = dotted.split(".")
    cur = data
    for key in keys[:-1]:
        if key not in cur or not isinstance(cur[key], dict):
            cur[key] = {}
        cur = cur[key]
    cur[keys[-1]] = value


def sweep(raw_config: dict, jobs: int | None = None):
    """Run the scenario once per swept parameter value.

    The config's `sweep` section is {"parameter": <dotted.path>, "values":
    [...]}.  Returns (reports, aggregation table); the table collects the
    implied constants and growth fits that each run produced.  `jobs` is
    deprecated and ignored, as in run_scenario.
    """
    sweep_cfg = raw_config.get("sweep")
    if not isinstance(sweep_cfg, dict):
        raise ConfigError("sweep", "sweep runs need a sweep section")
    parameter = sweep_cfg.get("parameter")
    values = sweep_cfg.get("values")
    if not isinstance(parameter, str) or not parameter:
        raise ConfigError("sweep.parameter", "must be a dotted config path")
    if not isinstance(values, list):
        raise ConfigError("sweep.values", "must be a list (may be empty)")

    reports = []
    table = []
    for value in values:
        variant = copy.deepcopy(raw_config)
        variant.pop("sweep", None)
        _set_by_path(variant, parameter, value)
        config = load_config(variant)
        report = run_scenario(config)
        reports.append(report)
        row = {"parameter": parameter, "value": value, "overall": report.overall}
        for res in report.results:
            if res.name == "probe":
                row["implied_c3"] = res.extras.get("implied_c3")
                row["implied_c4"] = res.extras.get("implied_c4")
            if res.name == "growth":
                row["volumes"] = res.extras.get("volumes")
                row["volume_exponent"] = res.extras.get("volume_exponent")
                row["max_v"] = res.extras.get("max_v")
        table.append(row)
    return reports, table
