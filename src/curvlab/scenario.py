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
from functools import partial

import numpy as np

from .checks import (
    CHECKS,
    GRID_CHECKS,
    CheckConfigError,
    CheckResult,
    Columns,
    ProbeParams,
    _now,
    aggregate_check,
    blocks,
    evaluate_point,
    growth_check_result,
    growth_option_fault,
    make_check_state,
    probe_check_result,
    quadrature_cells_fault,
)
from .expressions import ParseError, expression_fault, parse_expression
from .immersions import (
    GridSpec,
    Immersion,
    ImmersionError,
    _parametric,
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
    """One configured check; `tol=None` means the default tolerance of its `CHECKS` row."""

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


def _numbers(value, path: str):
    """A number, or nested lists of numbers, each checked by _number."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            _numbers(item, f"{path}[{i}]")
    else:
        _number(value, path)


def _catalogue_params(params, path: str):
    """Catalogue params: `base` names a surface, `base_params` are params again,
    and every other value is a number or nested lists of numbers."""
    _require(isinstance(params, dict), path, f"must be an object, got {params!r}")
    for key, value in params.items():
        if key == "base":
            _require(isinstance(value, str), f"{path}.base", f"must be a surface name, got {value!r}")
        elif key == "base_params":
            _catalogue_params(value, f"{path}.base_params")
        else:
            _numbers(value, f"{path}.{key}")


def _build_surface(d: dict) -> Immersion:
    _require(isinstance(d, dict), "surface", "must be an object")
    kind = d.get("kind", "catalogue")
    if kind == "catalogue":
        name = d.get("name")
        _require(isinstance(name, str), "surface.name", "catalogue surfaces need a name")
        params = d.get("params") or {}
        _catalogue_params(params, "surface.params")
        try:
            return catalogue_lookup(name, params)
        except ImmersionError as exc:
            if exc.param is None:
                raise ConfigError("surface", str(exc)) from exc
            raise ConfigError(f"surface.params.{exc.param}", exc.message) from exc
    if kind in ("graph", "parametric"):  # the m graph components, or all n + m components
        exprs = d.get("exprs")
        _require(isinstance(exprs, list) and exprs, "surface.exprs", f"{kind} surfaces need expressions")
        for i, e in enumerate(exprs):
            _require(isinstance(e, str), f"surface.exprs[{i}]", f"must be a string, got {e!r}")
        n = d.get("n", 2)
        _require(isinstance(n, int) and n in (2, 3), "surface.n", "domain dimension must be 2 or 3")
        try:
            if kind == "graph":
                return build_graph_immersion(exprs, n, name=d.get("name", "graph"))
            return _parametric(exprs, n, d.get("name", "parametric"))
        except (ParseError, ImmersionError) as exc:
            raise ConfigError("surface.exprs", str(exc)) from exc
    raise ConfigError("surface.kind", f"unknown kind {kind!r} (catalogue | graph | parametric)")


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
    _require(math.prod(int(c) for c in counts) <= 2**20, "grid.counts",
             f"at most 2^20 grid points, got {' x '.join(str(c) for c in counts)}")
    mask = d.get("mask") or None
    _require(mask is None or isinstance(mask, str), "grid.mask", f"must be a string, got {mask!r}")
    if mask:
        try:
            mask = parse_expression(mask, n)
        except ParseError as exc:
            raise ConfigError("grid.mask", str(exc)) from exc
        fault = expression_fault(mask, n)
        _require(fault is None, "grid.mask", fault)
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
    n, N = surface.n, surface.n + surface.m
    _require(isinstance(rows, list) and len(rows) == n
             and all(isinstance(row, list) and len(row) == N for row in rows),
             "reference_frame", f"must be {n} rows of length {N}")
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            _number(value, f"reference_frame[{i}][{j}]")
    frame = np.array(rows, dtype=float)
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
    for idx, item in enumerate(items):
        path = f"checks[{idx}]"
        _require(isinstance(item, dict), path, "must be an object")
        name = item.get("name")
        _require(isinstance(name, str), f"{path}.name", "missing check name")
        _require(name in CHECKS, f"{path}.name",
                 f"unknown check {name!r} (known: {', '.join(sorted(CHECKS))})")
        tol = _number(item.get("tol", CHECKS[name].tol), f"{path}.tol")
        _require(tol > 0, f"{path}.tol", "tolerance must be positive")
        options = {k: v for k, v in item.items() if k not in ("name", "tol")}
        accepted = CHECKS[name].options
        for key, value in options.items():
            _require(key in accepted, f"{path}.{key}", f"unknown option for check {name!r} "
                     f"(accepted: {', '.join(accepted) or 'none'})")
            if isinstance(accepted[key], list):
                _require(isinstance(value, list), f"{path}.{key}", "must be a list of numbers")
                for j, number in enumerate(value):
                    _number(number, f"{path}.{key}[{j}]")
            else:
                _number(value, f"{path}.{key}", integral=isinstance(accepted[key], int))
            fault = growth_option_fault(key, value, surface.n) if name == "growth" else None
            _require(fault is None, f"{path}.{key}", fault)
        if name in GRID_CHECKS:
            try:
                make_check_state(name, surface, frame, options, float(tol))
            except CheckConfigError as exc:
                raise ConfigError(path, str(exc)) from exc
        specs.append(CheckSpec(name=name, tol=float(tol), options=options))
    return specs


def _build_probe(d: dict | None, n: int) -> ProbeParams | None:
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
    fault = quadrature_cells_fault(params.cells, n)
    _require(fault is None, "probe.cells", fault)
    return params


def load_output(data: dict, formats=("json", "csv")) -> tuple:
    """(path, format, detail) of a raw config's `output` section, validated."""
    output = data.get("output", {}) or {}
    _require(isinstance(output, dict), "output", "must be an object")
    fmt = output.get("format", "json")
    _require(fmt in formats, "output.format", f"format must be {' or '.join(formats)}")
    path = output.get("path")
    _require(path is None or isinstance(path, str) and path, "output.path",
             f"must be a non-empty string, got {path!r}")
    detail = output.get("detail", False)
    _require(isinstance(detail, bool), "output.detail", f"must be true or false, got {detail!r}")
    return path, fmt, detail


def load_config(data: dict) -> ScenarioConfig:
    """Validate a raw config dict into a ScenarioConfig."""
    _require(isinstance(data, dict), "config", "must be a JSON object")
    surface = _build_surface(data.get("surface", {}))
    grid = _build_grid(data.get("grid", {}), surface.n)
    frame = _build_frame(data.get("reference_frame"), surface)
    specs = _build_checks(data.get("checks", []), surface, _frame_or_default(frame, surface))
    probe = _build_probe(data.get("probe"), surface.n)
    if any(s.name == "probe" for s in specs) and probe is None:
        probe = ProbeParams()  # the defaults are legal
    path, fmt, detail = load_output(data)
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


def load_json(path):
    """The raw config in the JSON file at `path`; ConfigError when it is not valid JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
            raise ConfigError("config", f"not valid JSON: {exc}") from exc


def load_config_file(path) -> ScenarioConfig:
    return load_config(load_json(path))


@dataclass
class Report:
    """Everything a scenario run produced."""

    scenario: dict
    results: list[CheckResult]
    overall: str  # 'pass' | 'fail'
    n_grid_points: int
    elapsed_seconds: float  # console-only; excluded from emitted files

    def to_dict(self, detail: bool = False, floats=None) -> dict:
        """The report as JSON data.  With `detail` it is format 2: the points every
        grid check ran over, once (none without a grid check), and each check's
        `details` as columns over them (`Columns.lists`); `{}` for a check without
        columns (growth, probe).  A given `floats(values, live)` stands in for
        the list of `points` and of each float64 column (emit_report's table)."""
        out = {"format": 2} if detail else {}
        out.update(scenario=self.scenario, n_grid_points=self.n_grid_points, overall=self.overall)
        if detail:
            points = next((res.columns.points for res in self.results
                           if res.columns is not None), [])
            out["points"] = points if floats is None else floats(np.array(points, float), None)
        out["checks"] = []
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
            if detail:
                entry["details"] = {} if res.columns is None else res.columns.lists(floats)
            out["checks"].append(entry)
        return out


def run_checks(imm: Immersion, grid: GridSpec, specs: list[CheckSpec], frame=None,
               points=None) -> list[CheckResult]:
    """Evaluate grid checks in one pass over `grid`: one CheckResult per spec, in order.

    All specs share one block context per block of grid points, so the
    geometry is computed once per block however many checks run; a point's
    values do not depend on its block.  Raises CheckConfigError for options
    outside a check's domain, a missing requirement (reference frame, graph,
    n = 2), or a surface that fails to evaluate at every grid point.
    `points` may pass `grid.points()` when the caller has it already.
    """
    if not specs:
        return []
    tols = [CHECKS[s.name].tol if s.tol is None else s.tol for s in specs]
    states = [(s.name, make_check_state(s.name, imm, frame, s.options, tol))
              for s, tol in zip(specs, tols)]
    per_block = [evaluate_point(imm, frame, states, chunk)
                 for chunk in blocks(imm, grid.points() if points is None else points)]
    columns = [Columns.concat([block[i] for block in per_block]) for i in range(len(specs))]
    skips = np.concatenate([cols.skip for cols in columns])  # None where evaluated
    if skips.size and all(str(reason).startswith("evaluation error") for reason in skips):
        raise CheckConfigError(f"surface evaluation failed at every grid point: {skips[0]}")
    return [aggregate_check(spec.name, tol, cols) for spec, tol, cols in zip(specs, tols, columns)]


def run_scenario(config: ScenarioConfig, jobs: int | None = None, *, _once=_now) -> Report:
    """Execute every configured check; deterministic for a fixed config.

    The grid checks, and a probe's subharmonicity part, run in one
    `run_checks` pass.  `jobs` is deprecated and ignored: one process
    evaluates a block faster than a pool did.  In a `sweep`, `_once(compute,
    slot, *inputs)` may return a piece of work an earlier report computed
    from the same inputs: the report equals a stand-alone run, and its
    console-only `elapsed_seconds` covers only its own new work.
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
    points, specs = config.grid.points(), list(in_pass.values())
    on_grid = dict(zip(in_pass, _once(lambda: run_checks(imm, config.grid, specs, frame, points),
                                      "grid", config.raw.get("grid"), frame,
                                      [[s.name, s.tol, s.options] for s in specs])))

    results = []
    for i, spec in enumerate(config.checks):
        if spec.name in GRID_CHECKS:
            results.append(on_grid[i])
        elif spec.name == "growth":
            options = {**CHECKS["growth"].options, **spec.options}
            radii, cells = options["radii"], int(options["cells"])
            results.append(_once(lambda: growth_check_result(imm, radii, cells, spec.tol)[0],
                                 f"checks[{i}]", radii, cells, spec.tol))
        elif spec.name == "probe":
            results.append(probe_check_result(imm, frame, params, on_grid.get(i), spec.tol,
                                              _once=_once)[0])

    overall = "pass" if all(r.verdict != "fail" for r in results) else "fail"
    return Report(
        scenario=copy.deepcopy(config.raw),
        results=results,
        overall=overall,
        n_grid_points=len(points),
        elapsed_seconds=time.perf_counter() - start,
    )


# -- emission --------------------------------------------------------------------

# Where a JSON file holds detail columns: each is one compact line, `json.dumps(column)`;
# everything else is indented as by `json.dumps(..., indent=2)`.
_LINE = object()
_REPORT_LAYOUT = {"points": _LINE, "checks": [{"details": {
    "residual": _LINE, "skipped": _LINE, "reason": _LINE, "detail": {"*": _LINE}}}]}
# json's words for the doubles that float.__repr__ writes as nan, inf and -inf
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _Line:
    """A float64 column, or the points, that `_FloatTable.fill` writes as one line."""

    def __init__(self, values, live):
        self.values, self.live, self.text = values, live, None


class _FloatTable(list):
    """One report's float64 columns and points, written through one table of distinct doubles.

    Calling the table records `values` at the points `live` marks (None: at
    every point; a 2-d array is one list per row) and returns their `_Line`.
    `fill` formats each distinct bit pattern once, so that 0.0 and -0.0 keep
    their own text, and writes each line as `json.dumps` writes its list,
    `null` at a point `live` leaves out.
    """

    def __call__(self, values, live):
        self.append(_Line(values, live))
        return self[-1]

    def fill(self):
        bits = np.concatenate([line.values.ravel() for line in self]).view(np.uint64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        values = distinct.view(np.float64)
        words = np.array([*map(float.__repr__, values.tolist()), "null"], dtype=object)
        special = np.flatnonzero(~np.isfinite(values))
        words[special] = [_NON_FINITE[word] for word in words[special]]
        end = 0
        for line in self:
            start, end = end, end + line.values.size
            index = inverse[start:end].reshape(line.values.shape)
            if line.live is not None:  # "null", the last word, where `live` leaves a point out
                spread = np.full(len(line.live), len(words) - 1)
                spread[line.live] = index
                index = spread
            if index.ndim == 2:
                line.text = "[[" + "], [".join(map(", ".join, words[index].tolist())) + "]]"
            else:
                line.text = "[" + ", ".join(words[index].tolist()) + "]"


def _report_data(report: Report, detail: bool) -> dict:
    """`report.to_dict(detail)`, with its points and float64 columns the `_Line`s of one table."""
    table = _FloatTable()
    data = report.to_dict(detail, table)
    if table:  # a report without detail has no line
        table.fill()
    return data


def _json_text(obj, layout, pad: str = "") -> str:
    """`obj` as JSON starting at indentation `pad`, with the lists `layout` marks on one line.

    `layout` mirrors the containers on the way to those lists: a dict maps
    keys to the layout of their values (a key it lacks takes its "*" entry),
    a one-item list gives the layout of every item, `_LINE` marks a list
    written by `json.dumps(obj)`, and None is `json.dumps(obj, indent=2)`.
    A `_Line` is written as its table rendered it.
    """
    if isinstance(obj, _Line):
        return obj.text
    if layout is _LINE or not isinstance(obj, (dict, list, tuple)):  # indent leaves a scalar be
        return json.dumps(obj)
    if layout is None:  # json escapes newlines in strings, so every "\n" here is layout
        return json.dumps(obj, indent=2).replace("\n", "\n" + pad)
    inner = pad + "  "
    if isinstance(layout, dict):
        items = [f"{json.dumps(key)}: {_json_text(value, layout.get(key, layout.get('*')), inner)}"
                 for key, value in obj.items()]
    else:
        items = [_json_text(item, layout[0], inner) for item in obj]
    brackets = "{}" if isinstance(obj, dict) else "[]"
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def emit_report(report: Report, fmt: str, path, detail: bool = False) -> None:
    """Write a report to disk; floats round-trip at full double precision.

    JSON is `report.to_dict(detail)`, indented, with each detail column on
    one compact line, byte for byte `json.dumps(column)`.  The points and
    the float64 columns are written from their arrays, with each distinct
    double of the report formatted once (`_FloatTable`).  The wall-clock
    timing is deliberately omitted so identical configs produce
    byte-identical files.
    """
    if fmt == "json":
        text = _json_text(_report_data(report, detail), _REPORT_LAYOUT) + "\n"
    elif fmt == "csv":
        lines = ["check,u1,u2,u3,residual,status"]
        for res in report.results:
            if res.columns is None:
                continue
            cols = res.columns.lists()
            for point, residual, skipped in zip(res.columns.points, cols["residual"], cols["skipped"]):
                coords = [repr(c) for c in point] + [""] * (3 - len(point))
                status = "skipped" if skipped else "ok" if residual <= res.tolerance else "violation"
                lines.append(",".join([res.name, *coords, "" if skipped else repr(residual), status]))
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def emit_sweep(reports: list[Report], table: list, path, detail: bool = False) -> None:
    """Write a sweep's reports and aggregation table as one JSON file, laid out as emit_report's,
    with one float table per report."""
    payload = {"reports": [_report_data(r, detail) for r in reports], "aggregation": table}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(payload, {"reports": [_REPORT_LAYOUT]}) + "\n")


# -- sweeps ----------------------------------------------------------------------

def _set_by_path(data: dict, dotted: str, value):
    """Set `data` at a dotted path; a missing (or null) component becomes a new object."""
    keys = dotted.split(".")
    cur = data
    for depth, key in enumerate(keys[:-1], 1):
        if cur.get(key) is None:
            cur[key] = {}
        cur = cur[key]
        _require(isinstance(cur, dict), "sweep.parameter",
                 f"{'.'.join(keys[:depth])} is not an object, cannot set {dotted}")
    cur[keys[-1]] = value


def _shared(memo: dict, surface, compute, slot, *inputs):
    """A sweep's `_once` hook: the piece `memo[slot]` holds while the canonical JSON of the raw
    `surface` section and `inputs` is its key, else `compute()`, which replaces it."""
    try:
        key = json.dumps([surface, *inputs], sort_keys=True, default=np.ndarray.tolist)
    except (TypeError, ValueError):  # not JSON: compute it every time
        key = None
    if key is None or memo.get(slot, (None,))[0] != key:
        memo.pop(slot, None)  # free the old piece before the new one is computed
        memo[slot] = key, compute()
    return memo[slot][1]


def sweep(raw_config: dict, jobs: int | None = None):
    """Run the scenario once per swept parameter value.

    The config's `sweep` section is {"parameter": <dotted.path>, "values":
    [...]}.  Returns (reports, aggregation table); the table collects the
    implied constants and growth fits that each run produced.  `jobs` is
    deprecated and ignored, as in run_scenario.  The `output` section,
    whose format must be json, and every value are loaded before any
    runs.  Each grid pass, growth table and probe rule is computed
    once per distinct set of the config sections it reads, and each report
    equals a stand-alone run; a later report's console-only
    `elapsed_seconds` covers only its own new work.
    """
    _require(isinstance(raw_config, dict), "config", "must be a JSON object")
    sweep_cfg = raw_config.get("sweep")
    _require(isinstance(sweep_cfg, dict), "sweep", "sweep runs need a sweep section")
    parameter = sweep_cfg.get("parameter")
    values = sweep_cfg.get("values")
    _require(isinstance(parameter, str) and parameter, "sweep.parameter",
             "must be a dotted config path")
    _require(isinstance(values, list), "sweep.values", "must be a list (may be empty)")
    load_output(raw_config, ("json",))  # a sweep file is JSON only

    configs = []
    for value in values:
        variant = copy.deepcopy(raw_config)
        variant.pop("sweep", None)
        _set_by_path(variant, parameter, value)
        configs.append(load_config(variant))

    memo = {}  # slot -> (key, piece of work), dropped when the sweep returns
    reports, table = [], []
    for value, config in zip(values, configs):
        report = run_scenario(config, _once=partial(_shared, memo, config.raw.get("surface")))
        reports.append(report)
        row = {"parameter": parameter, "value": value, "overall": report.overall}
        for res in report.results:
            row.update({key: res.extras.get(key) for key in CHECKS[res.name].sweep})
        table.append(row)
    return reports, table
