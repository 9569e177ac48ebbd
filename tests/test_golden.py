"""Bundled scenarios against golden reports, and block-composition determinism.

tests/golden/<name>.json holds each bundled scenario's report,
`to_dict(detail=False)`, as captured from the per-point pipeline before grid
points were evaluated in blocks.  tests/golden/details-<name>.json holds the
raw per-point records of a small config from DETAIL_CONFIGS, as captured from
the per-point evaluators before they evaluated whole blocks.  Verdicts,
counts, reasons, types and every key (in order) must match exactly; floats
within |delta| <= 1e-9 (1 + |x|).
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from curvlab import checks
from curvlab.scenario import Report, load_config, load_config_file, run_checks, run_scenario

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = sorted(p.stem for p in GOLDEN.glob("*.json") if not p.stem.startswith("details-"))
FLOAT_BOUND = 1e-9


def bundled_path(name: str) -> str:
    return str(resources.files("curvlab") / "scenarios" / f"{name}.json")


def assert_matches(got, want, path="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{path}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), f"{path}: {got!r} is not a number"
        assert abs(got - want) <= FLOAT_BOUND * (1.0 + abs(want)), f"{path}: {got!r} != {want!r}"
    else:
        assert got == want and type(got) is type(want), f"{path}: {got!r} != {want!r}"


def test_every_bundled_scenario_has_a_golden_report():
    bundled = sorted(p.name[:-5] for p in (resources.files("curvlab") / "scenarios").iterdir()
                     if p.name.endswith(".json"))
    assert SCENARIOS == bundled


@pytest.mark.parametrize("name", SCENARIOS)
def test_report_matches_golden(name):
    report = run_scenario(load_config_file(bundled_path(name)))
    got = json.loads(json.dumps(report.to_dict(detail=False)))
    assert_matches(got, json.loads((GOLDEN / f"{name}.json").read_text()))


LEAF_TYPES = (float, int, bool, str, type(None))


def leaves(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from leaves(value)
    elif type(obj) in (tuple, list):
        yield obj
        for value in obj:
            yield from leaves(value)
    else:
        yield obj


def test_detail_records_hold_only_python_values():
    # emit_report hands the records and the extras to json.dumps as they are
    for name in SCENARIOS:
        report = run_scenario(load_config_file(bundled_path(name)))
        bad = {type(leaf).__name__ for res in report.results for rec in res.details
               for leaf in leaves(rec) if type(leaf) not in LEAF_TYPES + (tuple,)}
        assert not bad, f"{name}: detail records hold {sorted(bad)}"
        bad = {type(leaf).__name__ for res in report.results for leaf in leaves(res.extras)
               if type(leaf) not in LEAF_TYPES + (list,)}
        assert not bad, f"{name}: extras hold {sorted(bad)}"


CUBIC = [[0.3, 0.1], [0.7, -0.2], [1.4, 0.5], [0.2, 0.1]]  # generic: no symmetric values
SURFACE_CHECKS = [c["name"] for c in
                  json.loads(Path(bundled_path("z2-full")).read_text())["checks"]]
SOLID_CHECKS = ["minimality", "pluecker", "alignment-identities", "log-alignment", "simons",
                "kato", "refined-simons", "gauss-conformal", "subharmonicity"]
SHEAR = {"name": "isothermal", "a": 0.3, "b": 0.8}


def _checks(names, *extra):
    return [{"name": n, "s": 1, "q": 1} if n == "subharmonicity" else {"name": n}
            for n in names] + list(extra)


def _grid(n, count):
    return {"ranges": [[-1.0, 1.0]] * n, "counts": [count] * n}


# small grids that between them reach every branch of every grid evaluator
DETAIL_CONFIGS = {
    "cubic": {
        "surface": {"kind": "catalogue", "name": "holo-curve", "params": {"coeffs": CUBIC}},
        "grid": _grid(2, 5),
        "checks": _checks(SURFACE_CHECKS),
    },
    # w = z^3: B vanishes at the origin; the tilted frame gives an alignment of
    # (1 - |f'|^2) / 2, positive for |z| < 0.58 only
    "isothermal-shear": {
        "surface": {"kind": "catalogue", "name": "holo-curve", "params": {"coeffs": [0, 0, 0, 1]}},
        "grid": _grid(2, 5),
        "reference_frame": [[0.5**0.5, 0, 0.5**0.5, 0], [0, 0.5**0.5, 0, -(0.5**0.5)]],
        "checks": _checks(SURFACE_CHECKS[:-1], {"name": "subharmonicity", "s": 1.5, "q": 2.5},
                          SHEAR),
    },
    "cylinder-cubic": {
        "surface": {"kind": "catalogue", "name": "cylinder-over",
                    "params": {"base": "holo-curve", "base_params": {"coeffs": CUBIC}}},
        "grid": _grid(3, 3),
        "checks": _checks(SOLID_CHECKS),
    },
    # Gauss-map rank 3 everywhere; the traceless Hessian makes the origin minimal
    "rank3-quadric": {
        "surface": {"kind": "graph", "exprs": ["x^2+y^2-2*z^2"], "n": 3},
        "grid": _grid(3, 3),
        "checks": _checks(SOLID_CHECKS),
    },
    # minimal but not conformal: conformal is False in simons and gauss-conformal
    "catenoid": {
        "surface": {"kind": "catalogue", "name": "catenoid"},
        "grid": _grid(2, 5),
        "reference_frame": [[0, 0, 1, 0], [0, 1, 0, 0]],
        "checks": _checks(SOLID_CHECKS),
    },
    # half of this grid fails to evaluate (log of x <= 0): failures stay per point
    "partial-failures": {
        "surface": {"kind": "graph", "exprs": ["log(x)", "x*y"], "n": 2},
        "grid": {"ranges": [[-1.0, 1.0], [-1.0, 1.0]], "counts": [6, 5]},
        "checks": _checks(SURFACE_CHECKS, SHEAR),
    },
}


def detail_records(name):
    """The raw records of DETAIL_CONFIGS[name], one list per check, round-tripped through JSON."""
    config = load_config(DETAIL_CONFIGS[name])
    results = run_checks(config.surface, config.grid, config.checks, config.frame_or_default)
    return json.loads(json.dumps([[res.name, res.details] for res in results]))


@pytest.mark.parametrize("name", sorted(DETAIL_CONFIGS))
def test_detail_records_match_golden(name):
    want = json.loads((GOLDEN / f"details-{name}.json").read_text())
    assert_matches(detail_records(name), want, f"details-{name}")


@pytest.mark.parametrize("config", [
    load_config_file(bundled_path("z2-full")),
    load_config({
        "surface": {"kind": "catalogue", "name": "holo-curve", "params": {"coeffs": CUBIC}},
        "grid": {"ranges": [[-1.0, 1.0], [-1.0, 1.0]], "counts": [9, 9]},
        "checks": [{"name": n} for n in ("minimality", "pluecker", "alignment-identities",
                                         "log-alignment", "simons", "kato", "refined-simons",
                                         "gauss-conformal", "jacobian", "subharmonicity")],
    }),
    load_config({
        "surface": {"kind": "catalogue", "name": "cylinder-over",
                    "params": {"base": "holo-curve", "base_params": {"coeffs": CUBIC}}},
        "grid": {"ranges": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]], "counts": [4, 4, 4]},
        "checks": [{"name": n} for n in ("pluecker", "alignment-identities", "simons", "kato")],
    }),
    # half of this grid fails to evaluate (log of x <= 0): failures stay per point
    load_config({
        "surface": {"kind": "graph", "exprs": ["log(x)", "x*y"], "n": 2},
        "grid": {"ranges": [[-1.0, 1.0], [-1.0, 1.0]], "counts": [6, 5]},
        "checks": [{"name": "minimality"}, {"name": "simons"}, {"name": "log-alignment"}],
    }),
    load_config(DETAIL_CONFIGS["rank3-quadric"]),
    load_config(DETAIL_CONFIGS["isothermal-shear"]),
], ids=["z2-full", "cubic", "cylinder-cubic", "partial-failures", "rank3-quadric",
        "isothermal-shear"])
def test_block_composition_does_not_change_records(config, monkeypatch):
    encode, entries = [], []
    # one block, blocks of 7, point by point
    for size in (len(config.grid.points()), 7, 1):
        monkeypatch.setattr(checks, "BLOCK_SIZE", size)
        results = run_checks(config.surface, config.grid, config.checks, config.frame_or_default)
        encode.append([json.dumps(rec) for res in results for rec in res.details])
        # verdicts, worst residuals, skip counts and extras, aggregated from the joined columns
        report = Report({}, results, "pass", 0, 0.0)
        entries.append(json.dumps(report.to_dict(detail=False)["checks"]))
    assert encode[0] == encode[1] == encode[2]
    assert entries[0] == entries[1] == entries[2]
