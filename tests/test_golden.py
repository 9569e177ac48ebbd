"""Bundled scenarios against golden reports, and block-composition determinism.

tests/golden/<name>.json holds each bundled scenario's report,
`to_dict(detail=False)`, as captured from the per-point pipeline before grid
points were evaluated in blocks.  Verdicts, counts, reasons and every key
must match exactly; floats within |delta| <= 1e-9 (1 + |x|).
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from curvlab import checks
from curvlab.scenario import _jsonify, load_config, load_config_file, run_checks, run_scenario

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = sorted(p.stem for p in GOLDEN.glob("*.json"))
FLOAT_BOUND = 1e-9


def bundled_path(name: str) -> str:
    return str(resources.files("curvlab") / "scenarios" / f"{name}.json")


def assert_matches(got, want, path="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{path}: keys differ"
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


CUBIC = [[0.3, 0.1], [0.7, -0.2], [1.4, 0.5], [0.2, 0.1]]  # generic: no symmetric values


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
], ids=["z2-full", "cubic", "cylinder-cubic", "partial-failures"])
def test_block_composition_does_not_change_records(config, monkeypatch):
    encode = []
    # one block, blocks of 7, point by point
    for size in (len(config.grid.points()), 7, 1):
        monkeypatch.setattr(checks, "BLOCK_SIZE", size)
        results = run_checks(config.surface, config.grid, config.checks, config.frame_or_default)
        encode.append([json.dumps(_jsonify(rec)) for res in results for rec in res.details])
    assert encode[0] == encode[1] == encode[2]
