import copy
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvlab import checks, cli, scenario
from curvlab.checks import CHECKS, CheckResult, Columns
from curvlab.scenario import (
    ConfigError,
    Report,
    emit_report,
    emit_sweep,
    load_config,
    run_scenario,
    sweep,
)
from test_golden import DETAIL_CONFIGS

SRC = str(Path(__file__).resolve().parent.parent / "src")
BUNDLED = ["affine-growth", "catenoid-kato", "cylinder-helicoid", "z2-full", "z2-growth",
           "z2-probe"]


def bundled(name: str) -> dict:
    path = resources.files("curvlab") / "scenarios" / f"{name}.json"
    return json.loads(path.read_text())


REPORT_KEYS = ["format", "scenario", "n_grid_points", "overall", "points", "checks"]
COLUMN_KEYS = ["residual", "skipped", "reason", "detail"]


def lists_by_point(columns) -> dict:
    """`columns.lists()`, built point by point: an evaluated point takes the next value of
    the residual, note and each detail column, a skipped point its reason and None."""
    out = {"residual": [], "skipped": [], "reason": [], "detail": {key: [] for key in columns.detail}}
    k = 0  # the next evaluated point's index into the residual, note and detail columns
    for skip in columns.skip:
        evaluated = skip is None
        out["skipped"].append(not evaluated)
        out["reason"].append(columns.note[k] if evaluated else skip)
        for target, column in zip([out["residual"], *out["detail"].values()],
                                  [columns.residual, *columns.detail.values()]):
            value = column[k] if evaluated else None
            target.append(value.item() if isinstance(value, np.generic) else value)
        k += evaluated
    return out


def assert_detail_file(text, reports):
    """`text`, a JSON file written with detail of one report or a sweep's, is each report's
    `to_dict(detail=True)`; each column is one line with one entry per point, and a
    check's columns are its Columns read point by point."""
    data = json.loads(text)
    written = data["reports"] if "reports" in data else [data]
    assert len(written) == len(reports)
    lines = {line.strip().removesuffix(",") for line in text.splitlines()}
    for got, report in zip(written, reports):
        assert json.dumps(got) == json.dumps(report.to_dict(detail=True))  # key order included
        assert list(got) == REPORT_KEYS and got["format"] == 2
        points = got["points"]
        columns = [("points", points)]
        for entry, res in zip(got["checks"], report.results):
            details = entry["details"]
            if res.columns is None:  # growth, probe
                assert details == {}
                continue
            assert list(details) == COLUMN_KEYS
            assert points == json.loads(json.dumps(res.columns.points))
            assert json.dumps(details) == json.dumps(lists_by_point(res.columns))
            columns += [(key, details[key]) for key in COLUMN_KEYS[:-1]] + list(details["detail"].items())
        for key, column in columns:
            assert len(column) == len(points)
            assert f"{json.dumps(key)}: {json.dumps(column)}" in lines


def csv_text_by_point(report):
    """The CSV report as written point by point from each check's columns."""
    lines = ["check,u1,u2,u3,residual,status"]
    for res in report.results:
        if res.columns is None:
            continue
        cols = lists_by_point(res.columns)
        for point, residual, skipped in zip(res.columns.points, cols["residual"], cols["skipped"]):
            coords = [repr(c) for c in point] + [""] * (3 - len(point))
            status = ("skipped" if skipped else
                      "ok" if residual <= res.tolerance else "violation")
            lines.append(",".join([res.name, *coords, "" if residual is None else repr(residual),
                                   status]))
    return "\n".join(lines) + "\n"


def small_z2_config(**overrides):
    cfg = {
        "surface": {"kind": "catalogue", "name": "holo-curve", "params": {"coeffs": [0, 0, 1]}},
        "grid": {"ranges": [[-1.0, 1.0], [-1.0, 1.0]], "counts": [5, 5]},
        "checks": [{"name": "minimality"}, {"name": "simons"}],
    }
    cfg.update(overrides)
    return cfg


# a probe ball too thin for the rule to converge on within its cap of 256 nodes per axis
# (Omega_1 is an ellipse 400 times longer than wide), and a deep tree whose v^9 rises too
# steeply for 16 nodes per axis: each is not-applicable with a reason, never a traceback
CHAIN_360, CHAIN_500 = ("*".join(["x"] * k) for k in (360, 500))
DEEP_PROBE_REASON = ("quadrature did not converge: relative error estimate 1 > 1e-10 "
                     "at 16 nodes per axis within radius 1.0")
QUADRATURE_REPROS = {
    "steep-probe": ({"kind": "graph", "exprs": ["400*x", "0"]}, {}, [{"name": "probe"}],
                    "quadrature did not converge: relative error estimate 0.95 > 1e-10 "
                    "at 256 nodes per axis within radius 1.0"),
    "deep-probe": ({"kind": "graph", "exprs": [CHAIN_360, "y"]}, {"probe": {"cells": 16}},
                   [{"name": "probe"}], DEEP_PROBE_REASON),
}


def has_details(path) -> bool:
    """Whether every check entry of the sweep file at `path` has per-point columns."""
    entries = [entry for report in json.loads(path.read_text())["reports"]
               for entry in report["checks"]]
    return all("details" in entry for entry in entries)


# the probe samples its hypotheses at three points near the origin and reports the
# first reason in point order, in the words of the grid checks' skip rules
PROBE_HYPOTHESIS_REPROS = {
    # minimal at the origin, where the Gauss map has rank 3
    "rank": ({"kind": "graph", "exprs": ["x^2+y^2-2*z^2"], "n": 3}, None,
             "Gauss-map rank 3 > 2 at (0.0, 0.0, 0.0) (singular values [4. 2. 2.])"),
    "aligned": ({"kind": "catalogue", "name": "holo-curve", "params": {"coeffs": [0, 0, 1]}},
                [[-1, 0, 0, 0], [0, 1, 0, 0]], "alignment function not positive"),
    "evaluation": ({"kind": "graph", "exprs": ["log(x)", "0"]}, None,
                   "evaluation error: log of non-positive jet value 0.0"),
}


ENNEPER_Z4 = ["u1 - u1^3/3 + u1*u2^2", "-u2 - u1^2*u2 + u2^3/3", "u1^2 - u2^2",
              "(u1^4 - 6*u1^2*u2^2 + u2^4)/4", "u1*u2^3 - u1^3*u2"]


def quadrature_repro(name):
    surface, extra, checks, reason = QUADRATURE_REPROS[name]
    grid = {"ranges": [[-0.5, 0.5], [-0.5, 0.5]], "counts": [3, 3]}
    return {"surface": surface, "grid": grid, "checks": checks, **extra}, reason


def holo_curve(k):
    """small_z2_config on a complex polynomial of degree k - 1 with k equal coefficients."""
    return small_z2_config(
        surface={"kind": "catalogue", "name": "holo-curve", "params": {"coeffs": [[1e-3, 1e-3]] * k}},
        checks=[{"name": "minimality"}])


class TestConfigValidation:
    def test_unknown_check_names_field(self):
        cfg = small_z2_config(checks=[{"name": "bogus"}])
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert "checks[0].name" in str(err.value)

    def test_nonpositive_tolerance(self):
        cfg = small_z2_config(checks=[{"name": "minimality", "tol": 0.0}])
        with pytest.raises(ConfigError, match="checks\\[0\\].tol"):
            load_config(cfg)

    def test_probe_domain_rejected_with_constraint_message(self):
        cfg = small_z2_config(probe={"t": 2, "q": 9})
        with pytest.raises(ConfigError, match="t >= 3"):
            load_config(cfg)
        cfg = small_z2_config(probe={"t": 3, "q": 3})
        with pytest.raises(ConfigError, match=r"q > \(3t-3\)/2"):
            load_config(cfg)

    def test_probe_cells_bounded_at_load(self):
        # 100000^2 cells would be allocated per quadrature array
        with pytest.raises(ConfigError, match=r"cells\^2 must be at most 2\^24") as err:
            load_config(small_z2_config(probe={"cells": 100000}))
        assert err.value.path == "probe.cells"

    def test_grid_shape_must_match_surface(self):
        cfg = small_z2_config(grid={"ranges": [[-1, 1]], "counts": [5]})
        with pytest.raises(ConfigError, match="grid.ranges"):
            load_config(cfg)

    def test_reference_frame_must_be_orthonormal(self):
        cfg = small_z2_config(reference_frame=[[1, 1, 0, 0], [0, 1, 0, 0]])
        with pytest.raises(ConfigError, match="orthonormal"):
            load_config(cfg)

    def test_reference_frame_off_by_the_bound_loads(self):
        # <e_1, e_2> = 1e-8 exactly, and |e_2|^2 = 1 + 1e-16 rounds to 1: the bound itself
        config = load_config(small_z2_config(reference_frame=[[1, 0, 0, 0], [1e-8, 1, 0, 0]]))
        assert config.reference_frame.tolist() == [[1, 0, 0, 0], [1e-8, 1, 0, 0]]

    # each of these ended in a traceback at run time, or for counts in a meshgrid of
    # 2 x 10^10 floats (only loaded here: nothing is allocated before the run)
    @pytest.mark.parametrize("overrides, path", [
        ({"surface": {"kind": "graph", "exprs": [5, "y"]}}, "surface.exprs[0]"),
        ({"grid": {"ranges": [[-1, 1], [-1, 1]], "counts": [5, 5], "mask": 5}}, "grid.mask"),
        ({"surface": {"kind": "graph", "exprs": ["x", "y"], "n": 2.0}}, "surface.n"),
        ({"surface": {"kind": "graph", "exprs": ["x^1e400", "y"]}}, "surface.exprs"),
        ({"surface": {"kind": "graph", "exprs": ["(" * 250 + "x" + ")" * 250, "y"]}},
         "surface.exprs"),
        ({"grid": {"ranges": [[-1, 1], [-1, 1]], "counts": [100000, 100000]}}, "grid.counts"),
    ], ids=["expr-not-a-string", "mask-not-a-string", "n-not-an-int", "infinite-exponent",
            "nested-too-deep", "too-many-grid-points"])
    def test_bad_inputs_are_config_errors(self, overrides, path):
        with pytest.raises(ConfigError) as err:
            load_config(small_z2_config(**overrides))
        assert err.value.path == path

    # a part without variables that is undefined is undefined at every point: a config
    # error at load; an expression undefined only at some points (log(x), 1/x) still loads
    @pytest.mark.parametrize("expr, path, message", [
        ("x*log(0)", "surface.exprs", "log(0.0) is undefined"),
        ("x+1/(1-1)", "surface.exprs", "division by zero"),
        ("x+0^-1", "surface.exprs", "zero raised to a negative power"),
        ("x*exp(1000)", "surface.exprs", "math range error"),
        ("x+2^2000", "surface.exprs", "Numerical result out of range"),
        ("x - log(0)", "grid.mask", "log(0.0) is undefined"),
    ])
    def test_undefined_constant_part_is_a_config_error(self, expr, path, message):
        if path == "grid.mask":
            cfg = small_z2_config(grid={"ranges": [[-1, 1], [-1, 1]], "counts": [3, 3], "mask": expr})
        else:
            cfg = small_z2_config(surface={"kind": "graph", "exprs": [expr, "0"]})
        with pytest.raises(ConfigError, match="constant part undefined: ") as err:
            load_config(cfg)
        assert err.value.path == path and message in str(err.value)

    @pytest.mark.parametrize("expr", ["log(x)", "1/x", "x^-2", "1/(x-x)", "exp(1000*x)"])
    def test_expression_undefined_at_some_points_loads(self, expr):
        load_config(small_z2_config(surface={"kind": "graph", "exprs": [expr, "0"]}))

    def test_catalogue_tree_depth_is_bounded(self):
        # 31 coefficients make trees 497 levels deep, 44 make 991
        report = run_scenario(load_config(holo_curve(31)))
        assert report.results[0].verdict == "pass"
        for k in (32, 44, 80):
            with pytest.raises(ConfigError, match="more than 500 levels deep") as err:
                load_config(holo_curve(k))
            assert err.value.path == "surface"

    def test_grid_points_bounded_at_2_to_the_20(self):
        load_config(small_z2_config(grid={"ranges": [[-1, 1], [-1, 1]], "counts": [1024, 1024]}))
        with pytest.raises(ConfigError, match="at most 2\\^20 grid points, got 1024 x 1025"):
            load_config(small_z2_config(grid={"ranges": [[-1, 1], [-1, 1]], "counts": [1024, 1025]}))

    def test_flat_chain_deeper_than_the_bound_is_a_config_error(self):
        # x+x+...+x is one tree level per '+'; 2000 terms loaded, then overflowed recursion
        surface = {"kind": "graph", "exprs": ["+".join(["x"] * 2000), "y"]}
        with pytest.raises(ConfigError) as err:
            load_config(small_z2_config(surface=surface))
        assert err.value.path == "surface.exprs"
        assert "expression tree more than 500 levels deep" in str(err.value)

    def test_flat_chain_of_500_terms_runs(self):
        surface = {"kind": "graph", "exprs": ["x" + "+x-x" * 249 + "+x", "y"]}  # 2x: a plane
        checks = [{"name": "minimality"}, {"name": "simons"}, {"name": "growth"}]
        report = run_scenario(load_config(small_z2_config(surface=surface, checks=checks)))
        minimality, _, growth = report.results
        assert report.overall == "pass"
        assert (minimality.verdict, minimality.n_points, minimality.n_skipped) == ("pass", 25, 0)
        assert growth.verdict == "pass"

    def test_graph_surface_expressions(self):
        cfg = small_z2_config(
            surface={"kind": "graph", "exprs": ["x^3 - 3*x*y^2", "3*x^2*y - y^3"], "n": 2}
        )
        config = load_config(cfg)
        assert config.surface.kind == "graph"
        report = run_scenario(config)
        assert report.overall == "pass"  # z^3 is holomorphic, hence minimal

    def test_parametric_surface_in_codimension_3(self):
        # Enneper + z^4/4 in R^5: the real parts of the integrals of the Weierstrass data
        # (1 - z^2, i(1 + z^2), 2z, z^3, i z^3), whose squares sum to zero
        cfg = small_z2_config(surface={"kind": "parametric", "exprs": ENNEPER_Z4},
                              checks=[{"name": "minimality"}, {"name": "growth"}])
        config = load_config(cfg)
        assert (config.surface.kind, config.surface.n, config.surface.m) == ("parametric", 2, 3)
        minimality, growth = run_scenario(config).results
        assert (minimality.verdict, minimality.n_skipped) == ("pass", 0)
        assert minimality.worst_residual <= 1e-14
        assert (growth.verdict, growth.reason) == (
            "not-applicable", "quadrature fields require a graph immersion")

    @pytest.mark.parametrize("surface, message", [
        ({"kind": "parametric", "exprs": ["u1", "u2"]}, "codimension must be >= 1, got 0"),
        ({"kind": "parametric", "exprs": ["u1", "u2", "u3"], "n": 2},
         "variable 'u3' out of range for dimension 2"),
        ({"kind": "parametric", "exprs": ["u1", "u2", 3]}, "must be a string, got 3"),
        ({"kind": "parametric", "exprs": ["u1", "u2", "u1*u2"], "n": 4},
         "domain dimension must be 2 or 3"),
    ], ids=["no-normal", "variable", "number", "n"])
    def test_parametric_surface_is_checked(self, surface, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(small_z2_config(surface=surface))

    @pytest.mark.parametrize("check, key", [
        ({"name": "kato", "zeta_tol": 1e-3}, "zeta_tol"),
        ({"name": "simons", "tolerance": 5}, "tolerance"),
        ({"name": "growth", "radii": [1.0, 2.0], "cell": 64}, "cell"),
    ])
    def test_unknown_check_option_names_field(self, check, key):
        cfg = small_z2_config(checks=[{"name": "minimality"}, check])
        with pytest.raises(ConfigError, match="unknown option") as err:
            load_config(cfg)
        assert err.value.path == f"checks[1].{key}"

    def test_declared_check_options_load(self):
        checks = [{"name": "isothermal", "a": 0.3, "b": 0.8},
                  {"name": "subharmonicity", "s": 1, "q": 2},
                  {"name": "growth", "radii": [1.0], "cells": 64}, {"name": "kato", "tol": 1e-6}]
        config = load_config(small_z2_config(checks=checks))
        assert [spec.options for spec in config.checks] == [
            {"a": 0.3, "b": 0.8}, {"s": 1, "q": 2}, {"radii": [1.0], "cells": 64}, {}]

    # each config below loaded with a wrong number, or failed mid-run, before
    # every number a config gives was checked
    @pytest.mark.parametrize("check, path", [
        ('{"name": "minimality", "tol": true}', "checks[1].tol"),
        ('{"name": "minimality", "tol": 1e999}', "checks[1].tol"),
        ('{"name": "subharmonicity", "q": NaN}', "checks[1].q"),
        ('{"name": "subharmonicity", "s": Infinity}', "checks[1].s"),
        ('{"name": "growth", "cells": true}', "checks[1].cells"),
        ('{"name": "growth", "cells": 64.5}', "checks[1].cells"),
        ('{"name": "growth", "radii": [1.0, true]}', "checks[1].radii[1]"),
        ('{"name": "isothermal", "a": NaN}', "checks[1].a"),
        ('{"name": "minimality", "tol": %d}' % 10**400, "checks[1].tol"),
    ], ids=["tol-true", "tol-inf", "q-nan", "s-inf", "cells-true", "cells-fraction",
            "radius-true", "a-nan", "tol-huge-int"])
    def test_config_numbers_are_finite_and_not_bool(self, check, path):
        cfg = small_z2_config(checks=[{"name": "minimality"}, json.loads(check)])
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert err.value.path == path

    # each grid below loaded and ran (NaN grid points, a count cut to 3, a bool read as 1.0)
    # or raised OverflowError (an integer too large for a float)
    @pytest.mark.parametrize("grid, path", [
        ('{"ranges": [[-1, 1e999], [-1, 1]], "counts": [3, 3]}', "grid.ranges[0][1]"),
        ('{"ranges": [[-1, 1], [-1, 1]], "counts": [3, 3.7]}', "grid.counts[1]"),
        ('{"ranges": [[-1, true], [-1, 1]], "counts": [3, 3]}', "grid.ranges[0][1]"),
        ('{"ranges": [[-1, 1], [-1, 1]], "counts": [3, %d]}' % 10**400, "grid.counts[1]"),
    ], ids=["range-inf", "count-fraction", "range-true", "count-huge-int"])
    def test_grid_numbers_are_checked(self, grid, path):
        cfg = small_z2_config(surface={"kind": "catalogue", "name": "affine"}, grid=json.loads(grid),
                              checks=[{"name": "minimality"}])
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert err.value.path == path

    # each of these loaded, then crashed or ran with no radius or a not-applicable verdict
    @pytest.mark.parametrize("options, path", [
        ({"radii": []}, "checks[0].radii"),
        ({"radii": [2, 1]}, "checks[0].radii"),
        ({"radii": [-1, 2]}, "checks[0].radii"),
        ({"radii": [0, 2]}, "checks[0].radii"),
        ({"cells": 0}, "checks[0].cells"),
        # would allocate 10^10 cells per array
        ({"cells": 100000}, "checks[0].cells"),
    ], ids=["empty", "decreasing", "negative", "zero", "no-cells", "too-many-cells"])
    def test_growth_options_are_checked_at_load(self, options, path):
        cfg = small_z2_config(surface={"kind": "catalogue", "name": "affine"},
                              checks=[{"name": "growth", **options}])
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert err.value.path == path

    # each of these raised OverflowError, ValueError or AttributeError, or loaded
    # an infinite coefficient that failed at every grid point
    @pytest.mark.parametrize("key, value, path", [
        ("reference_frame", [[10**400, 0, 0, 0], [0, 1, 0, 0]], "reference_frame[0][0]"),
        ("reference_frame", [[1, 0, 0, 0], [0, "a", 0, 0]], "reference_frame[1][1]"),
        ("surface", {"params": {"coeffs": [0, 0, 10**400]}}, "surface.params.coeffs[2]"),
        ("surface", {"params": {"coeffs": ["a"]}}, "surface.params.coeffs[0]"),
        ("surface", {"params": {"coeffs": [0, 0, math.inf]}}, "surface.params.coeffs[2]"),
        ("surface", {"name": "affine", "params": {"slopes": [["x", 0]]}}, "surface.params.slopes[0][0]"),
        ("surface", {"params": [1]}, "surface.params"),
    ], ids=["frame-huge-int", "frame-string", "coeff-huge-int", "coeff-string", "coeff-inf",
            "slope-string", "params-list"])
    def test_frame_and_catalogue_numbers_are_checked(self, key, value, path):
        cfg = small_z2_config()
        cfg[key] = {**cfg["surface"], **value} if key == "surface" else value
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert err.value.path == path

    # each of these raised IndexError or TypeError from the catalogue builder
    @pytest.mark.parametrize("surface, path", [
        ({"name": "holo-curve", "params": {"coeffs": [[1]]}}, "surface.params.coeffs[0]"),
        ({"name": "holo-curve", "params": {"coeffs": [[[1], 0]]}}, "surface.params.coeffs[0][0]"),
        ({"name": "affine", "params": {"slopes": [1, 2]}}, "surface.params.slopes[0]"),
        ({"name": "affine", "params": {"offsets": 3}}, "surface.params.offsets"),
        ({"name": "cylinder-over", "params": {"base": "holo-curve", "base_params": {"coeffs": [[1]]}}},
         "surface.params.base_params.coeffs[0]"),
    ], ids=["coeff-short-pair", "coeff-nested-list", "slopes-not-rows", "offsets-not-list",
            "base-coeff-short-pair"])
    def test_catalogue_param_nesting_is_checked(self, surface, path):
        with pytest.raises(ConfigError) as err:
            load_config(small_z2_config(surface={"kind": "catalogue", **surface}))
        assert err.value.path == path

    def test_probe_parameters_are_finite(self):
        for probe in ('{"R": 1e999}', '{"R": %d}' % 10**400):
            with pytest.raises(ConfigError) as err:
                load_config(small_z2_config(probe=json.loads(probe)))
            assert err.value.path == "probe.R"

    # "false" read as detail=True; a path of 7 loaded and failed in open()
    @pytest.mark.parametrize("output, path", [
        ({"detail": "false"}, "output.detail"),
        ({"detail": 0}, "output.detail"),
        ({"path": 7}, "output.path"),
        ({"path": ""}, "output.path"),
        (["report.json"], "output"),
    ], ids=["detail-string", "detail-int", "path-int", "path-empty", "not-an-object"])
    def test_output_fields_are_checked(self, output, path):
        with pytest.raises(ConfigError) as err:
            load_config(small_z2_config(output=output))
        assert err.value.path == path

    def test_output_fields_load(self):
        config = load_config(small_z2_config(output={"path": "r.json", "detail": True}))
        assert (config.output_path, config.detail) == ("r.json", True)
        config = load_config(small_z2_config())
        assert (config.output_path, config.detail) == (None, False)

    def test_graph_check_on_parametric_surface_rejected(self):
        cfg = {
            "surface": {"kind": "catalogue", "name": "catenoid"},
            "grid": {"ranges": [[-1, 1], [-1, 1]], "counts": [3, 3]},
            "checks": [{"name": "jacobian"}],
        }
        with pytest.raises(ConfigError, match="graph"):
            load_config(cfg)


class TestRunScenario:
    def test_z2_full_passes(self):
        report = run_scenario(load_config(bundled("z2-full")))
        assert report.overall == "pass"
        assert {r.name for r in report.results} >= {"minimality", "simons", "kato"}

    def test_catenoid_kato_equality_statistics(self):
        report = run_scenario(load_config(bundled("catenoid-kato")))
        assert report.overall == "pass"
        kato = next(r for r in report.results if r.name == "kato")
        assert kato.extras["equality_points"] == kato.extras["evaluated_points"]

    def test_not_applicable_does_not_fail_overall(self):
        cfg = {
            "surface": {"kind": "catalogue", "name": "affine"},
            "grid": {"ranges": [[-1, 1], [-1, 1]], "counts": [3, 3]},
            "checks": [{"name": "kato"}, {"name": "minimality"}],
        }
        report = run_scenario(load_config(cfg))
        kato = next(r for r in report.results if r.name == "kato")
        assert kato.verdict == "not-applicable"
        assert report.overall == "pass"

    def test_failing_check_fails_overall(self):
        cfg = {
            "surface": {"kind": "graph", "exprs": ["x^2 + y^2", "0"], "n": 2},
            "grid": {"ranges": [[-1, 1], [-1, 1]], "counts": [5, 5]},
            "checks": [{"name": "minimality"}],
        }
        report = run_scenario(load_config(cfg))
        assert report.overall == "fail"
        assert report.results[0].worst_residual >= 2.0

    # the default affine plane's Omega_R is an ellipse that takes 64 rays; log(x) is
    # undefined at F(0), so no distance is; log(x + 0.5) at the samples with x <= -0.5
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("surface, options, reason", [
        ({"kind": "catalogue", "name": "catenoid"}, {},
         "quadrature fields require a graph immersion"),
        ({"kind": "catalogue", "name": "affine"}, {"cells": 16},
         "quadrature did not converge: relative error estimate 1.8e-05 > 1e-10 "
         "at 16 nodes per axis within radius 1.0"),
        ({"kind": "graph", "exprs": ["log(x)", "0"]}, {},
         "graph undefined at the origin: F(0) is not finite"),
        ({"kind": "graph", "exprs": ["log(x+0.5)", "0"]}, {"radii": [1.0], "cells": 16},
         "graph undefined on 258 of 2048 boundary-search samples within radius 1.0"),
    ])
    def test_growth_not_applicable_reports_its_reason(self, surface, options, reason):
        cfg = {
            "surface": surface,
            "grid": {"ranges": [[-1, 1], [-1, 1]], "counts": [3, 3]},
            "checks": [{"name": "growth", **options}],
        }
        report = run_scenario(load_config(cfg))
        [entry] = report.to_dict()["checks"]
        assert entry["verdict"] == "not-applicable" and entry["n_points"] == 0
        assert entry["reason"].startswith(reason)
        assert "extras" not in entry
        assert report.overall == "pass"

    def test_growth_and_probe_refuse_a_non_graph_with_one_reason(self):
        cfg = {"surface": {"kind": "catalogue", "name": "catenoid"},
               "grid": {"ranges": [[-0.5, 0.5]] * 2, "counts": [3, 3]},
               "probe": {"cells": 16}, "checks": [{"name": "growth"}, {"name": "probe"}]}
        results = run_scenario(load_config(cfg)).results
        assert [(r.name, r.verdict, r.reason) for r in results] == [
            (name, "not-applicable", "quadrature fields require a graph immersion")
            for name in ("growth", "probe")]

    def test_a_zeroth_power_component_runs_as_a_constant(self):
        # x^0 on a block is the constant one at every point, not one unbatched jet
        cfg = {"surface": {"kind": "graph", "exprs": ["x^0", "y"]},
               "grid": {"ranges": [[-1, 1], [-1, 1]], "counts": [3, 3]},
               "checks": [{"name": "minimality"}]}
        [result] = run_scenario(load_config(cfg)).results
        assert (result.verdict, result.n_points, result.n_skipped) == ("pass", 9, 0)

    @pytest.mark.parametrize("name", sorted(QUADRATURE_REPROS))
    def test_quadrature_repros_are_not_applicable(self, name):
        cfg, reason = quadrature_repro(name)
        report = run_scenario(load_config(cfg))
        [result] = report.results
        assert (result.verdict, result.reason, report.overall) == ("not-applicable", reason, "pass")

    @pytest.mark.parametrize("name", sorted(PROBE_HYPOTHESIS_REPROS))
    def test_probe_hypothesis_reasons(self, name):
        surface, frame, reason = PROBE_HYPOTHESIS_REPROS[name]
        n = surface.get("n", 2)
        cfg = {"surface": surface, "grid": {"ranges": [[-0.5, 0.5]] * n, "counts": [3] * n},
               "probe": {"cells": 16}, "checks": [{"name": "probe"}]}
        if frame is not None:
            cfg["reference_frame"] = frame
        [result] = run_scenario(load_config(cfg)).results
        assert (result.verdict, result.reason) == ("not-applicable", reason)

    def test_deep_probe_does_not_depend_on_the_stack_depth(self):
        # 330 factors once passed at the top level of an interpreter and were too deep
        # a few frames lower; the rule's convergence now decides
        cfg = {**quadrature_repro("deep-probe")[0], "surface": {
            "kind": "graph", "exprs": ["*".join(["x"] * 330), "y"]}}
        code = ("import json, sys\nfrom curvlab.scenario import load_config, run_scenario\n"
                "print(json.dumps(run_scenario(load_config(json.load(sys.stdin))).to_dict()))")
        paths = filter(None, [SRC, os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        top = subprocess.run([sys.executable, "-c", code], input=json.dumps(cfg), env=env,
                             capture_output=True, text=True, check=True).stdout

        def deeper(frames):
            return deeper(frames - 1) if frames else run_scenario(load_config(cfg)).to_dict()

        assert json.loads(top) == json.loads(json.dumps(deeper(100)))
        assert json.loads(top)["checks"][0]["reason"] == DEEP_PROBE_REASON

    def test_growth_takes_any_tree_the_parser_accepts(self):
        # a 500-factor chain is MAX_DEPTH = 500 levels deep.  (x^500, y) makes Omega_R an
        # ellipse of axes 1 : 1/sqrt(2), whose estimate reaches the floor at 64 nodes per
        # axis, and v = sqrt(2) on it to within 1e-150: V(R) = pi R^2
        cfg = {"surface": {"kind": "graph", "exprs": [CHAIN_500, "y"]},
               "grid": {"ranges": [[-0.5, 0.5], [-0.5, 0.5]], "counts": [3, 3]},
               "checks": [{"name": "growth", "radii": [0.5], "cells": 64}]}
        [result] = run_scenario(load_config(cfg)).results
        assert (result.verdict, result.extras["nodes_per_axis"]) == ("pass", 64)
        assert result.extras["volumes"] == pytest.approx([math.pi / 4.0], rel=1e-12)

    def test_short_chain_reports_are_unchanged(self):
        # 30 factors differentiate and evaluate well within the recursion limit.  Omega_R
        # of (x^30, y) is near an ellipse of area pi R^2 / sqrt(2), with v near sqrt(2), but
        # v and |B|^2 ~ x^56 rise steeply towards x = 1: the rule takes 512 nodes per axis
        cfg = {
            "surface": {"kind": "graph", "exprs": ["*".join(["x"] * 30), "y"]},
            "grid": {"ranges": [[-0.5, 0.5], [-0.5, 0.5]], "counts": [3, 3]},
            "probe": {"cells": 512},
            "checks": [{"name": "growth", "radii": [0.5, 1.0], "cells": 512}, {"name": "probe"}],
        }
        growth, probe = run_scenario(load_config(cfg)).results
        assert (growth.verdict, probe.verdict) == ("pass", "pass")
        assert growth.extras["volumes"] == pytest.approx([math.pi / 4.0, 3.332151608190899],
                                                         rel=1e-12)
        assert growth.extras["max_v"] == pytest.approx(
            [1.4142135623730971, 12.633986029957146], rel=1e-12)
        assert growth.extras["nodes_per_axis"] == probe.extras["nodes_per_axis"] == 512
        want = {"implied_c3": 2.417961078016461e-15, "implied_c4": 0.0,
                "lp_lhs": 2.1919742354063566e-12, "lp_rhs": 226.63456572308752,
                "pointwise_lhs": 0.0, "max_v": 12.633986029957146,
                "volume_R": 3.332151608190899, "volume_half_R": math.pi / 4.0}
        assert {key: probe.extras[key] for key in want} == pytest.approx(want, rel=1e-12)

    def test_flat_plane_growth_passes_at_coarse_cells(self):
        cfg = {
            "surface": {"kind": "catalogue", "name": "affine",
                        "params": {"slopes": [[0, 0], [0, 0]]}},
            "grid": {"ranges": [[-1, 1], [-1, 1]], "counts": [3, 3]},
            "checks": [{"name": "growth", "radii": [0.5, 1.0], "cells": 16}],
        }
        assert run_scenario(load_config(cfg)).results[0].verdict == "pass"

    def test_probe_that_evaluates_no_point_is_not_applicable(self):
        # the probe's hypothesis points near the origin are minimal, but no grid point is
        cfg = {
            "surface": {"kind": "graph", "exprs": ["x^2 - y^2 + 1e-6*x^15", "2*x*y"]},
            "grid": {"ranges": [[1, 1.5], [1, 1.5]], "counts": [3, 3]},
            "checks": [{"name": "probe"}, {"name": "subharmonicity"}, {"name": "minimality"}],
        }
        probe, sub, minimality = run_scenario(load_config(cfg)).results
        assert (sub.verdict, sub.reason) == ("not-applicable", "mean curvature does not vanish")
        assert minimality.verdict == "fail"
        assert (probe.verdict, probe.worst_residual, probe.n_points, probe.reason) == (
            "not-applicable", None, 0, "mean curvature does not vanish")
        assert probe.extras["applicable"] and probe.extras["subharmonicity_points"] == 0

    def test_partial_evaluation_errors_are_collected(self):
        # log(x) is undefined for x <= 0: half the grid errors, half evaluates
        cfg = {
            "surface": {"kind": "graph", "exprs": ["log(x)", "0"], "n": 2},
            "grid": {"ranges": [[-1.0, 1.0], [-1.0, 1.0]], "counts": [4, 3]},
            "checks": [{"name": "minimality"}],
        }
        report = run_scenario(load_config(cfg))
        res = report.results[0]
        assert res.n_skipped == 6
        assert res.n_points == 12


class TestEmission:
    def test_empty_check_list_gives_header_only_csv(self, tmp_path):
        cfg = small_z2_config(checks=[])
        report = run_scenario(load_config(cfg))
        out = tmp_path / "empty.csv"
        emit_report(report, "csv", out)
        assert out.read_text() == "check,u1,u2,u3,residual,status\n"

    def test_json_round_trip(self, tmp_path):
        report = run_scenario(load_config(bundled("z2-full")))
        out = tmp_path / "z2.json"
        emit_report(report, "json", out, detail=True)
        data = json.loads(out.read_text())
        assert data["overall"] == "pass"
        for entry in data["checks"]:
            assert "worst_residual" in entry
        # full double precision round trip
        worst = {e["name"]: e["worst_residual"] for e in data["checks"]}
        for res in report.results:
            assert worst[res.name] == res.worst_residual

    def test_json_booleans(self, tmp_path):
        report = run_scenario(load_config(bundled("z2-full")))
        out = tmp_path / "z2.json"
        emit_report(report, "json", out, detail=True)
        text = out.read_text()
        assert '"all_conformal": true' in text and '"skipped": [false, false, ' in text
        entry = {e["name"]: e for e in json.loads(text)["checks"]}["gauss-conformal"]
        assert entry["extras"]["omega_coupling_ok"] is True
        assert entry["details"]["skipped"][0] is False

    def test_same_config_twice_is_byte_identical(self, tmp_path):
        config = load_config(bundled("catenoid-kato"))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(run_scenario(config), "json", a, detail=True)
        emit_report(run_scenario(config), "json", b, detail=True)
        assert a.read_bytes() == b.read_bytes()

    def test_parallelism_does_not_change_output(self, tmp_path):
        config = load_config(small_z2_config())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(run_scenario(config, jobs=1), "json", a, detail=True)
        emit_report(run_scenario(config, jobs=2), "json", b, detail=True)
        assert a.read_bytes() == b.read_bytes()

    # a config's unknown top-level keys stay in the report's scenario, strings
    # included; half this grid fails to evaluate, and growth has no columns
    USER_KEYS = {
        "surface": {"kind": "graph", "exprs": ["log(x+0.5)", "0"], "n": 2},
        "grid": {"ranges": [[-1.0, 1.0], [-1.0, 1.0]], "counts": [4, 3]},
        "checks": [{"name": "minimality"}, {"name": "growth", "radii": [0.25], "cells": 16}],
        "details": [0],
        "note": '"details": [\n  {}\n]',
    }

    @pytest.mark.parametrize("raw", [bundled(name) for name in BUNDLED]
                             + [DETAIL_CONFIGS[name] for name in sorted(DETAIL_CONFIGS)]
                             + [USER_KEYS],
                             ids=BUNDLED + [f"details-{name}" for name in sorted(DETAIL_CONFIGS)]
                             + ["user-keys"])
    def test_json_layout(self, raw, tmp_path):
        report = run_scenario(load_config(raw))
        out = tmp_path / "report.json"
        emit_report(report, "json", out)  # with detail: TestDetailWriter
        assert out.read_text() == json.dumps(report.to_dict(), indent=2) + "\n"

    def test_csv_rows_per_point(self, tmp_path):
        cfg = small_z2_config(checks=[{"name": "minimality"}])
        report = run_scenario(load_config(cfg))
        out = tmp_path / "rows.csv"
        emit_report(report, "csv", out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 25
        assert lines[1].startswith("minimality,-1.0,-1.0,,")


WRITER_CONFIGS = ([bundled(name) for name in BUNDLED]
                  + [DETAIL_CONFIGS[name] for name in sorted(DETAIL_CONFIGS)]
                  + [TestEmission.USER_KEYS])
WRITER_IDS = BUNDLED + [f"details-{name}" for name in sorted(DETAIL_CONFIGS)] + ["user-keys"]


# floats whose JSON texts stand out: signed zeros, NaN, infinities, the least
# subnormal, and the switches to exponent notation
FLOATS = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5]),
                   st.floats())
TEXTS = st.one_of(st.sampled_from(["%", "%s %d", ", ", 'say "a, b"', "%(x)s, \\"]),
                  st.text(max_size=8))
OBJECTS = st.one_of(FLOATS, TEXTS, st.none(), st.booleans(), st.integers(-2**63, 2**63),
                    st.tuples(TEXTS, FLOATS))
KINDS = {"float": (FLOATS, float), "bool": (st.booleans(), bool),
         "float objects": (st.one_of(FLOATS, st.none()), object),
         "scalar objects": (st.one_of(st.none(), st.booleans(), st.integers()), object),
         "objects": (OBJECTS, object)}


def object_array(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        out[i] = value
    return out


def one_check_report(columns) -> Report:
    """A report of one minimality check with these columns."""
    n = len(columns.points)
    result = CheckResult("minimality", 1.0, None, "pass", n, n - len(columns.residual),
                         columns=columns)
    return Report({}, [result], "pass", n, 0.0)


@st.composite
def writer_columns(draw):
    """Columns of a few distinct points; the evaluated ones have a residual, a note and details."""
    points = draw(st.lists(st.tuples(FLOATS, FLOATS), max_size=4, unique=True))
    skip = object_array([draw(st.one_of(st.none(), TEXTS)) for _ in points])
    live = int(np.equal(skip, None).sum())
    detail = {}
    for key in draw(st.lists(st.sampled_from(["a", "%s", 'say "b", c']), unique=True, max_size=3)):
        values, dtype = KINDS[draw(st.sampled_from(sorted(KINDS)))]
        drawn = draw(st.lists(values, min_size=live, max_size=live))
        detail[key] = object_array(drawn) if dtype is object else np.array(drawn, dtype)
    return Columns(points, skip, np.array(draw(st.lists(FLOATS, min_size=live, max_size=live))),
                   object_array(draw(st.lists(st.one_of(st.none(), TEXTS), min_size=live,
                                              max_size=live))), detail)


class TestDetailWriter:
    """A report written with detail is format 2: its points once, and each check's columns."""

    @pytest.mark.parametrize("raw", WRITER_CONFIGS, ids=WRITER_IDS)
    def test_report_file_holds_the_columns(self, raw, tmp_path):
        report = run_scenario(load_config(raw))
        out, csv = tmp_path / "report.json", tmp_path / "report.csv"
        emit_report(report, "json", out, detail=True)
        emit_report(report, "csv", csv)
        assert_detail_file(out.read_text(), [report])
        assert csv.read_text() == csv_text_by_point(report)

    def test_hand_built_columns(self, tmp_path):
        reason = 'not evaluated: a, "quoted" \\ path, \u00fc\u2202'
        cols = Columns(
            [(0.0, 1.0), (0.5, -0.25), (1e-300, 2.0), (3.0, 4.0), (-0.0, 6.0)],
            np.array([None, reason, None, None, reason], dtype=object),
            np.array([math.nan, math.inf, -math.inf]),
            np.array([None, "kept, with a comma", None], dtype=object),
            {"flag": np.array([True, False, True]),
             "value": np.array([1.5, None, math.nan], dtype=object),
             "label": np.array(["x, y", ("a, b", 1.0), None], dtype=object)},
        )
        # a skipped point is null in every column but skipped and reason
        assert json.dumps(cols.lists()) == json.dumps({
            "residual": [math.nan, None, math.inf, -math.inf, None],
            "skipped": [False, True, False, False, True],
            "reason": [None, reason, "kept, with a comma", None, reason],
            "detail": {"flag": [True, None, False, True, None],
                       "value": [1.5, None, None, math.nan, None],
                       "label": ["x, y", None, ["a, b", 1.0], None, None]}})
        no_live_point = Columns([(1.0, 2.0), (3.0, 4.0)], np.array([reason, "other"], dtype=object))
        reports = [one_check_report(columns)
                   for columns in (cols, no_live_point, Columns([], np.empty(0, dtype=object)))]
        emit_sweep(reports, [], tmp_path / "sweep.json", detail=True)
        text = (tmp_path / "sweep.json").read_text()
        assert_detail_file(text, reports)
        assert '"residual": [NaN, null, Infinity, -Infinity, null]' in text
        assert '"points": [[0.0, 1.0], [0.5, -0.25], [1e-300, 2.0], [3.0, 4.0], [-0.0, 6.0]]' in text

    def test_float_table_keeps_each_bit_pattern(self, tmp_path):
        # the points and float64 columns of a report share one table of distinct doubles;
        # 0.0 and -0.0, and NaNs of other payloads, are distinct there but equal as values
        other_nan, negative_nan = np.array([0x7FF8000000000001, 0xFFF8000000000000],
                                           dtype=np.uint64).view(np.float64)
        points = [(0.0, -0.0), (1.5, math.nan), (-math.inf, 5e-324), (math.inf, 0.0)]
        reason = "not evaluated: the Gauss map has rank 3"
        first = Columns(points, object_array([None, None, reason, None]),
                        np.array([-0.0, 0.0, 1.5]), object_array([None, "kept", None]),
                        {"value": np.array([5e-324, -math.inf, other_nan]),
                         "flag": np.array([True, False, True]),
                         "maybe": object_array([-0.0, None, 1.5])})
        second = Columns(points, object_array([None, None, None, None]),
                         np.array([0.0, -0.0, negative_nan, math.inf]), object_array([None] * 4),
                         {"value": np.array([1.5, 1.5, -0.0, 5e-324])})
        every_point_skipped = Columns(points, object_array([reason] * 4))
        results = [CheckResult(name, 1.0, None, "pass", 4, int((~cols.live).sum()), columns=cols)
                   for name, cols in zip(["minimality", "simons", "kato"],
                                         [first, second, every_point_skipped])]
        growth = CheckResult("growth", 1.0, None, "not-applicable", 0, 0, reason="no growth")
        reports = [Report({}, results, "pass", 4, 0.0), Report({}, [growth], "pass", 0, 0.0)]
        for k, report in enumerate(reports):
            emit_report(report, "json", tmp_path / f"{k}.json", detail=True)
            assert_detail_file((tmp_path / f"{k}.json").read_text(), [report])
        emit_sweep(reports, [], tmp_path / "sweep.json", detail=True)
        text = (tmp_path / "sweep.json").read_text()
        assert_detail_file(text, reports)
        for line in ['"points": [[0.0, -0.0], [1.5, NaN], [-Infinity, 5e-324], [Infinity, 0.0]]',
                     '"residual": [-0.0, 0.0, null, 1.5]', '"residual": [0.0, -0.0, NaN, Infinity]',
                     '"value": [5e-324, -Infinity, null, NaN]', '"value": [1.5, 1.5, -0.0, 5e-324]',
                     '"residual": [null, null, null, null]', '"points": []']:
            assert line in text

    @settings(max_examples=100, deadline=None)
    @given(st.lists(writer_columns(), min_size=1, max_size=3))
    @example([Columns([(0.0, 1.0), (-0.0, 2.0)], object_array([None, None]), np.array([0.0, -0.0]),
                      object_array([None, None]), {"x": object_array([-0.0, 0.0])})])
    def test_columns_are_written_point_by_point(self, parts):
        # one report per part, alone and in one sweep file
        reports = [one_check_report(columns) for columns in parts]
        with tempfile.TemporaryDirectory() as tmp:
            for report in reports:
                emit_report(report, "json", Path(tmp) / "report.json", detail=True)
                assert_detail_file((Path(tmp) / "report.json").read_text(), [report])
            emit_sweep(reports, [], Path(tmp) / "sweep.json", detail=True)
            assert_detail_file((Path(tmp) / "sweep.json").read_text(), reports)

    def test_sweep_file_holds_each_report(self, tmp_path, capsys):
        out, again = tmp_path / "sweep.json", tmp_path / "again.json"
        assert cli.main(["sweep", "z2-probe", "--out", str(out), "--detail"]) == 0
        reports, table = sweep(bundled("z2-probe"))
        emit_sweep(reports, table, again, detail=True)
        text = out.read_text()
        assert again.read_text() == text and json.loads(text)["aggregation"] == table
        assert_detail_file(text, reports)

    def test_each_sweep_report_is_its_stand_alone_text(self, tmp_path):
        # the grids differ only in the sign of a zero, which == on point tuples does not see
        raw = {"surface": {"kind": "graph", "exprs": ["x^2 - y^2", "2*x*y"]},
               "grid": {"ranges": [[-1, 1], [-1, 1]], "counts": [3, 3]},
               "checks": [{"name": "minimality"}, {"name": "kato"}],
               "sweep": {"parameter": "grid.ranges",
                         "values": [[[-1, 0], [-1, 1]], [[-1, -0.0], [-1, 1]]]}}
        reports, table = sweep(raw)
        emit_sweep(reports, table, tmp_path / "sweep.json", detail=True)
        texts = []
        for k, report in enumerate(reports):
            emit_report(report, "json", tmp_path / f"{k}.json", detail=True)
            texts.append((tmp_path / f"{k}.json").read_text().rstrip("\n").replace("\n", "\n    "))
        assert (tmp_path / "sweep.json").read_text().startswith(
            '{\n  "reports": [\n    ' + ",\n    ".join(texts) + "\n  ],\n")
        assert "[0.0, 1.0]]," in texts[0] and "[-0.0, 1.0]]," in texts[1]


class TestSweep:
    def test_radii_sweep_on_affine(self):
        cfg = {
            "surface": {"kind": "catalogue", "name": "affine"},
            "grid": {"ranges": [[-1, 1], [-1, 1]], "counts": [3, 3]},
            "checks": [{"name": "growth", "cells": 256}],
            "sweep": {"parameter": "checks.0.radii", "values": []},
        }
        # sweep over the radii of the growth check via whole-check replacement
        cfg["sweep"] = {
            "parameter": "checks",
            "values": [
                [{"name": "growth", "cells": 256, "radii": [float(r)]}] for r in (1, 2, 4, 8)
            ],
        }
        reports, table = sweep(cfg)
        assert len(reports) == 4
        ratios = []
        for report, R in zip(reports, (1.0, 2.0, 4.0, 8.0)):
            growth = next(r for r in report.results if r.name == "growth")
            ratios.append(growth.extras["volumes"][0] / (math.pi * R * R))
        assert all(abs(r - 1.0) <= 0.01 for r in ratios)
        assert max(ratios) - min(ratios) <= 0.01

    def test_probe_t_sweep_reports_constants(self):
        cfg = bundled("z2-probe")
        cfg["grid"]["counts"] = [3, 3]
        cfg["probe"]["cells"] = 64
        reports, table = sweep(cfg)
        assert [row["value"] for row in table] == [3, 4, 5]
        for row in table:
            for key in ("implied_c3", "implied_c4"):
                assert isinstance(row[key], float) and math.isfinite(row[key]), key

    # both replaced the list they went through and failed on a field never set
    @pytest.mark.parametrize("parameter, value, component", [
        ("checks.0.radii", [1.0], "checks"),
        ("grid.counts.0", 3, "grid.counts"),
    ])
    def test_path_through_a_non_object_is_a_config_error(self, parameter, value, component):
        cfg = small_z2_config(checks=[{"name": "growth"}],
                              sweep={"parameter": parameter, "values": [value]})
        with pytest.raises(ConfigError) as err:
            sweep(cfg)
        assert err.value.path == "sweep.parameter"
        assert str(err.value) == (f"sweep.parameter: {component} is not an object, "
                                  f"cannot set {parameter}")

    @pytest.mark.parametrize("probe", ["missing", None])
    def test_missing_component_becomes_an_object(self, probe):
        cfg = small_z2_config(checks=[{"name": "minimality"}],
                              sweep={"parameter": "probe.t", "values": [3, 3.5]})
        if probe is None:
            cfg["probe"] = None
        reports, table = sweep(cfg)
        assert [report.scenario["probe"] for report in reports] == [{"t": 3}, {"t": 3.5}]
        assert [row["value"] for row in table] == [3, 3.5]

    def test_empty_sweep(self):
        cfg = small_z2_config(sweep={"parameter": "probe.t", "values": []})
        reports, table = sweep(cfg)
        assert reports == [] and table == []


def shared_sweeps():
    """Sweeps whose reports share every piece of work, some of it or none of it."""
    probe = bundled("z2-probe")
    probe["probe"]["cells"] = 64
    probe_q = copy.deepcopy(probe)  # the probe's grid part changes, its box does not
    probe_q["sweep"] = {"parameter": "probe.q", "values": [7, 8]}
    probe_cells = bundled("z2-probe")
    probe_cells["sweep"] = {"parameter": "probe.cells", "values": [32, 64]}
    probe_r = copy.deepcopy(probe)
    probe_r["sweep"] = {"parameter": "probe.R", "values": [1.0, 0.8]}
    probe_r0 = copy.deepcopy(probe)  # Omega_R and Omega_(R/2) stay, Omega_R0 changes
    probe_r0["sweep"] = {"parameter": "probe.R0", "values": [0.5, 0.3]}
    frame = copy.deepcopy(probe)  # swapped rows: the alignment function changes sign
    frame["checks"].append({"name": "log-alignment"})
    frame["sweep"] = {"parameter": "reference_frame",
                      "values": [[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 1, 0, 0], [1, 0, 0, 0]]]}
    mask = copy.deepcopy(probe)
    mask["sweep"] = {"parameter": "grid.mask", "values": ["-1", "x"]}
    grid_checks = copy.deepcopy(probe)  # the grid pass changes, the probe's box does not
    grid_checks["sweep"] = {"parameter": "checks", "values": [
        [{"name": "probe"}, {"name": "subharmonicity", "s": 1, "q": q, **tol}]
        for q, tol in ((3, {}), (4, {}), (3, {"tol": 1e-3}))]}
    coeffs = small_z2_config(
        probe={"cells": 32},
        checks=[{"name": "minimality"}, {"name": "probe"},
                {"name": "growth", "radii": [1.0, 2.0], "cells": 32}],
        sweep={"parameter": "surface.params.coeffs", "values": [[0, 0, 1], [0, 0, 2]]})
    radii = {
        "surface": {"kind": "catalogue", "name": "affine"},
        "grid": {"ranges": [[-1, 1], [-1, 1]], "counts": [3, 3]},
        "checks": [],
        "sweep": {"parameter": "checks", "values": [
            [{"name": "growth", "cells": 256, "radii": [float(r)]}] for r in (1, 2, 4, 8)]},
    }
    return {"probe.t": probe, "probe.q": probe_q, "probe.R": probe_r, "probe.R0": probe_r0,
            "probe.cells": probe_cells,
            "reference_frame": frame, "grid.mask": mask, "coeffs": coeffs, "checks": radii,
            "grid checks": grid_checks}


@pytest.fixture
def quadrature_calls(monkeypatch):
    """The nodes of each `_GraphFields.fields` call and the radii of each boundary search."""
    calls = {"fields": [], "boundary": []}
    fields, boundary = checks._GraphFields.fields, checks._GraphFields.boundary

    def counted_fields(self, axes, *args, **kwargs):
        calls["fields"].append(int(axes[0].size))
        return fields(self, axes, *args, **kwargs)

    def counted_boundary(self, radii, *args, **kwargs):
        calls["boundary"].append(list(radii))
        return boundary(self, radii, *args, **kwargs)

    monkeypatch.setattr(checks._GraphFields, "fields", counted_fields)
    monkeypatch.setattr(checks._GraphFields, "boundary", counted_boundary)
    return calls


def quadrature_work(calls, run) -> tuple:
    """The nodes `fields` evaluates and the radii of each search while `run()` runs."""
    calls["fields"].clear()
    calls["boundary"].clear()
    run()
    return sum(calls["fields"]), list(calls["boundary"])


def stand_alone_work(calls, reports) -> tuple:
    """The quadrature work of running each report's config on its own, summed."""
    alone = [quadrature_work(calls, lambda: run_scenario(load_config(r.scenario))) for r in reports]
    return sum(nodes for nodes, _ in alone), [radii for _, searched in alone for radii in searched]


class TestSweepSharedWork:
    """A sweep computes each piece of work once, and each report equals a stand-alone run."""

    @pytest.mark.parametrize("name", sorted(shared_sweeps()))
    def test_each_report_equals_a_stand_alone_run(self, name, tmp_path):
        reports, _ = sweep(shared_sweeps()[name])
        assert len(reports) >= 2
        for i, report in enumerate(reports):
            alone = run_scenario(load_config(report.scenario))
            swept, single = tmp_path / f"swept-{i}.json", tmp_path / f"alone-{i}.json"
            emit_report(report, "json", swept, detail=True)
            emit_report(alone, "json", single, detail=True)
            assert swept.read_bytes() == single.read_bytes()

    def test_probe_cells_are_evaluated_once(self, quadrature_calls):
        cfg = bundled("z2-probe")
        first = copy.deepcopy(cfg)
        first.pop("sweep")
        nodes, searched = quadrature_work(quadrature_calls, lambda: sweep(cfg))
        # for three values of t, each of which converges at 32 nodes per axis: one search of
        # Omega_R0 = Omega_(R/2) and Omega_R for levels 8 and 16, one for level 32, and per
        # search one `fields` call for Omega_R's v and one for Omega_R0's v and |B|^2
        assert searched == [[0.5, 1.0]] * 2
        assert quadrature_calls["fields"] == [8**2 + 16**2] * 2 + [32**2] * 2
        assert nodes == 2 * (8**2 + 16**2 + 32**2)
        assert (nodes, searched) == quadrature_work(
            quadrature_calls, lambda: run_scenario(load_config(first)))
        # no piece outlives the call: a second sweep does the same work again
        assert (nodes, searched) == quadrature_work(quadrature_calls, lambda: sweep(cfg))

    def test_nothing_shared_costs_the_stand_alone_runs(self, quadrature_calls):
        cfg = shared_sweeps()["coeffs"]
        reports, _ = sweep(cfg)
        work = quadrature_work(quadrature_calls, lambda: sweep(cfg))
        assert work == stand_alone_work(quadrature_calls, reports) and work[0] > 0

    def test_surface_json_cannot_write_is_computed_for_each_value(self, quadrature_calls):
        cfg = shared_sweeps()["probe.t"]
        cfg["surface"]["note"] = {"a set"}  # a key the loader does not read
        reports, _ = sweep(cfg)
        work = quadrature_work(quadrature_calls, lambda: sweep(cfg))
        assert work == stand_alone_work(quadrature_calls, reports) and work[0] > 0

    def test_not_applicable_outcomes_are_shared(self, quadrature_calls):
        cfg, reason = quadrature_repro("steep-probe")
        cfg["checks"].append({"name": "growth", "radii": [1.0, 2.0], "cells": 16})
        cfg["probe"] = {"q": 7}
        cfg["sweep"] = {"parameter": "probe.t", "values": [3, 4, 5]}
        reports, _ = sweep(cfg)
        for report in reports:
            alone = run_scenario(load_config(report.scenario))
            assert report.to_dict() == alone.to_dict()
            assert [(r.verdict, r.reason) for r in report.results] == [
                ("not-applicable", reason), ("not-applicable", reason.replace(
                    "0.95 > 1e-10 at 256", "1 > 1e-10 at 16"))]
        # the probe's levels and the growth table fail once for the sweep, as in one run
        first = copy.deepcopy(cfg)
        first.pop("sweep")
        first["probe"]["t"] = 3
        assert quadrature_work(quadrature_calls, lambda: sweep(cfg)) == quadrature_work(
            quadrature_calls, lambda: run_scenario(load_config(first)))

    def test_bad_last_value_fails_before_any_run(self, monkeypatch, tmp_path, capsys):
        runs = []
        monkeypatch.setattr(scenario, "run_scenario", lambda *args, **kwargs: runs.append(args))
        cfg = bundled("z2-probe")
        cfg["sweep"]["values"] = [3, 4, 2]
        with pytest.raises(ConfigError) as err:
            sweep(cfg)
        assert str(err.value) == "probe: probe requires t >= 3, got t=2.0"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["sweep", str(path)]) == 2
        assert capsys.readouterr().err == "config error: probe: probe requires t >= 3, got t=2.0\n"
        assert runs == []


class TestCli:
    def run_cli(self, *args):
        # the child finds src/ as this process does, with or without PYTHONPATH set
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "curvlab.cli", *args],
                              capture_output=True, text=True, env=env)

    def test_exit_code_pass(self):
        proc = self.run_cli("check", "catenoid-kato", "--jobs", "1")
        assert proc.returncode == 0
        assert "overall: pass" in proc.stdout

    def test_exit_code_fail(self, tmp_path):
        cfg = {
            "surface": {"kind": "graph", "exprs": ["x^2 + y^2", "0"], "n": 2},
            "grid": {"ranges": [[-1, 1], [-1, 1]], "counts": [3, 3]},
            "checks": [{"name": "minimality"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        proc = self.run_cli("check", str(path), "--jobs", "1")
        assert proc.returncode == 1

    def test_exit_code_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(small_z2_config(checks=[{"name": "nope"}])))
        proc = self.run_cli("check", str(path))
        assert proc.returncode == 2
        assert "checks[0].name" in proc.stderr

    def test_probe_on_partly_failing_graph_reports_instead_of_crashing(self, tmp_path):
        # log(x + 0.5) cannot be evaluated at x <= -0.5: those grid points are skipped
        cfg = {
            "surface": {"kind": "graph", "exprs": ["log(x+0.5)", "x*y"], "n": 2},
            "grid": {"ranges": [[-1, 1], [-1, 1]], "counts": [5, 5]},
            "checks": [{"name": "minimality"}, {"name": "probe"}],
            "probe": {"cells": 32},
        }
        probe = next(r for r in run_scenario(load_config(cfg)).results if r.name == "probe")
        assert probe.verdict == "not-applicable"
        assert probe.reason == "mean curvature does not vanish"
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(cfg))
        proc = self.run_cli("check", str(path))
        assert proc.returncode == 1
        assert "not-applicable" in proc.stdout and "overall: fail" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_mask_that_keeps_no_point(self):
        # no block is evaluated, so every check's columns are joined from none
        grid = {"ranges": [[-1, 1], [-1, 1]], "counts": [3, 3], "mask": "1"}
        report = run_scenario(load_config(small_z2_config(grid=grid, checks=[
            {"name": "minimality"}, {"name": "kato"}, {"name": "gauss-conformal"}])))
        assert report.n_grid_points == 0 and report.overall == "pass"
        for res in report.results:
            assert (res.verdict, res.reason, res.n_points, res.columns.lists()) == (
                "not-applicable", "no points evaluated", 0,
                {"residual": [], "skipped": [], "reason": [], "detail": {}})
        assert report.results[1].extras["evaluated_points"] == 0

    def test_constant_mask_keeps_every_point(self, tmp_path):
        grid = {"ranges": [[-1, 1], [-1, 1]], "counts": [3, 3], "mask": "-1"}
        path = tmp_path / "all.json"
        path.write_text(json.dumps(small_z2_config(grid=grid, checks=[{"name": "minimality"}])))
        proc = self.run_cli("check", str(path))
        assert proc.returncode == 0
        assert "(9 grid points" in proc.stdout
        assert "Traceback" not in proc.stderr

    # each of these ended in a traceback with exit 1, the code of a failed check
    @pytest.mark.parametrize("data, message", [
        (b'{"sweep": ', "config: not valid JSON"),
        (b'[1, 2]', "config: must be a JSON object"),
        (b'\xff{}', "config: not valid JSON: 'utf-8' codec can't decode"),
        (b"[" * 100000 + b"]" * 100000, "config: not valid JSON: maximum recursion depth"),
    ], ids=["invalid-json", "json-list", "not-utf8", "nested-too-deep"])
    def test_sweep_bad_config_exits_2(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert cli.main(["sweep", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    # a string where a list belongs: its characters must not pass for the list's entries
    @pytest.mark.parametrize("command, overrides, message", [
        ("check", {"surface": {"kind": "graph", "exprs": "x^2-y^2"}},
         "surface.exprs: graph surfaces need expressions"),
        ("check", {"grid": {"ranges": [[-1, 1], "01"], "counts": [5, 5]}},
         "grid.ranges: need 2 [lo, hi] pairs"),
        ("check", {"grid": {"ranges": [[-1, 1], [-1, 1]], "counts": "55"}},
         "grid.counts: need 2 sample counts"),
        ("check", {"reference_frame": [[1, 0, 0, 0], "0100"]},
         "reference_frame: must be 2 rows of length 4"),
        ("sweep", {"sweep": {"parameter": 7, "values": [1]}},
         "sweep.parameter: must be a dotted config path"),
    ], ids=["exprs", "ranges-pair", "counts", "frame-row", "sweep-parameter"])
    def test_wrong_typed_container_exits_2_naming_its_field(self, tmp_path, capsys, command,
                                                           overrides, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(small_z2_config(**overrides)))
        assert cli.main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_config_path_that_is_a_directory_exits_2(self, tmp_path, capsys, command):
        assert cli.main([command, str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")  # no traceback

    def test_sweep_out_file(self, tmp_path):
        out = tmp_path / "sweep.json"
        proc = self.run_cli("sweep", "z2-probe", "--out", str(out), "--detail")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        reports, table = sweep(bundled("z2-probe"))
        text = out.read_text()
        assert json.loads(text)["aggregation"] == table
        assert_detail_file(text, reports)

    def test_sweep_writes_the_configured_output(self, tmp_path, capsys):
        # as check does: the config's output path and detail, unless --out and --detail win
        cfg = bundled("z2-probe")
        cfg["output"] = {"path": str(tmp_path / "configured.json"), "detail": True}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["sweep", str(path)]) == 0
        configured = (tmp_path / "configured.json").read_text()
        assert cli.main(["sweep", str(path), "--out", str(tmp_path / "given.json")]) == 0
        assert (tmp_path / "given.json").read_text() == configured
        cfg["output"]["detail"] = False
        path.write_text(json.dumps(cfg))
        assert cli.main(["sweep", str(path)]) == 0
        assert not has_details(tmp_path / "configured.json")
        assert cli.main(["sweep", str(path), "--detail"]) == 0
        assert has_details(tmp_path / "configured.json")
        assert "wrote sweep report to" in capsys.readouterr().out

    @pytest.mark.parametrize("output, message", [
        ({"format": "csv"}, "output.format: format must be json"),
        ({"detail": "yes"}, "output.detail: must be true or false, got 'yes'"),
        ({"path": ""}, "output.path: must be a non-empty string, got ''"),
    ])
    def test_sweep_output_is_checked_before_any_run(self, monkeypatch, tmp_path, capsys,
                                                    output, message):
        runs = []
        monkeypatch.setattr(scenario, "run_scenario", lambda *args, **kwargs: runs.append(args))
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({**bundled("z2-probe"), "output": output}))
        assert cli.main(["sweep", str(path), "--out", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert runs == [] and not (tmp_path / "out.json").exists()

    def test_catalogue_number_too_large_exits_2(self, tmp_path):
        path = tmp_path / "huge.json"
        surface = {"kind": "catalogue", "name": "holo-curve", "params": {"coeffs": [0, 0, 10**400]}}
        path.write_text(json.dumps(small_z2_config(surface=surface)))
        proc = self.run_cli("check", str(path))
        assert proc.returncode == 2
        assert "surface.params.coeffs[2]" in proc.stderr and "Traceback" not in proc.stderr

    def test_output_path_must_be_a_string(self, tmp_path):
        path = tmp_path / "out7.json"
        path.write_text(json.dumps(small_z2_config(output={"path": 7})))
        proc = self.run_cli("check", str(path))
        assert proc.returncode == 2
        assert "output.path" in proc.stderr and "Traceback" not in proc.stderr

    def test_list_commands(self):
        assert "catenoid" in self.run_cli("list-surfaces").stdout
        assert "kato" in self.run_cli("list-checks").stdout

    def test_list_checks_prints_every_row(self, capsys):
        assert cli.main(["list-checks"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(CHECKS)
        for line, (name, check) in zip(lines, CHECKS.items()):
            assert line.split()[:2] == [name, f"tol={check.tol:.0e}"]
            assert line.endswith(f" {check.description}")

    def test_config_error_in_surface_exits_2(self, tmp_path, capsys):
        path = tmp_path / "float-n.json"
        path.write_text(json.dumps(small_z2_config(
            surface={"kind": "graph", "exprs": ["x^2 - y^2", "2*x*y"], "n": 2.0})))
        assert cli.main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: surface.n: ")

    @pytest.mark.parametrize("name", sorted(QUADRATURE_REPROS))
    def test_quadrature_repros_exit_0(self, tmp_path, capsys, name):
        cfg, reason = quadrature_repro(name)
        path = tmp_path / "repro.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "not-applicable" in out and f"reason: {reason}" in out

    @pytest.mark.parametrize("surface", [
        {"kind": "graph", "exprs": ["x*log(0)", "0"]},
        {"kind": "catalogue", "name": "holo-curve", "params": {"coeffs": [[1e-3, 1e-3]] * 44}},
        {"kind": "catalogue", "name": "holo-curve", "params": {"coeffs": [1e-3] * 80}},
    ], ids=["undefined-constant", "holo-curve-44", "holo-curve-80"])
    def test_surface_that_cannot_be_evaluated_exits_2(self, tmp_path, capsys, surface):
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(small_z2_config(surface=surface)))
        assert cli.main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: surface")

    def test_flat_chain_too_deep_exits_2(self, tmp_path):
        path = tmp_path / "chain.json"
        surface = {"kind": "graph", "exprs": ["+".join(["x"] * 2000), "y"]}
        path.write_text(json.dumps(small_z2_config(surface=surface)))
        proc = self.run_cli("check", str(path))
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert "surface.exprs: expression tree more than 500 levels deep" in proc.stderr

    def test_missing_config(self):
        proc = self.run_cli("check", "does-not-exist")
        assert proc.returncode == 2
