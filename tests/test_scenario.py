import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from curvlab import cli
from curvlab.scenario import (
    ConfigError,
    emit_report,
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


def detail_blocks(text, pad):
    """The lines of each non-empty `details` list whose key is indented by `pad`."""
    lines = text.splitlines()
    starts = [i for i, line in enumerate(lines) if line == pad + '"details": [']
    return [lines[i + 1:lines.index(pad + "]", i)] for i in starts]


def assert_one_record_a_line(text, entries, pad):
    """Each detail record of the check `entries` is one line of `text`, which parses to it."""
    records = [entry["details"] for entry in entries if entry.get("details")]
    blocks = detail_blocks(text, pad)
    assert len(blocks) == len(records)
    for block, recs in zip(blocks, records):
        assert len(block) == len(recs)
        for line, record in zip(block, recs):
            assert json.dumps(json.loads(line.strip().removesuffix(","))) == json.dumps(record)


def small_z2_config(**overrides):
    cfg = {
        "surface": {"kind": "catalogue", "name": "holo-curve", "params": {"coeffs": [0, 0, 1]}},
        "grid": {"ranges": [[-1.0, 1.0], [-1.0, 1.0]], "counts": [5, 5]},
        "checks": [{"name": "minimality"}, {"name": "simons"}],
    }
    cfg.update(overrides)
    return cfg


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

    def test_graph_surface_expressions(self):
        cfg = small_z2_config(
            surface={"kind": "graph", "exprs": ["x^3 - 3*x*y^2", "3*x^2*y - y^3"], "n": 2}
        )
        config = load_config(cfg)
        assert config.surface.kind == "graph"
        report = run_scenario(config)
        assert report.overall == "pass"  # z^3 is holomorphic, hence minimal

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

    # log(x) is undefined at F(0), so no distance is; log(x + 0.5) at the cells with x < -0.5
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("surface, options, reason", [
        ({"kind": "catalogue", "name": "catenoid"}, {},
         "quadrature fields require a graph immersion"),
        ({"kind": "catalogue", "name": "affine"}, {"cells": 2}, "quadrature too coarse"),
        ({"kind": "graph", "exprs": ["log(x)", "0"]}, {},
         "graph undefined at the origin: F(0) is not finite"),
        ({"kind": "graph", "exprs": ["log(x+0.5)", "0"]}, {"radii": [1.0], "cells": 16},
         "graph undefined on 64 of 256 quadrature cells within radius 1.0"),
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
        assert '"all_conformal": true' in text and '"skipped": false' in text
        entry = {e["name"]: e for e in json.loads(text)["checks"]}["gauss-conformal"]
        assert entry["extras"]["omega_coupling_ok"] is True
        assert entry["details"][0]["skipped"] is False

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
    # included; half this grid fails to evaluate, and growth has no records
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
        emit_report(report, "json", out)
        assert out.read_text() == json.dumps(report.to_dict(), indent=2) + "\n"
        emit_report(report, "json", out, detail=True)
        text = out.read_text()
        want = report.to_dict(detail=True)
        assert json.dumps(json.loads(text)) == json.dumps(want)  # key order included
        assert_one_record_a_line(text, want["checks"], " " * 6)

    def test_csv_rows_per_point(self, tmp_path):
        cfg = small_z2_config(checks=[{"name": "minimality"}])
        report = run_scenario(load_config(cfg))
        out = tmp_path / "rows.csv"
        emit_report(report, "csv", out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 25
        assert lines[1].startswith("minimality,-1.0,-1.0,,")


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
            assert row["implied_c4"] is not None and math.isfinite(row["implied_c4"])

    def test_empty_sweep(self):
        cfg = small_z2_config(sweep={"parameter": "probe.t", "values": []})
        reports, table = sweep(cfg)
        assert reports == [] and table == []


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
            assert (res.verdict, res.reason, res.n_points, res.details) == (
                "not-applicable", "no points evaluated", 0, [])
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

    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_config_path_that_is_a_directory_exits_2(self, tmp_path, capsys, command):
        assert cli.main([command, str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")  # no traceback

    def test_sweep_out_file(self, tmp_path):
        out = tmp_path / "sweep.json"
        proc = self.run_cli("sweep", "z2-probe", "--out", str(out), "--detail")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        reports, table = sweep(bundled("z2-probe"))
        want = {"reports": [r.to_dict(detail=True) for r in reports], "aggregation": table}
        text = out.read_text()
        assert json.dumps(json.loads(text)) == json.dumps(want)
        entries = [entry for report in want["reports"] for entry in report["checks"]]
        assert_one_record_a_line(text, entries, " " * 10)

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

    def test_missing_config(self):
        proc = self.run_cli("check", "does-not-exist")
        assert proc.returncode == 2
