"""Each script in scripts/, and each Python example of README.md, runs end to end.

The scripts and the examples are library callers that no other test
exercises, so an API change would otherwise break them silently.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                             re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("script,args", [
    ("equality_landscape.py", ["--samples", "3"]),
    ("growth_experiment.py", ["--radii", "1", "2", "--cells", "32"]),
    ("recapture_golden.py", ["z2-growth", "z2-probe", "--checks", "growth", "probe", "--dry-run"]),
    ("probe_constants.py", ["--t", "3", "--cells", "32"]),
    ("mutants.py", ["growth volume drops v"]),
])
def test_script_prints_a_table(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.strip()]
    assert len(rows) >= 2, proc.stdout  # a header and at least one row


def test_every_mutant_applies_exactly_once():
    # the mutation gate's rows, as scripts/mutants.py applies them
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.name
        assert m.tests and all(test.startswith("tests/test_") for test in m.tests), m.name


class TestGeneratedMutants:
    """scripts/mutants.py --generate's enumeration; tier-1 runs none of the mutants."""

    def operator_mutants(self, source):
        spec = importlib.util.spec_from_file_location("mutants_script", ROOT / "scripts" / "mutants.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.operator_mutants(source)

    def test_each_operator_is_swapped_once_and_no_other_token(self):
        # *args and **kw are no operators, and - in 1e-3 is part of a number
        source = "def f(a, b, *args, **kw):\n    return a + b * 2 < 3 and -a ** 1e-3\n"
        assert [(row, line) for row, line, _ in self.operator_mutants(source)] == [
            (2, "return a - b * 2 < 3 and -a ** 1e-3"), (2, "return a + b / 2 < 3 and -a ** 1e-3"),
            (2, "return a + b * 2 <= 3 and -a ** 1e-3"), (2, "return a + b * 2 < 3 or -a ** 1e-3"),
            (2, "return a + b * 2 < 3 and +a ** 1e-3")]  # -a ** e -> -a * e regroups: not listed

    @pytest.mark.parametrize("module", ["expressions", "geometry"])
    def test_the_mutants_of_a_module_are_fixed_and_each_parses_and_differs(self, module):
        source = (ROOT / "src" / "curvlab" / f"{module}.py").read_text(encoding="utf-8")
        mutants = self.operator_mutants(source)
        assert len(mutants) > 50 and mutants == self.operator_mutants(source)
        assert [row for row, _, _ in mutants] == sorted(row for row, _, _ in mutants)
        for row, line, mutated in mutants:
            ast.parse(mutated)
            assert mutated.splitlines()[row - 1].strip() == line != source.splitlines()[row - 1].strip()


def test_emit_reports_writes_the_comparison_set(tmp_path):
    # 6 bundled scenarios x 3 forms, one sweep, 15 benchmark workload reports
    out = tmp_path / "reports"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "emit_reports.py"), str(out),
                           "--checkout", str(ROOT)], capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    names = sorted(path.name for path in out.iterdir())
    assert len(names) == 34 and proc.stdout == f"wrote 34 files to {out}\n"
    assert {"z2-full.json", "z2-full-detail.json", "z2-full.csv", "sweep-z2-probe.json",
            "grid-solid-11-0.json", "quadrature-3-2.json"} <= set(names)
    assert all((out / name).stat().st_size for name in names)


def perfbench_output(run_s, correct="true", failed=0, wall=0.0353):
    """The output of one `perfbench/run.py --trace 0` run, as it prints it but for the two medians,
    run_s and `wall`, which are unrounded."""
    return f"""workload grid-solid, seed 5: python 3.11.7, numpy 2.4.6, nproc 2
  9 timed runs at jobs=1, 125 grid points per run
  run_s quartiles, scaled: 0.0219 / {run_s} / 0.0225 s
  run_s quartiles, wall:   0.0342 / {wall} / 0.0366 s
  setup_s                                0.208875 s
  run_s                                  {run_s:>8} s
  failed_frac                                   0 (0 of 270 outcomes)
{{"correct": {correct}, "attempted": 270, "failed": {failed}, "metrics": {{"setup_s": {{"value": 0.2, \
"unit": "s"}}, "run_s": {{"value": {run_s}, "unit": "s"}}}}}}
"""


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAbPairs:
    """scripts/ab_pairs.py's summary, fed canned perfbench output (tier-1 runs no perfbench)."""

    def summary(self, parent_run_s, change_run_s, bounds, parent_wall=None, change_wall=None):
        ab = load_script("ab_pairs")
        parent = [ab.parse_run(perfbench_output(t, wall=w))
                  for t, w in zip(parent_run_s, parent_wall or [0.0353] * len(parent_run_s))]
        change = [ab.parse_run(perfbench_output(t, wall=w))
                  for t, w in zip(change_run_s, change_wall or [0.0353] * len(change_run_s))]
        return {line.split("  ")[0].strip(): line.split() for line in ab.summarize(parent, change, bounds)[2:]}

    def rows(self, parent_run_s, change_run_s):
        # without bounds, each row ends in the gain rule and a "-" for no-regression
        rows = self.summary(parent_run_s, change_run_s, {})
        assert all(words[-1] == "-" for words in rows.values())
        return {name: words[:-1] for name, words in rows.items()}

    def no_regression(self, parent_run_s, change_run_s, bound):
        """The verdict in run_s's row, and that of no_regression itself."""
        words = self.summary(parent_run_s, change_run_s, {"run_s": bound})["run_s"]
        return words[13], load_script("ab_pairs").no_regression(parent_run_s, change_run_s, bound)

    def test_the_bounds_are_the_benchmarks_end_to_end_metrics(self):
        bounds = load_script("ab_pairs").end_to_end_bounds()
        assert bounds == {"setup_s": 0.25, "run_s": 0.25, "ms_per_point": 0.25, "peak_rss_mb": 0.1}

    @pytest.mark.parametrize("change, verdict", [
        ([0.0232 + 0.0001 * k for k in range(10)], "holds"),  # 1% above PARENT's median
        ([0.0290 + 0.0001 * k for k in range(10)], "fails"),  # 26% above
        ([0.0279 + 0.0001 * k for k in range(10)], "holds"),  # 21% above, within the bound
    ], ids=["holds", "fails", "holds-near-the-bound"])
    def test_no_regression_against_the_bound(self, change, verdict):
        parent = [0.0230 + 0.0001 * k for k in range(10)]  # spread 3%
        assert self.no_regression(parent, change, 0.25) == (verdict, verdict)

    def test_no_regression_is_unresolved_when_the_parent_spreads_beyond_the_bound(self):
        parent = [0.010, 0.014, 0.018, 0.022, 0.026] * 2  # (q3 - q1) / median = 0.67
        assert self.no_regression(parent, [t * 0.99 for t in parent], 0.25) == ("unresolved",) * 2
        # unless every CHANGE run is lower than every PARENT run
        assert self.no_regression(parent, [0.009] * 10, 0.25) == ("holds",) * 2

    def test_parse_reads_the_metrics_and_both_quartile_lines(self):
        run = load_script("ab_pairs").parse_run(perfbench_output(0.0221))
        assert run == {"setup_s": 0.2, "run_s": 0.0221, "run_s scaled q1": 0.0219,
                       "run_s scaled median": 0.0221, "run_s scaled q3": 0.0225,
                       "run_s wall q1": 0.0342, "run_s wall median": 0.0353, "run_s wall q3": 0.0366,
                       "calibration": 0.0353 / 0.0221}

    @pytest.mark.parametrize("correct,failed", [("false", 0), ("true", 1)])
    def test_parse_requires_correct_and_no_failure(self, correct, failed):
        with pytest.raises(ValueError, match="perfbench reported"):
            load_script("ab_pairs").parse_run(perfbench_output(0.0221, correct, failed))

    def test_a_gain_in_every_pair_beyond_the_quartile_distance_holds(self):
        rows = self.rows([0.0230 + 0.0001 * k for k in range(10)],
                         [0.0210 + 0.0001 * k for k in range(10)])
        assert rows["run_s"][-2:] == ["10/10", "holds"]
        assert rows["run_s"][3:9:5] == ["0.02345", "0.02145"]  # the two medians
        assert rows["setup_s"][-2:] == ["0/10", "fails"]  # equal in every pair
        assert rows["run_s wall q3"][-2:] == ["0/10", "fails"]

    def test_eight_of_ten_pairs_or_a_gap_inside_the_quartiles_fails(self):
        parent = [0.0230 + 0.0001 * k for k in range(10)]
        eight = self.rows(parent, [t - 0.002 for t in parent[:8]] + [t + 0.001 for t in parent[8:]])
        assert eight["run_s"][-2:] == ["8/10", "fails"]
        close = self.rows(parent, [t - 0.00005 for t in parent])
        assert close["run_s"][-2:] == ["10/10", "fails"]

    # the scaled run_s of PARENT's runs, and calibration factors (wall / scaled) 1.46 to 1.54
    PARENT_SCALED = [0.0230 + 0.0001 * k for k in range(10)]
    FACTORS = [1.46 + 0.02 * (k % 5) for k in range(10)]  # q1 1.475, median 1.5, q3 1.525
    PARENT_WALL = [f * t for f, t in zip(FACTORS, PARENT_SCALED)]

    def test_a_level_calibration_leaves_run_s_unflagged(self):
        change = [t - 0.002 for t in self.PARENT_SCALED]  # faster, wall and scaled alike
        rows = self.summary(self.PARENT_SCALED, change, {"run_s": 0.25},
                            self.PARENT_WALL, [f * t for f, t in zip(self.FACTORS, change)])
        calibration = rows["calibration"]
        assert calibration[1:6:2] == calibration[6:11:2] == ["1.475", "1.5", "1.525"]
        assert calibration[-1] == "-" and "[calibration" not in rows["run_s"]
        assert rows["run_s"][13] == "holds"

    @pytest.mark.parametrize("factor", [1.5 / 1.17, 1.5 * 1.07], ids=["faster-loop", "slower-loop"])
    def test_a_moved_calibration_flags_run_s(self, factor):
        # the wall times stay level, and the scaled run_s moves with the loop alone
        change = [w / factor for w in self.PARENT_WALL]
        rows = self.summary(self.PARENT_SCALED, change, {"run_s": 0.25},
                            self.PARENT_WALL, self.PARENT_WALL)
        assert rows["calibration"][8] == f"{factor:.4g}"  # CHANGE's median
        assert rows["run_s"][13:16] == ["holds", "[calibration", "moved]"]

    def test_calibration_moves_beyond_parents_quartile_distance(self):
        moved = load_script("ab_pairs").calibration_moved
        parent = [1.40, 1.45, 1.50, 1.55, 1.60]  # q1 1.425, median 1.5, q3 1.575
        assert not moved(parent, [1.64] * 5) and not moved(parent, [1.36] * 5)
        assert moved(parent, [1.66] * 5) and moved(parent, [1.34] * 5)


def test_readme_has_python_examples():
    assert len(README_EXAMPLES) >= 2


@pytest.mark.parametrize("source", README_EXAMPLES, ids=[f"block{i}" for i in range(len(README_EXAMPLES))])
def test_readme_example_runs(source):
    # each block stands alone: it runs in a namespace of its own
    exec(compile(source, "README.md", "exec"), {})
