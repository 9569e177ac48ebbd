"""Each script in scripts/, and each Python example of README.md, runs end to end.

The scripts and the examples are library callers that no other test
exercises, so an API change would otherwise break them silently.
"""

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


def test_readme_has_python_examples():
    assert len(README_EXAMPLES) >= 2


@pytest.mark.parametrize("source", README_EXAMPLES, ids=[f"block{i}" for i in range(len(README_EXAMPLES))])
def test_readme_example_runs(source):
    # each block stands alone: it runs in a namespace of its own
    exec(compile(source, "README.md", "exec"), {})
