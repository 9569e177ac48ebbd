#!/usr/bin/env python3
"""Mutation gate: every mutant of tests/mutants.py must fail one of its named tests.

    python3 scripts/mutants.py [NAME ...]

Copies src/, tests/ and pyproject.toml into a temporary directory and runs
every named test there once, unmutated: they must pass.  Then, for each
mutant (or each one named), it makes a fresh copy, replaces the mutant's
exact old text in its file and runs pytest on the mutant's test ids only.
A mutant is killed when a named test fails.  Prints one line per mutant and
the score; exits 1 when a mutant survives, when its old text does not occur
exactly once, or when pytest cannot run the named tests (a test id that no
longer exists, for one).
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from mutants import MUTANTS  # noqa: E402

COPIED = ("src", "tests", "pyproject.toml")


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, dest / name)


def pytest(tree: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run_mutant(mutant) -> str:
    """'killed', 'SURVIVED', or why the mutant could not be tried."""
    with tempfile.TemporaryDirectory(prefix="curvlab-mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        path = tree / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"ERROR: old text occurs {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code = pytest(tree, mutant.tests)
    # pytest exits 1 when a test failed, 0 when all passed, other codes on usage errors
    return {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR: pytest exit code {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    mutants = [m for m in MUTANTS if not args.names or m.name in args.names]

    with tempfile.TemporaryDirectory(prefix="curvlab-mutant-") as tmp:
        copy_tree(Path(tmp))
        tests = sorted({test for m in mutants for test in m.tests})
        code = pytest(Path(tmp), tests)
    if code != 0:
        print(f"the named tests do not pass unmutated (pytest exit code {code})")
        return 1

    outcomes = []
    for mutant in mutants:
        outcomes.append(run_mutant(mutant))
        print(f"{outcomes[-1]:>8}  {mutant.name}", flush=True)
    killed = outcomes.count("killed")
    print(f"mutation score: {killed}/{len(mutants)} killed")
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main())
