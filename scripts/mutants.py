#!/usr/bin/env python3
"""Mutation gate: every mutant of tests/mutants.py must fail one of its named tests.

    python3 scripts/mutants.py [NAME ...]
    python3 scripts/mutants.py --generate MODULE [--every K]

Copies src/, tests/ and pyproject.toml into a temporary directory and runs
every named test there once, unmutated: they must pass.  Then, for each
mutant (or each one named), it makes a fresh copy, replaces the mutant's
exact old text in its file and runs pytest on the mutant's test ids only.
A mutant is killed when a named test fails.  Prints one line per mutant and
the score; exits 1 when a mutant survives, when its old text does not occur
exactly once, or when pytest cannot run the named tests (a test id that no
longer exists, for one).

With --generate, the mutants are generated instead: each operator token of
MODULE (a path under the repository root, such as src/curvlab/geometry.py)
swapped for another (+ and -, * and /, < and <=, == and !=, and and or, ...)
where the swap parses and changes one operator node of the module's tree;
--every K tries every K-th of them, in source order.  The whole repository,
perfbench/ included, is copied; tier-1 must pass unmutated there, and then
runs with -x against each mutant, which is killed when a test fails, the
run crashes or it takes more than ten times the unmutated one; each test
process may map at most MEMORY_LIMIT bytes.  Prints each survivor's
line and the score; exits 1 when a mutant survives.
"""

import argparse
import ast
import io
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from mutants import MUTANTS  # noqa: E402

COPIED = ("src", "tests", "pyproject.toml")
NOT_COPIED = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*")
# each operator token and the one it is swapped for
SWAPS = {"+": "-", "-": "+", "*": "/", "/": "*", "//": "/", "%": "*", "**": "*",
         "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+=": "-=", "-=": "+=", "*=": "/=", "/=": "*=", "and": "or", "or": "and"}
OPERATOR_NODES = (ast.operator, ast.cmpop, ast.boolop, ast.unaryop)
MEMORY_LIMIT = 4 * 2**30  # bytes of address space for each tier-1 process under --generate


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


def table_gate(names, parser) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    mutants = [m for m in MUTANTS if not names or m.name in names]

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


# -- generated operator mutants --------------------------------------------------

def _operator_kinds(source: str) -> list:
    """The node classes of `source`'s tree in walk order; SyntaxError if it does not parse."""
    return [type(node) for node in ast.walk(ast.parse(source))]


def operator_mutants(source: str) -> list:
    """(line number, mutated line, mutated source) of each operator swap of `source`, in source order.

    A swap is kept when the top-level statement that holds it still parses
    and its tree differs from the original in the class of one operator node
    only: a token such as the * of *args is no operator.
    """
    lines = source.splitlines(keepends=True)
    spans = [(min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])]), node.end_lineno)
             for node in ast.parse(source).body]
    kinds = {}
    mutants = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in (tokenize.OP, tokenize.NAME) or token.string not in SWAPS:
            continue
        (row, col), (_, end) = token.start, token.end
        first, last = next(span for span in spans if span[0] <= row <= span[1])
        if (first, last) not in kinds:
            kinds[first, last] = _operator_kinds("".join(lines[first - 1:last]))
        new_line = lines[row - 1][:col] + SWAPS[token.string] + lines[row - 1][end:]
        try:
            mutated = _operator_kinds("".join(lines[first - 1:row - 1] + [new_line] + lines[row:last]))
        except SyntaxError:
            continue
        differ = [pair for pair in zip(kinds[first, last], mutated) if pair[0] is not pair[1]]
        if (len(mutated) == len(kinds[first, last]) and len(differ) == 1
                and all(issubclass(kind, OPERATOR_NODES) for kind in differ[0])):
            mutants.append((row, new_line.strip(), "".join(lines[:row - 1] + [new_line] + lines[row:])))
    return mutants


def _limit_memory() -> None:
    # a mutant that recurses or allocates without end fails with MemoryError, and takes
    # no memory from the rest of the host
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def tier1(tree: Path, timeout: float | None = None) -> int | None:
    """pytest's exit code for tier-1 with -x in `tree`, or None when it ran past `timeout` seconds."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                             "--continue-on-collection-errors"], cwd=tree, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
                            preexec_fn=_limit_memory)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the tests' own subprocesses too
        proc.wait()
        return None


def generated_gate(module: str, every: int) -> int:
    path = ROOT / module
    source = path.read_text(encoding="utf-8")
    mutants = operator_mutants(source)[::every]
    with tempfile.TemporaryDirectory(prefix="curvlab-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*NOT_COPIED))
        start = time.monotonic()
        code = tier1(tree)
        limit = 10.0 * (time.monotonic() - start)
        if code != 0:
            print(f"tier-1 does not pass unmutated (pytest exit code {code})")
            return 1
        target = tree / module
        killed, survivors = 0, []
        for row, new_line, mutated in mutants:
            target.write_text(mutated, encoding="utf-8")
            code = tier1(tree, limit)
            if code in (1, None) or code < 0:  # a failed test, a run that did not end, a crash
                killed += 1
            elif code == 0:
                survivors.append(f"SURVIVED  {module}:{row}: {new_line}")
                print(survivors[-1], flush=True)
            else:
                print(f"ERROR: pytest exit code {code} for {module}:{row}: {new_line}")
                return 1
    print(f"mutation score ({module}, every {every}): {killed}/{len(mutants)} killed")
    return 0 if not survivors else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--generate", metavar="MODULE",
                        help="generate the operator mutants of MODULE and run tier-1 against each")
    parser.add_argument("--every", type=int, default=1, metavar="K",
                        help="with --generate, try every K-th mutant (default: 1)")
    args = parser.parse_args(argv)
    if args.generate is None:
        return table_gate(args.names, parser)
    if args.names or args.every < 1:
        parser.error("--generate takes no mutant names, and K must be at least 1")
    return generated_gate(args.generate, args.every)


if __name__ == "__main__":
    sys.exit(main())
