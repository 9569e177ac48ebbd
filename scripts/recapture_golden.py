#!/usr/bin/env python3
"""Recapture golden reports and print every value that changed.

    python3 scripts/recapture_golden.py NAME [NAME ...] [--checks CHECK ...] [--dry-run]

A NAME is a bundled scenario, whose golden `tests/golden/NAME.json` is its
report without detail, or `details-CONFIG`, whose golden holds the raw
per-point records of `DETAIL_CONFIGS[CONFIG]` in tests/test_golden.py.
With --checks, only the entries of those checks are replaced; every other
entry keeps its golden value.  Prints one line per changed leaf (its path,
the old and the new value) and per added or removed key, then writes the
file in the layout the tests read, unless --dry-run.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import GOLDEN, bundled_path, detail_records  # noqa: E402

from curvlab.scenario import load_config_file, run_scenario  # noqa: E402


def changes(old, new, path):
    """Lines naming each leaf of `old` and `new` that differs, with both values."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = [f"{path}.{key}: removed" for key in old if key not in new]
        out += [f"{path}.{key}: added {json.dumps(new[key])}" for key in new if key not in old]
        for key in old:
            if key in new:
                out += changes(old[key], new[key], f"{path}.{key}")
        return out
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (a, b) in enumerate(zip(old, new)) for line in changes(a, b, f"{path}[{i}]")]
    same = old == new and type(old) is type(new)
    return [] if same else [f"{path}: {json.dumps(old)} -> {json.dumps(new)}"]


def captured(name: str):
    """The golden data of `name`, computed by this checkout."""
    if name.startswith("details-"):
        return detail_records(name[len("details-"):])
    return json.loads(json.dumps(run_scenario(load_config_file(bundled_path(name))).to_dict()))


def golden_text(name: str, data) -> str:
    """`data` laid out as the golden file of `name` holds it."""
    if name.startswith("details-"):
        return json.dumps(data, separators=(",", ":")) + "\n"
    return json.dumps(data, indent=2)


def keep_other_checks(old, new, name: str, checks):
    """`new`, with the golden entries of every check outside `checks` put back."""
    if name.startswith("details-"):  # a list of [check name, records]
        return [entry if entry[0] in checks else was for was, entry in zip(old, new)]
    new["checks"] = [entry if entry["name"] in checks else was
                     for was, entry in zip(old["checks"], new["checks"])]
    return new


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="+")
    parser.add_argument("--checks", nargs="+", help="replace only these checks' entries")
    parser.add_argument("--dry-run", action="store_true", help="print the changes, write nothing")
    args = parser.parse_args(argv)
    for name in args.names:
        path = GOLDEN / f"{name}.json"
        old = json.loads(path.read_text())
        new = captured(name)
        if args.checks:
            new = keep_other_checks(old, new, name, set(args.checks))
        lines = changes(old, new, name)
        print(f"{name}: {len(lines)} changed")
        for line in lines:
            print(f"  {line}")
        if lines and not args.dry_run:
            path.write_text(golden_text(name, new))
    return 0


if __name__ == "__main__":
    sys.exit(main())
