"""The benchmark traces curvlab by rebinding names it imports from module dicts.

perfbench/tracing.py wraps, for example, `curvlab.checks.point_geometry_at`
through `owner.__dict__[attr]`; a renamed or dropped import makes
`perfbench/run.py --trace 1` fail with a KeyError.  This keeps every traced
name resolvable, and the cell counter's wrapped method callable as it calls it.
"""

import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    targets = [(path, attr) for path, attr, _ in tracing.SPANS]
    targets += [(path, "evaluate_expression") for path in tracing.EXPRESSION_CALLERS]
    targets.append(tracing.CELL_COUNTER)
    missing = [f"{path}.{attr}" for path, attr in targets
               if attr not in tracing._resolve(path).__dict__]
    assert not missing, f"names perfbench traces are gone: {missing}"


def test_cell_counter_signature():
    # the counter is called as (self_, axes, *args) and counts axes[0].size cells
    tracing = load_tracing()
    path, attr = tracing.CELL_COUNTER
    params = list(inspect.signature(tracing._resolve(path).__dict__[attr]).parameters)
    assert params[:2] == ["self", "axes"], f"{path}.{attr} takes {params}"
