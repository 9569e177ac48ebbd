"""Mutants the tests must kill, one row each; `scripts/mutants.py` applies them one at a time.

A row is (name, file under the repository root, the exact text it replaces,
which must occur once, the replacement, the test ids of which at least one
must fail).  A row leaves the table only together with the code it mutates.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


CHECKS_PY = "src/curvlab/checks.py"
GEOMETRY_PY = "src/curvlab/geometry.py"
SWEEP_SHARED = "tests/test_scenario.py::TestSweepSharedWork::"
SWEEP_EQUALS = f"{SWEEP_SHARED}test_each_report_equals_a_stand_alone_run"
WRITER = "tests/test_scenario.py::TestDetailWriter::"

MUTANTS = [
    Mutant("kato skips no non-minimal point", CHECKS_PY,
           '_eval_kato, hypotheses=("minimal", "rank", "curved")',
           '_eval_kato, hypotheses=("rank", "curved")',
           ("tests/test_checks.py::TestSkipOrder::test_mean_curvature_before_gauss_rank[kato]",)),
    Mutant("log-alignment takes the log of a non-positive alignment", CHECKS_PY,
           '("minimal", "aligned", "log-alignment")', '("minimal", "log-alignment")',
           ("tests/test_checks.py::TestSkipOrder::test_alignment_before_its_logarithm",)),
    Mutant("log-alignment tests the alignment before minimality", CHECKS_PY,
           '("minimal", "aligned", "log-alignment")', '("aligned", "minimal", "log-alignment")',
           ("tests/test_checks.py::TestSkipOrder::test_mean_curvature_before_alignment",)),
    Mutant("quadrature depth bound doubled", CHECKS_PY,
           "if _depth(tree) > MAX_DEPTH:", "if _depth(tree) > 2 * MAX_DEPTH:",
           ("tests/test_checks.py::TestGrowth::"
            "test_derivative_trees_deeper_than_the_bound_are_refused",)),
    Mutant("growth volume drops v", CHECKS_PY,
           'volumes.append(float(np.sum(ball["v"]) * weight))',
           'volumes.append(float(ball["v"].size * weight))',
           ("tests/test_checks.py::TestGrowth::test_curved_graph_volumes_match_closed_form",)),
    Mutant("probe box memo key drops R", CHECKS_PY,
           '_once(box, "probe box", params.R, params.cells)',
           '_once(box, "probe box", params.cells)',
           (f"{SWEEP_EQUALS}[probe.R]",)),
    Mutant("probe origin memo key drops the frame", CHECKS_PY,
           '_once(hypotheses, "probe origin", reference_frame)',
           '_once(hypotheses, "probe origin")',
           (f"{SWEEP_EQUALS}[reference_frame]",)),
    Mutant("grid memo key drops the frame", "src/curvlab/scenario.py",
           '"grid", config.raw.get("grid"), frame,', '"grid", config.raw.get("grid"),',
           (f"{SWEEP_EQUALS}[reference_frame]",)),
    Mutant("sweep memo outlives the sweep", "src/curvlab/scenario.py",
           "memo = {}  # slot", 'memo = sweep.__dict__.setdefault("memo", {})  # slot',
           (f"{SWEEP_SHARED}test_probe_cells_are_evaluated_once",)),
    Mutant("detail writer formats numbers with repr", CHECKS_PY,
           'return json.dumps(values)[1:-1].split(", ")',
           "return [repr(v) for v in values]",
           ("tests/test_scenario.py::TestDetailWriter::test_hand_built_columns",)),
    Mutant("detail writer splits string columns on ', '", CHECKS_PY,
           "_SCALARS = {int, bool, type(None)}",
           "_SCALARS = {int, bool, type(None), str}",
           ("tests/test_scenario.py::TestDetailWriter::test_hand_built_columns",)),
    Mutant("detail writer keys its float table by value", CHECKS_PY,
           "keys = values.view(np.uint64).tolist()", "keys = values.tolist()",
           (f"{WRITER}test_lines_are_json_dumps_of_each_record",)),
    Mutant("contraction sums start from zero", "src/curvlab/jets.py",
           "total = _product(next(terms))", "total = 0.0 + _product(next(terms))",
           ("tests/test_jets.py::TestContraction::"
            "test_sums_of_special_values_are_bitwise_the_einsum_layout[pij,pijA->pA-7-C-one-by-one]",)),
    Mutant("block_size divides by the widest tensor jet again", CHECKS_PY,
           "point_bytes = 8 * 8 * (imm.n + imm.m)", "point_bytes = (imm.n + imm.m)",
           ("tests/test_checks.py::TestBlocks::"
            "test_a_default_block_of_geometry_peaks_within_the_budget[n3-m2]",)),
    Mutant("alignment-identities asserts the Laplacian at rank 3", CHECKS_PY,
           'note = block.skips(("minimal", "rank")).skip', 'note = block.skips(("minimal",)).skip',
           ("tests/test_golden.py::test_detail_records_match_golden[rank3-quadric]",)),
    Mutant("probe samples no alignment", CHECKS_PY,
           'names = ("minimal", "rank") + (("aligned",) if reference_frame is not None else ())',
           'names = ("minimal", "rank")',
           ("tests/test_scenario.py::TestRunScenario::test_probe_hypothesis_reasons[aligned]",)),
    Mutant("3x3 cofactor adds its second product", GEOMETRY_PY,
           "- a[(i + 1) % 3][(j + 2) % 3] * a[(i + 2) % 3][(j + 1) % 3]",
           "+ a[(i + 1) % 3][(j + 2) % 3] * a[(i + 2) % 3][(j + 1) % 3]",
           ("tests/test_golden.py::test_detail_records_match_golden[rank3-quadric]",
            "tests/test_checks.py::TestGrowth::test_affine_3d_ball_volume",
            "tests/test_checks.py::TestCrossValidation::"
            "test_closed_form_algebra_matches_jet_pipeline[components1-3]")),
    Mutant("expression evaluation forgets shared subtrees", "src/curvlab/expressions.py",
           "memo[key] = value", "pass",
           ("tests/test_expressions.py::TestEvaluation::test_shared_subtrees_are_evaluated_once",)),
    Mutant("canonical frame keeps det U = -1", GEOMETRY_PY,
           "U[np.linalg.det(U) < 0, :, 2] *= -1.0", "pass",
           ("tests/test_geometry.py::TestAlignmentPack::"
            "test_cylinder_canonical_frame_keeps_orientation",)),
]
