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
    Mutant("absent written as an omitted key instead of null", CHECKS_PY,
           "out[np.equal(out, _ABSENT)] = absent", "out = out[np.not_equal(out, _ABSENT)]",
           (f"{WRITER}test_hand_built_columns",)),
    Mutant("residual written over the evaluated points only", CHECKS_PY,
           '"residual": spread(self.residual)', '"residual": self.residual.tolist()',
           (f"{WRITER}test_hand_built_columns",)),
    Mutant("points written per check instead of once per report", "src/curvlab/scenario.py",
           'entry["details"] = {} if res.columns is None else res.columns.lists()',
           'entry["details"] = {} if res.columns is None else {"points": res.columns.points, '
           "**res.columns.lists()}",
           (f"{WRITER}test_report_file_holds_the_columns[z2-full]",)),
    Mutant("contraction sums start from zero", "src/curvlab/jets.py",
           "total = _product(next(terms))", "total = 0.0 + _product(next(terms))",
           ("tests/test_jets.py::TestContraction::"
            "test_sums_of_special_values_are_bitwise_the_einsum_layout[pij,pijA->pA-7-C-one-by-one]",)),
    Mutant("integer power starts from the constant one", "src/curvlab/jets.py",
           "result = base if result is None else jet_product(result, base)",
           "result = jet_product(jet_constant(1.0, self.dim, self.order) if result is None"
           " else result, base)",
           ("tests/test_jets.py::TestJetMethods::test_integer_power_is_repeated_products[1]",)),
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
    Mutant("kato asserts zeta in a chart that is not isothermal", CHECKS_PY,
           "asserted = equality & has_zeta & cp.isothermal", "asserted = equality & has_zeta",
           ("tests/test_checks.py::TestKato::"
            "test_zeta_is_not_asserted_in_a_chart_that_is_not_isothermal",)),
    Mutant("growth accepts equal radii", CHECKS_PY,
           "all(r2 > r1 for r1, r2 in zip(value, value[1:]))",
           "all(r2 >= r1 for r1, r2 in zip(value, value[1:]))",
           ("tests/test_checks.py::TestGrowth::test_options_outside_their_rule[equal]",)),
    Mutant("a worst residual equal to the tolerance fails", CHECKS_PY,
           "ok = not n_nonfinite and worst <= tol and extra_ok",
           "ok = not n_nonfinite and worst < tol and extra_ok",
           ("tests/test_checks.py::TestAggregation::"
            "test_a_worst_residual_equal_to_the_tolerance_passes",)),
    Mutant("canonical frame keeps det U = -1", GEOMETRY_PY,
           "U[np.linalg.det(U) < 0, :, 2] *= -1.0", "pass",
           ("tests/test_geometry.py::TestAlignmentPack::"
            "test_cylinder_canonical_frame_keeps_orientation",)),
]
