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
EXPRESSIONS_PY = "src/curvlab/expressions.py"
GEOMETRY_PY = "src/curvlab/geometry.py"
SWEEP_SHARED = "tests/test_scenario.py::TestSweepSharedWork::"
SWEEP_EQUALS = f"{SWEEP_SHARED}test_each_report_equals_a_stand_alone_run"
WRITER = "tests/test_scenario.py::TestDetailWriter::"
GROWTH = "tests/test_checks.py::TestGrowth::"
BALL_RULE = "tests/test_checks.py::TestBallRule::"
CROSS = "tests/test_checks.py::TestCrossValidation::"
CHART = ("tests/test_geometry.py::TestChartInvariance::"
         "test_normB2_and_its_laplacian_do_not_depend_on_the_chart")
FORMED_ONCE = "tests/test_geometry.py::TestFormedOnce::"

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
    Mutant("fields reads the u_i^2 coefficient as d_i^2 F", CHECKS_PY,
           "coefficient(i, j) * (2.0 if i == j else 1.0)", "coefficient(i, j)",
           (f"{CROSS}test_closed_form_algebra_matches_jet_pipeline[components0-2]",)),
    Mutant("fields drops the tangential part of F_q", CHECKS_PY,
           "B = F2 - _dot(dF.swapaxes(0, 1)[:, :, None], d[:, None])", "B = F2",
           (f"{CROSS}test_closed_form_algebra_matches_jet_pipeline[components0-2]",)),
    Mutant("growth volume drops v", CHECKS_PY,
           'return [float(np.sum(level[b]["w"] * level[b]["v"])) for b in balls]',
           'return [float(np.sum(level[b]["w"])) for b in balls]',
           (f"{GROWTH}test_curved_graph_volumes_match_closed_form",)),
    Mutant("the polar Jacobian t dropped", CHECKS_PY,
           "* dir_w[:, None] * (w * t ** (n - 1))", "* dir_w[:, None] * w",
           (f"{GROWTH}test_curved_graph_volumes_match_closed_form",)),
    Mutant("rho from the last outside sample", CHECKS_PY,
           "rho[ray[done]] = lo[done]", "rho[ray[done]] = hi[done]",
           (f"{BALL_RULE}test_boundary_is_found_to_a_few_ulps",)),
    Mutant("the secant point taken from the wrong end's value", CHECKS_PY,
           "g[1] * log_ratio / (g[1] - g[0])", "g[0] * log_ratio / (g[1] - g[0])",
           (f"{BALL_RULE}test_boundary_is_found_to_a_few_ulps",)),
    Mutant("the safeguard that keeps the iterate strictly inside the bracket dropped", CHECKS_PY,
           "x = np.minimum(np.maximum(x, lo + tau), hi - tau)", "x = x",
           (f"{BALL_RULE}test_each_step_samples_within_its_bracket[x^4]",)),
    Mutant("the Illinois halving dropped", CHECKS_PY,
           "halved = state[4:6] * np.where(first == kept, 0.5, 1.0)", "halved = state[4:6]",
           (f"{BALL_RULE}test_dist2_calls_per_search[z2-0.5]",)),
    Mutant("dist2 = R^2 at lo ends the secant at lo", CHECKS_PY,
           "g[0] = np.minimum(g[0], -eps / 2.0)", "g[0] = g[0]",
           (f"{BALL_RULE}test_rho_is_the_inner_end_of_a_closed_bracket[plateau-atan]",)),
    Mutant("level N0/2 takes the odd rays of N0", CHECKS_PY,
           "cols = [slice(0, None, sizes[-1] // N) for N in sizes]",
           "cols = [slice(int(N < sizes[-1]), None, sizes[-1] // N) for N in sizes]",
           (f"{BALL_RULE}test_each_level_equals_its_own_search_and_evaluation[cubic-probe]",)),
    Mutant("a pair's node arrays are split at the other level's offset", CHECKS_PY,
           "fields[b][key] = np.split(row, ends[:-1])",
           "fields[b][key] = np.split(row, ends[-1] - ends[:-1])",
           (f"{BALL_RULE}test_each_level_equals_its_own_search_and_evaluation[z2-growth]",)),
    Mutant("the probe's order-2 ball is Omega_R instead of Omega_R0", CHECKS_PY,
           "normB2_radii={params.R0}", "normB2_radii={params.R}",
           (f"{GROWTH}test_growth_asks_for_first_order_jets_only",)),
    Mutant("the error estimate taken as Q_N - Q_N", CHECKS_PY,
           "errors = [abs(q - p) for q, p in zip(values, previous)]",
           "errors = [abs(q - q) for q, p in zip(values, previous)]",
           (f"{GROWTH}test_steep_graph_does_not_converge",)),
    Mutant("probe balls memo key drops R", CHECKS_PY,
           '_once(balls, "probe balls", params.R, params.R0, params.cells)',
           '_once(balls, "probe balls", params.R0, params.cells)',
           (f"{SWEEP_EQUALS}[probe.R]",)),
    Mutant("probe balls memo key drops R0", CHECKS_PY,
           '_once(balls, "probe balls", params.R, params.R0, params.cells)',
           '_once(balls, "probe balls", params.R, params.cells)',
           (f"{SWEEP_EQUALS}[probe.R0]",)),
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
           ("tests/test_golden.py::test_detail_columns_match_golden[rank3-quadric]",)),
    Mutant("the aligned rule reads the alignment pack", CHECKS_PY,
           '"aligned": lambda b: np.where(b.alignment.value <= 0.0,',
           '"aligned": lambda b: np.where(b.apack.value <= 0.0,',
           ("tests/test_checks.py::TestProbe::"
            "test_hypotheses_build_no_canonical_frame_or_alignment_pack",)),
    Mutant("probe samples no alignment", CHECKS_PY,
           'names = ("minimal", "rank") + (("aligned",) if reference_frame is not None else ())',
           'names = ("minimal", "rank")',
           ("tests/test_scenario.py::TestRunScenario::test_probe_hypothesis_reasons[aligned]",)),
    Mutant("3x3 cofactor adds its second product", GEOMETRY_PY,
           "- a[(i + 1) % 3][(j + 2) % 3] * a[(i + 2) % 3][(j + 1) % 3]",
           "+ a[(i + 1) % 3][(j + 2) % 3] * a[(i + 2) % 3][(j + 1) % 3]",
           ("tests/test_golden.py::test_detail_columns_match_golden[rank3-quadric]",
            f"{GROWTH}test_affine_3d_ball_volume",
            f"{CROSS}test_closed_form_algebra_matches_jet_pipeline[components1-3]")),
    Mutant("kato asserts zeta in a chart that is not isothermal", CHECKS_PY,
           "asserted = equality & has_zeta & isothermal", "asserted = equality & has_zeta",
           ("tests/test_checks.py::TestKato::"
            "test_zeta_is_not_asserted_in_a_chart_that_is_not_isothermal",)),
    Mutant("growth accepts equal radii", CHECKS_PY,
           "all(r2 > r1 for r1, r2 in zip(value, value[1:]))",
           "all(r2 >= r1 for r1, r2 in zip(value, value[1:]))",
           (f"{GROWTH}test_options_outside_their_rule[equal]",)),
    Mutant("a worst residual equal to the tolerance fails", CHECKS_PY,
           "ok = not n_nonfinite and worst <= tol and extra_ok",
           "ok = not n_nonfinite and worst < tol and extra_ok",
           ("tests/test_checks.py::TestAggregation::"
            "test_a_worst_residual_equal_to_the_tolerance_passes",)),
    Mutant("the rank rule admits Gauss-map rank 3", CHECKS_PY,
           "if r > 2 else None", "if r > 3 else None",
           ("tests/test_checks.py::TestSkipOrder::test_mean_curvature_before_gauss_rank[kato]",
            "tests/test_golden.py::test_detail_columns_match_golden[rank3-quadric]")),
    Mutant("the canonical frame turns by +theta / 2", GEOMETRY_PY,
           "alpha = -theta / 2.0", "alpha = theta / 2.0",
           ("tests/test_geometry.py::TestCanonicalFrame::"
            "test_the_frames_give_the_normal_form_on_a_block[sheared-catenoid]",)),
    Mutant("growth accepts a radius that is not finite", CHECKS_PY,
           "if not all(math.isfinite(r) for r in value):", "if False:",
           (f"{GROWTH}test_options_outside_their_rule[infinite-radius]",)),
    Mutant("canonical frame keeps det U = -1", GEOMETRY_PY,
           "U[np.linalg.det(U) < 0, :, 2] *= -1.0", "pass",
           ("tests/test_geometry.py::TestAlignmentPack::"
            "test_cylinder_canonical_frame_keeps_orientation",)),
    Mutant("tangential part of B not raised by g^-1", GEOMETRY_PY,
           'd = jet_einsum("plk,pkq->plq", ginv_jets, c, work)', "d = c",
           ("tests/test_geometry.py::TestPointGeometry::test_z2_closed_forms_on_grid",)),
    Mutant("|B|^2 contracts g^-1 B untransposed", GEOMETRY_PY,
           '"pkjA,pjkA->p"', '"pkjA,pkjA->p"',
           (f"{CHART}[z3]", f"{CHART}[cylinder-cubic]", f"{CHART}[z2-z3]")),
    Mutant("a conformal tie is decided by rounding", GEOMETRY_PY,
           "TIE_ULPS = 8", "TIE_ULPS = 0",
           ("tests/test_geometry.py::TestCanonicalFrame::"
            "test_a_conformal_tie_is_not_decided_by_rounding",)),
    Mutant("gauss-conformal drops its minimal hypothesis", CHECKS_PY,
           '_eval_gauss_conformal, hypotheses=("minimal",), aggregate=',
           "_eval_gauss_conformal, aggregate=",
           ("tests/test_checks.py::TestSkipOrder::test_gauss_conformal_skips_non_minimal_points",
            "tests/test_golden.py::test_detail_columns_match_golden[partial-failures]")),
    Mutant("a sharing key that ignores the sign of zero", EXPRESSIONS_PY,
           'struct.pack("<d", node.value)', "node.value",
           ("tests/test_expressions.py::TestSharing::"
            "test_the_sign_of_zero_and_the_bits_of_nan_keep_constants_apart",)),
    Mutant("a symmetric cofactor mirrored from the wrong entry", GEOMETRY_PY,
           "cof[j][i] if j < i", "cof[j][j] if j < i",
           (f"{FORMED_ONCE}test_symmetric_and_row_zero_cofactors_are_bitwise_the_full_ones[3]",)),
    Mutant("an h3 chain that contracts T untransposed", GEOMETRY_PY,
           'ordered_einsum("pkc,pmcij->pmijk", T, h3)', 'ordered_einsum("pck,pmcij->pmijk", T, h3)',
           (f"{FORMED_ONCE}test_frame_changes_one_index_at_a_time[sheared-cylinder-cubic]",)),
    Mutant("refined-simons drops its rank hypothesis", CHECKS_PY,
           'hypotheses=("minimal", "rank", "curved", "normB2")',
           'hypotheses=("minimal", "curved", "normB2")',
           ("tests/test_checks.py::TestRefinedSimons::test_a_minimal_germ_of_gauss_rank_3_is_skipped",
            "tests/test_golden.py::test_detail_columns_match_golden[rank3-quadric]")),
]
