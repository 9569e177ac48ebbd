import math
import pickle
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from curvlab import checks as C
from curvlab.expressions import BinOp, Const, Var
from curvlab.geometry import canonical_frame_at, gauss_rank_at, gauss_svd, point_geometry_at
from curvlab.immersions import (
    GridSpec,
    Immersion,
    _parametric,
    build_graph_immersion,
    catalogue_lookup,
)
from curvlab.scenario import CheckSpec, run_checks

import oracles
from oracles import (
    at_point,
    column,
    gauss_singular_values,
    holomorphic_ball_volume,
    rel_err,
    substitute,
    sympy_graph_fields,
    value_at,
)


@pytest.fixture(scope="module")
def z2():
    return catalogue_lookup("holo-curve", {"coeffs": [0, 0, 1]})


@pytest.fixture(scope="module")
def catenoid():
    return catalogue_lookup("catenoid", {})


@pytest.fixture(scope="module")
def cylinder():
    return catalogue_lookup("cylinder-over", {"base": "helicoid"})


@pytest.fixture(scope="module")
def affine():
    return catalogue_lookup("affine", {})


GRID5 = GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (5, 5))
GRID7 = GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (7, 7))
GRID3D = GridSpec(((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), (3, 3, 3))
COORD_PLANE = np.eye(2, 4)
CATENOID_PLANE = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
CYLINDER_PLANE = np.array(
    [[1.0, 0, 0, 0, 0], [0, 0, 1.0, 0, 0], [0, 0, 0, 0, 1.0]]
)


def run(name, imm, grid, frame=None, tol=None, **options):
    [res] = run_checks(imm, grid, [CheckSpec(name, tol, options)], frame)
    return res


class TestMinimality:
    def test_catenoid_minimal(self, catenoid):
        res = run("minimality", catenoid, GridSpec(((-1, 1), (-1, 1)), (11, 11)))
        assert res.verdict == "pass"
        assert res.worst_residual <= 1e-10

    def test_paraboloid_fails_with_residual_four(self):
        imm = build_graph_immersion(["x^2 + y^2", "0"], 2)
        res = run("minimality", imm, GRID5)
        assert res.verdict == "fail"
        assert res.worst_residual >= 2.0
        assert rel_err(value_at(res, (0.0, 0.0)), 4.0) <= 1e-10

    def test_affine_residual_zero(self, affine):
        res = run("minimality", affine, GRID5)
        assert res.verdict == "pass"
        assert res.worst_residual == 0.0


class TestMinimalSystem:
    def test_z3_solves_system(self):
        imm = build_graph_immersion(["x^3 - 3*x*y^2", "3*x^2*y - y^3"], 2)
        res = run("minimal-system", imm, GRID7)
        assert res.verdict == "pass"
        assert res.worst_residual <= 1e-9

    def test_paraboloid_residual_vector(self):
        imm = build_graph_immersion(["x^2 + y^2", "0"], 2)
        res = run("minimal-system", imm, GRID5)
        assert rel_err(value_at(res, (0.0, 0.0)), 4.0) <= 1e-12

    def test_affine_zero(self, affine):
        res = run("minimal-system", affine, GRID5)
        assert res.worst_residual == 0.0


class TestPluecker:
    def test_catalogue_surfaces(self, z2, catenoid, cylinder):
        for imm, frame in [(z2, COORD_PLANE), (catenoid, CATENOID_PLANE), (cylinder, CYLINDER_PLANE)]:
            grid = GRID5 if imm.n == 2 else GRID3D
            res = run("pluecker", imm, grid, frame)
            assert res.verdict == "pass"
            assert res.worst_residual <= 1e-12


class TestAlignmentIdentities:
    def test_z2(self, z2):
        res = run("alignment-identities", z2, GRID7, COORD_PLANE)
        assert res.verdict == "pass" and res.worst_residual <= 1e-6

    def test_affine_exact(self, affine):
        pg = at_point(point_geometry_at, affine, (0.0, 0.0))
        res = run("alignment-identities", affine, GRID5, pg.tangent_frame)
        assert res.worst_residual <= 1e-12

    def test_cylinder_n3_path(self, cylinder):
        res = run("alignment-identities", cylinder, GRID3D, CYLINDER_PLANE)
        assert res.verdict == "pass"


class TestLogAlignment:
    def test_z2_equality(self, z2):
        res = run("log-alignment", z2, GRID7, COORD_PLANE)
        assert res.verdict == "pass"
        assert res.worst_residual <= 1e-5  # equality residual for 2d graphs

    def test_catenoid_inequality(self, catenoid):
        res = run("log-alignment", catenoid, GRID7, CATENOID_PLANE)
        assert res.verdict == "pass"
        # strict slack away from the symmetry point: the residual is the signed violation
        assert min(column(res, "residual")) < -1e-3
        assert column(res, "equality_residual") == [abs(r) for r in column(res, "residual")]

    def test_affine_zero_plus_zero(self, affine):
        pg = at_point(point_geometry_at, affine, (0.0, 0.0))
        res = run("log-alignment", affine, GRID5, pg.tangent_frame)
        assert res.worst_residual <= 1e-12


class TestSimons:
    def test_z2_ratio_everywhere(self, z2):
        res = run("simons", z2, GRID7)
        assert res.verdict == "pass"
        for ratio in column(res, "ratio"):
            assert abs(ratio - 1.5) <= 1e-6
        assert res.extras["worst_identity_residual"] <= 1e-10

    def test_catenoid_ratio_one(self, catenoid):
        res = run("simons", catenoid, GRID7)
        assert res.verdict == "pass"
        for ratio, tilde, inner in zip(*(column(res, key) for key in
                                         ("ratio", "tilde_term", "inner_formula"))):
            assert abs(ratio - 1.0) <= 1e-6
            # codimension-one terms: tilde = 4 mu1^4, under = 0
            assert rel_err(tilde, -inner) <= 1e-8

    def test_affine_not_applicable_ratio(self, affine):
        res = run("simons", affine, GRID5)
        assert res.verdict == "pass"
        assert all(ratio is None for ratio in column(res, "ratio"))

    def test_inner_term_two_routes(self, z2, catenoid, cylinder):
        for imm, grid in [(z2, GRID5), (catenoid, GRID5), (cylinder, GRID3D)]:
            res = run("simons", imm, grid)
            for numeric, formula in zip(column(res, "inner_numeric"), column(res, "inner_formula")):
                if formula is None:
                    continue
                assert abs(numeric - formula) / (1.0 + abs(numeric)) <= 1e-4


class TestKato:
    def test_catenoid_equality_everywhere(self, catenoid):
        res = run("kato", catenoid, GRID7)
        assert res.verdict == "pass"
        assert max(abs(gap) for gap in column(res, "gap")) <= 1e-5

    def test_z2_equality_with_zeta(self, z2):
        res = run("kato", z2, GRID7)
        assert res.verdict == "pass" and res.extras["equality_not_isothermal"] == 0
        assert max(abs(gap) for gap in column(res, "gap")) <= 1e-5
        assert set(column(res, "zeta_asserted")) == {True}
        assert None not in column(res, "zeta_re") + column(res, "zeta_im")
        assert max(column(res, "zeta_residual")) <= 1e-6

    def test_affine_not_applicable(self, affine):
        res = run("kato", affine, GRID5)
        assert res.verdict == "not-applicable"

    def test_zeta_is_not_asserted_in_a_chart_that_is_not_isothermal(self):
        # z^3 composed with u -> Au + b: minimal, and an equality point everywhere, but
        # the sheared chart is not isothermal, where the zeta identity does not hold
        x, y = "(1.3*u1 + 0.4*u2 + 0.1)", "(-0.2*u1 + 0.9*u2 - 0.05)"
        imm = _parametric([x, y, f"{x}^3 - 3*{x}*{y}^2", f"3*{x}^2*{y} - {y}^3"], 2, "sheared-z3")
        grid = GridSpec(((-0.5, 0.5), (-0.5, 0.5)), (9, 9))
        minimality, kato = run_checks(imm, grid, [CheckSpec("minimality"), CheckSpec("kato")],
                                      COORD_PLANE)
        assert minimality.verdict == "pass" and minimality.worst_residual <= 1e-14
        assert (kato.verdict, kato.n_skipped) == ("pass", 0)
        assert kato.worst_residual <= kato.extras["worst_gap"] <= 1e-11  # -gap, not zeta
        assert kato.extras["equality_points"] == kato.extras["equality_not_isothermal"] == 81
        assert kato.extras["worst_zeta_residual_at_equality"] is None
        assert set(column(kato, "zeta_asserted")) == {False}
        assert max(column(kato, "zeta_residual")) > 1.0

    def test_state_is_only_the_tolerance(self, z2):
        # kato has no options: an unread zeta_tol must not reach the state
        assert C.make_check_state("kato", z2, None, {"zeta_tol": 1e-3}, 1e-6) == {"tol": 1e-6}


class TestRefinedSimons:
    def test_catalogue(self, z2, catenoid, cylinder):
        for imm, grid in [(z2, GRID7), (catenoid, GRID7), (cylinder, GRID3D)]:
            res = run("refined-simons", imm, grid)
            assert res.verdict == "pass"

    def test_z2_is_equality(self, z2):
        res = run("refined-simons", z2, GRID5)
        assert max(abs(margin) for margin in column(res, "margin")) <= 1e-9

    def test_a_minimal_germ_of_gauss_rank_3_is_skipped(self):
        # this n = 3, m = 1 graph solves the minimal-surface system to order 2 at the
        # origin, where its Gauss map has rank 3: Delta|B|^2 >= 4|grad|B||^2 - 3|B|^4 rests
        # on Kato's constant 2, which needs rank <= 2, and kato skips the point too
        imm = build_graph_immersion(["x^2/2+y^2/2-z^2+(x^4+y^4-8*z^4)/12"], 3)
        minimality, kato, refined = run_checks(
            imm, None, [CheckSpec(name) for name in ("minimality", "kato", "refined-simons")],
            points=[(0.0, 0.0, 0.0)])
        assert (minimality.verdict, minimality.worst_residual) == ("pass", 0.0)
        reason = "Gauss-map rank 3 > 2 at (0.0, 0.0, 0.0) (singular values [2. 1. 1.])"
        for res in (kato, refined):
            assert (res.verdict, res.n_skipped) == ("not-applicable", 1)
            assert res.columns.lists()["reason"] == [reason]


class TestGaussConformal:
    def test_z2_unanimous(self, z2):
        res = run("gauss-conformal", z2, GRID7)
        assert res.verdict == "pass"
        assert res.extras["all_conformal"]
        assert res.extras["omega_max"] <= 1e-10
        assert res.n_skipped == 0
        for key in ("criterion_mu", "criterion_bww", "criterion_omega"):
            assert set(column(res, key)) == {True}

    def test_catenoid_false_everywhere(self, catenoid):
        res = run("gauss-conformal", catenoid, GRID7)
        assert res.verdict == "pass"
        assert res.extras["conformal_points"] == 0
        assert rel_err(res.extras["omega_max"], 0.25) <= 1e-8

    def test_affine_true_by_convention(self, affine):
        res = run("gauss-conformal", affine, GRID5)
        assert res.extras["all_conformal"]

    def test_simons_equality_couples_to_conformality(self, z2, catenoid):
        for imm, conformal in [(z2, True), (catenoid, False)]:
            ratios = column(run("simons", imm, GRID5), "ratio")
            cres = run("gauss-conformal", imm, GRID5)
            simons_eq = all(abs(ratio - 1.5) <= 1e-4 for ratio in ratios)
            assert simons_eq == conformal == cres.extras["all_conformal"]


class TestJacobian:
    def test_z2_values(self, z2):
        res = run("jacobian", z2, GRID5)
        assert res.verdict == "pass"
        for key, want in (("sigma1", 2.0), ("sigma2", 2.0), ("minor_sum", 16.0),
                          ("volume_factor", 5.0)):
            assert rel_err(value_at(res, (1.0, 0.0), key), want) <= 1e-12

    def test_affine_zero_graph(self):
        imm = build_graph_immersion(["0"], 2)
        res = run("jacobian", imm, GRID5)
        first = res.columns.points[0]
        assert value_at(res, first, "sigma1") == 0.0 and value_at(res, first, "volume_factor") == 1.0

    def test_independent_svd_oracle(self):
        imm = build_graph_immersion(["x^3", "y"], 2)
        res = run("jacobian", imm, GridSpec(((0.5, 1.5), (0.5, 1.5)), (3, 3)))
        assert res.verdict == "pass"
        assert res.worst_residual <= 1e-10
        # Df = [[3, 0], [0, 1]]: singular values 3, 1 by inspection
        assert rel_err(value_at(res, (1.0, 1.0), "sigma1"), 3.0) <= 1e-12
        assert rel_err(value_at(res, (1.0, 1.0), "sigma2"), 1.0) <= 1e-12


class TestIsothermal:
    def test_z2_already_conformal(self, z2):
        res = run("isothermal", z2, GRID5, a=0.0, b=1.0)
        assert res.verdict == "pass"
        assert res.worst_residual <= 1e-12

    def test_affine_shear_from_constant_metric(self):
        # f = (x + y, 0): g = [[2, 1], [1, 2]]; solving g = lam^2 J^T J gives
        # a = 1/sqrt(3), b = 2/sqrt(3) with lam^2 = 3/2
        imm = build_graph_immersion(["x + y", "0"], 2)
        a, b = 1.0 / math.sqrt(3.0), 2.0 / math.sqrt(3.0)
        res = run("isothermal", imm, GRID5, a=a, b=b)
        assert res.verdict == "pass"
        assert res.worst_residual <= 1e-12
        first = res.columns.points[0]
        assert rel_err(value_at(res, first, "conformal_factor"), 1.5) <= 1e-12
        assert value_at(res, first, "decomposition_residual") <= 1e-12

    def test_z2_bad_shear_fails(self, z2):
        res = run("isothermal", z2, GRID5, a=1.0, b=1.0)
        assert res.verdict == "fail"
        assert res.worst_residual > 0.1

    def test_b_must_be_positive(self, z2):
        with pytest.raises(C.CheckConfigError, match="b > 0"):
            run("isothermal", z2, GRID5, a=0.0, b=-1.0)

    # w = z^2, the generic cubic of test_golden.py, and a graph whose metric has
    # g01 != 0 (holomorphic curves are conformal, so g01 = 0 hides the sign of a)
    @pytest.mark.parametrize("surface", [
        lambda: catalogue_lookup("holo-curve", {"coeffs": [0, 0, 1]}),
        lambda: catalogue_lookup("holo-curve", {"coeffs": [[0.3, 0.1], [0.7, -0.2], [1.4, 0.5],
                                                           [0.2, 0.1]]}),
        lambda: build_graph_immersion(["x^2 - y^3", "x*y + y"], 2),
    ], ids=["z2", "cubic", "non-conformal"])
    @pytest.mark.parametrize("a, b", [(0.3, 0.8), (-1.7, 2.5)])
    def test_pullback_matches_sheared_immersion(self, surface, a, b):
        # independent route: the geometry of the re-parametrised immersion
        # x1 = u1, x2 = (u2 - a u1) / b at the sheared points u = (x1, a x1 + b x2)
        imm = surface()
        x2 = BinOp("-", BinOp("/", Var(1), Const(b)), BinOp("*", Const(a / b), Var(0)))
        sheared = Immersion(2, imm.m, tuple(substitute(c, {1: x2}) for c in imm.components),
                            "parametric")
        res = run("isothermal", imm, GRID5, a=a, b=b)
        assert res.n_skipped == 0
        for (x, y), got, factor in zip(res.columns.points, column(res, "residual"),
                                       column(res, "conformal_factor")):
            g = at_point(point_geometry_at, sheared, (x, a * x + b * y)).g0
            residual = max(abs(g[0, 0] - g[1, 1]), abs(g[0, 1])) / (1.0 + abs(g[0, 0]))
            assert abs(factor - g[0, 0]) <= 1e-12 * (1.0 + abs(g[0, 0]))
            assert abs(got - residual) <= 1e-12 * (1.0 + residual)


class TestSubharmonicity:
    @pytest.mark.parametrize("s,q", [(1, 1), (1, 3)])
    def test_z2_pointwise(self, z2, s, q):
        res = run("subharmonicity", z2, GridSpec(((-1, 1), (-1, 1)), (9, 9)), s=s, q=q)
        assert res.verdict == "pass"
        assert min(column(res, "margin")) >= -1e-6

    def test_domain_validation(self, z2):
        with pytest.raises(C.CheckConfigError, match="s >= 1"):
            run("subharmonicity", z2, GRID5, s=0.5, q=1)

    def test_laplacian_route_against_direct_composition(self, z2):
        # independent route: Lap(|B|^2 v) = v Lap|B|^2 + |B|^2 Lap v + 2 <grad, grad>
        from curvlab.geometry import (
            gradient_norm2_of_jet,
            laplace_beltrami_of_jet,
            scalar_field_jet,
        )

        pg = point_geometry_at(z2, [(0.4, -0.3)])
        nb = pg.normB2_jet
        v = scalar_field_jet(pg, "volume")
        lap_product = laplace_beltrami_of_jet(pg, nb * v)
        grad = lambda f: np.array([f.coefficient((1, 0))[0], f.coefficient((0, 1))[0]])  # noqa: E731
        lap_sum = (
            v.value * laplace_beltrami_of_jet(pg, nb)
            + nb.value * laplace_beltrami_of_jet(pg, v)
            + 2.0 * grad(nb) @ pg.g_inv[0] @ grad(v)
        )
        assert rel_err(lap_product[0], lap_sum[0]) <= 1e-10


class TestGrowth:
    # the closed form integrates v = 1 + k^2 |z|^(2k-2) over the disc s + s^k <= R^2, s = |z|^2:
    # a table that drops v, the polar Jacobian or a ray's true boundary is off by far more
    @pytest.mark.parametrize("k, exprs", [
        (2, ["x^2 - y^2", "2*x*y"]),
        (3, ["x^3 - 3*x*y^2", "3*x^2*y - y^3"]),
    ], ids=["z2", "z3"])
    def test_curved_graph_volumes_match_closed_form(self, k, exprs):
        radii = [1.0, 10.0, 100.0, 1000.0]
        table = C.growth_table(build_graph_immersion(exprs, 2), radii, cells=256)
        for R, V, half in zip(radii, table.volumes, table.half_volumes):
            assert rel_err(V, holomorphic_ball_volume(k, 1.0, R)) <= 1e-10, (R, V)
            assert rel_err(half, holomorphic_ball_volume(k, 1.0, R / 2.0)) <= 1e-10, (R, half)
        # a round ball in a polynomial v: exact from the first level on
        assert table.nodes_per_axis == 16
        assert all(e <= 1e-10 * V for e, V in zip(table.volume_errors, table.volumes))

    def test_z3_converges_at_radius_1000(self):
        imm = build_graph_immersion(["x^3 - 3*x*y^2", "3*x^2*y - y^3"], 2)
        result, table = C.growth_check_result(imm, [1000.0], 256, None)
        assert result.verdict == "pass" and table.nodes_per_axis == 16
        assert rel_err(table.volumes[0], holomorphic_ball_volume(3, 1.0, 1000.0)) <= 1e-10

    def test_z2_slope_ratio_increasing(self, z2):
        table = C.growth_table(z2, [10.0, 100.0, 1000.0], cells=256)
        assert table.flags["v_ratio_strictly_increasing"]
        assert not table.flags["v_subcritical"]
        assert abs(table.volume_exponent - 2.0) <= 0.2

    def test_volume_bound_at_every_radius(self, z2):
        table = C.growth_table(z2, [2.0, 4.0, 8.0], cells=128)
        for vol, mv, R in zip(table.volumes, table.max_v, table.radii):
            assert vol <= mv * math.pi * R * R * (1 + 1e-9)

    # tilted planes in codimension 1-3: Omega_R is an ellipse in the chart, v is constant,
    # so theta(R) = V(R) / (pi R^2) is 1 at every cap the rule converges within
    @pytest.mark.parametrize("slopes", [
        [[0.3, -0.2]], [[0.5, -0.25], [0.1, 0.75]], [[0.3, 0.1], [-0.2, 0.25], [0.1, -0.3]],
    ], ids=["m1", "m2", "m3"])
    def test_affine_theta_is_one(self, slopes):
        imm = catalogue_lookup("affine", {"slopes": slopes})
        for cells in (64, 128, 256, 4096):
            table = C.growth_table(imm, [0.5, 1.0, 4.0], cells)
            for R, V, half in zip(table.radii, table.volumes, table.half_volumes):
                assert abs(V / (math.pi * R * R) - 1.0) <= 1e-12
                assert abs(half / (math.pi * R * R / 4.0) - 1.0) <= 1e-12
            assert table.flags["volume_monotone"] and table.flags["volume_bound_ok"]

    # a conformal plane, in codimension 2 and 3, is a round ball of constant v: exact at every level
    @pytest.mark.parametrize("slopes", [
        [[0.6, -0.8], [0.8, 0.6]], [[0.6, 0.0], [0.0, 0.6], [0.0, 0.0]], [[0.0, 0.0]],
    ], ids=["m2", "m3", "flat"])
    def test_round_affine_ball_is_exact_at_every_level(self, slopes):
        imm = catalogue_lookup("affine", {"slopes": slopes})
        rule = C._BallRule(C._GraphFields(imm), [0.5, 1.0, 4.0], 256)
        for N in rule.sizes:
            for R, ball in zip(rule.radii, rule.level(N)):
                assert abs(np.sum(ball["w"] * ball["v"]) / (math.pi * R * R) - 1.0) <= 1e-13, (N, R)

    def test_affine_3d_ball_volume(self):
        # the graph is a 3-plane, so Omega_R is a round 3-ball of radius R in it
        imm = catalogue_lookup("affine", {"slopes": [[0.5, -0.25, 0.3], [0.1, 0.75, -0.4]]})
        table = C.growth_table(imm, [1.0, 2.0, 4.0], cells=64)
        for R, V in zip(table.radii, table.volumes):
            assert abs(V / (4.0 * math.pi * R**3 / 3.0) - 1.0) <= 1e-12
        assert table.flags["volume_monotone"]
        assert table.flags["volume_bound_ok"]

    def test_steep_graph_does_not_converge(self):
        # Omega_1 of (400 x, 0) is an ellipse 400 times longer than wide: at 16 rays
        # the trapezoid rule in the angle is nowhere near it
        result, table = C.growth_check_result(build_graph_immersion(["400*x", "0"], 2), [1.0], 16, None)
        assert table is None and result.verdict == "not-applicable"
        assert result.reason.startswith("quadrature did not converge: relative error estimate ")
        assert result.reason.endswith(" > 1e-10 at 16 nodes per axis within radius 1.0")

    def test_requires_graph(self, catenoid):
        with pytest.raises(C.CheckConfigError, match="graph"):
            C.growth_table(catenoid, [1.0])

    # each of these crashed, or ran with no radius or a not-applicable verdict
    @pytest.mark.parametrize("radii, cells, message", [
        ([], 64, "growth radii must be non-empty, positive and strictly increasing, got []"),
        ([2, 1], 64, "growth radii must be non-empty, positive and strictly increasing, got [2.0, 1.0]"),
        ([-1, 2], 64, "growth radii must be non-empty, positive and strictly increasing, got [-1.0, 2.0]"),
        ([0, 2], 64, "growth radii must be non-empty, positive and strictly increasing, got [0.0, 2.0]"),
        ([1, 1], 64, "growth radii must be non-empty, positive and strictly increasing, got [1.0, 1.0]"),
        ([1, 2], 0, "growth cells must be at least 4, got 0"),
        ([1, 2], 3, "growth cells must be at least 4, got 3"),
        ([1, 2], 4097, "growth cells^2 must be at most 2^24, got 4097^2"),
        ([1.0, math.inf], 64, "growth radii must be finite, got [1.0, inf]"),
        ([math.nan, 1.0], 64, "growth radii must be finite, got [nan, 1.0]"),
        ([1, 2], 16.5, "growth cells must be an integer, got 16.5"),
        ([1, 2], math.inf, "growth cells must be an integer, got inf"),
        ([1, 2], math.nan, "growth cells must be an integer, got nan"),
    ], ids=["empty", "decreasing", "negative", "zero", "equal", "no-cells", "three-cells",
            "too-many-cells", "infinite-radius", "nan-radius", "fractional-cells", "infinite-cells",
            "nan-cells"])
    def test_options_outside_their_rule(self, affine, radii, cells, message):
        with pytest.raises(C.CheckConfigError) as err:
            C.growth_table(affine, radii, cells)
        assert str(err.value) == message

    def test_an_integral_float_is_a_cell_count(self, z2):
        # as in a config, where "cells": 16.0 is accepted
        assert C.growth_table(z2, [1.0], 16.0) == C.growth_table(z2, [1.0], 16)

    def test_growth_asks_for_first_order_jets_only(self, z2, monkeypatch):
        # only the probe's |B|^2 over Omega_R0 reads second derivatives
        nodes = {1: 0, 2: 0}  # per jet order
        evaluate = C.evaluate_immersion

        def counted(imm, points, order):
            nodes[order] += len(points)
            return evaluate(imm, points, order)

        monkeypatch.setattr(C, "evaluate_immersion", counted)
        table = C.growth_table(z2, [1.0, 2.0], cells=16)
        # Omega_1, Omega_0.5 and Omega_2 at 8 and 16 nodes per axis
        assert table.nodes_per_axis == 16 and nodes == {1: 3 * (8**2 + 16**2), 2: 0}
        rec = C.estimate_probe(z2, None, C.ProbeParams(R=1.0, R0=0.3, cells=64))
        assert_applicable(rec)
        # Omega_1 and Omega_0.5 at order 1, Omega_0.3 at order 2, at every level up to N,
        # and the hypotheses' three points at order 2
        ball = sum(N * N for N in (8, 16, 32, 64) if N <= rec.nodes_per_axis)
        assert nodes == {1: 3 * (8**2 + 16**2) + 2 * ball, 2: ball + 3}

    def test_fields_read_second_derivatives_of_any_tree_the_parser_accepts(self):
        # x*...*x with 500 factors is MAX_DEPTH = 500 levels deep.  On the graph of
        # (x^k, y), with a = k x^(k-1) and b = k (k-1) x^(k-2): v = sqrt(2 (1 + a^2)) and
        # |B|^2 = b^2 / (1 + a^2)^3
        k = 500
        gf = C._GraphFields(build_graph_immersion(["*".join(["x"] * k), "y"], 2))
        x = np.array([0.0, 0.5, 0.99, 0.995, -0.99])
        fields = gf.fields([x, np.full_like(x, 0.3)], want_normB2=True)
        a, b = k * x ** (k - 1), k * (k - 1) * x ** (k - 2)
        assert np.max(np.abs(a)) > 1.0 and np.max(np.abs(b)) > 1e3
        for got, want in ((fields["v"], np.sqrt(2.0 * (1.0 + a * a))),
                          (fields["normB2"], b * b / (1.0 + a * a) ** 3)):
            for g, w in zip(got, want):
                assert rel_err(g, w) <= 1e-12, (g, w)


def assert_applicable(rec):
    """An applicable probe reports both implied constants, as floats."""
    assert rec.applicable
    assert isinstance(rec.implied_c3, float) and isinstance(rec.implied_c4, float)


class TestProbe:
    def test_affine_lhs_zero(self, affine):
        rec = C.estimate_probe(affine, None, C.ProbeParams(cells=64))
        assert_applicable(rec)
        assert rec.pointwise_lhs == 0.0
        assert rec.implied_c4 == 0.0
        assert rec.lp_lhs == 0.0

    def test_z2_pointwise_value(self, z2):
        rec = C.estimate_probe(z2, COORD_PLANE, C.ProbeParams(t=3, q=4, R=1.0, R0=0.5, cells=128))
        assert rel_err(rec.pointwise_lhs, 16.0) <= 1e-10
        assert_applicable(rec)
        assert rec.implied_c3 > 0 and rec.implied_c4 > 0

    def test_pointwise_term_reads_the_origin(self):
        # on the graph of a holomorphic p, |B|^2 v^3 = 4 |p''|^2, which is 16 |c_2|^2 at
        # the origin and varies away from it
        imm = catalogue_lookup("holo-curve", {"coeffs": CUBIC})
        rec = C.estimate_probe(imm, None, C.ProbeParams(cells=64))
        assert_applicable(rec)
        assert rel_err(rec.pointwise_lhs, 16.0 * abs(complex(*CUBIC[2])) ** 2) <= 1e-14

    @pytest.mark.parametrize("t, q", [(3.0, 4.0), (4.0, 7.0), (5.0, 7.0)])
    def test_z2_integrals_match_closed_forms(self, z2, t, q):
        # on w = z^2, v = 1 + 4 s and |B|^2 = 16 / v^3 with s = |z|^2, and Omega_R is the
        # disc s + s^2 <= R^2: int v^a dA = pi (v^(a+1) - 1) / (4 (a + 1)) at its edge
        params = C.ProbeParams(t=t, q=q, R=1.0, R0=0.3, cells=256)
        rec = C.estimate_probe(z2, None, params)
        assert_applicable(rec)

        def edge(R):
            return 1.0 + 4.0 * (math.sqrt(1.0 + 4.0 * R * R) - 1.0) / 2.0  # v at the disc's edge

        def power_integral(a, R):
            return math.pi * (edge(R) ** (a + 1) - 1.0) / (4.0 * (a + 1))

        assert rel_err(rec.lp_rhs ** t, power_integral(2 * q + 1, 1.0)) <= 1e-10
        assert rel_err(rec.lp_lhs ** t, 16.0**t * power_integral(2 * q + 1 - 3 * t, 0.3)) <= 1e-10
        assert rel_err(rec.volume_R, power_integral(1, 1.0)) <= 1e-10
        assert rel_err(rec.volume_half_R, power_integral(1, 0.5)) <= 1e-10
        assert rec.nodes_per_axis <= 64 and set(rec.errors) == {"lhs_t", "rhs_t", "volume_R",
                                                                  "volume_half_R"}
        assert rec.errors["rhs_t"] <= 1e-10 * rec.lp_rhs ** t

    def test_parameter_domain(self):
        with pytest.raises(C.CheckConfigError, match="t >= 3"):
            C.ProbeParams(t=2.0).validate()
        with pytest.raises(C.CheckConfigError, match=r"q > \(3t-3\)/2"):
            C.ProbeParams(t=3.0, q=2.0).validate()
        with pytest.raises(C.CheckConfigError, match="R0 < R"):
            C.ProbeParams(R=1.0, R0=2.0).validate()

    # numbers a config rejects; R = inf crashed with a ZeroDivisionError, cells = 16.5 with an
    # AttributeError, and t = nan came back not applicable with a "nan" error estimate
    @pytest.mark.parametrize("params, message", [
        ({"R": math.inf}, "probe requires finite parameters, got R=inf"),
        ({"t": math.nan}, "probe requires finite parameters, got t=nan"),
        ({"q": math.inf}, "probe requires finite parameters, got q=inf"),
        ({"s": math.nan}, "probe requires finite parameters, got s=nan"),
        ({"R0": -math.inf}, "probe requires finite parameters, got R0=-inf"),
        ({"cells": 16.5}, "probe cells must be an integer, got 16.5"),
    ], ids=["infinite-R", "nan-t", "infinite-q", "nan-s", "infinite-R0", "fractional-cells"])
    def test_numbers_that_are_not_finite_or_not_integers(self, z2, params, message):
        with pytest.raises(C.CheckConfigError) as err:
            C.estimate_probe(z2, None, C.ProbeParams(**params))
        assert str(err.value) == message

    def test_cells_bounded_before_quadrature(self, affine):
        with pytest.raises(C.CheckConfigError, match=r"^probe cells\^2 must be at most 2\^24"):
            C.estimate_probe(affine, None, C.ProbeParams(cells=100000))
        with pytest.raises(C.CheckConfigError, match=r"^probe cells must be at least 4, got 2$"):
            C.estimate_probe(affine, None, C.ProbeParams(cells=2))
        # the largest legal counts: 4096^2 = 256^3 = 2^24
        assert C.quadrature_cells_fault(4096, 2) is None and C.quadrature_cells_fault(256, 3) is None
        assert C.quadrature_cells_fault(257, 3) == "cells^3 must be at most 2^24, got 257^3"

    def test_hypotheses_build_no_block_frame_or_pairing(self, z2, monkeypatch):
        # the three points' order-2 fields decide the hypotheses; the pointwise term reads
        # the origin's.  At the origin of w = z^2 the tangent plane is orthogonal to the
        # normal coordinate plane, so w = 0 there
        def unused(*args):
            raise AssertionError("the probe's hypotheses take no order-4 geometry")

        for name in ("BlockContext", "point_geometry_at", "canonical_frame_at", "alignment_pack_at"):
            monkeypatch.setattr(C, name, unused)
        rec = C.estimate_probe(z2, COORD_PLANE, C.ProbeParams(cells=32))
        assert_applicable(rec)
        assert rel_err(rec.pointwise_lhs, 16.0) <= 1e-15
        rec = C.estimate_probe(z2, np.eye(4)[2:], C.ProbeParams(cells=32))
        assert (rec.applicable, rec.reason) == (False, "alignment function not positive")

    def test_a_second_fundamental_form_that_is_not_finite_is_named(self):
        # the harmonic 1e308 (x^2 - y^2): at the origin g = I, but its second partials
        # 2e308 overflow, so B and H are NaN there, though every jet evaluates
        imm = build_graph_immersion(["1e308*(x^2-y^2)"], 2)
        at = C._GraphFields(imm).at([(0.0, 0.0)], 2)
        assert at.errors == [None] and at.v[0] == 1.0 and np.isnan(at.normH[0])
        rec = C.estimate_probe(imm, None, C.ProbeParams(cells=16))
        assert (rec.applicable, rec.reason) == (False, "second fundamental form not finite")
        # a grid block gives the same reason, in the same rule
        with np.errstate(over="ignore", invalid="ignore"):
            block = C.BlockContext(imm, [(0.0, 0.0)], None)
            assert block.errors == [None] and np.isnan(block.normH[0])
            assert block.skips(("minimal",)).skip.tolist() == ["second fundamental form not finite"]

    def test_nonminimal_not_applicable(self):
        imm = build_graph_immersion(["x^2 + y^2", "0"], 2)
        rec = C.estimate_probe(imm, COORD_PLANE, C.ProbeParams(cells=32))
        assert not rec.applicable
        assert "mean curvature" in rec.reason

    def test_hypothesis_evaluation_error_not_applicable(self):
        imm = build_graph_immersion(["log(x)", "x*y"], 2)  # log(x) fails at the origin
        rec = C.estimate_probe(imm, COORD_PLANE, C.ProbeParams(cells=32))
        assert not rec.applicable
        assert "evaluation error" in rec.reason

    @pytest.mark.filterwarnings("error")
    def test_pole_inside_the_ball_is_not_star_shaped(self):
        # w = 1/(z - c) is minimal; dist2 grows without bound towards its pole c and falls
        # behind it, so the ray through c leaves Omega_R and comes back
        c = "0.0625"
        r2 = f"((x-{c})^2+(y-{c})^2)"
        imm = build_graph_immersion([f"(x-{c})/{r2}", f"-(y-{c})/{r2}"], 2)
        rec = C.estimate_probe(imm, COORD_PLANE, C.ProbeParams(cells=16))
        growth, table = C.growth_check_result(imm, [1.0], 16, None)
        assert not rec.applicable and table is None
        # the probe's first ball is Omega_R0, growth's Omega_R
        assert rec.reason == "Omega_R is not star-shaped along a sampled ray within radius 0.5"
        assert growth.reason == "Omega_R is not star-shaped along a sampled ray within radius 1.0"


# Re and Im of z, z^2, z^3 for z = x + i y
HOLOMORPHIC = (("x", "y"), ("(x^2-y^2)", "(2*x*y)"), ("(x^3-3*x*y^2)", "(3*x^2*y-y^3)"))
HARMONIC = ("(x^2-y^2)", "x*y", "(x^2-z^2)", "(y^2-z^2)", "x*z", "y*z")  # quadrics, n = 3
HALVES = st.integers(-3, 3).map(lambda k: k / 2)


@st.composite
def probe_germs(draw):
    """(components, n, reference frame or None) of a graph over R^n in codimension 1 to 3.

    A component is the real or imaginary part of a complex polynomial p in x + i y
    without constant term, a harmonic quadric (minimal at the origin; n = 3: of
    Gauss rank up to 3), a quadric that is not harmonic, log(x) or 0.  The pair
    Re p, Im p is a minimal graph, and for n = 3 a cylinder over one.
    """
    n, m = draw(st.sampled_from([2, 3])), draw(st.integers(1, 3))

    def combination(terms):
        return "+".join(f"{draw(HALVES)}*{term}" for term in terms)

    coeffs = draw(st.lists(st.tuples(HALVES, HALVES), min_size=3, max_size=3))
    re = "+".join(f"{a}*{u}-{b}*{v}" for (a, b), (u, v) in zip(coeffs, HOLOMORPHIC))
    im = "+".join(f"{a}*{v}+{b}*{u}" for (a, b), (u, v) in zip(coeffs, HOLOMORPHIC))
    kinds = {"re": lambda: re, "im": lambda: im, "log": lambda: "log(x)", "zero": lambda: "0",
             "harmonic": lambda: combination(HARMONIC[:2] if n == 2 else HARMONIC),
             "squares": lambda: combination(("x^2", "y^2", "x*y"))}
    mode = draw(st.sampled_from(["pair", "harmonic", "any"]))
    if mode == "harmonic":
        components = [kinds["harmonic"]() for _ in range(m)]
    else:
        components = [re, im][:m] if mode == "pair" else []
        components += [kinds[draw(st.sampled_from(sorted(kinds)))]() for _ in range(m - len(components))]
    frame = None
    if draw(st.booleans()):  # orthonormal rows of a drawn matrix, of either orientation
        rows = draw(st.lists(HALVES, min_size=n * (n + m), max_size=n * (n + m)))
        q, r = np.linalg.qr(np.array(rows).reshape(n, n + m).T)
        assume(np.all(np.abs(np.diagonal(r)) > 1e-3))
        frame = (q * np.where(np.diagonal(r) < 0, -1.0, 1.0)).T
    return components, n, frame


class TestProbeHypotheses:
    """The probe's order-2 route decides its hypotheses as an order-4 block of its points."""

    @settings(max_examples=80, deadline=None)
    @given(germ=probe_germs())
    @example(germ=(["x^2+y^2-2*z^2"], 3, None))  # Gauss rank 3 at the minimal origin
    @example(germ=(["log(x)", "x*y"], 2, COORD_PLANE))  # not evaluated at the origin
    @example(germ=(["x^2+y^2", "0"], 2, None))  # nowhere minimal
    @example(germ=(["x^2-y^2", "2*x*y"], 2, np.array([[-1.0, 0, 0, 0], [0, 1.0, 0, 0]])))  # w < 0
    @example(germ=(["x^2-y^2", "2*x*y"], 3, None))  # a minimal cylinder: Gauss rank 2
    # det g below 1e-13 prod g_ii at (0.1, 0.1): steep and not conformal
    @example(germ=(["1e8*x*y"], 2, None))
    # g overflows at (0.1, 0.1); at the origin H is NaN where g = I
    @example(germ=(["1e200*(x^3-3*x*y^2)", "1e200*(3*x^2*y-y^3)"], 2, None))
    @example(germ=(["1e308*(x^2-y^2)"], 2, None))
    def test_the_same_reasons_as_the_block(self, germ):
        components, n, frame = germ
        imm = build_graph_immersion(components, n)
        points = [(0.1 * k,) * n for k in (0, 1, 3)]
        names = ("minimal", "rank") + (("aligned",) if frame is not None else ())
        shared = []

        def once(compute, slot, *inputs):  # the probe's own hypothesis fields, and no balls
            shared.append(compute() if slot == "probe origin" else "no balls")
            return shared[-1]

        rec = C.estimate_probe(imm, frame, C.ProbeParams(cells=16), _once=once)
        at, first = shared[0]
        block = C.BlockContext(imm, points, frame)
        with np.errstate(over="ignore", invalid="ignore"):  # the block's jets may overflow
            reasons = block.skips(names).skip.tolist()
            want = block.pg.normB2[0] * block.volume_jet.value[0] ** 3  # (|B|^2 v^3)(0)
        assert at.points == points and at.skips(names).skip.tolist() == reasons
        assert first == next(filter(None, reasons), None) and rec.reason == (first or "no balls")
        if n == 3:
            assert at.gauss_sv().tobytes() == gauss_singular_values(at.g, at.B).tobytes()
        if block.pg.errors[0] is None:
            got = at.normB2[0] * at.v[0] ** 3
            assert abs(got - want) <= 16 * np.spacing(want) if np.isfinite(want) else np.isnan(got)


GAUSS_ROWS = ("definite", "indefinite", "nan-B", "inf-B", "nan-g")


def gauss_stack(kinds, m: int, seed: int):
    """(g (i, j, P), B (A, i, j, P)) of n = 3 in codimension m, row p of kind kinds[p] (GAUSS_ROWS).

    g is positive definite or indefinite; B is symmetric in (i, j), with a NaN or
    an infinite entry in some rows.  Where g is NaN, so is B, as `_GraphFields.at`
    gives them: its B is formed through g^-1.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((len(kinds), 3, 3))
    g = A @ A.swapaxes(1, 2) + 0.1 * np.eye(3)
    B = rng.standard_normal((len(kinds), 3 + m, 3, 3))
    B = B + B.swapaxes(2, 3)
    for p, kind in enumerate(kinds):
        if kind == "indefinite":  # its middle eigenvalue moved below zero
            g[p] -= (np.linalg.eigvalsh(g[p])[1] + 0.5) * np.eye(3)
        elif kind == "nan-g":
            g[p], B[p] = np.nan, np.nan
        elif kind != "definite":
            B[p, rng.integers(3 + m), 1, 2] = np.nan if kind == "nan-B" else np.inf
    return g.transpose(1, 2, 0), B.transpose(1, 2, 3, 0)


class TestGaussSingularValues:
    """The probe's batched Gauss-map SVD is the per-point loop, bitwise."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 3), kinds=st.lists(st.sampled_from(GAUSS_ROWS), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    @example(m=2, kinds=["definite", "indefinite"], seed=0)  # B finite where g is not definite
    @example(m=1, kinds=["nan-g", "inf-B", "nan-B"], seed=1)  # no row to factor
    def test_the_batch_is_the_per_point_loop(self, m, kinds, seed):
        g, B = gauss_stack(kinds, m, seed)
        fields = C._PointFields(np.zeros((len(kinds), 3)), [None] * len(kinds), g, None, None, B=B)
        assert fields.gauss_sv().tobytes() == gauss_singular_values(g, B).tobytes()


CUBIC = [[0.3, 0.1], [0.7, -0.2], [1.4, 0.5], [0.2, 0.1]]  # generic: no symmetric values


def reference_volume(imm, R):
    """V(R) of an n = 2 graph by an independent rule: scipy's adaptive quadrature in the
    angle, the ray's boundary by brentq on dist2, and 64 Gauss-Legendre nodes in r."""
    brentq, quad = pytest.importorskip("scipy.optimize").brentq, pytest.importorskip("scipy.integrate").quad
    gf = C._GraphFields(imm)
    x, w = np.polynomial.legendre.leggauss(64)

    def ray(theta):
        u = np.array([math.cos(theta), math.sin(theta)])
        rho = brentq(lambda r: float(gf.dist2([np.array([r * u[0]]), np.array([r * u[1]])])[0]) - R * R,
                     0.0, R, xtol=1e-16, rtol=1e-15)
        r = rho * (x + 1.0) / 2.0
        return float(np.sum(w * gf.fields([r * u[0], r * u[1]])["v"] * r)) * rho / 2.0

    return quad(ray, 0.0, 2.0 * math.pi, epsabs=0.0, epsrel=1e-13, limit=200)[0]


class TestBallRule:
    """The boundary-fitted rule: boundaries, references and the reasons it cannot integrate."""

    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
    def test_cubic_volume_matches_an_adaptive_reference(self, R):
        imm = catalogue_lookup("holo-curve", {"coeffs": CUBIC})
        table = C.growth_table(imm, [R], 256)
        assert rel_err(table.volumes[0], reference_volume(imm, R)) <= 1e-10
        assert table.volume_errors[0] <= 1e-10 * table.volumes[0]

    def test_cylinder_volume_matches_a_one_dimensional_reference(self):
        # over w = z^2, Omega_R is sigma + sigma^2 + z^2 <= R^2 with sigma = x^2 + y^2, and
        # v = 1 + 4 sigma: V(R) = int pi (sigma + 2 sigma^2) dz over |z| <= R
        quad = pytest.importorskip("scipy.integrate").quad
        imm = catalogue_lookup("cylinder-over", {"base": "holo-curve",
                                                 "base_params": {"coeffs": [0, 0, 1]}})
        table = C.growth_table(imm, [1.0, 2.0], 64)
        for R, V in zip(table.radii, table.volumes):
            def slab(z, R=R):
                sigma = (math.sqrt(1.0 + 4.0 * (R * R - z * z)) - 1.0) / 2.0
                return math.pi * (sigma + 2.0 * sigma * sigma)
            assert rel_err(V, quad(slab, -R, R, epsabs=0.0, epsrel=1e-13)[0]) <= 1e-10

    def test_boundary_is_found_to_a_few_ulps(self, z2):
        # on w = z^2 every ray leaves Omega_R where rho^2 + rho^4 = R^2
        dirs, _ = C._directions(2, 16)
        radii = [0.5, 1.0, 1000.0]
        gf = C._GraphFields(z2)
        rho = gf.boundary(radii, dirs)
        for R, row in zip(radii, rho):
            exact = math.sqrt((math.sqrt(1.0 + 4.0 * R * R) - 1.0) / 2.0)
            assert np.all(np.abs(row - exact) <= 16 * np.spacing(exact)), R
            # rho is the inner end of its bracket: the ray's last node is inside
            assert np.all(gf.dist2([row * dirs[:, 0], row * dirs[:, 1]]) <= R * R), R

    # cubic graphs need not have star-shaped balls: those are left out; on the example, dist2
    # crosses R^2 back and forth over 20 ulps of the ray towards (-1, -1)
    @settings(max_examples=60, deadline=None)
    @example(coeffs=[[-1.625, 1.0], [1.7804800149254643, 1.0], [1.7804800149254643] * 2, [1.0, 1.75]],
             R=1.0)
    @given(coeffs=st.lists(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
                           min_size=4, max_size=4),
           R=st.floats(0.5, 1000.0))
    def test_boundary_matches_brentq(self, coeffs, R):
        brentq = pytest.importorskip("scipy.optimize").brentq
        gf = C._GraphFields(catalogue_lookup("holo-curve", {"coeffs": coeffs}))
        dirs, _ = C._directions(2, 8)
        eps, f0 = np.finfo(float).eps, math.sqrt(float(np.sum(gf.f0**2)))
        slack = C.STAR_ULPS * eps * R * (R + f0)  # the search's rounding allowance
        try:
            rho = gf.boundary([R], dirs)[0]
        except C.CheckConfigError as exc:
            assume("not star-shaped" not in str(exc))
            raise
        for u, r in zip(dirs, rho):
            def excess(s, u=u):
                return float(gf.dist2([np.array([s * u[0]]), np.array([s * u[1]])])[0]) - R * R
            assert excess(r) <= 0.0
            # dist2 >= |x|^2: R itself is the boundary where dist2(R u) = R^2
            exact = R if excess(R) <= 0.0 else brentq(excess, 0.0, R, xtol=1e-16, rtol=4 * eps)
            if abs(r - exact) > 16 * np.spacing(exact):
                # dist2 can cross R^2 back and forth within rounding over more than 16
                # ulps: then each crossing there is a boundary, brentq's and rho alike
                s = np.linspace(min(r, exact), max(r, exact), 64)
                d = gf.dist2([s * u[0], s * u[1]])
                assert np.all(np.abs(d - R * R) <= slack), (u, r, exact)

    # dist2 calls per search, the scan included; the search by sampled steps took 8 on
    # each of these, 9 on the cubic at R = 1000
    @pytest.mark.parametrize("coeffs, R, calls", [
        ([0, 0, 1], 0.5, 5), ([0, 0, 1], 1.0, 5), ([0, 0, 1], 1000.0, 5),
        (CUBIC, 0.5, 5), (CUBIC, 1.0, 5), (CUBIC, 1000.0, 8),
    ], ids=["z2-0.5", "z2-1", "z2-1000", "cubic-0.5", "cubic-1", "cubic-1000"])
    def test_dist2_calls_per_search(self, coeffs, R, calls):
        gf = C._GraphFields(catalogue_lookup("holo-curve", {"coeffs": coeffs}))
        dist2, counted = gf.dist2, []
        gf.dist2 = lambda axes: counted.append(1) or dist2(axes)
        gf.boundary([R], C._directions(2, 16)[0])
        assert len(counted) == calls

    def test_a_large_dist2_call_holds_a_bounded_peak_and_equals_one_evaluation(self, monkeypatch):
        # c z^5 shares the powers of x and y between its two components: one evaluation
        # of all samples held 11 arrays of them at once; sqrt(y) is undefined where y < 0
        gf = C._GraphFields(build_graph_immersion(
            ["0.7*(x^5-10*x^3*y^2+5*x*y^4)", "0.7*(5*x^4*y-10*x^2*y^3+y^5)+sin(x)*exp(y)*sqrt(y)"], 2))
        axes = list(np.random.default_rng(2).uniform(-1.0, 1.0, (2, 4 * C.JET_NODES + 3)))
        gf.dist2([axes[0][:5], axes[1][:5]])  # tables and caches, built once
        tracemalloc.start()
        try:
            d = gf.dist2(axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result, and at most 16 arrays of one run's samples
        assert peak <= d.nbytes + 16 * 8 * C.JET_NODES
        assert np.isnan(d).sum() == np.sum(axes[1] < 0) > 0
        for samples in (2**24, 1000):  # one evaluation; runs that split a vector's lanes
            monkeypatch.setattr(C, "JET_NODES", samples)
            assert gf.dist2(axes).tobytes() == d.tobytes()
        # axes that broadcast together, (S, 1) against (S, D)
        s, u = axes[0][:2**9, None], axes[1][None, :2**9]
        monkeypatch.setattr(C, "JET_NODES", 2**24)
        whole = gf.dist2([s, s * u])
        monkeypatch.setattr(C, "JET_NODES", 1000)
        assert gf.dist2([s, s * u]).tobytes() == whole.tobytes() and whole.shape == (2**9, 2**9)

    # rays along +-x, so that a sample's first coordinate is +-s exactly
    @pytest.mark.parametrize("graph", ["x^4", "x^2+x", "x^2*(1+x)"])
    def test_each_step_samples_within_its_bracket(self, graph):
        # a step's bracket is the last sample inside and the first outside of all before
        # it; the step samples x - tau, x, x + tau within it, x strictly inside
        gf = C._GraphFields(build_graph_immersion([graph, "0"], 2))
        dist2 = gf.dist2
        for sign in (1.0, -1.0):
            for R in (0.5, 1.0, 2.0, 10.0, 1000.0):
                calls = []
                gf.dist2 = lambda axes: calls.append((sign * axes[0], dist2(axes))) or calls[-1][1]
                gf.boundary([R], np.array([[sign, 0.0]]))
                s, d = (a.ravel() for a in calls[0])
                for step, (new, d_new) in enumerate(calls[1:], 2):
                    lo, hi = s[d <= R * R].max(), s[d > R * R].min()
                    new, d_new = new.ravel(), d_new.ravel()
                    assert lo <= new[0] and lo < new[1] < hi and new[2] <= hi, (sign, R, step)
                    s, d = np.concatenate([s, new]), np.concatenate([d, d_new])

    # plateau: the graph flattens just above height 1, so dist2 rounds to exactly R^2 = 1
    # over hundreds of ulps of s on the rays near +-x; far: rho < R / 127, so the scan's
    # bracket starts at 0 and dist2 / R^2 spans dozens of decades across it
    @pytest.mark.parametrize("imm, R", [
        (build_graph_immersion(["1.0000001*(1-exp(-100000*x^2))", "0"], 2), 1.0),
        (build_graph_immersion(["0.6366*1.0000001*atan(100000*x)", "0"], 2), 1.0),
        (catalogue_lookup("holo-curve", {"coeffs": [0, 0, 1]}), 1e50),
        (catalogue_lookup("holo-curve", {"coeffs": CUBIC}), 1e12),
    ], ids=["plateau-exp", "plateau-atan", "far-z2", "far-cubic"])
    def test_rho_is_the_inner_end_of_a_closed_bracket(self, imm, R):
        gf = C._GraphFields(imm)
        dirs, _ = C._directions(2, 16)
        for u, r in zip(dirs, gf.boundary([R], dirs)[0]):
            above = r + np.spacing(r) * np.arange(2 * C.SEARCH_ULPS + 1)
            d = gf.dist2([above * u[0], above * u[1]])
            assert d[0] <= R * R < d[1:].max(), u

    def test_levels_are_kept_and_rays_reused(self, z2, monkeypatch):
        searched, evaluated = [], []
        boundary, fields = C._GraphFields.boundary, C._GraphFields.fields
        monkeypatch.setattr(C._GraphFields, "boundary", lambda self, radii, dirs:
                            searched.append((list(radii), len(dirs))) or boundary(self, radii, dirs))
        monkeypatch.setattr(C._GraphFields, "fields", lambda self, axes, want=False:
                            evaluated.append((axes[0].size, want)) or fields(self, axes, want))
        rule = C._BallRule(C._GraphFields(z2), [1.0, 0.5, 1.0], 64, normB2_radii={0.5})
        assert rule.radii == [1.0, 0.5] and rule.sizes == [8, 16, 32, 64]
        levels = [rule.level(N) for N in rule.sizes]
        assert all(rule.level(N) is level for N, level in zip(rule.sizes, levels))
        # levels 8 and 16 from one search of level 16's rays, later levels of their odd rays
        # only, each ball's nodes once per jet order: |B|^2 over Omega_0.5 alone
        assert searched == [([1.0, 0.5], 16), ([1.0, 0.5], 16), ([1.0, 0.5], 32)]
        assert evaluated == [(8**2 + 16**2, False), (8**2 + 16**2, True),
                             (32**2, False), (32**2, True), (64**2, False), (64**2, True)]
        assert [[list(ball) for ball in level] for level in levels] == [
            [["w", "v"], ["w", "v", "normB2"]]] * 4

    # the first two levels share one search and one `fields` call per jet order: each
    # level's nodes are bitwise those of a search and a call for that level alone
    @pytest.mark.parametrize("surface, radii, curved", [
        (("holo-curve", {"coeffs": [0, 0, 1]}), [10.0, 5.0, 100.0, 50.0, 1000.0, 500.0], ()),
        (("holo-curve", {"coeffs": CUBIC}), [0.3, 1.0, 1.0, 0.5], (0.3,)),
        (("affine", {"slopes": [[0.5, -0.25, 0.3], [0.1, 0.75, -0.4]]}), [1.0, 0.5, 2.0], (0.5,)),
    ], ids=["z2-growth", "cubic-probe", "affine-3d"])
    def test_each_level_equals_its_own_search_and_evaluation(self, surface, radii, curved):
        gf = C._GraphFields(catalogue_lookup(*surface))
        n, rule = gf.n, C._BallRule(gf, radii, 64, normB2_radii=curved)
        for N in rule.sizes[:3]:
            dirs, dir_w = C._directions(n, N)
            t, w = C._gauss(N)
            for R, rho, ball in zip(rule.radii, gf.boundary(rule.radii, dirs), rule.level(N)):
                nodes = rho[:, None] * t
                alone = gf.fields([(nodes * dirs[:, a, None]).ravel() for a in range(n)], R in curved)
                alone["w"] = ((rho**n)[:, None] * dir_w[:, None] * (w * t ** (n - 1))).ravel()
                assert sorted(ball) == sorted(alone), (N, R)
                for key, value in alone.items():
                    assert np.array_equal(ball[key], value, equal_nan=True), (N, R, key)

    @pytest.mark.filterwarnings("error")
    def test_undefined_derivative_at_nodes_not_applicable(self):
        # F = (x, y, |y|, 0) is finite everywhere; its derivative y / sqrt(y^2) is not on
        # y = 0, which holds the 8 nodes of the ray at angle 0
        result, table = C.growth_check_result(build_graph_immersion(["sqrt(y^2)", "0"], 2),
                                              [1.0], 16, None)
        assert result.verdict == "not-applicable" and table is None
        assert result.reason == (
            "graph undefined on 8 of 64 quadrature nodes inside the extrinsic ball of radius 1.0")

    # a cone point of F outside Omega_1, and one inside that no node lands on: v is the
    # constant sqrt(2) away from it
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("centre", ["0.9375", "0.0625"], ids=["outside", "inside"])
    def test_derivative_undefined_at_one_point_is_integrated(self, centre):
        imm = build_graph_immersion([f"sqrt((x-{centre})^2+(y-{centre})^2)", "0"], 2)
        result, table = C.growth_check_result(imm, [1.0], 256, None)
        assert result.verdict == "pass" and table is not None
        assert table.max_v[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_non_star_shaped_ball_not_applicable(self):
        # along the x axis dist2 = x^2 + 100 sin(5x)^2 rises and falls: Omega_2 is no
        # union of segments from the origin
        result, table = C.growth_check_result(build_graph_immersion(["10*sin(5*x)", "0"], 2),
                                              [2.0], 256, None)
        assert table is None
        assert result.reason == "Omega_R is not star-shaped along a sampled ray within radius 2.0"

    def test_open_bracket_not_applicable(self, z2, monkeypatch):
        # the scan alone leaves each ray a bracket R / 127 wide
        monkeypatch.setattr(C, "SEARCH_STEPS", 1)
        result, table = C.growth_check_result(z2, [1.0], 16, None)
        assert result.verdict == "not-applicable" and table is None
        assert result.reason == ("quadrature did not converge: the boundary of Omega_R is not "
                                 "located within 1 search steps")

    @pytest.mark.filterwarnings("error")
    def test_undefined_boundary_samples_not_applicable(self):
        # log(x + 0.5) is undefined for x <= -0.5, which the rays towards -x reach
        result, _ = C.growth_check_result(build_graph_immersion(["log(x+0.5)", "0"], 2),
                                          [1.0], 16, None)
        assert result.reason.startswith("graph undefined on ")
        assert result.reason.endswith(" of 2048 boundary-search samples within radius 1.0")


def all_evaluated(residuals, **detail):
    """The Columns of len(residuals) points that were all evaluated, with these detail columns."""
    none = np.full(len(residuals), None, dtype=object)
    points = [(float(i), 0.0) for i in range(len(residuals))]
    return C.Columns(points, none, np.array(residuals, dtype=float), none.copy(), detail)


def traced_peak(imm, points) -> int:
    """The most point_geometry_at holds at once on a block of `points`, by tracemalloc."""
    tracemalloc.start()
    try:
        point_geometry_at(imm, points)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlocks:
    def test_a_5x5x5_solid_in_codimension_two_is_one_block(self, cylinder):
        # the grid of the bundled cylinder-helicoid scenario and the grid-solid benchmark
        points = GridSpec(((-1.0, 1.0),) * 3, (5, 5, 5)).points()
        assert (cylinder.n, cylinder.m) == (3, 2)
        assert [len(part) for part in C.blocks(cylinder, points)] == [125]

    @pytest.mark.parametrize("exprs, n", [(["x^2-y^2+0.3*z", "2*x*y-z^2"], 3),
                                          (["x^2-y^2", "2*x*y"], 2)], ids=["n3-m2", "n2-m2"])
    def test_a_default_block_of_geometry_peaks_within_the_budget(self, exprs, n):
        imm = build_graph_immersion(exprs, n)
        rng = np.random.default_rng(0)

        def points(count):
            return rng.uniform(-0.9, 0.9, (count, n))

        traced_peak(imm, points(2))  # tables and caches, built once
        size = C.block_size(imm)
        # a block's peak grows with its points: the default block is run only once
        # the growth between two smaller blocks puts it near the budget
        growth = (traced_peak(imm, points(128)) - traced_peak(imm, points(64))) / 64
        assert size * growth <= 2 * C.BLOCK_BUDGET
        assert traced_peak(imm, points(size)) <= C.BLOCK_BUDGET

    def test_an_n3_block_takes_one_svd_for_the_rank_rule_and_the_canonical_frame(self, monkeypatch):
        imm = catalogue_lookup("cylinder-over", {"base": "holo-curve",
                                                 "base_params": {"coeffs": [0, 0.5, [0.2, 0.1], [0.3, -0.7]]}})
        block = C.BlockContext(imm, GRID3D.points(), None)
        pg, svd, calls = block.pg, np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(kw) or svd(*args, **kw))
        canon, rank_errors = block.canon, block.rank_errors
        assert calls == [{}]  # one full SVD
        monkeypatch.undo()
        # the frame is bitwise that of geometry's SVD; the singular values of the full SVD
        # move only in the last bits from those taken alone, and the rank with them
        U, sv = gauss_svd(pg)
        own = canonical_frame_at(pg, U)
        for key in ("mu1", "mu2", "tangent_frame", "normal_frame"):
            assert getattr(canon, key).tobytes() == getattr(own, key).tobytes(), key
        own_sv = np.linalg.svd(np.moveaxis(pg.h, 1, -1).reshape(27, 3, -1), compute_uv=False)
        assert rank_errors == [None] * 27 and np.array_equal(gauss_rank_at(sv), gauss_rank_at(own_sv))
        assert np.all(np.abs(sv - own_sv) <= 1e-14 * sv[:, :1])

    def test_an_n2_block_takes_no_svd_for_the_rank_rule(self, z2, monkeypatch):
        # two rows: the Gauss-map rank of a surface is at most 2
        def unused(*args, **kwargs):
            raise AssertionError("an n = 2 block takes no Gauss-map SVD")

        block = C.BlockContext(z2, GRID5.points(), None)
        monkeypatch.setattr(C, "gauss_rank_at", unused)
        monkeypatch.setattr(np.linalg, "svd", unused)
        assert block.rank_errors == [None] * 25
        assert run("kato", z2, GRID5).verdict == "pass"

    def test_a_disk_masked_21x21_surface_is_one_block(self, z2):
        # 293 points: the grid of the grid-surface benchmark
        assert (z2.n, z2.m) == (2, 2) and C.block_size(z2) >= 293

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 1), (3, 2), (3, 400), (3, 10**6)])
    def test_block_size_is_never_below_one(self, n, m):
        assert C.block_size(SimpleNamespace(n=n, m=m)) >= 1

    def test_blocks_cover_the_points_in_order(self, z2):
        points = list(range(2 * C.block_size(z2) + 5))
        parts = C.blocks(z2, points)
        assert [len(part) for part in parts] == [C.block_size(z2)] * 2 + [5]
        assert sum(parts, []) == points


class TestAggregation:
    @pytest.mark.parametrize("residuals", [[1e-12, math.nan], [math.nan, 1e-12]])
    def test_nonfinite_residual_fails_in_any_order(self, residuals):
        res = C.aggregate_check("minimality", 1e-10, all_evaluated(residuals))
        assert res.verdict == "fail"
        assert res.worst_residual == 1e-12
        assert res.extras["n_nonfinite"] == 1

    def test_finite_residuals_add_no_count(self):
        res = C.aggregate_check("minimality", 1e-10, all_evaluated([1e-12]))
        assert res.verdict == "pass" and "n_nonfinite" not in res.extras

    def test_a_worst_residual_equal_to_the_tolerance_passes(self):
        res = C.aggregate_check("minimality", 1e-10, all_evaluated([0.0, 1e-10]))
        assert (res.verdict, res.worst_residual) == ("pass", 1e-10)

    @pytest.mark.parametrize("field", ["identity_residual", "mu_residual"])
    @pytest.mark.parametrize("values", [[1e-12, math.nan], [math.nan, 1e-12]])
    def test_nonfinite_simons_detail_fails_in_any_order(self, field, values):
        # as _eval_simons gives them: identity_residual a float column, mu_residual
        # an object column (None where the canonical frame failed)
        detail = {"identity_residual": np.zeros(2), "mu_residual": np.full(2, None, dtype=object)}
        detail[field] = np.array(values, dtype=detail[field].dtype)
        res = C.aggregate_check("simons", 1e-5, all_evaluated([0.0, 0.0], **detail))
        assert res.verdict == "fail"

    @pytest.mark.parametrize("omegas", [[1e-12, math.nan], [math.nan, 1e-12]])
    def test_nonfinite_omega_fails_in_any_order(self, omegas):
        cols = all_evaluated([0.0, 0.0], conformal=np.ones(2, dtype=bool),
                             omega=np.array(omegas, dtype=object))
        res = C.aggregate_check("gauss-conformal", 1e-6, cols)
        assert res.verdict == "fail"
        assert res.extras["omega_max"] == 1e-12

    def test_the_result_keeps_the_columns(self):
        # point 1 is skipped; a None detail value stays None
        cols = C.Columns(
            [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], np.array([None, "flat", None], dtype=object),
            np.array([0.5, -0.0]), np.array([None, "why"], dtype=object),
            {"a": np.array([1.0, 2.0]), "b": np.array([None, 3.0], dtype=object)},
        )
        res = C.aggregate_check("minimality", 1.0, cols)
        assert (res.n_points, res.n_skipped, res.worst_residual) == (3, 1, 0.5)
        assert res.columns is cols
        lists = {"residual": [0.5, None, -0.0], "skipped": [False, True, False],
                 "reason": [None, "flat", "why"],
                 "detail": {"a": [1.0, None, 2.0], "b": [None, None, 3.0]}}
        assert repr(cols.lists()) == repr(lists)  # repr tells -0.0 from 0.0
        # the columns cross a process pool pickled
        assert repr(pickle.loads(pickle.dumps(cols)).lists()) == repr(lists)

    def test_all_skipped_is_not_applicable_with_the_first_reason(self):
        cols = C.Columns.concat([
            C.Columns([(0.0, 0.0)], np.array(["first"], dtype=object)),
            C.Columns([(1.0, 0.0)], np.array(["second"], dtype=object)),
        ])
        res = C.aggregate_check("kato", 1e-5, cols)
        assert (res.verdict, res.reason, res.n_skipped) == ("not-applicable", "first", 2)
        assert res.extras["evaluated_points"] == 0 and res.extras["worst_gap"] is None

    def test_surface_failing_at_every_grid_point_raises(self):
        imm = build_graph_immersion(["log(x)", "x*y"], 2)  # undefined for x <= 0
        grid = GridSpec(((-1.0, -0.5), (-1.0, 1.0)), (3, 3))
        with pytest.raises(C.CheckConfigError, match="^surface evaluation failed at every grid point: "
                           "evaluation error: log of non-positive jet value -1.0$"):
            run_checks(imm, grid, [CheckSpec("minimality"), CheckSpec("kato")])
        # one evaluated point is enough to report instead
        [res] = run_checks(imm, GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (3, 3)), [CheckSpec("minimality")])
        assert (res.n_points, res.n_skipped) == (9, 6)


TILTED_PLANE = np.array([[0.5**0.5, 0, 0.5**0.5, 0], [0, 0.5**0.5, 0, -(0.5**0.5)]])


def skip_reasons(res):
    cols = res.columns.lists()
    return Counter(reason for reason, skipped in zip(cols["reason"], cols["skipped"]) if skipped)


class TestSkipOrder:
    """A row's `hypotheses` are its skip rules in order; a point is skipped for the first."""

    def test_rows_name_known_rules(self, z2):
        # a _HYPOTHESES key, or a field BlockContext.laplacian builds
        block = C.BlockContext(z2, [(0.3, 0.2), (-0.1, 0.4)], COORD_PLANE)
        for name, check in C.CHECKS.items():
            assert check.evaluate or not check.hypotheses, name
            for rule in check.hypotheses:
                if rule not in C._HYPOTHESES:
                    values, failures = block.laplacian(rule)
                    assert np.all(np.isfinite(values)) and not failures, (name, rule)

    @pytest.mark.parametrize("name", ["kato", "simons", "refined-simons", "subharmonicity"])
    def test_mean_curvature_before_gauss_rank(self, name):
        # off the origin the quadric is neither minimal nor of Gauss rank <= 2
        imm = build_graph_immersion(["x^2+y^2-2*z^2"], 3)
        block = C.BlockContext(imm, GRID3D.points(), None)
        assert not any(np.equal(block.rank_errors, None)) and block.minimal.sum() == 1
        reasons = skip_reasons(run(name, imm, GRID3D))
        assert reasons["mean curvature does not vanish"] == 26
        # kato and refined-simons, which rests on Kato's constant 2, ask for rank <= 2,
        # which the minimal origin fails
        rank = [reason for reason in reasons if reason.startswith("Gauss-map rank 3 > 2")]
        assert len(rank) == (name in ("kato", "refined-simons"))

    def test_gauss_conformal_skips_non_minimal_points(self):
        # its criteria agree only on a minimal surface: on (log x, xy), where x > 0, the
        # chart is isothermal at (1, 0) and mu, B_ww say conformal while omega = 0.1875
        imm = build_graph_immersion(["log(x)", "x*y"], 2)
        grid = GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (6, 5))
        res = run("gauss-conformal", imm, grid)
        assert (res.verdict, res.n_skipped) == ("not-applicable", 30)
        reasons = skip_reasons(res)
        assert reasons.pop("mean curvature does not vanish") == 15
        assert all(r.startswith("evaluation error: log") for r in reasons)  # the 15 with x <= 0

    def test_mean_curvature_before_alignment(self):
        imm = build_graph_immersion(["x^2", "y^2"], 2)
        block = C.BlockContext(imm, GRID5.points(), TILTED_PLANE)
        assert np.sum(block.alignment.value <= 0.0) == 15 and not block.minimal.any()
        res = run("log-alignment", imm, GRID5, TILTED_PLANE)
        assert skip_reasons(res) == {"mean curvature does not vanish": 25}

    def test_alignment_before_its_logarithm(self):
        # z^3 is minimal; where the tilted frame's alignment is not positive its log
        # has no jet, and the alignment rule names the reason first
        imm = catalogue_lookup("holo-curve", {"coeffs": [0, 0, 0, 1]})
        block = C.BlockContext(imm, GRID5.points(), TILTED_PLANE)
        assert len(block.laplacian("log-alignment")[1]) == 20
        res = run("log-alignment", imm, GRID5, TILTED_PLANE)
        assert skip_reasons(res) == {"alignment function not positive": 20}
        assert res.n_points - res.n_skipped == 5


    def test_the_aligned_rule_builds_no_alignment_pack(self, monkeypatch):
        # it reads the alignment jet's values, as log-alignment does
        def unused(*args):
            raise AssertionError("the aligned rule reads no frame or pairing")

        monkeypatch.setattr(C, "canonical_frame_at", unused)
        monkeypatch.setattr(C, "alignment_pack_at", unused)
        imm = catalogue_lookup("holo-curve", {"coeffs": [0, 0, 0, 1]})
        res = run("log-alignment", imm, GRID5, TILTED_PLANE)
        assert skip_reasons(res) == {"alignment function not positive": 20}


class TestRequirements:
    @pytest.mark.parametrize("name,surface,frame,message", [
        ("pluecker", ("holo-curve", {"coeffs": [0, 0, 1]}), None,
         "check 'pluecker' requires a reference frame"),
        ("jacobian", ("catenoid", {}), None, "check 'jacobian' requires a graph immersion"),
        ("isothermal", ("cylinder-over", {"base": "helicoid"}), None,
         "check 'isothermal' requires a graph immersion"),
    ])
    def test_missing_requirement_message(self, name, surface, frame, message):
        imm = catalogue_lookup(*surface)
        with pytest.raises(C.CheckConfigError, match=f"^{message}$"):
            run(name, imm, GRID5, frame)

    def test_graph_needs_two_dimensional_domain(self):
        imm = build_graph_immersion(["x*y*z"], 3)
        with pytest.raises(C.CheckConfigError,
                           match="^check 'minimal-system' requires a 2-dimensional domain$"):
            run("minimal-system", imm, GRID3D)


class TestCrossValidation:
    def test_array_fields_match_jet_pipeline(self, z2):
        gf = C._GraphFields(z2)
        xs = np.array([0.3, -0.7, 0.1])
        ys = np.array([0.5, 0.2, -0.9])
        fields = gf.fields([xs, ys], want_normB2=True)
        for i in range(3):
            pg = at_point(point_geometry_at, z2, (xs[i], ys[i]))
            assert rel_err(fields["normB2"][i], pg.normB2) <= 1e-10
            assert rel_err(fields["v"][i], math.sqrt(np.linalg.det(pg.g0))) <= 1e-12

    def test_fields_do_not_depend_on_the_block_size(self, monkeypatch):
        # nodes go to evaluate_immersion in blocks of JET_NODES; `sqrt(y)` fails at y <= 0
        gf = C._GraphFields(build_graph_immersion(["x^3-3*x*y^2", "sqrt(y)*x"], 2))
        axes = list(np.random.default_rng(1).uniform(-1.0, 1.0, (2, 23)))
        whole = gf.fields(axes, want_normB2=True)
        monkeypatch.setattr(C, "JET_NODES", 5)
        blocks = gf.fields(axes, want_normB2=True)
        assert np.isnan(whole["v"]).sum() == np.sum(axes[1] <= 0) > 0
        for key in ("v", "normB2"):
            assert np.array_equal(whole[key], blocks[key], equal_nan=True)

    @pytest.mark.parametrize("components, n", [
        (["x^2-y^2", "2*x*y"], 2),
        (["x^2-y^2+0.3*z", "2*x*y-z^2"], 3),
        (["x^3-3*x*y^2+0.2*x", "exp(0.3*x)*sin(y)", "x*y^2"], 2),
        (["x^2-y^2+0.3*z", "2*x*y-z^2", "sin(x*z)+y*z^2"], 3),
    ])
    def test_closed_form_algebra_matches_jet_pipeline(self, components, n):
        # against sympy's textbook route and point_geometry_at, at the origin too: n = 3
        # takes the 3x3 cofactor branch, m = 3 a third normal direction
        imm = build_graph_immersion(components, n)
        gf = C._GraphFields(imm)
        points = np.array([[0.3, 0.5, -0.2], [-0.7, 0.2, 0.4], [0.1, -0.9, 0.6],
                           [0.0, 0.0, 0.0]])[:, :n]
        fields = gf.fields(list(points.T), want_normB2=True)
        # growth's order-1 jets give the same v
        assert np.array_equal(gf.fields(list(points.T))["v"], fields["v"])
        for i, point in enumerate(points):
            v, normB2 = sympy_graph_fields(components, n, tuple(point))
            assert rel_err(fields["v"][i], v) <= 1e-14
            assert rel_err(fields["normB2"][i], normB2) <= 1e-13
            pg = at_point(point_geometry_at, imm, tuple(point))
            assert rel_err(fields["normB2"][i], pg.normB2) <= 1e-10
            assert rel_err(fields["v"][i], math.sqrt(np.linalg.det(pg.g0))) <= 1e-12


SURFACE_CHECKS = ["minimality", "simons", "kato", "refined-simons", "gauss-conformal", "subharmonicity"]
SOLID_CHECKS = ["minimality", "pluecker", "alignment-identities", "log-alignment", "simons",
                "kato", "refined-simons", "gauss-conformal", "subharmonicity"]


def verdicts(imm, grid, names, frame=None):
    return [(res.name, res.verdict, res.n_points, res.n_skipped)
            for res in run_checks(imm, grid, [CheckSpec(name) for name in names], frame)]


class TestCodimensionThree:
    """Enneper's surface beside z^4/4 in R^5: three normal directions, which no catalogue surface has."""

    GRID = GridSpec(((-0.8, 0.8), (-0.8, 0.8)), (9, 9))

    def test_every_surface_check_passes_with_no_skip(self):
        imm = _parametric(oracles.ENNEPER_Z4, 2, "enneper-z4")
        assert imm.m == 3
        assert verdicts(imm, self.GRID, SURFACE_CHECKS) == [(name, "pass", 81, 0) for name in SURFACE_CHECKS]

    def test_a_bent_fourth_component_fails_minimality(self):
        # + 1e-3 x^2 gives the fourth component a Laplacian of 2e-3, and H that length
        comps = oracles.ENNEPER_Z4[:3] + [oracles.ENNEPER_Z4[3] + " + 1e-3*x^2"] + oracles.ENNEPER_Z4[4:]
        res = run("minimality", _parametric(comps, 2, "bent"), self.GRID)
        assert res.verdict == "fail" and 1.9e-3 <= res.worst_residual <= 2.1e-3


class TestVeroneseCone:
    """The cone over the Veronese surface: a minimal 3-fold in R^5 that is not a product."""

    CHART = GridSpec(((0.8, 1.2), (0.4, 0.8), (0.3, 0.7)), (4, 4, 4))

    def test_every_solid_check_passes_with_no_skip(self):
        imm = _parametric(oracles.VERONESE_CONE, 3, "veronese-cone")
        assert verdicts(imm, self.CHART, SOLID_CHECKS, np.eye(3, 5)) == \
            [(name, "pass", 64, 0) for name in SOLID_CHECKS]

    def test_the_vertex_is_skipped_and_nothing_else_fails(self):
        imm = _parametric(oracles.VERONESE_CONE, 3, "veronese-cone")
        for res in run_checks(imm, GRID3D, [CheckSpec(name) for name in SOLID_CHECKS], np.eye(3, 5)):
            assert res.verdict == "pass", res.name
            assert value_at(res, (0.0, 0.0, 0.0), "reason") == \
                "evaluation error: sqrt of non-positive jet value 0.0", res.name

    def test_a_stretched_last_component_fails_minimality(self):
        comps = oracles.VERONESE_CONE[:4] + [f"1.04*{oracles.VERONESE_CONE[4]}"]
        res = run("minimality", _parametric(comps, 3, "stretched"), self.CHART)
        assert res.verdict == "fail" and 2.7e-2 <= res.worst_residual <= 2.9e-2
