import math
import pickle

import numpy as np
import pytest

from curvlab import checks as C
from curvlab.expressions import BinOp, Const, Var
from curvlab.geometry import laplace_beltrami, point_geometry_at
from curvlab.immersions import (
    GridSpec,
    Immersion,
    build_graph_immersion,
    catalogue_lookup,
    evaluate_array,
)
from curvlab.scenario import CheckSpec, run_checks

from oracles import holomorphic_ball_volume, rel_err, substitute


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


def evaluated(res):
    """Detail records of the points a check evaluated (not skipped)."""
    return [r["detail"] for r in res.details if not r["skipped"]]


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
        origin = next(r for r in res.details if r["point"] == (0.0, 0.0))
        assert rel_err(origin["residual"], 4.0) <= 1e-10

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
        origin = next(r for r in res.details if r["point"] == (0.0, 0.0))
        assert rel_err(origin["residual"], 4.0) <= 1e-12

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
        pg = point_geometry_at(affine, (0.0, 0.0))
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
        # strict slack away from the symmetry point
        slacks = [r["detail"]["signed_violation"] for r in res.details if not r["skipped"]]
        assert min(slacks) < -1e-3

    def test_affine_zero_plus_zero(self, affine):
        pg = point_geometry_at(affine, (0.0, 0.0))
        res = run("log-alignment", affine, GRID5, pg.tangent_frame)
        assert res.worst_residual <= 1e-12


class TestSimons:
    def test_z2_ratio_everywhere(self, z2):
        res = run("simons", z2, GRID7)
        reports = evaluated(res)
        assert res.verdict == "pass"
        for rep in reports:
            assert abs(rep["ratio"] - 1.5) <= 1e-6
        assert res.extras["worst_identity_residual"] <= 1e-10

    def test_catenoid_ratio_one(self, catenoid):
        res = run("simons", catenoid, GRID7)
        reports = evaluated(res)
        assert res.verdict == "pass"
        for rep in reports:
            assert abs(rep["ratio"] - 1.0) <= 1e-6
            # codimension-one terms: tilde = 4 mu1^4, under = 0
            assert rel_err(rep["tilde_term"], -rep["inner_formula"]) <= 1e-8

    def test_affine_not_applicable_ratio(self, affine):
        res = run("simons", affine, GRID5)
        reports = evaluated(res)
        assert res.verdict == "pass"
        assert all(rep["ratio"] is None for rep in reports)

    def test_inner_term_two_routes(self, z2, catenoid, cylinder):
        for imm, grid in [(z2, GRID5), (catenoid, GRID5), (cylinder, GRID3D)]:
            res = run("simons", imm, grid)
            for rep in evaluated(res):
                if rep["inner_formula"] is None:
                    continue
                scale = 1.0 + abs(rep["inner_numeric"])
                assert abs(rep["inner_numeric"] - rep["inner_formula"]) / scale <= 1e-4


class TestKato:
    def test_catenoid_equality_everywhere(self, catenoid):
        res = run("kato", catenoid, GRID7)
        reports = evaluated(res)
        assert res.verdict == "pass"
        for rep in reports:
            assert abs(rep["gap"]) <= 1e-5

    def test_z2_equality_with_zeta(self, z2):
        res = run("kato", z2, GRID7)
        reports = evaluated(res)
        assert res.verdict == "pass"
        for rep in reports:
            assert abs(rep["gap"]) <= 1e-5
            assert rep["zeta_re"] is not None and rep["zeta_im"] is not None
            assert rep["zeta_residual"] <= 1e-6
            assert rep["xi1"] == rep["zeta_re"] and rep["xi2"] == -rep["zeta_im"]

    def test_affine_not_applicable(self, affine):
        res = run("kato", affine, GRID5)
        assert res.verdict == "not-applicable"

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
        margins = [abs(r["detail"]["margin"]) for r in res.details if not r["skipped"]]
        assert max(margins) <= 1e-9


class TestGaussConformal:
    def test_z2_unanimous(self, z2):
        res = run("gauss-conformal", z2, GRID7)
        assert res.verdict == "pass"
        assert res.extras["all_conformal"]
        assert res.extras["omega_max"] <= 1e-10
        for rec in res.details:
            d = rec["detail"]
            assert d["criterion_mu"] == d["criterion_bww"] == d["criterion_omega"] is True

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
            sreports = evaluated(run("simons", imm, GRID5))
            cres = run("gauss-conformal", imm, GRID5)
            simons_eq = all(abs(rep["ratio"] - 1.5) <= 1e-4 for rep in sreports)
            assert simons_eq == conformal == cres.extras["all_conformal"]


class TestJacobian:
    def test_z2_values(self, z2):
        res = run("jacobian", z2, GRID5)
        assert res.verdict == "pass"
        rec = next(r for r in res.details if r["point"] == (1.0, 0.0))
        assert rel_err(rec["detail"]["sigma1"], 2.0) <= 1e-12
        assert rel_err(rec["detail"]["sigma2"], 2.0) <= 1e-12
        assert rel_err(rec["detail"]["minor_sum"], 16.0) <= 1e-12
        assert rel_err(rec["detail"]["volume_factor"], 5.0) <= 1e-12

    def test_affine_zero_graph(self):
        imm = build_graph_immersion(["0"], 2)
        res = run("jacobian", imm, GRID5)
        rec = res.details[0]["detail"]
        assert rec["sigma1"] == 0.0 and rec["volume_factor"] == 1.0

    def test_independent_svd_oracle(self):
        imm = build_graph_immersion(["x^3", "y"], 2)
        res = run("jacobian", imm, GridSpec(((0.5, 1.5), (0.5, 1.5)), (3, 3)))
        assert res.verdict == "pass"
        assert res.worst_residual <= 1e-10
        rec = next(r for r in res.details if r["point"] == (1.0, 1.0))
        # Df = [[3, 0], [0, 1]]: singular values 3, 1 by inspection
        assert rel_err(rec["detail"]["sigma1"], 3.0) <= 1e-12
        assert rel_err(rec["detail"]["sigma2"], 1.0) <= 1e-12


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
        rec = res.details[0]["detail"]
        assert rel_err(rec["conformal_factor"], 1.5) <= 1e-12
        assert rec["decomposition_residual"] <= 1e-12

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
        for rec in res.details:
            x, y = rec["point"]
            g = point_geometry_at(sheared, (x, a * x + b * y)).g0
            residual = max(abs(g[0, 0] - g[1, 1]), abs(g[0, 1])) / (1.0 + abs(g[0, 0]))
            assert abs(rec["detail"]["conformal_factor"] - g[0, 0]) <= 1e-12 * (1.0 + abs(g[0, 0]))
            assert abs(rec["residual"] - residual) <= 1e-12 * (1.0 + residual)


class TestSubharmonicity:
    @pytest.mark.parametrize("s,q", [(1, 1), (1, 3)])
    def test_z2_pointwise(self, z2, s, q):
        res = run("subharmonicity", z2, GridSpec(((-1, 1), (-1, 1)), (9, 9)), s=s, q=q)
        assert res.verdict == "pass"
        margins = [r["detail"]["margin"] for r in res.details if not r["skipped"]]
        assert min(margins) >= -1e-6

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

        pt = (0.4, -0.3)
        pg = point_geometry_at(z2, pt)
        nb = pg.normB2_jet
        v = scalar_field_jet(pg, "volume")
        lap_product = laplace_beltrami_of_jet(pg, nb * v)
        cross = np.array([nb.coefficient((1, 0)), nb.coefficient((0, 1))]) @ pg.g_inv @ np.array(
            [v.coefficient((1, 0)), v.coefficient((0, 1))]
        )
        lap_sum = (
            v.value * laplace_beltrami_of_jet(pg, nb)
            + nb.value * laplace_beltrami_of_jet(pg, v)
            + 2.0 * cross
        )
        assert rel_err(lap_product, lap_sum) <= 1e-10


class TestGrowth:
    def test_affine_disc_area(self, affine):
        table = C.growth_table(affine, [1.0, 2.0, 4.0], cells=256)
        for R, V in zip(table.radii, table.volumes):
            assert abs(V - math.pi * R * R) <= 0.01 * math.pi * R * R
        assert table.flags["volume_monotone"]
        assert table.flags["volume_bound_ok"]

    def test_z2_slope_ratio_increasing(self, z2):
        table = C.growth_table(z2, [10.0, 100.0, 1000.0], cells=256)
        assert table.flags["v_ratio_strictly_increasing"]
        assert not table.flags["v_subcritical"]
        assert abs(table.volume_exponent - 2.0) <= 0.2

    def test_volume_bound_at_every_radius(self, z2):
        table = C.growth_table(z2, [2.0, 4.0, 8.0], cells=128)
        for vol, mv, R in zip(table.volumes, table.max_v, table.radii):
            assert vol <= mv * math.pi * R * R * (1 + 1e-9)

    def test_affine_3d_ball_volume(self):
        # the graph is a 3-plane, so Omega_R is a round 3-ball of radius R in it
        imm = catalogue_lookup("affine", {"slopes": [[0.5, -0.25, 0.3], [0.1, 0.75, -0.4]]})
        table = C.growth_table(imm, [1.0, 2.0, 4.0], cells=64)
        for R, V in zip(table.radii, table.volumes):
            assert abs(V - 4.0 * math.pi * R**3 / 3.0) <= 0.01 * 4.0 * math.pi * R**3 / 3.0
        assert table.flags["volume_monotone"]
        assert table.flags["volume_bound_ok"]

    @pytest.mark.parametrize("k, exprs", [
        (2, ["x^2 - y^2", "2*x*y"]),
        (3, ["x^3 - 3*x*y^2", "3*x^2*y - y^3"]),
    ], ids=["z2", "z3"])
    def test_curved_graph_volumes_match_closed_form(self, k, exprs):
        # the closed form integrates v = 1 + k^2 |z|^(2k-2): a table that drops v is off
        # by far more than 5%; the error grows with R as Omega_R covers fewer cells
        table = C.growth_table(build_graph_immersion(exprs, 2), [1.0, 10.0, 100.0], cells=256)
        for R, V in zip(table.radii, table.volumes):
            exact = holomorphic_ball_volume(k, 1.0, R)
            assert abs(V - exact) <= 0.05 * exact, (R, V, exact)

    def test_z3_too_coarse_at_radius_1000(self):
        imm = build_graph_immersion(["x^3 - 3*x*y^2", "3*x^2*y - y^3"], 2)
        result, table = C.growth_check_result(imm, [1000.0], 256, None)
        assert table is None and result.verdict == "not-applicable"
        assert result.reason.startswith("quadrature too coarse")

    def test_too_coarse_quadrature(self, affine):
        with pytest.raises(C.CheckConfigError, match="quadrature too coarse"):
            C.growth_table(affine, [1.0], cells=2)

    def test_requires_graph(self, catenoid):
        with pytest.raises(C.CheckConfigError, match="graph"):
            C.growth_table(catenoid, [1.0])

    # each of these crashed, or ran with no radius or a not-applicable verdict
    @pytest.mark.parametrize("radii, cells, message", [
        ([], 64, "growth radii must be non-empty, positive and strictly increasing, got []"),
        ([2, 1], 64, "growth radii must be non-empty, positive and strictly increasing, got [2.0, 1.0]"),
        ([-1, 2], 64, "growth radii must be non-empty, positive and strictly increasing, got [-1.0, 2.0]"),
        ([0, 2], 64, "growth radii must be non-empty, positive and strictly increasing, got [0.0, 2.0]"),
        ([1, 2], 0, "growth cells must be at least 1, got 0"),
        ([1, 2], 4097, "growth cells^2 must be at most 2^24, got 4097^2"),
    ], ids=["empty", "decreasing", "negative", "zero", "no-cells", "too-many-cells"])
    def test_options_outside_their_rule(self, affine, radii, cells, message):
        with pytest.raises(C.CheckConfigError) as err:
            C.growth_table(affine, radii, cells)
        assert str(err.value) == message


class TestProbe:
    def test_affine_lhs_zero(self, affine):
        rec = C.estimate_probe(affine, None, C.ProbeParams(cells=64))
        assert rec.applicable
        assert rec.pointwise_lhs == 0.0
        assert rec.implied_c4 == 0.0
        assert rec.lp_lhs == 0.0

    def test_z2_pointwise_value(self, z2):
        rec = C.estimate_probe(z2, COORD_PLANE, C.ProbeParams(t=3, q=4, R=1.0, R0=0.5, cells=128))
        assert rel_err(rec.pointwise_lhs, 16.0) <= 1e-10
        assert rec.implied_c3 is not None and rec.implied_c3 > 0
        assert rec.implied_c4 is not None and rec.implied_c4 > 0

    def test_parameter_domain(self):
        with pytest.raises(C.CheckConfigError, match="t >= 3"):
            C.ProbeParams(t=2.0).validate()
        with pytest.raises(C.CheckConfigError, match=r"q > \(3t-3\)/2"):
            C.ProbeParams(t=3.0, q=2.0).validate()
        with pytest.raises(C.CheckConfigError, match="R0 < R"):
            C.ProbeParams(R=1.0, R0=2.0).validate()

    def test_cells_bounded_before_quadrature(self, affine):
        with pytest.raises(C.CheckConfigError, match=r"^probe cells\^2 must be at most 2\^24"):
            C.estimate_probe(affine, None, C.ProbeParams(cells=100000))
        # the largest legal counts: 4096^2 = 256^3 = 2^24
        assert C.quadrature_cells_fault(4096, 2) is None and C.quadrature_cells_fault(256, 3) is None
        assert C.quadrature_cells_fault(257, 3) == "cells^3 must be at most 2^24, got 257^3"

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

    # affine graphs are minimal: the probe reaches the box, whose 9 x 9 cells put 1 to 7
    # inside Omega_1; growth on the same ball gives the same reason
    @pytest.mark.parametrize("exprs, inside", [
        (["20*x", "20*y"], 1), (["20*x", "3*y"], 3), (["20*x", "y"], 7),
    ])
    def test_ball_with_fewer_than_8_cells_not_applicable(self, exprs, inside):
        imm = build_graph_immersion(exprs, 2)
        rec = C.estimate_probe(imm, None, C.ProbeParams(cells=9))
        growth, table = C.growth_check_result(imm, [1.0], 9, None)
        assert not rec.applicable and table is None
        assert rec.reason == growth.reason == f"quadrature too coarse: {inside} cells inside radius 1.0"

    @pytest.mark.filterwarnings("error")
    def test_undefined_cell_not_applicable(self):
        # w = 1/(z - c) is minimal, with its pole at the centre c of one of the 16 x 16 cells
        c = "0.0625"
        r2 = f"((x-{c})^2+(y-{c})^2)"
        imm = build_graph_immersion([f"(x-{c})/{r2}", f"-(y-{c})/{r2}"], 2)
        rec = C.estimate_probe(imm, COORD_PLANE, C.ProbeParams(cells=16))
        assert not rec.applicable
        assert rec.reason == "graph undefined on 1 of 256 quadrature cells within radius 1.0"


CUBIC = [[0.3, 0.1], [0.7, -0.2], [1.4, 0.5], [0.2, 0.1]]  # generic: no symmetric values
QUADRATURE_SURFACES = {
    "z2": (("holo-curve", {"coeffs": [0, 0, 1]}), [2.0, 4.0, 8.0], 128),
    "cubic": (("holo-curve", {"coeffs": CUBIC}), [0.5, 1.0, 2.0], 128),
    "cylinder-cubic": (("cylinder-over", {"base": "holo-curve", "base_params": {"coeffs": CUBIC}}),
                       [0.5, 1.0, 2.0], 24),
}


def full_box(gf, radius, cells, want_normB2=False):
    """`fields` and the squared distance on every midpoint cell of [-radius, radius]^n, unmasked."""
    h = 2.0 * radius / cells
    centers = -radius + h * (np.arange(cells) + 0.5)
    axes = [m.ravel() for m in np.meshgrid(*([centers] * gf.n), indexing="ij")]
    f = np.stack([evaluate_array(c, axes) for c in gf.comps], axis=1)
    dist2 = sum(ax**2 for ax in axes) + np.sum((f - gf.f0) ** 2, axis=1)
    return gf.fields(axes, want_normB2), dist2, h**gf.n


class TestQuadratureBox:
    """The box integrates over the cells inside Omega_R only; a full-box masked rule is the reference."""

    @pytest.mark.parametrize("name", sorted(QUADRATURE_SURFACES))
    def test_growth_table_equals_full_box(self, name):
        surface, radii, cells = QUADRATURE_SURFACES[name]
        imm = catalogue_lookup(*surface)
        table = C.growth_table(imm, radii, cells)
        gf = C._GraphFields(imm)
        for R, volume, max_v, half in zip(radii, table.volumes, table.max_v, table.half_volumes):
            for radius, want in ((R, volume), (R / 2.0, half)):
                fields, dist2, weight = full_box(gf, radius, cells)
                v = fields["v"][dist2 <= radius * radius]
                assert float(np.sum(v) * weight) == want
                if radius == R:
                    assert float(np.max(v)) == max_v

    @pytest.mark.parametrize("name", sorted(QUADRATURE_SURFACES))
    def test_probe_record_equals_full_box(self, name):
        surface, _, cells = QUADRATURE_SURFACES[name]
        imm = catalogue_lookup(*surface)
        params = C.ProbeParams(t=3.0, q=4.0, R=1.0, R0=0.4, cells=cells)  # R0 != R/2: two sub-balls
        rec = C.estimate_probe(imm, None, params)
        assert rec.applicable
        fields, dist2, weight = full_box(C._GraphFields(imm), params.R, cells, want_normB2=True)
        v, nb2 = fields["v"], fields["normB2"]
        in_R, in_R0, in_half = (dist2 <= r**2 for r in (params.R, params.R0, params.R / 2.0))
        t, q = params.t, params.q
        lp_lhs = float(np.sum((nb2[in_R0] ** t) * (v[in_R0] ** (2 * q + 1))) * weight) ** (1.0 / t)
        lp_rhs = float(np.sum(v[in_R] ** (2 * q + 1)) * weight) ** (1.0 / t)
        assert (rec.lp_lhs, rec.lp_rhs) == (lp_lhs, lp_rhs)
        assert rec.implied_c3 == lp_lhs * (params.R - params.R0) ** 2 / lp_rhs
        assert rec.max_v == float(np.max(v[in_R]))
        assert rec.volume_R == float(np.sum(v[in_R]) * weight)
        assert rec.volume_half_R == float(np.sum(v[in_half]) * weight)

    @pytest.mark.filterwarnings("error")
    def test_undefined_derivative_outside_the_ball_is_not_integrated(self):
        # a cone point at the centre (0.9375, 0.9375) of a corner cell of the 16 x 16 box:
        # F is finite on every cell, v is not at that one, which lies outside Omega_1
        imm = build_graph_immersion(["sqrt((x-0.9375)^2+(y-0.9375)^2)", "0"], 2)
        assert not np.all(np.isfinite(full_box(C._GraphFields(imm), 1.0, 16)[0]["v"]))
        result, table = C.growth_check_result(imm, [1.0], 16, None)
        assert result.verdict == "pass" and table is not None

    @pytest.mark.filterwarnings("error")
    def test_undefined_derivative_inside_the_ball_not_applicable(self):
        imm = build_graph_immersion(["sqrt((x-0.0625)^2+(y-0.0625)^2)", "0"], 2)
        _, dist2, _ = full_box(C._GraphFields(imm), 1.0, 16)
        inside = int(np.sum(dist2 <= 1.0))
        result, table = C.growth_check_result(imm, [1.0], 16, None)
        assert result.verdict == "not-applicable" and table is None
        assert result.reason == (
            f"graph undefined on 1 of {inside} quadrature cells inside the extrinsic ball of radius 1.0"
        )


def all_evaluated(residuals, **detail):
    """The Columns of len(residuals) points that were all evaluated, with these detail columns."""
    none = np.full(len(residuals), None, dtype=object)
    points = [(float(i), 0.0) for i in range(len(residuals))]
    return C.Columns(points, none, np.array(residuals, dtype=float), none.copy(), detail)


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

    def test_records_are_built_from_the_columns(self):
        # point 1 is skipped; an _ABSENT value omits its key, None stays
        cols = C.Columns(
            [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], np.array([None, "flat", None], dtype=object),
            np.array([0.5, -0.0]), np.array([None, "why"], dtype=object),
            {"a": np.array([1.0, 2.0]), "b": np.array([None, C._ABSENT], dtype=object)},
        )
        res = C.aggregate_check("minimality", 1.0, cols)
        assert (res.n_points, res.n_skipped, res.worst_residual) == (3, 1, 0.5)
        assert res.details == [
            {"residual": 0.5, "skipped": False, "reason": None,
             "detail": {"a": 1.0, "b": None}, "point": (0.0, 0.0)},
            {"residual": None, "skipped": True, "reason": "flat", "detail": {},
             "point": (1.0, 0.0)},
            {"residual": -0.0, "skipped": False, "reason": "why", "detail": {"a": 2.0},
             "point": (2.0, 0.0)},
        ]
        assert res.details is res.details  # built once
        # _ABSENT stays itself when the columns are pickled
        assert pickle.loads(pickle.dumps(res.columns)).records() == res.details

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
            pg = point_geometry_at(z2, (xs[i], ys[i]))
            assert rel_err(fields["normB2"][i], pg.normB2) <= 1e-10
            assert rel_err(fields["v"][i], math.sqrt(np.linalg.det(pg.g0))) <= 1e-12

    @pytest.mark.parametrize("components, n", [
        (["x^2-y^2", "2*x*y"], 2),
        (["x^2-y^2+0.3*z", "2*x*y-z^2"], 3),
        (["x^3-3*x*y^2+0.2*x", "exp(0.3*x)*sin(y)", "x*y^2"], 2),
    ])
    def test_closed_form_algebra_matches_jet_pipeline(self, components, n):
        # n = 3 takes the 3x3 cofactor branch, m = 3 a third normal direction
        imm = build_graph_immersion(components, n)
        gf = C._GraphFields(imm)
        points = np.array([[0.3, 0.5, -0.2], [-0.7, 0.2, 0.4], [0.1, -0.9, 0.6]])[:, :n]
        fields = gf.fields(list(points.T), want_normB2=True)
        for i, point in enumerate(points):
            pg = point_geometry_at(imm, tuple(point))
            assert rel_err(fields["normB2"][i], pg.normB2) <= 1e-10
            assert rel_err(fields["v"][i], math.sqrt(np.linalg.det(pg.g0))) <= 1e-12
        origin = gf.fields([np.zeros(1)] * n, want_normB2=True)
        pg = point_geometry_at(imm, (0.0,) * n)
        assert rel_err(origin["normB2"][0], pg.normB2) <= 1e-10
        assert rel_err(origin["v"][0], math.sqrt(np.linalg.det(pg.g0))) <= 1e-12
