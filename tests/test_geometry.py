import functools
import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from curvlab.geometry import (
    SCALAR_FIELDS,
    ImmersionRankError,
    _cofactor,
    _det,
    _det_cofactors,
    _frame_B,
    complex_pack_at,
    curvature_pack_at,
    frame_pairing,
    gauss_rank_at,
    gauss_svd,
    inverse_cholesky,
    laplace_beltrami_of_jet,
    point_geometry_at,
    replaced_pairing,
    scalar_field_jet,
)
from curvlab.expressions import BinOp, Const, Var, parse_expression
from curvlab.immersions import GridSpec, Immersion, build_graph_immersion, catalogue_lookup
from curvlab import geometry, jets
from curvlab.jets import Jet, jet_einsum, jet_elementary, jet_product, ordered_einsum
from curvlab.checks import BlockContext
from curvlab.scenario import CheckSpec, run_checks

import oracles
from oracles import alignment_pack, at_point, canonical_frame, gauss_rank, normal_form_residual, rel_err, substitute


@pytest.fixture(scope="module")
def z2():
    return catalogue_lookup("holo-curve", {"coeffs": [0, 0, 1]})


@pytest.fixture(scope="module")
def catenoid():
    return catalogue_lookup("catenoid", {})


@pytest.fixture(scope="module")
def cylinder():
    return catalogue_lookup("cylinder-over", {"base": "helicoid"})


COORD_PLANE_2 = np.eye(2, 4)
CATENOID_PLANE = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
CYLINDER_PLANE = np.array(
    [[1.0, 0, 0, 0, 0], [0, 0, 1.0, 0, 0], [0, 0, 0, 0, 1.0]]
)


class TestPointGeometry:
    def test_affine_is_flat(self):
        pg = at_point(point_geometry_at, catalogue_lookup("affine", {}), (0.7, -1.3))
        assert pg.normB2 == 0.0
        assert pg.nablaB2 == 0.0
        assert np.all(pg.h == 0.0)
        assert np.linalg.norm(pg.mean_curvature) == 0.0

    def test_z2_at_origin(self, z2):
        pg = at_point(point_geometry_at, z2, (0.0, 0.0))
        assert rel_err(pg.normB2, 16.0) <= 1e-12
        # B_xx = 2 eps3, B_xy = 2 eps4, B_yy = -2 eps3
        assert np.allclose(pg.B_coord[0, 0], [0, 0, 2, 0], atol=1e-12)
        assert np.allclose(pg.B_coord[0, 1], [0, 0, 0, 2], atol=1e-12)
        assert np.allclose(pg.B_coord[1, 1], [0, 0, -2, 0], atol=1e-12)

    def test_z2_closed_forms_on_grid(self, z2):
        for x in np.linspace(-1, 1, 5):
            for y in np.linspace(-1, 1, 5):
                pg = at_point(point_geometry_at, z2, (x, y))
                assert rel_err(pg.normB2, oracles.z2_normB2(x, y)) <= 1e-10
                assert rel_err(pg.nablaB2, oracles.z2_nablaB2(x, y)) <= 1e-9

    def test_catenoid_closed_forms(self, catenoid):
        for u in np.linspace(-1, 1, 9):
            pg = at_point(point_geometry_at, catenoid, (u, 0.3))
            assert rel_err(pg.normB2, oracles.catenoid_normB2(u)) <= 1e-8
            assert rel_err(pg.nablaB2, oracles.catenoid_nablaB2(u)) <= 1e-8
            assert np.linalg.norm(pg.mean_curvature) <= 1e-12

    def test_frames_are_orthonormal(self, z2, catenoid, cylinder):
        for imm, pts in [
            (z2, [(0.3, -0.8), (1.0, 1.0)]),
            (catenoid, [(0.5, 0.4)]),
            (cylinder, [(0.2, -0.5, 0.9)]),
            (catalogue_lookup("enneper", {}), [(0.4, 0.1)]),
        ]:
            for pt in pts:
                pg = at_point(point_geometry_at, imm, pt)
                frame = np.vstack([pg.tangent_frame, pg.normal_frame])
                assert np.abs(frame @ frame.T - np.eye(pg.n + pg.m)).max() <= 1e-10

    def test_codazzi_and_trace_identities(self, z2, catenoid, cylinder):
        for imm, pt in [
            (z2, (0.4, -0.6)),
            (catenoid, (0.8, 0.2)),
            (cylinder, (0.1, 0.7, -0.4)),
            (catalogue_lookup("enneper", {}), (0.5, -0.3)),
        ]:
            pg = at_point(point_geometry_at, imm, pt)
            scale = 1.0 + math.sqrt(pg.nablaB2)
            codazzi = np.abs(pg.h3 - pg.h3.transpose(0, 1, 3, 2)).max()
            assert codazzi <= 1e-8 * scale
            trace = np.abs(np.einsum("aiik->ak", pg.h3)).max()
            assert trace <= 1e-8

    def test_B_is_the_normal_part_of_the_second_partials(self, z2, catenoid, cylinder):
        # reference: the ambient projector P^N = I - dF^T g^-1 dF on point values; the
        # last surface is neither minimal nor conformal, in codimension three
        for imm, pt in [
            (z2, (0.4, -0.6)),
            (catenoid, (0.8, 0.2)),
            (cylinder, (0.1, 0.7, -0.4)),
            (build_graph_immersion(["x^2 - y^3", "x*y + y", "x^3*y"], 2), (0.3, -0.7)),
        ]:
            pg = at_point(point_geometry_at, imm, pt)
            PN = np.eye(pg.n + pg.m) - pg.dF.T @ np.linalg.inv(pg.g0) @ pg.dF
            want = np.einsum("AB,ijB->ijA", PN, pg.second_partials)
            assert np.abs(pg.B_coord - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
            assert rel_err(pg.normB2_jet.value, pg.normB2) <= 1e-12

    def test_rank_failure_reported(self):
        # every component is x*y, so d_x F and d_y F are parallel at every point
        comps = tuple(
            parse_expression(s, 2) for s in ["x*y", "x*y", "x*y", "x*y"]
        )
        sing = Immersion(2, 2, comps, "parametric")
        with pytest.raises(ImmersionRankError):
            at_point(point_geometry_at, sing, (0.0, 0.0))

    def test_a_metric_that_does_not_factor_is_reported(self, z2, monkeypatch):
        # a Gram matrix with det g above add_rank_errors' floor factors in practice, so
        # the factorisation is made to fail at the second point
        def second_fails(g):
            T, positive = inverse_cholesky(g)
            return T, positive & (np.arange(len(g)) != 1)

        monkeypatch.setattr(geometry, "inverse_cholesky", second_fails)
        pg = point_geometry_at(z2, [(0.1, 0.2), (0.3, -0.1)])
        assert pg.errors[0] is None and isinstance(pg.errors[1], ImmersionRankError)
        assert str(pg.errors[1]) == "metric not positive definite at (0.3, -0.1)"


class TestInverseCholesky:
    @pytest.mark.parametrize("n", [2, 3])
    def test_rows_that_do_not_factor_give_the_identity_and_a_false_mask(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((6, n, n))
        g = A @ A.swapaxes(1, 2) + 0.1 * np.eye(n)
        g[1] = np.diag([1.0, -1.0, 2.0][:n])  # indefinite
        g[3, 0, 1] = g[3, 1, 0] = np.nan  # LAPACK factors it without an error
        g[4, -1, -1] = np.inf
        T, positive = inverse_cholesky(g)
        assert positive.tolist() == [True, False, True, False, False, True]
        assert (T[~positive] == np.eye(n)).all()
        for p in np.flatnonzero(positive):
            assert T[p].tobytes() == np.linalg.inv(np.linalg.cholesky(g[p])).tobytes()
        # a stack that factors at once gives the same rows
        T_all, positive_all = inverse_cholesky(g[positive])
        assert positive_all.all() and T_all.tobytes() == T[positive].tobytes()


class TestGaussRank:
    def test_the_rank_threshold_is_relative_to_the_largest_singular_value(self):
        sv = np.array([[1e6, 1e6, 1e-3], [1e-6, 1e-6, 1e-15], [1e-6, 1e-6, 1e-13], [0.0, 0.0, 0.0]])
        assert gauss_rank_at(sv).tolist() == [2, 2, 3, 0]

    def test_affine_rank_zero(self):
        rank, sv = at_point(gauss_rank, catalogue_lookup("affine", {}), (0.0, 0.0))
        assert rank == 0
        assert np.all(sv == 0.0)

    def test_z2_rank_two(self, z2):
        rank, sv = at_point(gauss_rank, z2, (0.0, 0.0))
        assert rank == 2
        assert np.allclose(sv, [math.sqrt(8), math.sqrt(8)], atol=1e-12)

    def test_cylinder_rank_two_with_flat_factor(self, cylinder):
        pg = at_point(point_geometry_at, cylinder, (0.4, -0.7, 1.1))
        rank, sv = at_point(gauss_rank, cylinder, (0.4, -0.7, 1.1))
        assert rank == 2
        assert sv[2] <= 1e-10
        assert np.abs(pg.h[:, 2, :]).max() <= 1e-10

    def test_rank_three_detected(self):
        # graph of a definite quadric over R^3 bends in all three directions
        imm = build_graph_immersion(["x^2 + y^2 + z^2"], 3)
        rank, _ = at_point(gauss_rank, imm, (0.1, 0.2, 0.3))
        assert rank == 3
        # geometry computes the frame anyway; the checks' rank rule decides
        assert at_point(canonical_frame, imm, (0.1, 0.2, 0.3)).mu1 > 0.0
        [reason] = BlockContext(imm, [(0.1, 0.2, 0.3)], None).rank_errors
        assert reason.startswith("Gauss-map rank 3 > 2 at (0.1, 0.2, 0.3) (singular values [")


class TestCanonicalFrame:
    def test_z2_origin(self, z2):
        pg = point_geometry_at(z2, [(0.0, 0.0)])
        cf = canonical_frame(pg)
        assert rel_err(cf.mu1[0], 2.0) <= 1e-12
        assert rel_err(cf.mu2[0], 2.0) <= 1e-12
        assert normal_form_residual(pg, cf)[0] <= 1e-10

    def test_catenoid_origin(self, catenoid):
        cf = at_point(canonical_frame, catenoid, (0.0, 0.0))
        assert rel_err(cf.mu1, 1.0) <= 1e-12
        assert abs(cf.mu2) <= 1e-12

    def test_affine_all_zero(self):
        cf = at_point(canonical_frame, catalogue_lookup("affine", {}), (0.3, 0.1))
        assert cf.mu1 == 0.0 and cf.mu2 == 0.0

    def test_normal_form_and_norm_identity(self, z2, catenoid, cylinder):
        for imm, pt in [
            (z2, (0.7, -0.2)),
            (catenoid, (0.5, 1.0)),
            (cylinder, (0.3, 0.3, -0.9)),
            (catalogue_lookup("enneper", {}), (0.6, 0.2)),
        ]:
            pg = point_geometry_at(imm, [pt])
            cf = canonical_frame(pg)
            mu1, mu2 = cf.mu1[0], cf.mu2[0]
            assert mu1 >= mu2 >= 0.0
            assert normal_form_residual(pg, cf)[0] <= 1e-8 * (1.0 + mu1)
            assert rel_err(pg.normB2[0], 2 * mu1**2 + 2 * mu2**2) <= 1e-8
            # kernel directions carry no second fundamental form
            if imm.n > 2:
                coeffs = cf.tangent_frame[0, 2:] @ pg.dF[0].T @ pg.g_inv[0]
                bk = np.einsum("ik,klA->ilA", coeffs, pg.B_coord[0])
                assert np.abs(bk).max() <= 1e-9

    @pytest.mark.parametrize("surface", [
        lambda: catalogue_lookup("holo-curve", {"coeffs": [0, 0, 1]}),
        lambda: catalogue_lookup("holo-curve", CUBIC),
        lambda: catalogue_lookup("catenoid", {}),
        lambda: catalogue_lookup("cylinder-over", {"base": "helicoid"}),
        # charts that are not isothermal, so that e1 is not a principal direction
        lambda: in_chart(catalogue_lookup("catenoid", {}), SHEAR_A[2], SHEAR_B[2]),
        lambda: in_chart(catalogue_lookup("cylinder-over", {"base": "holo-curve", "base_params": CUBIC}),
                         SHEAR_A[3], SHEAR_B[3]),
    ], ids=["z2", "cubic", "catenoid", "cylinder", "sheared-catenoid", "sheared-cylinder-cubic"])
    def test_the_frames_give_the_normal_form_on_a_block(self, surface):
        imm = surface()
        pg = point_geometry_at(imm, np.random.default_rng(1).uniform(-0.9, 0.9, (24, imm.n)))
        cf = canonical_frame(pg)
        assert pg.errors == [None] * 24
        for frame in (cf.tangent_frame, cf.normal_frame):
            gram = frame @ np.swapaxes(frame, 1, 2)
            assert np.abs(gram - np.eye(len(frame[0]))).max() <= 1e-14
        assert np.all(normal_form_residual(pg, cf) <= 1e-13 * (1.0 + cf.mu1))

    def test_a_conformal_tie_is_not_decided_by_rounding(self):
        # On y = 0 the graph (log x, xy) has |B(e1, e1)|^2 = |B(e1, e2)|^2 = x^2 / (1 + x^2)^3
        # and <B(e1, e1), B(e1, e2)> = 0: a conformal point, where the frame needs no
        # rotation and the mu1 >= mu2 swap meets a tie that rounding alone breaks.
        pg = point_geometry_at(build_graph_immersion(["log(x)", "x*y"], 2), [(0.6, 0.0)])
        T, frames, gaps = pg.frame_coeffs[0], [], []
        for ulps in range(-3, 4):
            B = pg.B_coord.copy()
            B[0, 0, 0, 0] += ulps * np.spacing(B[0, 0, 0, 0])
            b11, b12 = T[0, 0] ** 2 * B[0, 0, 0], T[0, 0] * T[1, 1] * B[0, 0, 1]
            gaps.append(b11 @ b11 - b12 @ b12)
            frames.append(canonical_frame(replace(pg, B_coord=B, B_frame=_frame_B(pg.frame_coeffs, B))))
        assert min(gaps) < 0.0 < max(gaps)  # both signs of the rounded tie are fed
        mu = 0.6 / 1.36**1.5
        for cf in frames:
            assert rel_err(cf.mu1[0], mu) <= 1e-14 and rel_err(cf.mu2[0], mu) <= 1e-14
            assert np.array_equal(cf.tangent_frame, frames[0].tangent_frame)


# item 2's A, and for n = 3 that block with the third coordinate mixed in
SHEAR_A = {2: [[1.3, 0.4], [-0.2, 0.9]], 3: [[1.3, 0.4, 0.2], [-0.2, 0.9, 0.0], [0.1, -0.3, 1.1]]}
SHEAR_B = {2: [0.1, -0.05], 3: [0.1, -0.05, 0.2]}
CUBIC = {"coeffs": [[0.3, 0.1], [0.7, -0.2], [1.4, 0.5], [0.2, 0.1]]}
CHART_BOUND = 1e-10  # relative: the two charts round differently; the measured worst is 8e-14


def in_chart(imm, A, b):
    """`imm` composed with u -> A u + b, as a parametric immersion."""
    x = [functools.reduce(lambda s, t: BinOp("+", s, t),
                          [BinOp("*", Const(A[i][k]), Var(k)) for k in range(imm.n)], Const(b[i]))
         for i in range(imm.n)]
    return Immersion(imm.n, imm.m, tuple(substitute(c, dict(enumerate(x))) for c in imm.components),
                     "parametric")


def random_gram(n, points, rng):
    """g = dF dF^T, as np.einsum's arrays and as jet_einsum's order-2 jets (P, n, n)."""
    dF = rng.standard_normal((points, n, n + 2))
    dF[0, 0] = -0.0  # a signed zero in every product it meets
    jet_dF = Jet(n, 2, rng.standard_normal((points, n, n + 2, 10 if n == 3 else 6)))
    return np.einsum("piA,pjA->ijp", dF, dF), jet_einsum("piA,pjA->pij", jet_dF, jet_dF)


def entries_bytes(entries):
    return [[(e.coeffs if isinstance(e, Jet) else e).tobytes() for e in row] for row in entries]


class TestFormedOnce:
    """Each cofactor, frame-valued B and frame change of a block is formed once."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_symmetric_and_row_zero_cofactors_are_bitwise_the_full_ones(self, n):
        arrays, jet = random_gram(n, 16, np.random.default_rng(n))
        for a in ([list(row) for row in arrays], [[jet[:, i, j] for j in range(n)] for i in range(n)]):
            full = [[_cofactor(a, i, j) for j in range(n)] for i in range(n)]
            det, cof = _det_cofactors(a)
            assert entries_bytes(cof) == entries_bytes(full)
            # the determinant from row 0's cofactors alone, as the alignment forms it
            assert entries_bytes([[det, _det(a, full[0])]]) == entries_bytes([[det, det]])
            # the lower triangle is the upper one, formed once
            assert all(cof[j][i] is cof[i][j] for i in range(n) for j in range(i))

    @pytest.mark.parametrize("n, products", [(2, 18), (3, 34)])
    def test_a_block_of_the_cubic_forms_each_product_once(self, n, products, monkeypatch):
        # n = 2: the cubic graph; n = 3: its cylinder, the benchmark's grid-solid surface.
        # Before shared subtrees, symmetric cofactors and g^-1's distinct entries: 29 and 53.
        # x^3 and y^3 are formed by Jet.__pow__ from x and y: 2 products more than from x^2, y^2
        imm = catalogue_lookup("holo-curve", CUBIC)
        if n == 3:
            imm = catalogue_lookup("cylinder-over", {"base": "holo-curve", "base_params": CUBIC})
        counted = []
        monkeypatch.setattr(jets, "jet_product", lambda a, b: counted.append(1) or jet_product(a, b))
        point_geometry_at(imm, np.random.default_rng(0).uniform(-0.9, 0.9, (7, n)))
        assert len(counted) == products

    @pytest.mark.parametrize("surface", [
        lambda: catalogue_lookup("cylinder-over", {"base": "holo-curve", "base_params": CUBIC}),
        lambda: in_chart(catalogue_lookup("cylinder-over", {"base": "holo-curve", "base_params": CUBIC}),
                         SHEAR_A[3], SHEAR_B[3]),
        lambda: build_graph_immersion(["x^2+y^2-2*z^2+x*y*z"], 3),
        lambda: in_chart(catalogue_lookup("catenoid", {}), SHEAR_A[2], SHEAR_B[2]),
    ], ids=["cylinder-cubic", "sheared-cylinder-cubic", "quadric", "sheared-catenoid"])
    def test_frame_changes_one_index_at_a_time(self, surface):
        imm = surface()
        pg = point_geometry_at(imm, np.random.default_rng(0).uniform(-0.9, 0.9, (64, imm.n)))
        T = pg.frame_coeffs
        # kept, not formed again: canonical_frame_at and curvature_pack_at read it
        assert pg.B_frame.tobytes() == _frame_B(T, pg.B_coord).tobytes()
        # the frame changes that contracted every index at once; measured worst 4e-16
        bound = 8 * np.finfo(float).eps
        whole_B = ordered_einsum("pik,pjl,pklA->pijA", T, T, pg.B_coord)
        assert np.abs(pg.B_frame - whole_B).max() <= bound * np.abs(whole_B).max()
        whole_h3 = ordered_einsum("pkc,pia,pjb,pmcab->pmijk", T, T, T,
                                  ordered_einsum("pcabA,pmA->pmcab", pg.nablaB_coord, pg.normal_frame))
        assert np.abs(pg.h3 - whole_h3).max() <= bound * np.abs(whole_h3).max()


class TestChartInvariance:
    """|B|^2 and its Laplace-Beltrami are scalars, so u -> A u + b must not move them.

    The sheared charts are not isothermal, so a contraction of B that holds
    only for a conformal metric (tracing g^-1 B g^-1 B untransposed, say)
    shows here, as it does not in a holomorphic graph's own chart.
    """

    @pytest.mark.parametrize("surface", [
        lambda: catalogue_lookup("holo-curve", {"coeffs": [0, 0, 0, 1]}),
        lambda: catalogue_lookup("cylinder-over", {"base": "holo-curve", "base_params": CUBIC}),
        lambda: build_graph_immersion(["x^2-y^2", "2*x*y", "x^3-3*x*y^2", "3*x^2*y-y^3"], 2),
    ], ids=["z3", "cylinder-cubic", "z2-z3"])
    def test_normB2_and_its_laplacian_do_not_depend_on_the_chart(self, surface):
        imm = surface()
        A, b = np.array(SHEAR_A[imm.n]), np.array(SHEAR_B[imm.n])
        u = np.random.default_rng(0).uniform(-0.5, 0.5, (16, imm.n))
        own, sheared = point_geometry_at(imm, u @ A.T + b), point_geometry_at(in_chart(imm, A, b), u)
        assert np.abs(sheared.g0[:, 0, 0] - sheared.g0[:, 1, 1]).min() > 0.1  # not isothermal
        for got, want in [(sheared.normB2_jet.value, own.normB2_jet.value),
                          (laplace_beltrami_of_jet(sheared, sheared.normB2_jet),
                           laplace_beltrami_of_jet(own, own.normB2_jet))]:
            assert np.all(np.abs(got - want) <= CHART_BOUND * (1.0 + np.abs(want)))


class TestScalarFields:
    def test_volume_field_z2(self, z2):
        jet = at_point(scalar_field_jet, z2, (1.0, 0.0), "volume")
        assert rel_err(jet.value, 5.0) <= 1e-12
        assert rel_err(jet.coefficient((1, 0)), 8.0) <= 1e-12  # dv/dx = 8x

    def test_normB2_field_critical_at_origin(self, z2):
        jet = at_point(point_geometry_at, z2, (0.0, 0.0)).normB2_jet
        assert rel_err(jet.value, 16.0) <= 1e-12
        assert abs(jet.coefficient((1, 0))) <= 1e-12
        assert abs(jet.coefficient((0, 1))) <= 1e-12

    def test_affine_alignment_constant(self):
        imm = catalogue_lookup("affine", {})
        frame = at_point(point_geometry_at, imm, (0.2, 0.6)).tangent_frame  # the plane itself
        jet = at_point(scalar_field_jet, imm, (0.2, 0.6), "alignment", frame)
        assert rel_err(jet.value, 1.0) <= 1e-12
        assert np.abs(jet.coeffs[1:]).max() <= 1e-14

    @pytest.mark.parametrize("field", ["bogus", "normB2", "log-alignment"])
    def test_unknown_field(self, z2, field):
        # |B|^2 is the geometry's own jet, and the checks take the log of the alignment
        with pytest.raises(ValueError, match="unknown scalar field"):
            at_point(scalar_field_jet, z2, (0.0, 0.0), field, COORD_PLANE_2)

    def test_alignment_needs_a_frame(self, z2):
        with pytest.raises(ValueError, match="requires a reference frame"):
            at_point(scalar_field_jet, z2, (0.0, 0.0), "alignment")


def block_laplacian(imm, point, field, frame=None):
    """`BlockContext.laplacian(field)` at one point, which must evaluate without a failure."""
    block = BlockContext(imm, [point], frame)
    lap, failures = block.laplacian(field)
    assert block.errors == [None] and not failures
    return lap[0]


class TestLaplaceBeltrami:
    def test_affine_fields_harmonic(self):
        imm = catalogue_lookup("affine", {})
        frame = at_point(point_geometry_at, imm, (0.1, -0.2)).tangent_frame
        lap = at_point(lambda pg: laplace_beltrami_of_jet(pg, scalar_field_jet(pg, "alignment", frame)),
                       imm, (0.1, -0.2))
        assert abs(lap) <= 1e-12
        assert abs(block_laplacian(imm, (0.1, -0.2), "normB2")) <= 1e-12

    def test_z2_log_alignment(self, z2):
        got = block_laplacian(z2, (0.0, 0.0), "log-alignment", COORD_PLANE_2)
        assert rel_err(got, -16.0) <= 1e-10
        got = block_laplacian(z2, (0.4, -0.5), "log-alignment", COORD_PLANE_2)
        assert rel_err(got, oracles.z2_lap_log_alignment(0.4, -0.5)) <= 1e-9

    def test_catenoid_normB2_vs_finite_differences(self, catenoid):
        got = block_laplacian(catenoid, (1.0, 0.0), "normB2")
        want = oracles.catenoid_lap_scalar(oracles.catenoid_normB2, 1.0)
        assert rel_err(got, want) <= 1e-5

    def test_z2_lap_normB2_closed_form(self, z2):
        got = block_laplacian(z2, (0.3, 0.7), "normB2")
        assert rel_err(got, oracles.z2_lap_normB2(0.3, 0.7)) <= 1e-9


class TestAlignmentPack:
    def test_z2_origin(self, z2):
        ap = at_point(alignment_pack, z2, (0.0, 0.0), COORD_PLANE_2)
        assert rel_err(ap.value, 1.0) <= 1e-12
        assert np.abs(ap.grad_frame).max() <= 1e-12
        assert np.abs(ap.grad_formula).max() <= 1e-12

    def test_affine_with_own_plane(self):
        imm = catalogue_lookup("affine", {})
        frame = at_point(point_geometry_at, imm, (0.5, 0.5)).tangent_frame
        ap = at_point(alignment_pack, imm, (0.5, 0.5), frame)
        assert abs(ap.value - 1.0) <= 1e-12
        assert abs(ap.laplacian_numeric) <= 1e-12
        assert ap.laplacian_formula is not None and abs(ap.laplacian_formula) <= 1e-12

    @pytest.mark.parametrize("pt", [(0.5, 0.2), (-0.8, 0.9), (0.0, 1.0)])
    def test_z2_identities_at_generic_points(self, z2, pt):
        ap = at_point(alignment_pack, z2, pt, COORD_PLANE_2)
        scale = 1.0 + np.abs(ap.grad_frame).max()
        assert np.abs(ap.grad_frame - ap.grad_formula).max() <= 1e-6 * scale
        assert abs(ap.laplacian_numeric - ap.laplacian_formula) <= 1e-6 * (
            1.0 + abs(ap.laplacian_numeric)
        )

    def test_cylinder_identities(self, cylinder):
        ap = at_point(alignment_pack, cylinder, (0.3, -0.2, 0.8), CYLINDER_PLANE)
        assert abs(ap.laplacian_numeric - ap.laplacian_formula) <= 1e-8
        assert np.abs(ap.grad_frame - ap.grad_formula).max() <= 1e-8

    def test_alignment_equals_frame_determinant(self, z2, catenoid):
        for imm, pt, frame in [
            (z2, (0.6, -0.4), COORD_PLANE_2),
            (catenoid, (0.5, 0.3), CATENOID_PLANE),
        ]:
            ap = at_point(alignment_pack, imm, pt, frame)
            assert abs(ap.value - ap.value_from_frames) <= 1e-10

    def test_cylinder_canonical_frame_keeps_orientation(self):
        # the SVD may return det U = -1 here; the canonical tangent frame must
        # keep e's orientation or the 4 mu1 mu2 <e_11,22, A> term flips sign
        imm = catalogue_lookup("cylinder-over", {"base": "holo-curve", "base_params": {"coeffs": [0, 0, 1]}})
        pt = (-0.5, 0.0, -1.0)
        ap = at_point(alignment_pack, imm, pt, np.eye(3, 5))
        assert abs(ap.laplacian_numeric) <= 1e-12
        assert abs(ap.laplacian_formula - ap.laplacian_numeric) <= 1e-12
        e = at_point(point_geometry_at, imm, pt).tangent_frame
        assert np.linalg.det(at_point(canonical_frame, imm, pt).tangent_frame @ e.T) > 0

    def test_nonminimal_formula_not_applicable(self):
        # the pack computes both formulas everywhere; the check decides where the
        # rank-2 Laplacian identity applies, and names the hypothesis that failed
        imm = build_graph_immersion(["x^2 + y^2", "0"], 2)
        grid = GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (3, 3))
        [res] = run_checks(imm, grid, [CheckSpec("alignment-identities")], COORD_PLANE_2)
        assert res.n_points == 9 and res.n_skipped == 0
        cols = res.columns.lists()
        assert set(cols["reason"]) == {"mean curvature does not vanish"}
        assert set(cols["detail"]["laplacian_residual"]) == {None}


class TestPluecker:
    def test_immersion_frames(self, z2, catenoid, cylinder):
        for imm, pt, frame in [
            (z2, (0.3, 0.9), COORD_PLANE_2),
            (catenoid, (0.7, -0.2), CATENOID_PLANE),
            (cylinder, (0.2, 0.4, -0.6), CYLINDER_PLANE),
        ]:
            pg = at_point(point_geometry_at, imm, pt)
            e, nu = pg.tangent_frame, pg.normal_frame
            res = oracles.pluecker_residual(
                e, nu[0], nu[1] if pg.m > 1 else nu[0], frame
            )
            assert res <= 1e-12

    def test_random_frames(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            dim = int(rng.integers(4, 7))
            n = int(rng.integers(2, min(dim - 2, 3) + 1))
            rows = oracles.random_orthonormal_rows(rng, n + 2, dim)
            e, nu1, nu2 = rows[:n], rows[n], rows[n + 1]
            a = oracles.random_orthonormal_rows(rng, n, dim)
            assert oracles.pluecker_residual(e, nu1, nu2, a) <= 1e-12

    def test_pairing_helpers(self):
        e = np.eye(2, 4)[None]
        a = np.eye(2, 4)
        assert frame_pairing(e, a).tolist() == [1.0]
        nu = np.array([[0.0, 0.0, 1.0, 0.0]])
        assert replaced_pairing(e, a, {0: nu}).tolist() == [0.0]


def chart_flags(imm, point):
    """BlockContext's decisions at one point: (isothermal chart, zeta defined)."""
    block = BlockContext(imm, [point], None)
    return bool(block.isothermal[0]), bool(block.has_zeta[0])


class TestComplexPack:
    def test_z2(self, z2):
        cp = at_point(complex_pack_at, z2, (0.8, -0.3))
        assert cp.conformality_residual <= 1e-12 and cp.conformality_scale > 0.5
        assert abs(cp.omega_coeff) <= 1e-10
        assert cp.B_ww_norm2 > 0.1 and cp.zeta_residual <= 1e-10
        assert chart_flags(z2, (0.8, -0.3)) == (True, True)

    def test_catenoid_omega_constant(self, catenoid):
        for pt in [(0.0, 0.0), (0.9, -1.1), (-0.4, 0.6)]:
            cp = at_point(complex_pack_at, catenoid, pt)
            assert rel_err(abs(cp.omega_coeff), 0.25) <= 1e-8
            assert cp.conformality_residual <= 1e-10

    def test_affine(self):
        affine = catalogue_lookup("affine", {})
        cp = at_point(complex_pack_at, affine, (0.0, 0.0))
        assert abs(cp.omega_coeff) <= 1e-14
        # B_ww = 0: zeta is 0 / 0, which no check reads
        assert cp.B_ww_norm2 == 0.0 and not np.isfinite(cp.zeta)
        assert chart_flags(affine, (0.0, 0.0))[1] is False

    def test_zeta_decomposition(self, z2):
        # zeta is the coefficient of nabla_w B_ww along B_ww, each contracted in full
        # with d/dw = (d/du - i d/dv)/2 (the pack takes the minimal-surface shortcut)
        pg, cp = at_point(point_geometry_at, z2, (0.5, 0.2)), at_point(complex_pack_at, z2, (0.5, 0.2))
        w = np.array([0.5, -0.5j])
        B_ww = np.einsum("i,j,ijA->A", w, w, pg.B_coord)
        nablaB_www = np.einsum("k,i,j,kijA->A", w, w, w, pg.nablaB_coord)
        assert np.abs(B_ww - cp.B_ww).max() <= 1e-12 and np.abs(B_ww).max() > 0.1
        assert rel_err(cp.B_ww_norm2, np.vdot(B_ww, B_ww).real) <= 1e-12
        assert np.abs(nablaB_www - cp.zeta * B_ww).max() <= 1e-10
        assert cp.zeta_residual <= 1e-10

    def test_non_isothermal_flagged(self):
        imm = build_graph_immersion(["x^2 + x*y", "y"], 2)
        cp = at_point(complex_pack_at, imm, (0.5, 0.5))
        assert cp.conformality_residual > 0.1 * cp.conformality_scale
        assert chart_flags(imm, (0.5, 0.5))[0] is False


class TestCurvaturePack:
    def test_catenoid(self, catenoid):
        kp = at_point(curvature_pack_at, catenoid, (0.0, 0.0))
        assert rel_err(kp.K_intrinsic, -1.0) <= 1e-8
        assert rel_err(kp.K_extrinsic, -1.0) <= 1e-8

    def test_z2_origin(self, z2):
        kp = at_point(curvature_pack_at, z2, (0.0, 0.0))
        assert rel_err(kp.K_extrinsic, -8.0) <= 1e-10
        assert rel_err(kp.K_intrinsic, -8.0) <= 1e-8

    def test_affine(self):
        kp = at_point(curvature_pack_at, catalogue_lookup("affine", {}), (0.2, 0.8))
        assert abs(kp.K_intrinsic) <= 1e-12
        assert abs(kp.K_extrinsic) <= 1e-12

    def test_gauss_equation_on_surfaces(self, z2, catenoid):
        for imm, pts in [
            (z2, [(0.3, -0.9), (1.0, 1.0)]),
            (catenoid, [(0.7, 0.1)]),
            (catalogue_lookup("enneper", {}), [(0.4, -0.2)]),
            (catalogue_lookup("helicoid", {}), [(0.5, 0.8)]),
            # a chart in which F = <d_u F, d_v F> is not 0, as in none of the above
            (in_chart(catenoid, SHEAR_A[2], SHEAR_B[2]), [(0.3, -0.4)]),
        ]:
            for pt in pts:
                pg, kp = at_point(point_geometry_at, imm, pt), at_point(curvature_pack_at, imm, pt)
                assert rel_err(kp.K_intrinsic, kp.K_extrinsic) <= 1e-6
                assert rel_err(kp.K_extrinsic, -pg.normB2 / 2) <= 1e-8


def outcome(fn, *args):
    """(result, None), or (None, the exception fn raised)."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - the test compares exceptions
        return None, exc


def recorded_failure(block_result, p):
    """The failure a block result records at point p, or None."""
    if isinstance(block_result, Jet):
        return block_result.failures.get(p)
    errors = getattr(block_result, "errors", None)
    return errors[p] if errors else None


def assert_same_row(a, p, b, q, path="result"):
    """Row p of block result `a` is bitwise row q of `b`, and None where `b` holds None."""
    if isinstance(a, Jet):
        a, b = a.coeffs, b.coeffs
    elif isinstance(a, tuple):
        for k, (x, y) in enumerate(zip(a, b)):
            assert_same_row(x, p, y, q, f"{path}[{k}]")
        return
    elif is_dataclass(a):
        for f in fields(a):
            if f.name != "errors":
                assert_same_row(getattr(a, f.name), p, getattr(b, f.name), q, f"{path}.{f.name}")
        return
    if not isinstance(a, np.ndarray):  # n, m
        assert a == b, path
        return
    if a[p] is None or b[q] is None:
        assert a[p] is b[q], path
    else:
        got, want = np.asarray(a[p]), np.asarray(b[q])
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), path


class TestBlockIndependence:
    """A point's values and failures do not depend on the block it was evaluated in."""

    # log-alignment fails at the catenoid's (0.3, 2.0), where the alignment is
    # negative; the quadric has Gauss-map rank 3, which the checks' rank rule gives as text
    CASES = {
        "z2": ([(0.0, 0.0), (0.4, -0.5), (1.0, 1.0)], COORD_PLANE_2),
        "catenoid": ([(0.0, 0.0), (-1.0, 0.7), (0.3, 2.0)], CATENOID_PLANE),
        "cylinder": ([(0.3, -0.2, 0.8), (-0.5, 0.0, -1.0)], CYLINDER_PLANE),
        "quadric": ([(0.0, 0.0, 0.0), (0.2, -0.1, 0.3)], np.eye(3, 4)),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_a_block_of_one_is_a_row_of_the_block(self, name, request):
        points, frame = self.CASES[name]
        if name == "quadric":
            imm = build_graph_immersion(["x^2+y^2-2*z^2"], 3)
        else:
            imm = request.getfixturevalue(name)
        calls = {
            "geometry": lambda b: b.pg,
            "svd": lambda b: gauss_svd(b.pg),
            "rank": lambda b: gauss_rank_at(gauss_svd(b.pg)[1]),
            "rank-rule": lambda b: np.array(b.rank_errors, dtype=object),
            "canonical": lambda b: b.canon,
            "alignment": lambda b: b.apack,
            "complex": lambda b: complex_pack_at(b.pg),
            "chart-flags": lambda b: (b.isothermal, b.has_zeta),
            "curvature": lambda b: curvature_pack_at(b.pg),
        }
        field_jets = {field: lambda b, f=field: scalar_field_jet(b.pg, f, frame) for field in SCALAR_FIELDS}
        field_jets["normB2"] = lambda b: b.pg.normB2_jet
        field_jets["log-alignment"] = lambda b: jet_elementary("log", b.alignment)
        for field, jet in field_jets.items():
            calls[field] = jet
            calls["lap-" + field] = lambda b, jet=jet: laplace_beltrami_of_jet(b.pg, jet(b))

        def evaluate(block_points):
            block = BlockContext(imm, block_points, frame)
            return block.pg, {key: outcome(fn, block) for key, fn in calls.items()}

        def failure(pg, results, key, p):
            result, exc = results[key]
            # a Laplacian records no failure of its own: its field's jet does
            source = results[key[4:]][0] if key.startswith("lap-") else result
            return exc or pg.errors[p] or recorded_failure(source, p)

        block, blocks = evaluate(points)
        failures = 0
        for p, point in enumerate(points):
            one, ones = evaluate([point])
            for key in calls:
                want, got = failure(block, blocks, key, p), failure(one, ones, key, 0)
                assert (type(got), str(got)) == (type(want), str(want)), f"{key} at {point}"
                if want is None:
                    assert_same_row(ones[key][0], 0, blocks[key][0], p, f"{key} at {point}")
                else:
                    failures += 1
        assert failures > 0 or name in ("z2", "cylinder")

    def test_the_rank_rule_keeps_the_geometry_failures(self):
        # (x^3, y, x^2, y^2) is singular at the origin only, where d_x F = 0
        sing = Immersion(2, 2, tuple(parse_expression(s, 2) for s in ["x^3", "y", "x^2", "y^2"]),
                         "parametric")
        block = BlockContext(sing, [(0.5, 0.3), (0.0, 0.0), (-0.4, 0.2)], None)
        assert isinstance(block.pg.errors[1], ImmersionRankError)
        assert block.skips(("rank",)).skip.tolist() == [None, f"evaluation error: {block.pg.errors[1]}",
                                                        None]
