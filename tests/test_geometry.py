import math
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from curvlab.geometry import (
    SCALAR_FIELDS,
    GaussRankError,
    ImmersionRankError,
    alignment_pack_at,
    canonical_frame_at,
    complex_pack_at,
    curvature_pack_at,
    frame_pairing,
    gauss_rank_at,
    laplace_beltrami,
    point_geometry_at,
    replaced_pairing,
    scalar_field_jet,
)
from curvlab.immersions import GridSpec, build_graph_immersion, catalogue_lookup
from curvlab.jets import Jet, JetDomainError
from curvlab.scenario import CheckSpec, run_checks

import oracles
from oracles import rel_err


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
        pg = point_geometry_at(catalogue_lookup("affine", {}), (0.7, -1.3))
        assert pg.normB2 == 0.0
        assert pg.nablaB2 == 0.0
        assert np.all(pg.h == 0.0)
        assert np.linalg.norm(pg.mean_curvature) == 0.0

    def test_z2_at_origin(self, z2):
        pg = point_geometry_at(z2, (0.0, 0.0))
        assert rel_err(pg.normB2, 16.0) <= 1e-12
        # B_xx = 2 eps3, B_xy = 2 eps4, B_yy = -2 eps3
        assert np.allclose(pg.B_coord[0, 0], [0, 0, 2, 0], atol=1e-12)
        assert np.allclose(pg.B_coord[0, 1], [0, 0, 0, 2], atol=1e-12)
        assert np.allclose(pg.B_coord[1, 1], [0, 0, -2, 0], atol=1e-12)

    def test_z2_closed_forms_on_grid(self, z2):
        for x in np.linspace(-1, 1, 5):
            for y in np.linspace(-1, 1, 5):
                pg = point_geometry_at(z2, (x, y))
                assert rel_err(pg.normB2, oracles.z2_normB2(x, y)) <= 1e-10
                assert rel_err(pg.nablaB2, oracles.z2_nablaB2(x, y)) <= 1e-9

    def test_catenoid_closed_forms(self, catenoid):
        for u in np.linspace(-1, 1, 9):
            pg = point_geometry_at(catenoid, (u, 0.3))
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
                pg = point_geometry_at(imm, pt)
                frame = np.vstack([pg.tangent_frame, pg.normal_frame])
                assert np.abs(frame @ frame.T - np.eye(pg.n + pg.m)).max() <= 1e-10

    def test_codazzi_and_trace_identities(self, z2, catenoid, cylinder):
        for imm, pt in [
            (z2, (0.4, -0.6)),
            (catenoid, (0.8, 0.2)),
            (cylinder, (0.1, 0.7, -0.4)),
            (catalogue_lookup("enneper", {}), (0.5, -0.3)),
        ]:
            pg = point_geometry_at(imm, pt)
            scale = 1.0 + math.sqrt(pg.nablaB2)
            codazzi = np.abs(pg.h3 - pg.h3.transpose(0, 1, 3, 2)).max()
            assert codazzi <= 1e-8 * scale
            trace = np.abs(np.einsum("aiik->ak", pg.h3)).max()
            assert trace <= 1e-8

    def test_rank_failure_reported(self):
        # the z^3/3 graph has a degenerate Jacobian nowhere; fold a curve instead:
        # F = (x^2, y, ...) fails immersion at x = 0
        imm = build_graph_immersion(["x^2"], 2)
        bad = catalogue_lookup("affine", {})
        pg = point_geometry_at(bad, (0.0, 0.0))  # fine
        folded = catalogue_lookup("helicoid", {})
        # build an explicitly singular parametrization: components of (x*y, x*y)
        from curvlab.immersions import Immersion
        from curvlab.expressions import parse_expression

        comps = tuple(
            parse_expression(s, 2) for s in ["x*y", "x*y", "x*y", "x*y"]
        )
        sing = Immersion(2, 2, comps, "parametric")
        with pytest.raises(ImmersionRankError):
            point_geometry_at(sing, (0.0, 0.0))


class TestGaussRank:
    def test_affine_rank_zero(self):
        pg = point_geometry_at(catalogue_lookup("affine", {}), (0.0, 0.0))
        rank, sv = gauss_rank_at(pg)
        assert rank == 0
        assert np.all(sv == 0.0)

    def test_z2_rank_two(self, z2):
        pg = point_geometry_at(z2, (0.0, 0.0))
        rank, sv = gauss_rank_at(pg)
        assert rank == 2
        assert np.allclose(sv, [math.sqrt(8), math.sqrt(8)], atol=1e-12)

    def test_cylinder_rank_two_with_flat_factor(self, cylinder):
        pg = point_geometry_at(cylinder, (0.4, -0.7, 1.1))
        rank, sv = gauss_rank_at(pg)
        assert rank == 2
        assert sv[2] <= 1e-10
        assert np.abs(pg.h[:, 2, :]).max() <= 1e-10

    def test_rank_three_detected(self):
        # graph of a definite quadric over R^3 bends in all three directions
        imm = build_graph_immersion(["x^2 + y^2 + z^2"], 3)
        pg = point_geometry_at(imm, (0.1, 0.2, 0.3))
        rank, _ = gauss_rank_at(pg)
        assert rank == 3
        with pytest.raises(GaussRankError):
            canonical_frame_at(pg)


class TestCanonicalFrame:
    def test_z2_origin(self, z2):
        cf = canonical_frame_at(point_geometry_at(z2, (0.0, 0.0)))
        assert rel_err(cf.mu1, 2.0) <= 1e-12
        assert rel_err(cf.mu2, 2.0) <= 1e-12
        assert cf.residual <= 1e-10

    def test_catenoid_origin(self, catenoid):
        cf = canonical_frame_at(point_geometry_at(catenoid, (0.0, 0.0)))
        assert rel_err(cf.mu1, 1.0) <= 1e-12
        assert abs(cf.mu2) <= 1e-12

    def test_affine_all_zero(self):
        cf = canonical_frame_at(point_geometry_at(catalogue_lookup("affine", {}), (0.3, 0.1)))
        assert cf.mu1 == 0.0 and cf.mu2 == 0.0

    def test_normal_form_and_norm_identity(self, z2, catenoid, cylinder):
        for imm, pt in [
            (z2, (0.7, -0.2)),
            (catenoid, (0.5, 1.0)),
            (cylinder, (0.3, 0.3, -0.9)),
            (catalogue_lookup("enneper", {}), (0.6, 0.2)),
        ]:
            pg = point_geometry_at(imm, pt)
            cf = canonical_frame_at(pg)
            assert cf.mu1 >= cf.mu2 >= 0.0
            assert -math.pi / 4 < cf.theta <= math.pi / 4 + 1e-15
            assert cf.residual <= 1e-8 * (1.0 + cf.mu1)
            assert rel_err(pg.normB2, 2 * cf.mu1**2 + 2 * cf.mu2**2) <= 1e-8
            # kernel directions carry no second fundamental form
            if cf.kernel_basis.size:
                coeffs = cf.kernel_basis @ pg.dF.T @ pg.g_inv
                bk = np.einsum("ik,klA->ilA", coeffs, pg.B_coord)
                assert np.abs(bk).max() <= 1e-9


class TestScalarFields:
    def test_volume_field_z2(self, z2):
        jet = scalar_field_jet(point_geometry_at(z2, (1.0, 0.0)), "volume")
        assert rel_err(jet.value, 5.0) <= 1e-12
        assert rel_err(jet.coefficient((1, 0)), 8.0) <= 1e-12  # dv/dx = 8x

    def test_normB2_field_critical_at_origin(self, z2):
        jet = scalar_field_jet(point_geometry_at(z2, (0.0, 0.0)), "normB2")
        assert rel_err(jet.value, 16.0) <= 1e-12
        assert abs(jet.coefficient((1, 0))) <= 1e-12
        assert abs(jet.coefficient((0, 1))) <= 1e-12

    def test_affine_alignment_constant(self):
        imm = catalogue_lookup("affine", {})
        pg = point_geometry_at(imm, (0.2, 0.6))
        frame = pg.tangent_frame  # the plane itself
        jet = scalar_field_jet(pg, "alignment", reference_frame=frame)
        assert rel_err(jet.value, 1.0) <= 1e-12
        assert np.abs(jet.coeffs[1:]).max() <= 1e-14

    def test_normB_singular_at_flat_points(self):
        imm = catalogue_lookup("affine", {})
        with pytest.raises(JetDomainError):
            scalar_field_jet(point_geometry_at(imm, (0.0, 0.0)), "normB")

    def test_unknown_field(self, z2):
        with pytest.raises(ValueError, match="unknown scalar field"):
            scalar_field_jet(point_geometry_at(z2, (0.0, 0.0)), "bogus")


class TestLaplaceBeltrami:
    def test_affine_fields_harmonic(self):
        imm = catalogue_lookup("affine", {})
        pg = point_geometry_at(imm, (0.1, -0.2))
        frame = pg.tangent_frame
        assert abs(laplace_beltrami(pg, "alignment", frame)) <= 1e-12
        assert abs(laplace_beltrami(pg, "normB2")) <= 1e-12

    def test_z2_log_alignment(self, z2):
        got = laplace_beltrami(point_geometry_at(z2, (0.0, 0.0)), "log-alignment", COORD_PLANE_2)
        assert rel_err(got, -16.0) <= 1e-10
        got = laplace_beltrami(point_geometry_at(z2, (0.4, -0.5)), "log-alignment", COORD_PLANE_2)
        assert rel_err(got, oracles.z2_lap_log_alignment(0.4, -0.5)) <= 1e-9

    def test_catenoid_normB2_vs_finite_differences(self, catenoid):
        got = laplace_beltrami(point_geometry_at(catenoid, (1.0, 0.0)), "normB2")
        want = oracles.catenoid_lap_scalar(oracles.catenoid_normB2, 1.0)
        assert rel_err(got, want) <= 1e-5

    def test_z2_lap_normB2_closed_form(self, z2):
        got = laplace_beltrami(point_geometry_at(z2, (0.3, 0.7)), "normB2")
        assert rel_err(got, oracles.z2_lap_normB2(0.3, 0.7)) <= 1e-9


class TestAlignmentPack:
    def test_z2_origin(self, z2):
        ap = alignment_pack_at(point_geometry_at(z2, (0.0, 0.0)), COORD_PLANE_2)
        assert rel_err(ap.value, 1.0) <= 1e-12
        assert np.abs(ap.grad_frame).max() <= 1e-12
        assert np.abs(ap.grad_formula).max() <= 1e-12

    def test_affine_with_own_plane(self):
        imm = catalogue_lookup("affine", {})
        pg = point_geometry_at(imm, (0.5, 0.5))
        ap = alignment_pack_at(pg, pg.tangent_frame)
        assert abs(ap.value - 1.0) <= 1e-12
        assert abs(ap.laplacian_numeric) <= 1e-12
        assert ap.laplacian_formula is not None and abs(ap.laplacian_formula) <= 1e-12

    @pytest.mark.parametrize("pt", [(0.5, 0.2), (-0.8, 0.9), (0.0, 1.0)])
    def test_z2_identities_at_generic_points(self, z2, pt):
        ap = alignment_pack_at(point_geometry_at(z2, pt), COORD_PLANE_2)
        scale = 1.0 + np.abs(ap.grad_frame).max()
        assert np.abs(ap.grad_frame - ap.grad_formula).max() <= 1e-6 * scale
        assert abs(ap.laplacian_numeric - ap.laplacian_formula) <= 1e-6 * (
            1.0 + abs(ap.laplacian_numeric)
        )

    def test_cylinder_identities(self, cylinder):
        ap = alignment_pack_at(point_geometry_at(cylinder, (0.3, -0.2, 0.8)), CYLINDER_PLANE)
        assert abs(ap.laplacian_numeric - ap.laplacian_formula) <= 1e-8
        assert np.abs(ap.grad_frame - ap.grad_formula).max() <= 1e-8

    def test_alignment_equals_frame_determinant(self, z2, catenoid):
        for imm, pt, frame in [
            (z2, (0.6, -0.4), COORD_PLANE_2),
            (catenoid, (0.5, 0.3), CATENOID_PLANE),
        ]:
            ap = alignment_pack_at(point_geometry_at(imm, pt), frame)
            assert abs(ap.value - ap.value_from_frames) <= 1e-10

    def test_cylinder_canonical_frame_keeps_orientation(self):
        # the SVD may return det U = -1 here; the canonical tangent frame must
        # keep e's orientation or the 4 mu1 mu2 <e_11,22, A> term flips sign
        imm = catalogue_lookup("cylinder-over", {"base": "holo-curve", "base_params": {"coeffs": [0, 0, 1]}})
        pg = point_geometry_at(imm, (-0.5, 0.0, -1.0))
        ap = alignment_pack_at(pg, np.eye(3, 5))
        assert abs(ap.laplacian_numeric) <= 1e-12
        assert abs(ap.laplacian_formula - ap.laplacian_numeric) <= 1e-12
        assert np.linalg.det(canonical_frame_at(pg).tangent_frame @ pg.tangent_frame.T) > 0

    def test_nonminimal_formula_not_applicable(self):
        # the pack computes both formulas everywhere; the check decides where the
        # rank-2 Laplacian identity applies, and names the hypothesis that failed
        imm = build_graph_immersion(["x^2 + y^2", "0"], 2)
        grid = GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (3, 3))
        [res] = run_checks(imm, grid, [CheckSpec("alignment-identities")], COORD_PLANE_2)
        assert res.n_points == 9 and res.n_skipped == 0
        for rec in res.details:
            assert rec["reason"] == "mean curvature does not vanish"
            assert rec["detail"]["laplacian_residual"] is None


class TestPluecker:
    def test_immersion_frames(self, z2, catenoid, cylinder):
        for imm, pt, frame in [
            (z2, (0.3, 0.9), COORD_PLANE_2),
            (catenoid, (0.7, -0.2), CATENOID_PLANE),
            (cylinder, (0.2, 0.4, -0.6), CYLINDER_PLANE),
        ]:
            pg = point_geometry_at(imm, pt)
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
        e = np.eye(2, 4)
        a = np.eye(2, 4)
        assert frame_pairing(e, a) == 1.0
        nu = np.array([0.0, 0.0, 1.0, 0.0])
        assert replaced_pairing(e, a, {0: nu}) == 0.0


class TestComplexPack:
    def test_z2(self, z2):
        cp = complex_pack_at(point_geometry_at(z2, (0.8, -0.3)))
        assert cp.conformality_residual <= 1e-12
        assert cp.isothermal
        assert abs(cp.omega_coeff) <= 1e-10
        assert cp.zeta is not None and cp.zeta_residual <= 1e-10

    def test_catenoid_omega_constant(self, catenoid):
        for pt in [(0.0, 0.0), (0.9, -1.1), (-0.4, 0.6)]:
            cp = complex_pack_at(point_geometry_at(catenoid, pt))
            assert rel_err(abs(cp.omega_coeff), 0.25) <= 1e-8
            assert cp.conformality_residual <= 1e-10

    def test_affine(self):
        cp = complex_pack_at(point_geometry_at(catalogue_lookup("affine", {}), (0.0, 0.0)))
        assert np.abs(cp.Fww).max() <= 1e-14
        assert abs(cp.omega_coeff) <= 1e-14
        assert cp.zeta is None

    def test_zeta_decomposition(self, z2):
        cp = complex_pack_at(point_geometry_at(z2, (0.5, 0.2)))
        assert cp.xi1 == cp.zeta.real
        assert cp.xi2 == -cp.zeta.imag

    def test_non_isothermal_flagged(self):
        imm = build_graph_immersion(["x^2 + x*y", "y"], 2)
        cp = complex_pack_at(point_geometry_at(imm, (0.5, 0.5)))
        assert not cp.isothermal


class TestCurvaturePack:
    def test_catenoid(self, catenoid):
        kp = curvature_pack_at(point_geometry_at(catenoid, (0.0, 0.0)))
        assert rel_err(kp.K_intrinsic, -1.0) <= 1e-8
        assert rel_err(kp.K_extrinsic, -1.0) <= 1e-8

    def test_z2_origin(self, z2):
        kp = curvature_pack_at(point_geometry_at(z2, (0.0, 0.0)))
        assert rel_err(kp.K_extrinsic, -8.0) <= 1e-10
        assert rel_err(kp.K_intrinsic, -8.0) <= 1e-8

    def test_affine(self):
        kp = curvature_pack_at(point_geometry_at(catalogue_lookup("affine", {}), (0.2, 0.8)))
        assert abs(kp.K_intrinsic) <= 1e-12
        assert abs(kp.K_extrinsic) <= 1e-12

    def test_gauss_equation_on_surfaces(self, z2, catenoid):
        for imm, pts in [
            (z2, [(0.3, -0.9), (1.0, 1.0)]),
            (catenoid, [(0.7, 0.1)]),
            (catalogue_lookup("enneper", {}), [(0.4, -0.2)]),
            (catalogue_lookup("helicoid", {}), [(0.5, 0.8)]),
        ]:
            for pt in pts:
                pg = point_geometry_at(imm, pt)
                kp = curvature_pack_at(pg)
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


def assert_is_row(single, block, p, path="result"):
    """`single` is row p of `block`: bit-equal numbers, None where the block holds None."""
    if isinstance(single, Jet):
        single, block = single.coeffs, block.coeffs
    elif is_dataclass(single):
        for f in fields(single):
            if f.name != "errors":
                assert_is_row(getattr(single, f.name), getattr(block, f.name), p, f"{path}.{f.name}")
        return
    row = None if block is None else block[p]
    if row is None or isinstance(row, str):
        assert single == row, path
    else:
        got, want = np.asarray(single), np.asarray(row)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), path


class TestSinglePointAdapter:
    # log-alignment fails at the catenoid's (0.3, 2.0), where the alignment is
    # negative; the quadric has Gauss-map rank 3, so no canonical frame
    CASES = {
        "z2": ([(0.0, 0.0), (0.4, -0.5), (1.0, 1.0)], COORD_PLANE_2),
        "catenoid": ([(0.0, 0.0), (-1.0, 0.7), (0.3, 2.0)], CATENOID_PLANE),
        "cylinder": ([(0.3, -0.2, 0.8), (-0.5, 0.0, -1.0)], CYLINDER_PLANE),
        "quadric": ([(0.0, 0.0, 0.0), (0.2, -0.1, 0.3)], np.eye(3, 4)),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_single_point_is_a_row_of_the_block(self, name, request):
        points, frame = self.CASES[name]
        if name == "quadric":
            imm = build_graph_immersion(["x^2+y^2-2*z^2"], 3)
        else:
            imm = request.getfixturevalue(name)
        calls = {
            "canonical": lambda pg, canon: canonical_frame_at(pg),
            "alignment": lambda pg, canon: alignment_pack_at(pg, frame),
            "alignment-canon": lambda pg, canon: alignment_pack_at(pg, frame, canon),
            "complex": lambda pg, canon: complex_pack_at(pg),
            "curvature": lambda pg, canon: curvature_pack_at(pg),
        }
        for field in SCALAR_FIELDS:
            calls[field] = lambda pg, canon, f=field: scalar_field_jet(pg, f, frame)
            calls["lap-" + field] = lambda pg, canon, f=field: laplace_beltrami(pg, f, frame)
        block = point_geometry_at(imm, np.array(points))
        canon = canonical_frame_at(block)
        blocks = {key: outcome(fn, block, canon) for key, fn in calls.items()}
        failures = 0
        for p, point in enumerate(points):
            pg = point_geometry_at(imm, point)
            single_canon = None if canon.errors[p] else canonical_frame_at(pg)
            for key, fn in calls.items():
                block_result, block_exc = blocks[key]
                # a Laplacian records no failure of its own: its field's jet does
                source = blocks[key[4:]][0] if key.startswith("lap-") else block_result
                want = block_exc or recorded_failure(source, p)
                result, exc = outcome(fn, pg, single_canon)
                if want is None:
                    assert exc is None, f"{key} at {point}: {exc!r}"
                    assert_is_row(result, block_result, p, f"{key} at {point}")
                else:
                    failures += 1
                    assert (type(exc), str(exc)) == (type(want), str(want)), f"{key} at {point}"
        assert failures > 0 or name in ("z2", "cylinder")
