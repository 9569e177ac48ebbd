import numpy as np
import pytest

from curvlab.expressions import format_expression, parse_expression
from curvlab.immersions import (
    GridSpec,
    ImmersionError,
    build_graph_immersion,
    catalogue_lookup,
    catalogue_names,
    evaluate_array,
    evaluate_immersion,
)
from curvlab.jets import coefficient_count

from oracles import rel_err


class TestGraph:
    def test_z2_graph(self):
        imm = build_graph_immersion(["x^2-y^2", "2*x*y"], 2)
        assert imm.kind == "graph"
        assert (imm.n, imm.m) == (2, 2)
        jets = evaluate_immersion(imm, (1.0, 0.0), 4)
        assert jets[2].value == 1.0
        assert jets[2].coefficient((1, 0)) == 2.0
        assert jets[2].coefficient((0, 1)) == 0.0

    def test_zero_graph_is_flat_plane(self):
        imm = build_graph_immersion(["0"], 2)
        assert (imm.n, imm.m) == (2, 1)
        jets = evaluate_immersion(imm, (0.3, 0.7), 4)
        assert all(abs(c) == 0.0 for c in jets[2].coeffs)

    def test_out_of_range_variable(self):
        with pytest.raises(Exception, match="out of range"):
            build_graph_immersion(["z"], 2)

    def test_identity_prefix_is_coordinate_jets(self):
        imm = build_graph_immersion(["x*y"], 2)
        jets = evaluate_immersion(imm, (0.5, -0.25), 3)
        assert jets[0].value == 0.5
        assert jets[0].coefficient((1, 0)) == 1.0
        assert jets[1].coefficient((0, 1)) == 1.0
        assert np.count_nonzero(jets[0].coeffs) == 2


class TestCatalogue:
    def test_names_listed(self):
        names = [n for n, _ in catalogue_names()]
        assert set(names) == {
            "affine", "holo-curve", "catenoid", "helicoid", "enneper", "cylinder-over",
        }

    def test_catenoid_shape_and_value(self):
        imm = catalogue_lookup("catenoid", {})
        assert (imm.n, imm.m) == (2, 2)
        jets = evaluate_immersion(imm, (0.0, 0.0), 4)
        assert jets[0].value == 1.0  # cosh 0 * cos 0
        assert jets[3].value == 0.0

    def test_holo_curve_z2(self):
        imm = catalogue_lookup("holo-curve", {"coeffs": [0, 0, 1]})
        vals = [
            evaluate_immersion(imm, (1.0, 2.0), 0)[k].value for k in range(4)
        ]
        assert vals == [1.0, 2.0, 1.0 - 4.0, 4.0]

    def test_holo_curve_complex_coefficients(self):
        # f(z) = i z: graph components (-y, x)
        imm = catalogue_lookup("holo-curve", {"coeffs": [0, [0, 1]]})
        vals = [evaluate_immersion(imm, (0.5, 0.25), 0)[k].value for k in (2, 3)]
        assert vals == [-0.25, 0.5]

    def test_cylinder_over_helicoid(self):
        imm = catalogue_lookup("cylinder-over", {"base": "helicoid"})
        assert (imm.n, imm.m) == (3, 2)
        assert imm.kind == "parametric"
        jets = evaluate_immersion(imm, (0.1, 0.2, 0.9), 2)
        assert jets[4].value == 0.9

    def test_cylinder_over_graph_stays_graph(self):
        imm = catalogue_lookup("cylinder-over", {"base": "holo-curve", "base_params": {"coeffs": [0, 0, 1]}})
        assert imm.kind == "graph"
        assert (imm.n, imm.m) == (3, 2)

    def test_unknown_name(self):
        with pytest.raises(ImmersionError, match="unknown catalogue"):
            catalogue_lookup("torus", {})

    def test_bad_params(self):
        with pytest.raises(ImmersionError):
            catalogue_lookup("holo-curve", {})
        with pytest.raises(ImmersionError):
            catalogue_lookup("cylinder-over", {})

    def test_affine_jets_have_no_curvature_terms(self):
        imm = catalogue_lookup("affine", {})
        jets = evaluate_immersion(imm, (0.4, -1.2), 4)
        ncoef1 = coefficient_count(2, 1)
        for j in jets:
            assert np.all(j.coeffs[ncoef1:] == 0.0)

    def test_round_trip_of_catalogue_expressions(self):
        for name, params in [
            ("affine", {}),
            ("holo-curve", {"coeffs": [0, 1, 0.5, [0, 2]]}),
            ("catenoid", {}),
            ("helicoid", {}),
            ("enneper", {}),
            ("cylinder-over", {"base": "enneper"}),
        ]:
            imm = catalogue_lookup(name, params)
            for comp in imm.components:
                first = parse_expression(format_expression(comp), imm.n)
                second = parse_expression(format_expression(first), imm.n)
                assert second == first
                pt = [0.3, -0.4, 0.8][: imm.n]
                from curvlab.expressions import evaluate_expression

                assert rel_err(
                    evaluate_expression(first, pt), evaluate_expression(comp, pt)
                ) <= 1e-14


class TestArrays:
    def test_array_evaluation_matches_jets(self):
        imm = catalogue_lookup("enneper", {})
        xs = np.linspace(-1, 1, 5)
        ys = np.linspace(-1, 1, 5)
        arrays = [evaluate_array(comp, [xs, ys]) for comp in imm.components]
        for i in range(5):
            jets = evaluate_immersion(imm, (xs[i], ys[i]), 0)
            for arr, jet in zip(arrays, jets):
                assert rel_err(arr[i], jet.value) <= 1e-14


class TestGridSpec:
    def test_row_major_order(self):
        grid = GridSpec(((0.0, 1.0), (0.0, 1.0)), (2, 3))
        pts = grid.points()
        assert len(pts) == 6
        assert pts[0] == (0.0, 0.0)
        assert pts[1] == (0.0, 0.5)
        assert pts[-1] == (1.0, 1.0)

    def test_mask_keeps_nonpositive(self):
        mask = parse_expression("x^2 + y^2 - 1", 2)
        grid = GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (3, 3), mask)
        pts = grid.points()
        assert (0.0, 0.0) in pts
        assert (-1.0, -1.0) not in pts
        assert len(pts) == 5

    @pytest.mark.parametrize("mask, kept", [("-1", 9), ("1", 0)])
    def test_constant_mask(self, mask, kept):
        grid = GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (3, 3), parse_expression(mask, 2))
        assert len(grid.points()) == kept

    def test_validation(self):
        with pytest.raises(ValueError, match="counts"):
            GridSpec(((0.0, 1.0),), (1,))
        with pytest.raises(ValueError, match="degenerate"):
            GridSpec(((1.0, 1.0),), (4,))
        with pytest.raises(ValueError, match="same length"):
            GridSpec(((0.0, 1.0),), (2, 2))
