import pickle
import re

import numpy as np
import pytest

from curvlab import jets
from curvlab.expressions import BinOp, Const, Var, evaluate_expression, format_expression, parse_expression
from curvlab.immersions import (
    GridSpec,
    Immersion,
    ImmersionError,
    build_graph_immersion,
    catalogue_lookup,
    catalogue_names,
    evaluate_array,
    evaluate_immersion,
)
from curvlab.jets import coefficient_count, jet_constant, jet_product, jet_variable

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

    def test_component_variable_checked_before_evaluation(self):
        # a tree built without the parser: its out-of-range variable is named, not indexed
        with pytest.raises(ImmersionError, match="variable index 2 >= n=2"):
            Immersion(2, 1, (Var(0), Var(1), BinOp("+", Var(2), Const(1.0))), "graph")

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

    @pytest.mark.parametrize("name, params, param", [
        ("holo-curve", {"coeffs": [[1]]}, "coeffs[0]"),
        ("affine", {"slopes": [[1, "a"]]}, "slopes[0][1]"),
        ("cylinder-over", {"base": "affine", "base_params": {"offsets": 3}}, "base_params.offsets"),
    ])
    def test_bad_param_nesting_names_the_param(self, name, params, param):
        with pytest.raises(ImmersionError, match=rf"^params\.{re.escape(param)}: ") as err:
            catalogue_lookup(name, params)
        assert err.value.param == param

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


CUBIC = {"coeffs": [[0.3, 0.1], [0.7, -0.2], [1.4, 0.5], [0.2, 0.1]]}


class TestSharedEvaluation:
    """evaluate_immersion evaluates what the components share once, bitwise as each alone."""

    @staticmethod
    def alone(imm, points, order):
        values = [jet_variable(i, points[:, i], imm.n, order) for i in range(imm.n)]
        out = [evaluate_expression(comp, values) for comp in imm.components]
        return [v if isinstance(v, jets.Jet) else jet_constant(np.full(len(points), v), imm.n, order)
                for v in out]

    def test_the_holomorphic_cubic_forms_each_power_once(self, monkeypatch):
        # Re and Im of (a + ib)(x + iy)^3 + ... share x^2, x^3, y^2 and y^3; Jet.__pow__
        # forms each from x or y, x^3 in two products
        imm = catalogue_lookup("holo-curve", CUBIC)
        points = np.random.default_rng(0).uniform(-0.9, 0.9, (5, 2))
        products = []
        monkeypatch.setattr(jets, "jet_product", lambda a, b: products.append(1) or jet_product(a, b))
        got = evaluate_immersion(imm, points, 4)
        assert len(products) == 12
        products.clear()
        want = self.alone(imm, points, 4)
        assert len(products) == 22
        assert [j.coeffs.tobytes() for j in got] == [j.coeffs.tobytes() for j in want]

    @pytest.mark.parametrize("name, params", [
        ("enneper", {}), ("cylinder-over", {"base": "holo-curve", "base_params": CUBIC}),
        ("catenoid", {}), ("holo-curve", {"coeffs": [0, 0, -0.0, 1.0]}),
    ])
    def test_catalogue_jets_and_arrays_are_bitwise_each_component_alone(self, name, params):
        imm = catalogue_lookup(name, params)
        points = np.random.default_rng(1).uniform(-0.9, 0.9, (6, imm.n))
        got = evaluate_immersion(imm, points, 3)
        assert [j.coeffs.tobytes() for j in got] == [j.coeffs.tobytes() for j in self.alone(imm, points, 3)]
        axes, memo = list(points.T), imm.sharing.memo()
        assert [evaluate_array(c, axes, memo).tobytes() for c in imm.components] == \
            [evaluate_array(c, axes).tobytes() for c in imm.components]

    def test_a_copy_finds_the_shared_subtrees_in_its_own_components(self):
        # the analysis is kept by node id: a pickled immersion (a pool worker's) redoes it
        imm = catalogue_lookup("holo-curve", CUBIC)
        points = np.random.default_rng(2).uniform(-0.9, 0.9, (4, 2))
        want = [j.coeffs.tobytes() for j in evaluate_immersion(imm, points, 4)]
        copy = pickle.loads(pickle.dumps(imm))
        assert copy.sharing.uses == imm.sharing.uses
        assert sorted(copy.sharing.keys.values()) == sorted(imm.sharing.keys.values())
        assert not set(copy.sharing.keys) & set(imm.sharing.keys)
        assert [j.coeffs.tobytes() for j in evaluate_immersion(copy, points, 4)] == want


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
