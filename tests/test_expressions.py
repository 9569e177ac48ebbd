import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.expressions import (
    BinOp,
    Call,
    Const,
    ParseError,
    Pow,
    Var,
    differentiate,
    evaluate_expression,
    expression_variables,
    format_expression,
    parse_expression,
)
from curvlab.jets import Jet, jet_extract, jet_variable, multi_indices

from oracles import rel_err, richardson_derivative, substitute


class TestParse:
    def test_difference_of_powers(self):
        node = parse_expression("x^2 - y^2", 2)
        assert node == BinOp("-", Pow(Var(0), 2), Pow(Var(1), 2))

    def test_product_evaluates(self):
        node = parse_expression("2*x*y", 2)
        assert evaluate_expression(node, [1.0, 3.0]) == 6.0

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expression("cosh(u)*cos(v", 2)
        assert err.value.offset == 14

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expression("x + foo", 2)

    def test_variable_out_of_dimension(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_expression("z", 2)

    def test_function_needs_arguments(self):
        with pytest.raises(ParseError, match="argument list"):
            parse_expression("sin + 1", 2)

    def test_variable_not_callable(self):
        with pytest.raises(ParseError, match="not callable"):
            parse_expression("x(2)", 2)

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError, match="integer"):
            parse_expression("x^1.5", 2)

    def test_unary_minus_binds_tighter_than_power(self):
        # base := '-' base, so -x^-2 reads as (-x)^(-2)
        node = parse_expression("-x^-2", 1)
        assert evaluate_expression(node, [2.0]) == 0.25
        assert evaluate_expression(parse_expression("-(x^-2)", 1), [2.0]) == -0.25

    def test_nesting_is_bounded(self):
        # parentheses, calls and unary minus each recurse in the parser; 250 parentheses
        # overflowed the stack, and a deep tree overflows evaluation and differentiation
        deepest = ["(" * 100 + "x" + ")" * 100, "sin(" * 100 + "x" + ")" * 100, "-" * 100 + "x"]
        for text in deepest:
            parse_expression(text, 1)
        for text in ["(" + deepest[0] + ")", "sin(" + deepest[1] + ")", "-" + deepest[2]]:
            with pytest.raises(ParseError, match="nested more than 100 deep"):
                parse_expression(text, 1)

    def test_tree_depth_is_bounded(self):
        # a flat chain is one tree level per operator, and evaluation, differentiation
        # and expression_variables recurse through every level: 2000 overflowed them
        chain = "+".join(["x"] * 500)
        node = parse_expression(chain, 1)
        assert evaluate_expression(node, [2.0]) == 1000.0
        assert evaluate_expression(differentiate(node, 0), [2.0]) == 500.0
        assert expression_variables(node) == {0}
        for text in [chain + "+x", "+".join(["x"] * 2000), "*".join(["x"] * 2000),
                     "-".join(["x"] * 2000), "sin(" * 100 + chain + ")" * 100]:
            with pytest.raises(ParseError, match="more than 500 levels deep"):
                parse_expression(text, 1)

    def test_infinite_exponent(self):
        with pytest.raises(ParseError, match="integer"):
            parse_expression("x^1e400", 1)

    def test_aliases(self):
        assert parse_expression("u1 + u2", 2) == parse_expression("x + y", 2)
        assert parse_expression("u + v", 2) == parse_expression("x + y", 2)


EXPRESSIONS = [
    "x^2 - y^2",
    "2*x*y",
    "cosh(u1)*cos(u2)",
    "sinh(x)*sin(y)",
    "x - x^3/3 + x*y^2",
    "exp(x/4)*atan(y)",
    "sqrt(4 + x^2 + y^2)",
    "-x + 3.5*y - 1.25",
    "x/(1 + y^2)",
    "log(2 + cos(x))",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_print_parse_fixpoint(self, text):
        node = parse_expression(text, 2)
        assert parse_expression(format_expression(node), 2) == node


@st.composite
def expr_trees(draw, depth=0):
    if depth >= 3:
        return draw(
            st.one_of(
                st.builds(Const, st.floats(-4, 4).map(lambda v: float(round(v, 3)))),
                st.builds(Var, st.integers(0, 1)),
            )
        )
    branch = draw(st.integers(0, 5))
    if branch == 0:
        return draw(st.builds(Const, st.floats(-4, 4).map(lambda v: float(round(v, 3)))))
    if branch == 1:
        return draw(st.builds(Var, st.integers(0, 1)))
    if branch == 2:
        op = draw(st.sampled_from("+-*/"))
        return BinOp(op, draw(expr_trees(depth=depth + 1)), draw(expr_trees(depth=depth + 1)))
    if branch == 3:
        fn = draw(st.sampled_from(("sin", "cos", "sinh", "cosh", "exp", "atan", "neg")))
        return Call(fn, draw(expr_trees(depth=depth + 1)))
    if branch == 4:
        return Pow(draw(expr_trees(depth=depth + 1)), draw(st.integers(0, 3)))
    return BinOp("*", draw(expr_trees(depth=depth + 1)), draw(expr_trees(depth=depth + 1)))


class TestRandomRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(expr_trees())
    def test_parse_print_parse_idempotent(self, node):
        # the round-trip contract: parse . print . parse == parse
        first = parse_expression(format_expression(node), 2)
        second = parse_expression(format_expression(first), 2)
        assert second == first

    @settings(max_examples=120, deadline=None)
    @given(expr_trees())
    def test_printing_preserves_value(self, node):
        reparsed = parse_expression(format_expression(node), 2)
        point = [0.37, -0.61]
        try:
            expected = evaluate_expression(node, point)
        except (ArithmeticError, ValueError):
            return
        if not math.isfinite(expected):
            return
        assert rel_err(evaluate_expression(reparsed, point), expected) <= 1e-12


class TestEvaluation:
    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_order_zero_matches_plain_evaluation(self, text):
        node = parse_expression(text, 2)
        point = (0.37, -0.81)
        jets = [jet_variable(i, point[i], 2, 0) for i in range(2)]
        got = evaluate_expression(node, jets).value
        expected = evaluate_expression(node, list(point))
        assert rel_err(got, expected) <= 1e-14

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_array_evaluation_matches_scalar(self, text):
        node = parse_expression(text, 2)
        xs = np.linspace(-0.9, 0.9, 7)
        ys = np.linspace(-0.5, 0.5, 7)
        arr = evaluate_expression(node, [xs, ys])
        for i in range(7):
            assert rel_err(arr[i], evaluate_expression(node, [xs[i], ys[i]])) <= 1e-14

    def test_shared_subtrees_are_evaluated_once(self):
        # x + x doubled d times has 2^d - 1 additions on its paths, d distinct ones
        class Counted:
            additions = 0

            def __init__(self, value):
                self.value = value

            def __add__(self, other):
                Counted.additions += 1
                return Counted(self.value + other.value)

        node, d = Var(0), 12
        for _ in range(d):
            node = BinOp("+", node, node)
        assert evaluate_expression(node, [Counted(1)]).value == 2**d
        assert Counted.additions == d


class TestDifferentiate:
    @pytest.mark.parametrize("text", EXPRESSIONS)
    @pytest.mark.parametrize("axis", [0, 1])
    def test_symbolic_derivative_matches_jet(self, text, axis):
        # two independent derivative routes: AST rules vs jet arithmetic
        node = parse_expression(text, 2)
        point = (0.43, -0.29)
        jets = [jet_variable(i, point[i], 2, 1) for i in range(2)]
        via_jet = jet_extract(
            evaluate_expression(node, jets), tuple(1 if a == axis else 0 for a in range(2))
        )
        via_ast = evaluate_expression(differentiate(node, axis), list(point))
        assert rel_err(via_ast, via_jet) <= 1e-12

    def test_against_finite_differences(self):
        node = parse_expression("exp(x/4)*atan(y)", 2)
        d = differentiate(differentiate(node, 0), 1)
        f = lambda p: math.exp(p[0] / 4) * math.atan(p[1])
        fd = richardson_derivative(f, (0.3, 0.5), (1, 1))
        assert rel_err(evaluate_expression(d, [0.3, 0.5]), fd) <= 1e-8


class TestReflectedJetOperators:
    """A constant on the left of - or / reaches Jet.__rsub__ or Jet.__rtruediv__."""

    @pytest.mark.parametrize("text, method", [("1 - x^2*y", "__rsub__"),
                                              ("1/(2+x^2+y)", "__rtruediv__")])
    def test_taylor_coefficients_match_sympy(self, text, method, monkeypatch):
        sympy = pytest.importorskip("sympy")
        calls = []
        original = getattr(Jet, method)
        monkeypatch.setattr(Jet, method,
                            lambda self, other: calls.append(other) or original(self, other))
        point = (0.43, -0.29)
        jets = [jet_variable(i, point[i], 2, 4) for i in range(2)]
        jet = evaluate_expression(parse_expression(text, 2), jets)
        assert calls == [1.0]
        x, y = sympy.symbols("x y")
        f = sympy.sympify(text.replace("^", "**"))
        for alpha in multi_indices(2, 4):
            derivative = sympy.diff(f, x, alpha[0], y, alpha[1]).subs({x: point[0], y: point[1]})
            want = float(derivative) / (math.factorial(alpha[0]) * math.factorial(alpha[1]))
            assert abs(jet.coefficient(alpha) - want) <= 1e-14 * (1.0 + abs(want))


class TestSubstitute:
    def test_linear_reparametrization(self):
        node = parse_expression("x^2 + y", 2)
        sub = substitute(node, {1: BinOp("*", Const(2.0), Var(0))})
        assert evaluate_expression(sub, [3.0, 99.0]) == 15.0

    def test_variable_collection(self):
        assert expression_variables(parse_expression("cos(x)*y + 1", 2)) == {0, 1}
