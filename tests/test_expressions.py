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
    Sharing,
    Var,
    evaluate_expression,
    expression_variables,
    format_expression,
    parse_expression,
)
from curvlab import jets
from curvlab.jets import Jet, jet_extract, jet_product, jet_variable, multi_indices

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
        # a flat chain is one tree level per operator, and evaluation and
        # expression_variables recurse through every level: 2000 overflowed them
        chain = "+".join(["x"] * 500)
        node = parse_expression(chain, 1)
        assert evaluate_expression(node, [2.0]) == 1000.0
        assert jet_extract(evaluate_expression(node, [jet_variable(0, 2.0, 1, 1)]), (1,)) == 500.0
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

    def test_shared_subtrees_evaluate_as_an_unshared_copy(self):
        # substitute shares the subtree it puts in for a variable on every path to that
        # variable; substitute(tree, {}) rebuilds each path on its own
        inner = parse_expression("sin(x) * y + x^2", 2)
        outer = parse_expression("x*y - cos(x) / (1 + y^2) + x^3", 2)
        shared = substitute(outer, {0: inner, 1: BinOp("*", inner, Var(1))})
        unshared = substitute(shared, {})

        def paths(node):  # every node, once per path from the root
            yield node
            for child in (getattr(node, key, None) for key in ("arg", "base", "left", "right")):
                if child is not None:
                    yield from paths(child)

        def internal(root):
            return [node for node in paths(root) if isinstance(node, (BinOp, Call, Pow))]

        assert len({id(node) for node in internal(shared)}) < len(internal(shared))
        assert len({id(node) for node in internal(unshared)}) == len(internal(unshared))
        assert shared == unshared
        point, arrays = [0.37, -0.81], [np.linspace(-0.9, 0.9, 7), np.linspace(-0.5, 0.5, 7)]
        jets = [jet_variable(i, v, 2, 3) for i, v in enumerate(point)]
        assert evaluate_expression(shared, point) == evaluate_expression(unshared, point)
        assert np.array_equal(evaluate_expression(shared, arrays), evaluate_expression(unshared, arrays))
        assert np.array_equal(evaluate_expression(shared, jets).coeffs,
                              evaluate_expression(unshared, jets).coeffs)


SHARING_CONSTANTS = (0.0, -0.0, math.nan, -math.nan, 1.5, -2.0, 0.25)


@st.composite
def shared_trees(draw):
    """Trees over x and y that share subtrees, by object and by structure.

    Each tree is built from a pool of drawn subtrees: some reused as the same
    object, some rebuilt equal, and some put in for a variable by
    oracles.substitute, which shares them on every path to that variable.
    Constants include -0.0 beside 0.0 and NaNs of both signs.
    """
    pool = [Var(0), Var(1)] + [Const(v) for v in draw(st.lists(st.sampled_from(SHARING_CONSTANTS),
                                                                min_size=1, max_size=3))]
    for _ in range(draw(st.integers(3, 8))):
        kind = draw(st.integers(0, 4))
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if kind == 0:
            node = BinOp(draw(st.sampled_from("+-*/")), a, b)
        elif kind == 1:
            node = Pow(a, draw(st.integers(-2, 7)))
        elif kind == 2:
            node = Call(draw(st.sampled_from(("sin", "exp", "log", "sqrt", "atan", "neg"))), a)
        elif kind == 3:
            node = substitute(a, {draw(st.integers(0, 1)): b})
        else:
            node = substitute(a, {})  # equal to a, no node shared with it
        pool.append(node)
    return draw(st.lists(st.sampled_from(pool[2:]), min_size=2, max_size=5))


def evaluated_in_turn(roots, values, memo=None):
    """Each root's value in turn, or, for the first that raises, its exception and no more."""
    out = []
    for root in roots:
        try:
            out.append(evaluate_expression(root, values, memo))
        except (ArithmeticError, ValueError) as exc:
            return out + [(type(exc), str(exc))]
    return out


def as_bytes(value):
    """A value's bits: a jet's coefficients with its failures, an array's or a float's bytes."""
    if isinstance(value, Jet):
        return value.coeffs.tobytes(), {p: str(exc) for p, exc in value.failures.items()}
    if isinstance(value, tuple):
        return value
    return np.asarray(value, dtype=float).tobytes()


class TestSharing:
    """One memo's evaluation of several trees is bitwise each tree's own evaluation."""

    @settings(max_examples=150, deadline=None)
    @given(shared_trees())
    def test_shared_evaluation_is_bitwise_each_tree_alone(self, roots):
        x, y = np.array([0.37, -0.5, 0.0, 2.0]), np.array([-0.81, 0.5, 0.0, 1.0])
        for values in ([jet_variable(0, x, 2, 4), jet_variable(1, y, 2, 4)], [x, y],
                       [jet_variable(0, x[0], 2, 3), jet_variable(1, y[0], 2, 3)], [0.37, -0.81]):
            with np.errstate(all="ignore"):
                alone = evaluated_in_turn(roots, values)
                shared = evaluated_in_turn(roots, values, Sharing(roots).memo())
            assert [as_bytes(v) for v in shared] == [as_bytes(v) for v in alone]

    def test_the_sign_of_zero_and_the_bits_of_nan_keep_constants_apart(self):
        roots = [BinOp("*", Const(c), Var(0)) for c in (0.0, -0.0, math.nan, -math.nan)]
        sharing = Sharing(roots)
        assert len(set(sharing.keys.values())) == 1  # x alone
        x = np.array([0.5, 2.0])
        memo = sharing.memo()
        got = [evaluate_expression(root, [x], memo) for root in roots]
        assert [np.signbit(v).tolist() for v in got] == [[False] * 2, [True] * 2, [False] * 2, [True] * 2]

    def test_equal_subtrees_and_powers_are_formed_once(self, monkeypatch):
        roots = [BinOp("+", Pow(Var(0), 2), Var(1)), BinOp("*", Const(3.0), Pow(Var(0), 2)),
                 Pow(Var(0), 3), Pow(Var(0), 6)]
        sharing = Sharing(roots)
        # x is the base of x^2, x^3 and x^6 (3 uses); the subtree x^2 is in two roots (2);
        # the power x^2 is that subtree's value and a factor of x^3 = x x^2, x^4 = x^2 x^2
        # and x^6 = x^2 x^4, the products Jet.__pow__ forms (4)
        assert sorted(sharing.uses.values()) == [2, 3, 4]
        products = []
        monkeypatch.setattr(jets, "jet_product", lambda a, b: products.append(1) or jet_product(a, b))
        values = [jet_variable(0, [0.3, -1.2], 2, 4), jet_variable(1, [0.7, 0.1], 2, 4)]
        memo = sharing.memo()
        for root in roots:
            evaluate_expression(root, values, memo)
        assert len(products) == 4 and memo.values == {}  # each value dropped after its last use
        products.clear()
        for root in roots:
            evaluate_expression(root, values)
        assert len(products) == 1 + 1 + 2 + 3


class TestDifferentiate:
    """Jet partials of every EXPRESSIONS entry against sympy's symbolic derivatives."""

    @pytest.mark.parametrize("text", EXPRESSIONS)
    @pytest.mark.parametrize("order", [1, 2])
    def test_jet_partials_match_sympy(self, text, order):
        sympy = pytest.importorskip("sympy")
        point = (0.43, -0.29)
        jets = [jet_variable(i, point[i], 2, order) for i in range(2)]
        jet = evaluate_expression(parse_expression(text, 2), jets)
        x, y = sympy.symbols("x y")
        f = sympy.sympify(text.replace("^", "**").replace("u1", "x").replace("u2", "y"))
        for alpha in multi_indices(2, order):
            if sum(alpha) == order:
                want = float(sympy.diff(f, x, alpha[0], y, alpha[1]).subs({x: point[0], y: point[1]}))
                assert rel_err(jet_extract(jet, alpha), want) <= 1e-13, alpha

    def test_against_finite_differences(self):
        # a route that shares nothing with jets or sympy: every partial up to order 2
        node = parse_expression("exp(x/4)*atan(y)", 2)
        jet = evaluate_expression(node, [jet_variable(i, p, 2, 2) for i, p in enumerate((0.3, 0.5))])
        f = lambda p: math.exp(p[0] / 4) * math.atan(p[1])
        for alpha in multi_indices(2, 2):
            if sum(alpha):
                fd = richardson_derivative(f, (0.3, 0.5), alpha)
                assert rel_err(jet_extract(jet, alpha), fd) <= 1e-8, alpha


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
