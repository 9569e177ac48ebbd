import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import jets
from curvlab.checks import block_size
from curvlab.jets import (
    Jet,
    JetDomainError,
    JetIndexError,
    JetShapeError,
    coefficient_count,
    jet_constant,
    jet_einsum,
    jet_elementary,
    jet_extract,
    jet_product,
    jet_variable,
    ordered_einsum,
)
from curvlab.jets import _fold, _table

from oracles import rel_err, richardson_derivative


from curvlab.jets import multi_indices as multis


class TestVariable:
    def test_coordinate_jet_definition(self):
        j = jet_variable(0, 0.0, 2, 4)
        assert j.coefficient((0, 0)) == 0.0
        assert j.coefficient((1, 0)) == 1.0
        nonzero = [m for m in multis(2, 4) if j.coefficient(m) != 0.0]
        assert nonzero == [(1, 0)]

    def test_nonzero_base_point(self):
        j = jet_variable(1, 3.5, 2, 2)
        assert j.coefficient((0, 0)) == 3.5
        assert j.coefficient((0, 1)) == 1.0
        assert sum(abs(c) for c in j.coeffs) == 4.5

    def test_index_out_of_range(self):
        with pytest.raises(JetIndexError):
            jet_variable(2, 1.0, 2, 4)


class TestProduct:
    def test_square_of_coordinate(self):
        x = jet_variable(0, 0.0, 2, 4)
        sq = jet_product(x, x)
        nonzero = {m: sq.coefficient(m) for m in multis(2, 4) if sq.coefficient(m) != 0}
        assert nonzero == {(2, 0): 1.0}

    def test_zero_annihilates(self):
        x = jet_variable(0, 1.3, 2, 3)
        z = jet_constant(0.0, 2, 3)
        assert np.all(jet_product(x, z).coeffs == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(JetShapeError):
            jet_product(jet_variable(0, 0, 2, 3), jet_variable(0, 0, 2, 4))

    def test_sin_times_cos_against_finite_differences(self):
        # independent oracle: Richardson-extrapolated central differences
        x0 = 0.3
        x = jet_variable(0, x0, 1, 4)
        prod = jet_product(jet_elementary("sin", x), jet_elementary("cos", x))
        f = lambda p: math.sin(p[0]) * math.cos(p[0])
        for k in range(5):
            # h = 0.01 amplifies roundoff by h^-4 at fourth order; 0.1 is safe
            h = 0.01 if k <= 2 else 0.1
            fd = richardson_derivative(f, (x0,), (k,), h=h)
            assert rel_err(jet_extract(prod, (k,)), fd) <= 1e-6

    def test_commutativity_is_bitwise(self):
        rng = np.random.default_rng(7)
        for dim, order in [(1, 4), (2, 3), (3, 4)]:
            n = coefficient_count(dim, order)
            a = Jet(dim, order, rng.standard_normal(n))
            b = Jet(dim, order, rng.standard_normal(n))
            ab = jet_product(a, b).coeffs
            ba = jet_product(b, a).coeffs
            assert np.array_equal(ab, ba)


@st.composite
def integer_jets(draw, dim=2, order=3):
    n = coefficient_count(dim, order)
    vals = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    return Jet(dim, order, np.array(vals, dtype=float))


class TestRingAxioms:
    # On integer coefficients every float operation below is exact, so the
    # ring axioms can be asserted bitwise.

    @settings(max_examples=60, deadline=None)
    @given(integer_jets(), integer_jets(), integer_jets())
    def test_associativity_exact_on_integers(self, a, b, c):
        left = jet_product(jet_product(a, b), c)
        right = jet_product(a, jet_product(b, c))
        assert np.array_equal(left.coeffs, right.coeffs)

    @settings(max_examples=60, deadline=None)
    @given(integer_jets(), integer_jets(), integer_jets())
    def test_distributivity_exact_on_integers(self, a, b, c):
        left = jet_product(a, b + c)
        right = jet_product(a, b) + jet_product(a, c)
        assert np.array_equal(left.coeffs, right.coeffs)

    @settings(max_examples=60, deadline=None)
    @given(integer_jets(), integer_jets())
    def test_commutativity(self, a, b):
        assert np.array_equal(jet_product(a, b).coeffs, jet_product(b, a).coeffs)


class TestElementary:
    def test_sine_series_at_zero(self):
        s = jet_elementary("sin", jet_variable(0, 0.0, 1, 3))
        assert np.allclose(s.coeffs, [0.0, 1.0, 0.0, -1.0 / 6.0])

    def test_sqrt_of_negative_is_singular(self):
        with pytest.raises(JetDomainError):
            jet_elementary("sqrt", jet_constant(-1.0, 2, 2))

    def test_log_requires_positive(self):
        with pytest.raises(JetDomainError):
            jet_elementary("log", jet_constant(0.0, 1, 2))

    def test_recip_requires_nonzero(self):
        with pytest.raises(JetDomainError):
            jet_elementary("recip", jet_constant(0.0, 1, 2))

    def test_exp_of_sum_mixed_coefficient(self):
        x = jet_variable(0, 0.0, 2, 2)
        y = jet_variable(1, 0.0, 2, 2)
        e = jet_elementary("exp", x + y)
        f = lambda p: math.exp(p[0] + p[1])
        fd = richardson_derivative(f, (0.0, 0.0), (1, 1), h=0.01)
        assert rel_err(e.coefficient((1, 1)), fd) <= 1e-6
        assert abs(e.coefficient((1, 1)) - 1.0) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5.0, 5.0), st.integers(1, 4))
    def test_log_inverts_exp(self, x0, order):
        a = jet_variable(0, x0, 1, order) * 0.7 + 0.1
        back = jet_elementary("log", jet_elementary("exp", a))
        scale = np.max(np.abs(a.coeffs)) + 1.0
        assert np.max(np.abs(back.coeffs - a.coeffs)) <= 1e-12 * scale

    def test_atan_against_finite_differences(self):
        x0 = 0.7
        a = jet_elementary("atan", jet_variable(0, x0, 1, 4))
        for k in range(5):
            fd = richardson_derivative(lambda p: math.atan(p[0]), (x0,), (k,))
            assert rel_err(jet_extract(a, (k,)), fd) <= 1e-6

    def test_pow_const(self):
        a = jet_variable(0, 2.0, 1, 3)
        p = jet_elementary("pow-const", a, param=1.5)
        for k in range(4):
            fd = richardson_derivative(lambda q: q[0] ** 1.5, (2.0,), (k,))
            assert rel_err(jet_extract(p, (k,)), fd) <= 1e-6


class TestExtract:
    def test_constant(self):
        assert jet_extract(jet_constant(7.0, 1, 2), (0,)) == 7.0

    def test_second_derivative_of_square(self):
        x = jet_variable(0, 0.0, 2, 4)
        assert jet_extract(jet_product(x, x), (2, 0)) == 2.0

    def test_mixed_derivative_of_exp(self):
        e = jet_elementary("exp", jet_variable(0, 0.0, 2, 4) + jet_variable(1, 0.0, 2, 4))
        assert rel_err(jet_extract(e, (1, 1)), 1.0) <= 1e-12

    def test_degree_too_high(self):
        with pytest.raises(JetIndexError):
            jet_extract(jet_constant(1.0, 2, 2), (2, 1))


class TestJetMethods:
    def test_derivative_matches_extract(self):
        x = jet_variable(0, 0.4, 2, 4)
        y = jet_variable(1, -0.2, 2, 4)
        f = jet_elementary("sin", jet_product(x, y))
        fx = f.derivative(0)
        assert abs(fx.value - jet_extract(f, (1, 0))) <= 1e-15
        assert abs(jet_extract(fx, (1, 1)) - jet_extract(f, (2, 1))) <= 1e-12

    def test_truncate_is_prefix(self):
        x = jet_variable(0, 0.4, 2, 4)
        f = jet_elementary("exp", x)
        t = f.truncate(2)
        assert t.order == 2
        assert np.array_equal(t.coeffs, f.coeffs[: coefficient_count(2, 2)])

    def test_division_routes_through_recip(self):
        x = jet_variable(0, 0.5, 1, 4)
        with pytest.raises(JetDomainError):
            x / jet_variable(0, 0.0, 1, 4)
        q = x / (1.0 + x)
        fd = richardson_derivative(lambda p: p[0] / (1 + p[0]), (0.5,), (3,))
        assert rel_err(jet_extract(q, (3,)), fd) <= 1e-6

    @pytest.mark.parametrize("k", range(7))
    def test_integer_power_is_repeated_products(self, k, monkeypatch):
        # small integer coefficients make every product exact, so any order of the
        # products gives the same values; only the signs of zeros may differ
        rng = np.random.default_rng(k)
        coeffs = rng.integers(-2, 3, (6, coefficient_count(2, 4))).astype(float)
        coeffs[rng.random(coeffs.shape) < 0.3] = -0.0
        x = Jet(2, 4, coeffs)
        want = jet_constant(np.ones(6), 2, 4)  # x^0 keeps the batch axis
        for _ in range(k):
            want = jet_product(want, x)
        calls = []
        monkeypatch.setattr(jets, "jet_product", lambda a, b: calls.append(1) or jet_product(a, b))
        got = x ** k
        assert np.array_equal(got.coeffs, want.coeffs)
        assert len(calls) == max(k.bit_length() - 1 + k.bit_count() - 1, 0)

    def test_integer_power_negative(self):
        x = jet_variable(0, 2.0, 1, 3)
        p = x ** -2
        fd = richardson_derivative(lambda q: q[0] ** -2.0, (2.0,), (2,))
        assert rel_err(jet_extract(p, (2,)), fd) <= 1e-6


class TestBatch:
    """A batched jet (P, ncoef) must give, row by row, the single-jet results bit for bit."""

    @staticmethod
    def rows(dim, order, values, seed=0):
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1.0, 1.0, (len(values), coefficient_count(dim, order)))
        coeffs[:, 0] = values
        return Jet(dim, order, coeffs)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_product_derivative_truncate_row_by_row(self, dim):
        a = self.rows(dim, 4, [0.3, -1.2, 2.0, 0.0], seed=1)
        b = self.rows(dim, 4, [1.1, 0.4, -0.7, 5.0], seed=2)
        batched = [jet_product(a, b), a.derivative(dim - 1), a.truncate(2)]
        for p in range(4):
            single = [jet_product(a[p], b[p]), a[p].derivative(dim - 1), a[p].truncate(2)]
            for got, want in zip(batched, single):
                assert np.array_equal(got.coeffs[p], want.coeffs)

    @pytest.mark.parametrize("name", ["sin", "cos", "sinh", "cosh", "exp", "log", "sqrt",
                                      "atan", "recip", "pow-const"])
    def test_elementary_row_by_row(self, name):
        a = self.rows(2, 4, [0.3, 1.7, 0.05, 2.5])
        batched = jet_elementary(name, a, param=-0.5)
        assert not batched.failures
        for p in range(4):
            assert np.array_equal(batched.coeffs[p], jet_elementary(name, a[p], param=-0.5).coeffs)

    @pytest.mark.parametrize("order", range(5))
    @pytest.mark.parametrize("name", ["sin", "cos", "sinh", "cosh", "exp", "log", "sqrt",
                                      "atan", "recip", "pow-const"])
    def test_elementary_is_horner_from_a_constant_jet(self, name, order):
        # Horner's first step scales the nilpotent part; against a product with the
        # constant jet of the top coefficient only the signs of zeros may differ
        a = self.rows(2, order, [0.3, 1.7, 0.05, 2.5], seed=order)
        a.coeffs[:, 1::2] = -0.0
        series = jets._univariate_series(name, a.coeffs[:, 0], order, -0.5)
        tilde = Jet(2, order, a.coeffs - jet_constant(a.coeffs[:, 0], 2, order).coeffs)
        want = jet_constant(series[-1], 2, order).coeffs
        for d in series[-2::-1]:
            want = jet_product(Jet(2, order, want), tilde).coeffs.copy()
            want[:, 0] += d
        assert np.array_equal(jet_elementary(name, a, param=-0.5).coeffs, want)

    def test_domain_failure_marks_its_row_only(self):
        a = self.rows(2, 3, [0.5, -2.0, 3.0])
        out = jet_elementary("log", a)
        assert list(out.failures) == [1]
        with pytest.raises(JetDomainError) as single:
            jet_elementary("log", a[1])
        assert str(out.failures[1]) == str(single.value)
        assert np.isnan(out.coeffs[1]).all()
        for p in (0, 2):
            assert np.array_equal(out.coeffs[p], jet_elementary("log", a[p]).coeffs)
        # failures travel through later arithmetic
        assert list((out * a + 1.0).failures) == [1]

    def test_overflow_marks_its_row_only(self):
        a = self.rows(1, 2, [1.0, 800.0])
        out = jet_elementary("exp", a)
        assert list(out.failures) == [1] and isinstance(out.failures[1], OverflowError)
        assert np.array_equal(out.coeffs[0], jet_elementary("exp", a[0]).coeffs)
        with pytest.raises(OverflowError):
            jet_elementary("exp", a[1])
        assert np.isnan(out.coeffs[1]).all()


# Every contraction geometry.py and checks.py make, with the sizes of its indices
# beyond SIZES: tangent n = 3, normal m = 2, ambient N = 5.
SIZES = dict(p=64, i=3, j=3, k=3, l=3, r=3, c=3, a=2, b=2, m=2, A=5, B=5)
TANGENT_AB = dict(a=3, b=3)
ORDERED_SPECS = [
    ("pjl,pklA->pkjA", {}),
    ("pik,pkjA->pijA", {}),
    ("plr,pkir->plki", {}),
    ("pAB,pkijB->pkijA", {}),
    ("plki,pljA->pkijA", {}),
    ("plkj,pilA->pkijA", {}),
    ("pijA,paA->paij", {}),
    ("pcabA,pmA->pmcab", TANGENT_AB),
    ("pjb,pmcab->pmcaj", TANGENT_AB),
    ("pia,pmcaj->pmcij", TANGENT_AB),
    ("pkc,pmcij->pmijk", {}),
    ("pij,pijA->pA", {}),
    ("pi,pj,pijA->pA", {}),
    ("pi,piA->pA", {}),
    ("pjr,pjA->prA", {}),
    ("pjr,pjA->prA", dict(j=2, r=0, A=4)),  # the n = 2 kernel: no column
    ("paA,pijA->paij", {}),
    ("pij,pj->pi", {}),
    ("paij,pja->pi", {}),
    ("paij,pbij->pab", {}),
    ("paij,pbjk->pabik", {}),
    ("pab,pab->p", {}),
    ("pabik,pabki->p", {}),
    ("pi,pi->p", dict(i=40)),  # a long sum: numpy sums 8 or more terms pairwise
]
JET_SPECS = ["piA,pjA->pij", "piA,piB->pAB", "pij,pjB->piB", "pAB,pijB->pijA",
             "pjl,pkjA->pklA", "pik,pijA->pkjA", "pklA,pklA->p"]


LAYOUT_SPECS = [("{}t,{}t->{}t".format(*spec.replace("->", ",").split(",")), dict(t=9))
                for spec in JET_SPECS] + [("pi,pj,pkA->pijkA", {})]


def einsum_layout(spec, *operands):
    """ordered_einsum's reference: np.einsum lays out the terms, summed indices first.

    np.einsum adds each product to a zeroed output, which turns a -0.0
    product into 0.0; a zero term takes back the sign of its factors' product.
    """
    inputs, out = spec.split("->")
    summed = "".join(dict.fromkeys(c for c in inputs if c not in out + ","))
    layout = f"{inputs}->{summed}{out}"
    terms = np.einsum(layout, *operands)
    signs = np.einsum(layout, *(np.copysign(1.0, op) for op in operands))
    terms = np.where(terms == 0.0, np.copysign(0.0, signs), terms)
    k = len(summed)
    terms = terms.reshape((math.prod(terms.shape[:k]),) + terms.shape[k:])
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


def spec_operands(spec, extra, seed=0, trailing=(), order="C"):
    """Random operands for `spec` with the index sizes of SIZES and `extra`, laid out in `order`."""
    sizes = {**SIZES, **extra}
    rng = np.random.default_rng(seed)
    return [np.asarray(rng.standard_normal(tuple(sizes[c] for c in sub) + trailing), order=order)
            for sub in spec.split("->")[0].split(",")]


def special_operands(spec, extra, points, seed, order):
    """spec_operands at `points` points, holding -0.0, NaN and +-inf.

    At point 0 the first operand is -0.0 and the others are positive, so
    every term there is -0.0, and so is each sum.
    """
    ops = spec_operands(spec, {**extra, "p": points}, seed=seed, order=order)
    rng = np.random.default_rng(seed)
    for op in ops:
        draw = rng.random(op.shape)
        op[draw < 0.1] = -0.0
        op[draw > 0.97] = np.nan
        op[(draw > 0.5) & (draw < 0.52)] = np.inf
        op[(draw > 0.6) & (draw < 0.62)] = -np.inf
    ops[0][0] = -0.0
    for op in ops[1:]:
        op[0] = np.abs(rng.standard_normal(op[0].shape)) + 0.5
    return ops


# blocks of one point, an odd count, the old n = 3 block and today's
BLOCK_POINTS = [1, 7, 64, block_size(SimpleNamespace(n=3, m=2))]


def assert_bitwise(got, want):
    """Bit for bit, signed zeros included, except that a NaN matches any NaN.

    Which NaN a product of two NaNs keeps depends on the operand order a
    numpy kernel's instruction happens to use, not on the order of the sums.
    """
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def spec_id(case):
    spec, extra = case
    return spec + "".join(f"-{c}{size}" for c, size in extra.items())


class TestContraction:
    """ordered_einsum and jet_einsum: np.einsum's sums, in an order fixed per point."""

    @pytest.mark.parametrize("case", ORDERED_SPECS, ids=map(spec_id, ORDERED_SPECS))
    def test_ordered_einsum_matches_einsum(self, case):
        spec, extra = case
        ops = spec_operands(spec, extra)
        got, want = ordered_einsum(spec, *ops), np.einsum(spec, *ops)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    # every spec jet_einsum hands on (pair-table columns on a trailing axis t),
    # and one with no summed index
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("case", ORDERED_SPECS + LAYOUT_SPECS,
                             ids=map(spec_id, ORDERED_SPECS + LAYOUT_SPECS))
    def test_ordered_einsum_is_bitwise_the_einsum_layout(self, case, order):
        spec, extra = case
        ops = spec_operands(spec, extra, seed=3, order=order)
        got, want = ordered_einsum(spec, *ops), einsum_layout(spec, *ops)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    # TERMS_BYTES 0: every term formed on its own; 2**62: all terms in one array
    @pytest.mark.parametrize("terms_bytes", [0, 2**62], ids=["one-by-one", "at-once"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("points", BLOCK_POINTS)
    @pytest.mark.parametrize("case", ORDERED_SPECS + LAYOUT_SPECS,
                             ids=map(spec_id, ORDERED_SPECS + LAYOUT_SPECS))
    def test_sums_of_special_values_are_bitwise_the_einsum_layout(self, case, points, order,
                                                                  terms_bytes, monkeypatch):
        monkeypatch.setattr(jets, "TERMS_BYTES", terms_bytes)
        spec, extra = case
        ops = special_operands(spec, extra, points, seed=points, order=order)
        with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
            got, want = ordered_einsum(spec, *ops), einsum_layout(spec, *ops)
        assert_bitwise(got, want)
        assert (got[0] == 0.0).all() and np.signbit(got[0]).all()

    @pytest.mark.parametrize("points", BLOCK_POINTS)
    @pytest.mark.parametrize("spec", JET_SPECS)
    def test_jet_einsum_is_bitwise_its_pair_column_sums_folded(self, spec, points):
        # jets of dim 3, order 2; the reference folds the einsum layout of the
        # pair columns a_i b_j and a_j b_i
        tab = _table(3, 2)
        spec_t = "{}t,{}t->{}t".format(*spec.replace("->", ",").split(","))
        a, b = (Jet(3, 2, op) for op in special_operands(spec_t, dict(t=tab.ncoef), points,
                                                          seed=points, order="C"))
        with np.errstate(invalid="ignore"):
            want = _fold(einsum_layout(spec_t, a.coeffs[..., tab.pair_i], b.coeffs[..., tab.pair_j]),
                         einsum_layout(spec_t, a.coeffs[..., tab.pair_j], b.coeffs[..., tab.pair_i]),
                         tab)
            got = jet_einsum(spec, a, b).coeffs
            # a shared buffer, longer than needed and holding NaN from before
            work = np.full(3 * got[..., 0].size * len(tab.pair_i) + 5, np.nan)
            shared = [jet_einsum(spec, a, b, work).coeffs for _ in range(2)]
        assert_bitwise(got, want)
        assert shared[0].tobytes() == shared[1].tobytes() == got.tobytes()

    # the layout of a block's operands (slices, transposes) sets np.einsum's output layout
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("case", ORDERED_SPECS, ids=map(spec_id, ORDERED_SPECS))
    def test_ordered_einsum_row_alone_is_bitwise_its_block_row(self, case, order):
        spec, extra = case
        ops = spec_operands(spec, extra, seed=1, order=order)
        block = ordered_einsum(spec, *ops)
        for p in range(SIZES["p"]):
            alone = ordered_einsum(spec, *(op[p:p + 1] for op in ops))
            assert alone.tobytes() == block[p:p + 1].tobytes()

    @pytest.mark.parametrize("spec", JET_SPECS)
    def test_jet_einsum_is_a_sum_of_jet_products(self, spec):
        dim, order = 3, 3
        ncoef = coefficient_count(dim, order)
        a, b = (Jet(dim, order, op) for op in spec_operands(spec, {"p": 2}, trailing=(ncoef,)))
        subs_a, subs_b = spec.split("->")[0].split(",")
        out = spec.split("->")[1]
        sizes = {**dict(zip(subs_a, a.coeffs.shape)), **dict(zip(subs_b, b.coeffs.shape))}
        want = np.zeros(tuple(sizes[c] for c in out) + (ncoef,))
        for values in itertools.product(*map(range, sizes.values())):
            at = dict(zip(sizes, values))
            term = jet_product(a[tuple(at[c] for c in subs_a)], b[tuple(at[c] for c in subs_b)])
            want[tuple(at[c] for c in out)] += term.coeffs
        got = jet_einsum(spec, a, b).coeffs
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("spec", JET_SPECS)
    def test_jet_einsum_row_alone_is_bitwise_its_block_row(self, spec, order):
        ncoef = coefficient_count(2, 4)
        a, b = (Jet(2, 4, op) for op in spec_operands(spec, {}, seed=2, trailing=(ncoef,),
                                                       order=order))
        block = jet_einsum(spec, a, b).coeffs
        for p in range(SIZES["p"]):
            alone = jet_einsum(spec, a[p:p + 1], b[p:p + 1]).coeffs
            assert alone.tobytes() == block[p:p + 1].tobytes()
