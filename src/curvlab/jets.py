"""Truncated multivariate Taylor ("jet") arithmetic in up to 3 variables.

A :class:`Jet` stores the Taylor coefficients c_a = (d^a f)(p) / a! of a
scalar field f at a point, densely over every multi-index a of total degree
<= order (order <= 4).  All arithmetic truncates at the jet order, so any
quantity built from jets carries exact partial derivatives up to that order;
nothing downstream ever touches finite differences.

Coefficients live in a flat float64 array in graded-lexicographic order.
The enumeration for order k is a prefix of the enumeration for order k+1,
which turns truncation into a slice and differentiation into an index-table
gather.  Elementary functions are composed through Horner evaluation of the
univariate series in the nilpotent part; the series coefficients come from
forward recurrences.

A jet may carry leading axes, `coeffs` of shape (P, ..., ncoef): a batch
axis of P points first, then optional tensor axes (a tensor jet holds, say,
every entry of a metric).  Every operation below acts on all of them at once
through the same code.  Where an elementary function meets a value outside
its domain, a single jet raises; a batched jet marks that row as failed
(NaN coefficients, the exception kept in `failures`) and the rest go on.

Shape is not memory order: products and contractions work on the
coefficient-major view `coeffs.swapaxes(0, -1)`, each coefficient's points
one contiguous run, and return that view of a C-ordered array, so `coeffs`
keeps its (P, ..., ncoef) shape whatever its memory order.

Jets are immutable values and every operation is a pure function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

MAX_DIM = 3
MAX_ORDER = 4


class JetError(ValueError):
    """Base class for jet-arithmetic failures."""


class JetShapeError(JetError):
    """Operands disagree in dimension or order, or parameters are out of range."""


class JetDomainError(JetError):
    """Singular input: the degree-0 value lies outside an elementary function's domain."""


class JetIndexError(JetError):
    """A multi-index or variable index is invalid for the jet's shape."""


def coefficient_count(dim: int, order: int) -> int:
    """Number of multi-indices of total degree <= order in `dim` variables."""
    return math.comb(dim + order, dim)


def multi_indices(dim: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices of total degree <= order, in coefficient order."""
    return _table(dim, order).multis


def _degree_multis(dim: int, deg: int) -> list[tuple[int, ...]]:
    if dim == 1:
        return [(deg,)]
    out = []
    for first in range(deg + 1):
        for rest in _degree_multis(dim - 1, deg - first):
            out.append((first,) + rest)
    return out


class _JetTable:
    """Precomputed index tables for one (dim, order) coefficient layout."""

    __slots__ = ("dim", "order", "multis", "index", "ncoef", "pair_i", "pair_j", "weight",
                 "depths", "restore", "deriv")

    def __init__(self, dim: int, order: int):
        self.dim = dim
        self.order = order
        multis: list[tuple[int, ...]] = []
        for deg in range(order + 1):
            multis.extend(_degree_multis(dim, deg))
        self.multis = tuple(multis)
        self.index = {m: i for i, m in enumerate(multis)}
        self.ncoef = len(multis)

        # Unordered-pair product table.  A pair term is a[i]*b[j] + a[j]*b[i], halved
        # on the diagonal (exact), which makes jet_product bitwise commutative.  The
        # coefficient k sums its run of pairs, in (i, j) order, as x0 + ((x1 + x2) + ...):
        # numpy's order for reducing a run of at most 8 terms (longer ones it sums
        # pairwise); MAX_DIM 3 and MAX_ORDER 4 give runs of at most 6.  The columns go
        # depth by depth, so that _fold adds slices of the pair columns on axis 0 of
        # their coefficient-major arrays.  Depth 0 holds every coefficient's first pair
        # (0, k): those with one pair (degree <= 1) in order, then the tail, those with
        # more, longest run first.  Depth d >= 1 holds the d-th pair of each tail
        # coefficient whose run is longer than d, in the tail's order: a prefix of the
        # depth before.
        runs = [[] for _ in multis]
        for i, mi in enumerate(multis):
            for j in range(i, self.ncoef):
                s = tuple(p + q for p, q in zip(mi, multis[j]))
                if sum(s) <= order:
                    runs[self.index[s]].append((i, j))
        head = sorted(range(self.ncoef), key=lambda k: (len(runs[k]) > 1, -len(runs[k]), k))
        longest = max(map(len, runs))
        pairs = [runs[k][d] for d in range(longest) for k in head if len(runs[k]) > d]
        self.pair_i, self.pair_j = (np.array(col, dtype=np.intp) for col in zip(*pairs))
        self.weight = np.where(self.pair_i == self.pair_j, 0.5, 1.0)
        self.depths = tuple(sum(len(run) > d for run in runs) for d in range(1, longest))
        # depth 0 back in coefficient order: a gather, or None where it is in order
        self.restore = None if head == sorted(head) else np.argsort(head)

        # Per-axis differentiation tables: coefficient of b in d_axis f comes
        # from the coefficient of b + e_axis, scaled by b_axis + 1.
        self.deriv = []
        n_small = coefficient_count(dim, order - 1) if order > 0 else 0
        for axis in range(dim):
            src = np.empty(n_small, dtype=np.intp)
            fac = np.empty(n_small, dtype=np.float64)
            for t in range(n_small):
                m = multis[t]
                bumped = m[:axis] + (m[axis] + 1,) + m[axis + 1:]
                src[t] = self.index[bumped]
                fac[t] = m[axis] + 1
            self.deriv.append((src, fac))


@lru_cache(maxsize=None)
def _table(dim: int, order: int) -> _JetTable:
    if not (1 <= dim <= MAX_DIM):
        raise JetShapeError(f"jet dimension must be in 1..{MAX_DIM}, got {dim}")
    if not (0 <= order <= MAX_ORDER):
        raise JetShapeError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    return _JetTable(dim, order)


_NO_FAILURES = MappingProxyType({})


def _make(dim: int, order: int, coeffs: np.ndarray, failures=_NO_FAILURES) -> "Jet":
    coeffs.flags.writeable = False
    return Jet(dim, order, coeffs, failures)


def _merged(a: "Jet", b: "Jet"):
    # the earlier operand's failure wins, as the first exception would
    return {**b.failures, **a.failures} if (a.failures or b.failures) else _NO_FAILURES


def _scalar(c: np.ndarray):
    return float(c) if c.ndim == 0 else c


@dataclass(frozen=True, eq=False)
class Jet:
    """Dense truncated Taylor expansion of a scalar field at a point or a block.

    `failures` maps a row of a batched jet to the exception that row met.
    """

    dim: int
    order: int
    coeffs: np.ndarray
    failures: dict = field(default_factory=lambda: _NO_FAILURES)

    @property
    def value(self):
        """Degree-0 coefficient, i.e. the field value at the expansion point.

        A float for a single jet, a (P,) array for a batched one.
        """
        return _scalar(self.coeffs[..., 0])

    def coefficient(self, alpha: tuple[int, ...]):
        """Taylor coefficient c_alpha = (d^alpha f) / alpha!."""
        tab = _table(self.dim, self.order)
        key = tuple(alpha)
        if len(key) != self.dim or key not in tab.index:
            raise JetIndexError(f"multi-index {alpha} invalid for dim={self.dim}, order={self.order}")
        return _scalar(self.coeffs[..., tab.index[key]])

    def __getitem__(self, key) -> "Jet":
        """The jets selected by indexing the leading (batch and tensor) axes."""
        return Jet(self.dim, self.order, self.coeffs[key], self.failures)

    def derivative(self, axis: int) -> "Jet":
        """Jet of the partial derivative along `axis`, one order lower."""
        if not (0 <= axis < self.dim):
            raise JetIndexError(f"axis {axis} out of range for dim {self.dim}")
        if self.order == 0:
            raise JetShapeError("cannot differentiate an order-0 jet")
        src, fac = _table(self.dim, self.order).deriv[axis]
        return _make(self.dim, self.order - 1, self.coeffs[..., src] * fac, self.failures)

    def truncate(self, order: int) -> "Jet":
        """Drop coefficients above `order` (graded layout makes this a slice)."""
        if order == self.order:
            return self
        if not (0 <= order < self.order):
            raise JetShapeError(f"cannot truncate order {self.order} jet to order {order}")
        count = coefficient_count(self.dim, order)
        return _make(self.dim, order, self.coeffs[..., :count].copy(), self.failures)

    # -- arithmetic ---------------------------------------------------------

    def _is_compatible(self, other: "Jet") -> None:
        if self.dim != other.dim or self.order != other.order:
            raise JetShapeError(
                f"jet mismatch: dim/order ({self.dim},{self.order}) vs ({other.dim},{other.order})"
            )

    def __add__(self, other):
        if isinstance(other, Jet):
            self._is_compatible(other)
            return _make(self.dim, self.order, self.coeffs + other.coeffs, _merged(self, other))
        if isinstance(other, (int, float)):
            c = self.coeffs.copy()
            c[..., 0] += other
            return _make(self.dim, self.order, c, self.failures)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._is_compatible(other)
            return _make(self.dim, self.order, self.coeffs - other.coeffs, _merged(self, other))
        if isinstance(other, (int, float)):
            c = self.coeffs.copy()
            c[..., 0] -= other
            return _make(self.dim, self.order, c, self.failures)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            c = -self.coeffs
            c[..., 0] += other
            return _make(self.dim, self.order, c, self.failures)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_product(self, other)
        if isinstance(other, (int, float)):
            return _make(self.dim, self.order, self.coeffs * float(other), self.failures)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return jet_product(self, jet_elementary("recip", other))
        if isinstance(other, (int, float)):
            if other == 0:
                raise JetDomainError("division of a jet by scalar zero")
            return _make(self.dim, self.order, self.coeffs / float(other), self.failures)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return jet_elementary("recip", self) * float(other)
        return NotImplemented

    def __neg__(self):
        return _make(self.dim, self.order, -self.coeffs, self.failures)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return jet_elementary("recip", self) ** (-exponent)
        result, base, n = None, self, exponent
        while n:
            if n & 1:
                result = base if result is None else jet_product(result, base)
            n >>= 1
            if n:
                base = jet_product(base, base)
        if result is None:  # x^0: the constant one, with x's leading axes
            return jet_constant(np.ones(self.coeffs.shape[:-1]), self.dim, self.order)
        return result

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value!r})"


def jet_constant(value, dim: int, order: int) -> Jet:
    """Jet of the constant field `value` (a float, or a (P,) array for a block)."""
    value = np.asarray(value, dtype=float)
    c = np.zeros(value.shape + (_table(dim, order).ncoef,))
    c[..., 0] = value
    return _make(dim, order, c)


def jet_variable(index: int, value, dim: int, order: int) -> Jet:
    """Jet of the coordinate function u^index at a point where it equals `value`.

    `value` may be a (P,) array: the jets of u^index at P points.
    """
    tab = _table(dim, order)
    if not (0 <= index < dim):
        raise JetIndexError(f"variable index {index} out of range for dim {dim}")
    value = np.asarray(value, dtype=float)
    c = np.zeros(value.shape + (tab.ncoef,))
    c[..., 0] = value
    if order >= 1:
        unit = tuple(1 if a == index else 0 for a in range(dim))
        c[..., tab.index[unit]] = 1.0
    return _make(dim, order, c)


def jet_product(a: Jet, b: Jet) -> Jet:
    """Truncated Cauchy product.  Bitwise commutative by construction."""
    if not isinstance(a, Jet) or not isinstance(b, Jet):
        raise JetShapeError("jet_product requires two jets")
    a._is_compatible(b)
    tab = _table(a.dim, a.order)
    i, j = tab.pair_i, tab.pair_j
    ca, cb = a.coeffs, b.coeffs
    if ca.ndim != cb.ndim:  # pad the fewer leading axes on the left before swapaxes moves them
        ca, cb = (c[(None,) * (max(ca.ndim, cb.ndim) - c.ndim)] for c in (ca, cb))
    ca, cb = ca.swapaxes(0, -1), cb.swapaxes(0, -1)
    return _make(a.dim, a.order, _fold(ca[i] * cb[j], ca[j] * cb[i], tab).swapaxes(0, -1),
                 _merged(a, b))


def _fold(ab: np.ndarray, ba: np.ndarray, tab: _JetTable) -> np.ndarray:
    # pair terms a_i b_j and a_j b_i on axis 0 -> product coefficients on axis 0, a new
    # C-ordered array; `ab` is overwritten.  Depths 2, 3, ... are added in turn to a prefix
    # of depth 1 (each run's tail, summed left to right), then depth 1 to depth 0's tail.
    ab += ba
    ab *= tab.weight.reshape((-1,) + (1,) * (ab.ndim - 1))
    n = tab.ncoef
    head = ab[:n]
    if tab.depths:
        rest = ab[n:n + tab.depths[0]]
        start = n + tab.depths[0]
        for width in tab.depths[1:]:
            rest[:width] += ab[start:start + width]
            start += width
        head[n - tab.depths[0]:] += rest
    return head.copy() if tab.restore is None else head.take(tab.restore, 0)


TERMS_BYTES = 2**19  # up to this, ordered_einsum forms its terms at once: fewest numpy calls


def _layout(spec: str, operands):
    """The operands as views laid out with the summed indices first, then the output's.

    `spec` gives np.einsum's explicit subscripts for the operands' leading
    axes; trailing axes ride along.  A view has a length-1 axis for each
    index its operand lacks, so the views broadcast to the terms' shape.
    Returns the views and the number of summed indices.
    """
    inputs, out = spec.split("->")
    subs = inputs.split(",")
    summed = "".join(dict.fromkeys(c for c in inputs if c not in out + ","))
    layout = summed + out
    views = [op.transpose([sub.index(c) for c in layout if c in sub] + list(range(len(sub), op.ndim)))
             [tuple(slice(None) if c in sub else None for c in layout)]
             for sub, op in zip(subs, operands)]
    return views, len(summed)


def _terms(views, k: int):
    """Each view's slice at every summed index, in lexicographic order of the summed indices."""
    extents = np.broadcast_shapes(*(view.shape[:k] for view in views))
    views = [np.broadcast_to(view, extents + view.shape[k:]) for view in views]
    for index in itertools.product(*map(range, extents)):
        yield [view[index] for view in views]


def _product(factors, out=None) -> np.ndarray:
    """The product of the broadcast `factors`, multiplied left to right into `out` (new when None)."""
    if out is None:
        out = np.empty(np.broadcast(*factors).shape, np.result_type(*factors))
    np.multiply(factors[0], factors[1], out=out)
    for factor in factors[2:]:
        np.multiply(out, factor, out=out)
    return out


def ordered_einsum(spec: str, *operands) -> np.ndarray:
    """np.einsum with explicit subscripts, its sums accumulated in a fixed order.

    np.einsum may reorder a reduction by the operands' shapes, so a point's
    result could depend on how many points share its block.  Here the terms
    are added one after another, in lexicographic order of the summed
    indices, the first term being the output's start, not a zero (which
    would turn a sum of -0.0 terms into 0.0).  Each term is the product of
    the operands' slices, multiplied left to right.  Up to TERMS_BYTES the
    terms are formed at once, in one array laid out with the summed indices
    first, which spends the fewest numpy calls; beyond, one at a time into a
    buffer of the output's shape, so that no array larger than the output
    is formed.
    """
    views, k = _layout(spec, operands)
    shape = np.broadcast(*views).shape
    dtype = np.result_type(*operands)
    if math.prod(shape) * dtype.itemsize <= TERMS_BYTES:
        terms = _product(views, np.empty(shape, dtype)).reshape((math.prod(shape[:k]),) + shape[k:])
        total = terms[0].copy()
        for term in terms[1:]:
            total += term
        return total
    terms = _terms(views, k)
    total = _product(next(terms))
    term = None
    for factors in terms:
        term = _product(factors, term)
        total += term
    return total


def jet_einsum(spec: str, a: Jet, b: Jet, work: np.ndarray | None = None) -> Jet:
    """Truncated products of tensor jets, summed over their leading axes as in np.einsum.

    `spec` names the leading axes only, e.g. "pij,pjk->pik" for a batch of
    jet-valued matrix products; every term starts with the batch letter,
    never summed, or JetShapeError is raised.  On the operands'
    coefficient-major views the coefficient axis takes that letter's place
    and the points ride along innermost.  The pair-table columns a_i b_j and
    a_j b_i are summed term by term, in ordered_einsum's order, each term
    gathered from the operands' slices on axis 0.  The two sums are then
    folded once, as one jet_product's pair terms are: each coefficient adds
    its pairs in _fold's fixed order, so a point's result does not depend on
    its block.  The two sums and their term buffer, pair columns first and
    points last, are formed in `work` when it is given, a flat float64 array
    of at least three times their size, so that a sequence of contractions
    can share one buffer; the result is a new array, never a view of `work`.
    """
    a._is_compatible(b)
    if len({sub[:1] for sub in spec.replace("->", ",").split(",")}) != 1:
        raise JetShapeError(f"jet_einsum needs one batch letter first in every term, got {spec!r}")
    tab = _table(a.dim, a.order)
    i, j = tab.pair_i, tab.pair_j
    terms = _terms(*_layout(spec, (a.coeffs.swapaxes(0, -1), b.coeffs.swapaxes(0, -1))))
    sa, sb = next(terms)
    shape = (len(i),) + np.broadcast_shapes(sa.shape[1:], sb.shape[1:])
    size = math.prod(shape)
    ab, ba, term = (np.empty(3 * size) if work is None else work[:3 * size]).reshape((3,) + shape)
    np.multiply(sa[i], sb[j], out=ab)
    np.multiply(sa[j], sb[i], out=ba)
    for sa, sb in terms:
        ab += np.multiply(sa[i], sb[j], out=term)
        ba += np.multiply(sa[j], sb[i], out=term)
    return _make(a.dim, a.order, _fold(ab, ba, tab).swapaxes(0, -1), _merged(a, b))


def jet_extract(a: Jet, alpha: tuple[int, ...]) -> float:
    """Partial derivative value d^alpha f = alpha! * c_alpha."""
    c = a.coefficient(alpha)
    fact = 1
    for e in alpha:
        fact *= math.factorial(e)
    return c * fact


# -- elementary functions ----------------------------------------------------

def _series_reciprocal(poly: list[float], order: int) -> list[float]:
    # Coefficients of 1/p(x) for a univariate series p with p[0] != 0.
    h = [1.0 / poly[0]]
    for j in range(1, order + 1):
        acc = 0.0
        for i in range(1, min(j, len(poly) - 1) + 1):
            acc += poly[i] * h[j - i]
        h.append(-acc / poly[0])
    return h


_DOMAINS = {  # function -> (test for values outside its domain, error message)
    "log": (lambda x: x <= 0, "log of non-positive jet value {}"),
    "sqrt": (lambda x: x <= 0, "sqrt of non-positive jet value {}"),
    "pow-const": (lambda x: x <= 0, "pow-const of non-positive jet value {}"),
    "recip": (lambda x: x == 0, "reciprocal of a jet with zero value"),
}


def _univariate_series(name: str, x0: np.ndarray, order: int, param) -> list[np.ndarray]:
    """Taylor coefficients [g(x0), g'(x0), g''(x0)/2!, ...] up to `order`, at every value of x0."""
    if name == "exp":
        e = np.exp(x0)
        return [e / math.factorial(j) for j in range(order + 1)]
    if name in ("sin", "cos"):
        s, c = np.sin(x0), np.cos(x0)
        cycle = (s, c, -s, -c) if name == "sin" else (c, -s, -c, s)
        return [cycle[j % 4] / math.factorial(j) for j in range(order + 1)]
    if name in ("sinh", "cosh"):
        s, c = np.sinh(x0), np.cosh(x0)
        cycle = (s, c) if name == "sinh" else (c, s)
        return [cycle[j % 2] / math.factorial(j) for j in range(order + 1)]
    if name == "log":
        out = [np.log(x0)]
        for j in range(1, order + 1):
            out.append((-1.0) ** (j - 1) / (j * x0 ** j))
        return out
    if name == "sqrt":
        out = [np.sqrt(x0)]
        for j in range(1, order + 1):
            out.append(out[-1] * (1.5 - j) / (j * x0))
        return out
    if name == "recip":
        out = [1.0 / x0]
        for j in range(1, order + 1):
            out.append(-out[-1] / x0)
        return out
    if name == "pow-const":
        if param is None:
            raise JetShapeError("pow-const requires an exponent parameter")
        p = float(param)
        out = [x0 ** p]
        for j in range(1, order + 1):
            out.append(out[-1] * (p - j + 1) / (j * x0))
        return out
    if name == "atan":
        # Integrate the series of 1/(1 + x^2) expanded at x0.
        h = _series_reciprocal([1.0 + x0 * x0, 2.0 * x0, 1.0], max(order - 1, 0))
        out = [np.arctan(x0)]
        for j in range(1, order + 1):
            out.append(h[j - 1] / j)
        return out
    raise JetShapeError(f"unknown elementary function {name!r}")


def jet_elementary(name: str, a: Jet, param: float | None = None) -> Jet:
    """Truncated Taylor composition g(a) for an elementary function g.

    The univariate series of g at a.value is evaluated by Horner's rule in
    the nilpotent part of `a`, which is exact at the jet order.  A single
    jet outside g's domain raises JetDomainError; a batched jet records the
    failure for that row instead.
    """
    if not isinstance(a, Jet):
        raise JetShapeError("jet_elementary requires a jet operand")
    x0 = a.coeffs[..., 0]
    failed = {}
    if name in _DOMAINS:
        outside, message = _DOMAINS[name]
        bad = outside(x0)
        failed = {i: JetDomainError(message.format(v))
                  for i, v in zip(np.flatnonzero(bad).tolist(), x0[bad].tolist())}
    with np.errstate(all="ignore"):
        columns = np.array(_univariate_series(name, x0, a.order, param))
    for i in np.flatnonzero(np.isfinite(x0) & ~np.isfinite(columns).all(axis=0)).tolist():
        failed.setdefault(i, OverflowError("math range error"))  # as the scalar math functions raise
    if failed and a.coeffs.ndim == 1:
        raise failed[0]
    columns.reshape(len(columns), -1)[:, list(failed)] = np.nan
    tilde = a.coeffs.copy()
    tilde[..., 0] -= x0
    if a.order == 0:
        c = columns[0, ..., None]
    else:  # Horner's first step, from the constant jet of the top coefficient, is a scalar multiply
        c = columns[-1, ..., None] * tilde
        c[..., 0] += columns[-2]
    tilde = _make(a.dim, a.order, tilde)
    for d in columns[-3::-1]:
        c = jet_product(_make(a.dim, a.order, c), tilde).coeffs.copy()
        c[..., 0] += d
    failures = {**failed, **a.failures} if (failed or a.failures) else _NO_FAILURES
    return _make(a.dim, a.order, c, failures)
