"""Immersions F: U in R^n -> R^(n+m) and the built-in surface catalogue.

An immersion is a tuple of component expressions.  Graph immersions carry
the identity map in their first n components, so the graph of f is
(u^1, ..., u^n, f^1, ..., f^m).  Catalogue surfaces are stored as ASTs and
evaluated through the same expression pipeline as user input; nothing is
special-cased numerically.

The classical parametric surfaces are padded with a zero fourth component
so they sit in R^4 (codimension 2); `cylinder-over` appends a coordinate to
both domain and ambient space, which leaves the Gauss-map rank at 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expressions import (
    BinOp,
    Call,
    Const,
    ExprNode,
    Pow,
    Sharing,
    Var,
    evaluate_expression,
    expression_fault,
    expression_variables,
    parse_expression,
)
from .jets import Jet, jet_constant, jet_variable


class ImmersionError(ValueError):
    """Invalid immersion definition (bad components, unknown catalogue name).

    `param` names the catalogue param at fault (`coeffs[0]`), when there is one.
    """

    def __init__(self, message: str, param: str | None = None):
        super().__init__(message if param is None else f"params.{param}: {message}")
        self.message, self.param = message, param


@dataclass(frozen=True)
class Immersion:
    """Parametrized immersion given by n+m component expressions."""

    n: int
    m: int
    components: tuple[ExprNode, ...]
    kind: str  # 'graph' | 'parametric'
    name: str = ""

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ImmersionError(f"domain dimension must be 2 or 3, got {self.n}")
        if self.m < 1:
            raise ImmersionError(f"codimension must be >= 1, got {self.m}")
        if len(self.components) != self.n + self.m:
            raise ImmersionError(
                f"expected {self.n + self.m} components, got {len(self.components)}"
            )
        if self.kind not in ("graph", "parametric"):
            raise ImmersionError(f"kind must be 'graph' or 'parametric', got {self.kind!r}")
        for comp in self.components:
            bad = [v for v in expression_variables(comp) if v >= self.n]
            if bad:
                raise ImmersionError(
                    f"component references variable index {max(bad)} >= n={self.n}"
                )
            fault = expression_fault(comp, self.n)  # after: it evaluates the n variables
            if fault:
                raise ImmersionError(fault)

    @cached_property
    def sharing(self) -> Sharing:
        """The subtrees the components have in common, found on first use."""
        return Sharing(self.components)

    def graph_components(self) -> tuple[ExprNode, ...]:
        """The m graph components f^1..f^m (graph kind only)."""
        if self.kind != "graph":
            raise ImmersionError("not a graph immersion")
        return self.components[self.n:]


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid over the parameter domain with an optional mask.

    A point is kept when the mask expression evaluates <= 0 there.
    """

    ranges: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    mask: ExprNode | None = None

    def __post_init__(self):
        if len(self.ranges) != len(self.counts):
            raise ValueError("ranges and counts must have the same length")
        if not (1 <= len(self.ranges) <= 3):
            raise ValueError("grids are 1- to 3-dimensional")
        for lo, hi in self.ranges:
            if not (hi > lo):
                raise ValueError(f"degenerate range [{lo}, {hi}]")
        for c in self.counts:
            if c < 2:
                raise ValueError(f"sample counts must be >= 2, got {c}")

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, c) for (lo, hi), c in zip(self.ranges, self.counts)]

    def points(self) -> list[tuple[float, ...]]:
        """Grid points in row-major order (first axis slowest), mask applied."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        flat = [m.ravel() for m in mesh]
        if self.mask is not None:
            keep = evaluate_array(self.mask, flat) <= 0.0
            flat = [f[keep] for f in flat]
        return [tuple(float(f[i]) for f in flat) for i in range(flat[0].size)]


def build_graph_immersion(f_components, n: int, name: str = "") -> Immersion:
    """Graph immersion (u^1..u^n, f^1..f^m) from the components of f."""
    comps = []
    for comp in f_components:
        node = parse_expression(comp, n) if isinstance(comp, str) else comp
        comps.append(node)
    identity = tuple(Var(i) for i in range(n))
    return Immersion(n, len(comps), identity + tuple(comps), "graph", name)


def evaluate_immersion(imm: Immersion, point, order: int) -> list[Jet]:
    """Ambient components of F as jets expanded at `point`.

    A (P, n) block of points gives batched jets, one row per point.  A
    subtree that several components share is evaluated once.
    """
    coords = np.asarray(point, dtype=float)
    if coords.shape[-1] != imm.n:
        raise ImmersionError(f"point has {coords.shape[-1]} coordinates, expected {imm.n}")
    variables = [jet_variable(i, coords[..., i], imm.n, order) for i in range(imm.n)]
    jets, memo = [], imm.sharing.memo()
    for comp in imm.components:
        val = evaluate_expression(comp, variables, memo)
        if not isinstance(val, Jet):
            val = jet_constant(np.full(coords.shape[:-1], float(val)), imm.n, order)
        jets.append(val)
    return jets


def evaluate_array(node: ExprNode, arrays, memo=None) -> np.ndarray:
    """`node` over coordinate arrays; a constant is broadcast to their shape.

    `memo` is an evaluation memo (`Sharing.memo()`) that calls share.
    """
    val = evaluate_expression(node, arrays, memo)
    return val if isinstance(val, np.ndarray) else np.full_like(arrays[0], float(val))


# -- catalogue -----------------------------------------------------------------

def _monomial(coef: float, px: int, py: int) -> ExprNode:
    node: ExprNode = Const(coef)
    if px:
        node = BinOp("*", node, Pow(Var(0), px) if px > 1 else Var(0))
    if py:
        node = BinOp("*", node, Pow(Var(1), py) if py > 1 else Var(1))
    return node


def _poly_sum(terms: list[tuple[float, int, int]]) -> ExprNode:
    node: ExprNode | None = None
    for coef, px, py in terms:
        if coef == 0:
            continue
        term = _monomial(coef, px, py)
        node = term if node is None else BinOp("+", node, term)
    return node if node is not None else Const(0.0)


_I_POWERS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))  # i^j as (re, im)


def _param_number(value, param: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ImmersionError(f"must be a number, got {value!r}", param)
    return float(value)


def _param_numbers(value, param: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ImmersionError(f"must be a non-empty list of numbers, got {value!r}", param)
    return [_param_number(x, f"{param}[{i}]") for i, x in enumerate(value)]


def _holo_curve(params: dict) -> Immersion:
    coeffs = params.get("coeffs")
    if not coeffs:
        raise ImmersionError("holo-curve requires non-empty 'coeffs'")
    if not isinstance(coeffs, (list, tuple)):
        raise ImmersionError(f"must be a list of coefficients, got {coeffs!r}", "coeffs")
    re_terms: list[tuple[float, int, int]] = []
    im_terms: list[tuple[float, int, int]] = []
    for k, c in enumerate(coeffs):
        if not isinstance(c, (list, tuple)):
            a, b = _param_number(c, f"coeffs[{k}]"), 0.0
        elif len(c) == 2:
            a, b = _param_numbers(c, f"coeffs[{k}]")
        else:
            raise ImmersionError(f"must be a number or an [re, im] pair, got {c!r}", f"coeffs[{k}]")
        for j in range(k + 1):
            ire, iim = _I_POWERS[j % 4]
            binom = math.comb(k, j)
            # coefficient of x^(k-j) y^j in (a + i b)(x + i y)^k
            re_terms.append((binom * (a * ire - b * iim), k - j, j))
            im_terms.append((binom * (a * iim + b * ire), k - j, j))
    return build_graph_immersion([_poly_sum(re_terms), _poly_sum(im_terms)], 2, "holo-curve")


def _affine(params: dict) -> Immersion:
    slopes = params.get("slopes", [[0.5, -0.25], [0.1, 0.75]])
    if not isinstance(slopes, (list, tuple)) or not slopes:
        raise ImmersionError(f"must be a non-empty list of rows, got {slopes!r}", "slopes")
    rows = [_param_numbers(row, f"slopes[{r}]") for r, row in enumerate(slopes)]
    n = len(rows[0])
    if n not in (2, 3):
        raise ImmersionError("affine slopes must have 2 or 3 columns", "slopes[0]")
    offsets = params.get("offsets")
    offsets = [0.0] * len(rows) if offsets is None else _param_numbers(offsets, "offsets")
    if len(offsets) != len(rows):
        raise ImmersionError("affine offsets must match the number of slope rows", "offsets")
    comps = []
    for r, (row, off) in enumerate(zip(rows, offsets)):
        if len(row) != n:
            raise ImmersionError("affine slope rows must all have the same length", f"slopes[{r}]")
        terms = [(row[i], *(1 if a == i else 0 for a in range(2))) for i in range(min(n, 2))]
        node = _poly_sum([t for t in terms if t[0] != 0.0])
        if n == 3 and row[2] != 0:
            node = BinOp("+", node, BinOp("*", Const(row[2]), Var(2)))
        if off != 0:
            node = BinOp("+", node, Const(off))
        comps.append(node)
    return build_graph_immersion(comps, n, "affine")


def _parametric(strings: list[str], n: int, name: str) -> Immersion:
    comps = tuple(parse_expression(s, n) for s in strings)
    return Immersion(n, len(comps) - n, comps, "parametric", name)


def _catenoid(params: dict) -> Immersion:
    return _parametric(
        ["cosh(u1)*cos(u2)", "cosh(u1)*sin(u2)", "u1", "0"], 2, "catenoid"
    )


def _helicoid(params: dict) -> Immersion:
    return _parametric(
        ["sinh(u1)*cos(u2)", "sinh(u1)*sin(u2)", "u2", "0"], 2, "helicoid"
    )


def _enneper(params: dict) -> Immersion:
    return _parametric(
        [
            "u1 - u1^3/3 + u1*u2^2",
            "u2 - u2^3/3 + u2*u1^2",
            "u1^2 - u2^2",
            "0",
        ],
        2,
        "enneper",
    )


def _cylinder_over(params: dict) -> Immersion:
    base_name = params.get("base")
    if not base_name:
        raise ImmersionError("cylinder-over requires a 'base' surface name")
    if base_name == "cylinder-over":
        raise ImmersionError("cylinder-over cannot be nested")
    try:
        base = catalogue_lookup(base_name, params.get("base_params", {}))
    except ImmersionError as exc:
        if exc.param is None:
            raise
        raise ImmersionError(exc.message, f"base_params.{exc.param}") from exc
    if base.n != 2:
        raise ImmersionError("cylinder-over requires a 2-dimensional base")
    name = f"cylinder-over-{base.name or base_name}"
    if base.kind == "graph":
        # graph over R^3: (u1, u2, u3, f^1(u1,u2), ...)
        identity = (Var(0), Var(1), Var(2))
        return Immersion(3, base.m, identity + base.graph_components(), "graph", name)
    return Immersion(3, base.m, base.components + (Var(2),), "parametric", name)


_CATALOGUE = {
    "affine": (_affine, "graph of an affine map; params: slopes (m x n rows), offsets"),
    "holo-curve": (_holo_curve, "graph of a complex polynomial; params: coeffs [c0, c1, ...]"),
    "catenoid": (_catenoid, "catenoid in R^4 (zero-padded), conformal parametrization"),
    "helicoid": (_helicoid, "helicoid in R^4 (zero-padded), conformal parametrization"),
    "enneper": (_enneper, "Enneper surface in R^4 (zero-padded)"),
    "cylinder-over": (_cylinder_over, "base surface times a line; params: base, base_params"),
}


def catalogue_names() -> list[tuple[str, str]]:
    return [(name, doc) for name, (_, doc) in _CATALOGUE.items()]


def catalogue_lookup(name: str, params: dict | None = None) -> Immersion:
    """Construct a catalogue surface by name."""
    if name not in _CATALOGUE:
        known = ", ".join(sorted(_CATALOGUE))
        raise ImmersionError(f"unknown catalogue surface {name!r} (known: {known})")
    builder, _ = _CATALOGUE[name]
    return builder(params or {})
