"""Small expression language for immersion components.

Grammar (EBNF)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' integer)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')' | '-' base

Identifiers: variables x, y, z (aliases u1, u2, u3, plus u, v for the first
two) and the unary functions sin, cos, sinh, cosh, exp, log, sqrt, atan.  The grammar is total-order-4
differentiable by construction (no abs, no max), so jets of any expression
are well defined wherever evaluation succeeds.

ASTs are immutable dataclass trees.  `evaluate_expression` works generically
over floats, jets and numpy arrays; derivatives come from evaluating over
jets.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Union

import numpy as np

from .jets import Jet, jet_elementary

VARIABLE_ALIASES = {"x": 0, "y": 1, "z": 2, "u1": 0, "u2": 1, "u3": 2, "u": 0, "v": 1}
MAX_NESTING = 100  # parentheses, calls and unary minus nest at most this deep
MAX_DEPTH = 500  # levels of a parsed tree: evaluation recurses through each

_VAR_NAMES = ("x", "y", "z")  # canonical names used when printing


class ParseError(ValueError):
    """Syntax or name error; `offset` is the 1-based byte offset in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExpressionDomainError(ValueError):
    """Evaluation hit a domain violation (log/sqrt/division)."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Call:
    func: str  # element of FUNCTION_NAMES, or 'neg' for unary minus
    arg: "ExprNode"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Pow:
    base: "ExprNode"
    exponent: int


ExprNode = Union[Const, Var, Call, BinOp, Pow]
_NODE_CLASSES = (Const, Var, Call, BinOp, Pow)  # for isinstance, which is slow on a Union

# each function: its float function and its array function; jets take it by name
_FUNCTIONS = {
    "sin": (math.sin, np.sin),
    "cos": (math.cos, np.cos),
    "sinh": (math.sinh, np.sinh),
    "cosh": (math.cosh, np.cosh),
    "exp": (math.exp, np.exp),
    "log": (math.log, np.log),
    "sqrt": (math.sqrt, np.sqrt),
    "atan": (math.atan, np.arctan),
}
FUNCTION_NAMES = tuple(_FUNCTIONS)


# -- parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:  # no token after the whitespace at pos: the end, or a bad byte
            bad = len(text) - len(text[pos:].lstrip())
            if bad == len(text):
                break
            raise ParseError(f"unexpected character {text[bad]!r}", bad + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    tokens.append(("eof", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], dim: int):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        self.depth = 0  # base() calls in progress: every nesting recurses through base

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", off)
        return self.advance()

    def parse(self) -> ExprNode:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected token {text!r}", off)
        return node

    def expr(self) -> ExprNode:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> ExprNode:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self) -> ExprNode:
        node = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            sign = 1
            kind, text, off = self.peek()
            if kind == "op" and text == "-":
                self.advance()
                sign = -1
                kind, text, off = self.peek()
            if kind != "num":
                raise ParseError("expected an integer exponent after '^'", off)
            self.advance()
            value = float(text)
            if not value.is_integer():  # 1e400 is inf, no integer either
                raise ParseError(f"exponent must be an integer, got {text}", off)
            node = Pow(node, sign * int(value))
        return node

    def base(self) -> ExprNode:
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested more than {MAX_NESTING} deep", self.peek()[2])
        self.depth += 1
        node = self.atom()
        self.depth -= 1
        return node

    def atom(self) -> ExprNode:
        kind, text, off = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "op" and text == "-":
            return Call("neg", self.base())
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if text in FUNCTION_NAMES:
                nkind, ntext, noff = self.peek()
                if nkind != "op" or ntext != "(":
                    raise ParseError(f"function {text!r} requires an argument list", noff)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in VARIABLE_ALIASES:
                index = VARIABLE_ALIASES[text]
                if index >= self.dim:
                    raise ParseError(
                        f"variable {text!r} out of range for dimension {self.dim}", off
                    )
                nkind, ntext, noff = self.peek()
                if nkind == "op" and ntext == "(":
                    raise ParseError(f"variable {text!r} is not callable", noff)
                return Var(index)
            raise ParseError(f"unknown identifier {text!r}", off)
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", off)


def parse_expression(text: str, dim: int) -> ExprNode:
    """Parse `text` into an AST with variables restricted to indices < dim."""
    if not (1 <= dim <= 3):
        raise ValueError(f"dimension must be 1..3, got {dim}")
    node = _Parser(_tokenize(text), dim).parse()
    if _depth(node) > MAX_DEPTH:  # a flat chain such as x+x+...+x is one level per operator
        raise ParseError(f"expression tree more than {MAX_DEPTH} levels deep", 1)
    return node


def expression_fault(node: ExprNode, dim: int) -> str | None:
    """Why `node` cannot be evaluated at any point, or None.

    A tree deeper than MAX_DEPTH (a catalogue tree skips the parser's bound),
    or a part without variables that is undefined, such as log(0) or 2^2000:
    one evaluation with NaN for every variable, so that only such a part can raise.
    """
    if _depth(node) > MAX_DEPTH:
        return f"expression tree more than {MAX_DEPTH} levels deep"
    try:
        evaluate_expression(node, [math.nan] * dim)
    except (ExpressionDomainError, OverflowError) as exc:
        return f"constant part undefined: {exc}"
    return None


def _levels(node: ExprNode):
    """The distinct nodes under `node`, one list per level, root first; no recursion."""
    level = [node]
    while level:
        yield level
        # by id: a subtree shared by several parents is listed once per level, not once per path
        level = list({id(child): child for parent in level for child in vars(parent).values()
                      if isinstance(child, _NODE_CLASSES)}.values())


def _depth(node: ExprNode) -> int:
    return sum(1 for _ in _levels(node))


# -- printing -----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _fmt(node: ExprNode) -> tuple[str, int]:
    if isinstance(node, Const):
        v = node.value
        if v < 0:
            return f"-{abs(v)!r}", _PREC["neg"]
        return repr(v), _PREC["atom"]
    if isinstance(node, Var):
        return _VAR_NAMES[node.index], _PREC["atom"]
    if isinstance(node, Call):
        if node.func == "neg":
            inner, prec = _fmt(node.arg)
            # '-' applies to a base, which binds tighter than '^': anything
            # non-atomic must be parenthesized or a following '^' captures it
            if prec < _PREC["atom"]:
                inner = f"({inner})"
            return f"-{inner}", _PREC["neg"]
        inner, _ = _fmt(node.arg)
        return f"{node.func}({inner})", _PREC["atom"]
    if isinstance(node, Pow):
        inner, prec = _fmt(node.base)
        if prec < _PREC["atom"]:
            inner = f"({inner})"
        return f"{inner}^{node.exponent}", _PREC["pow"]
    if isinstance(node, BinOp):
        lhs, lp = _fmt(node.left)
        rhs, rp = _fmt(node.right)
        prec = _PREC[node.op]
        if lp < prec:
            lhs = f"({lhs})"
        # - and / are left associative: parenthesize right operands of equal precedence
        if rp < prec or (rp == prec and node.op in "-/"):
            rhs = f"({rhs})"
        return f"{lhs} {node.op} {rhs}", prec
    raise TypeError(f"not an expression node: {node!r}")


def format_expression(node: ExprNode) -> str:
    """Render an AST as parseable text; parse(format(parse(s))) == parse(s)."""
    return _fmt(node)[0]


# -- evaluation ---------------------------------------------------------------

def _apply_func(name: str, value):
    if isinstance(value, Jet):
        return jet_elementary(name, value)
    real, array = _FUNCTIONS[name]
    if isinstance(value, np.ndarray):
        return array(value)
    try:
        return real(value)
    except ValueError as exc:
        raise ExpressionDomainError(f"{name}({value}) is undefined") from exc


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _key(node: ExprNode, key_of: dict, interned: dict) -> int:
    """The key of the subtree `node`, numbered in `interned` by signature; one frame per level.

    A signature is the node's kind, its parameter and the keys of its
    children; a constant is told by its bits, so -0.0 is not 0.0, and NaNs
    differ by sign and payload.  `key_of` holds the key of each node by id.
    """
    key = key_of.get(id(node))
    if key is None:
        if isinstance(node, Const):
            signature = ("c", struct.pack("<d", node.value), ())
        elif isinstance(node, Var):
            signature = ("v", node.index, ())
        elif isinstance(node, Call):
            signature = ("f", node.func, (_key(node.arg, key_of, interned),))
        elif isinstance(node, Pow):
            signature = ("p", node.exponent, (_key(node.base, key_of, interned),))
        else:
            signature = ("b", node.op, (_key(node.left, key_of, interned),
                                        _key(node.right, key_of, interned)))
        key = key_of[id(node)] = interned.setdefault(signature, len(interned))
    return key


def _factors(exponent: int) -> tuple:
    """The powers of x whose product Jet.__pow__ forms last for x^exponent, exponent >= 2.

    x^(e/2) squared when e is a power of two, else x^(e - t) times x^t, t
    the highest power of two below e.
    """
    top = 1 << (exponent.bit_length() - 1)
    return (top // 2,) if exponent == top else (exponent - top, top)


class Sharing:
    """The subtrees that a tuple of trees have in common, found once for those trees.

    Two subtrees are one when they are built alike from the same leaves.  An
    evaluation of all the trees through one `memo()` evaluates each subtree
    once.  `uses` counts how often that evaluation then reaches each subtree
    it reaches more than once, and `keys` maps the id of each node of such a
    subtree to its key.  A Jet power of such a subtree x is formed by the
    products of Jet.__pow__ from the powers of x formed before; the key
    (x's key, e) counts the uses of x^e where several powers need it.
    """

    def __init__(self, roots):
        self.roots = tuple(roots)
        key_of, interned = {}, {}
        uses = Counter(_key(root, key_of, interned) for root in self.roots)
        powers = {}  # base key -> the exponents >= 2 it is raised to
        for kind, parameter, children in interned:  # each subtree is evaluated once
            for child in children:
                uses[child] += 1
            if kind == "p" and parameter > 1:
                powers.setdefault(children[0], []).append(parameter)
        for base, pending in powers.items():
            if uses[base] < 2:  # one power of x alone: x ** e forms it
                continue
            while pending:  # x^e is formed at its first request, which requests its factors
                exponent = pending.pop()
                uses[base, exponent] += 1
                if uses[base, exponent] == 1:
                    pending += [f for f in _factors(exponent) if f > 1]
        self.uses = {key: count for key, count in uses.items() if count > 1}
        self.keys = {node_id: key for node_id, key in key_of.items() if key in self.uses}

    def __reduce__(self):  # `keys` holds ids: a copy finds them again in its own trees
        return Sharing, (self.roots,)

    def memo(self) -> "_Memo":
        """A fresh memo for one evaluation of the trees, its calls sharing it."""
        return _Memo(self)


class _Memo:
    """One evaluation's values of shared subtrees, each dropped after its last use."""

    __slots__ = ("keys", "left", "values")

    def __init__(self, sharing: Sharing):
        self.keys, self.left, self.values = sharing.keys, dict(sharing.uses), {}

    def recall(self, key):
        self.left[key] -= 1
        return self.values[key] if self.left[key] else self.values.pop(key)

    def keep(self, key, value):
        if key in self.left:
            self.left[key] -= 1
            self.values[key] = value
        return value

    def power(self, base: Jet, exponent: int, key):
        """base^exponent by the products of Jet.__pow__, for the shared subtree `key` whose value is `base`."""
        if exponent == 1:
            return base
        if (key, exponent) in self.values:
            return self.recall((key, exponent))
        factors = [self.power(base, f, key) for f in _factors(exponent)]
        return self.keep((key, exponent), factors[0] * factors[-1])


def evaluate_expression(node: ExprNode, values, memo: _Memo | None = None):
    """Evaluate over any scalar type with arithmetic: float, Jet, ndarray.

    `values` is the sequence of variable values, indexed by variable index.
    The walk takes one frame per tree level.  Without `memo` it evaluates a
    subtree once per path that reaches it.  With a `Sharing.memo()` of trees
    that hold `node`, the calls that share the memo evaluate each subtree the
    trees share once, and a Jet power reuses the powers of its base that
    they formed; every value is bitwise the one an unshared walk gives.
    """
    if isinstance(node, Const):  # a leaf is read, never kept
        return node.value
    if isinstance(node, Var):
        return values[node.index]
    key = None if memo is None else memo.keys.get(id(node))
    if key is not None and key in memo.values:
        return memo.recall(key)
    if isinstance(node, Call):
        arg = evaluate_expression(node.arg, values, memo)
        value = -arg if node.func == "neg" else _apply_func(node.func, arg)
    elif isinstance(node, Pow):
        base = evaluate_expression(node.base, values, memo)
        if isinstance(base, (int, float)) and node.exponent < 0 and base == 0:
            raise ExpressionDomainError("zero raised to a negative power")
        base_key = None if memo is None else memo.keys.get(id(node.base))
        if base_key is not None and isinstance(base, Jet) and node.exponent > 1:
            value = memo.power(base, node.exponent, base_key)
        else:
            value = base ** node.exponent
    elif isinstance(node, BinOp):
        left = evaluate_expression(node.left, values, memo)
        right = evaluate_expression(node.right, values, memo)
        if node.op == "/" and isinstance(right, (int, float)) and right == 0:
            raise ExpressionDomainError("division by zero")
        value = _ARITHMETIC[node.op](left, right)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return value if key is None else memo.keep(key, value)


def expression_variables(node: ExprNode) -> set[int]:
    """Set of variable indices referenced by the expression."""
    return {var.index for level in _levels(node) for var in level if isinstance(var, Var)}
