"""Independent numerical oracles shared by the test suite.

Everything here is deliberately naive: central finite differences with
Richardson extrapolation, closed-form curvature values derived by hand,
sympy's symbolic derivatives, and brute-force linear algebra.  None of it
reuses the jet pipeline it checks; `at_point` only takes one point of it,
and `column` and `value_at` read a grid check's columns as a report writes them.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from curvlab.expressions import BinOp, Call, Const, Pow, Var
from curvlab.geometry import _frame_B, point_geometry_at
from curvlab.jets import Jet

# Central-difference stencils (offsets in units of h, weights) per derivative order.
_STENCILS = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


def central_difference(f, point, alpha, h):
    """Mixed central difference of multi-order alpha with uniform step h."""

    def rec(axis, base):
        if axis == len(alpha):
            return f(base)
        k = alpha[axis]
        offsets, weights = _STENCILS[k]
        acc = 0.0
        for off, wgt in zip(offsets, weights):
            shifted = list(base)
            shifted[axis] = base[axis] + off * h
            acc += wgt * rec(axis + 1, shifted)
        return acc / h ** k

    return rec(0, list(point))


def richardson_derivative(f, point, alpha, h=0.1):
    """Three-level Richardson extrapolation of the central difference.

    Error O(h^6); with h = 0.1 this resolves fourth derivatives of smooth
    expressions to relative accuracy well below 1e-6.
    """
    d1 = central_difference(f, point, alpha, h)
    d2 = central_difference(f, point, alpha, h / 2)
    d3 = central_difference(f, point, alpha, h / 4)
    r1 = (4 * d2 - d1) / 3
    r2 = (4 * d3 - d2) / 3
    return (16 * r2 - r1) / 15


def rel_err(got, expected):
    return abs(got - expected) / max(1.0, abs(expected))


# -- closed forms for the z^2 graph (derived by hand, see docstrings) ---------

def z2_conformal_factor(x, y):
    """lambda^2 = 1 + 4 r^2 for the graph of f(z) = z^2."""
    return 1.0 + 4.0 * (x * x + y * y)


def z2_normB2(x, y):
    """|B|^2 = 16 (1 + 4 r^2)^-3: from K = -(1/(2 lam^2)) Lap0 log lam^2 and |B|^2 = -2K."""
    return 16.0 * z2_conformal_factor(x, y) ** -3


def z2_nablaB2(x, y):
    """|grad B|^2 = 4608 r^2 (1+4r^2)^-6.

    Independent route: |B| = 4 (1+4r^2)^(-3/2), so |grad |B||^2 =
    lam^-2 |D|B||^2 = 2304 r^2 (1+4r^2)^-6, doubled because the curve is
    holomorphic (equality in the Kato-type bound).
    """
    r2 = x * x + y * y
    return 4608.0 * r2 * z2_conformal_factor(x, y) ** -6


def z2_lap_normB2(x, y):
    """Laplace-Beltrami of |B|^2: equals 2|grad B|^2 - 3|B|^4 (equality case)."""
    return 2.0 * z2_nablaB2(x, y) - 3.0 * z2_normB2(x, y) ** 2


def z2_lap_log_alignment(x, y):
    """Laplace-Beltrami of log(1/v) = -16 (1+4r^2)^-3."""
    return -z2_normB2(x, y)


def holomorphic_ball_volume(k: int, c: complex, R: float) -> float:
    """Area of the extrinsic ball of radius R about 0 on the graph of w = c z^k.

    The ball is the disc s + |c|^2 s^k <= R^2 in s = |z|^2, and the area
    element of a holomorphic graph is 1 + |w'|^2 = 1 + k^2 |c|^2 |z|^(2k-2),
    so V(R) = pi (s + k |c|^2 s^k) at the disc's edge.  The edge is found by
    bisection, s + |c|^2 s^k being increasing in s.
    """
    lo, hi = 0.0, R * R
    for _ in range(200):
        s = 0.5 * (lo + hi)
        lo, hi = (s, hi) if s + abs(c) ** 2 * s**k < R * R else (lo, s)
    return math.pi * (s + k * abs(c) ** 2 * s**k)


# -- closed forms for the catenoid (cosh u cos v, cosh u sin v, u, 0) ----------

def catenoid_normB2(u):
    """|B|^2 = 2 sech^4 u: principal curvatures +-sech^2 u."""
    return 2.0 / math.cosh(u) ** 4


def catenoid_nablaB2(u):
    """|grad B|^2 = 16 sech^6 u tanh^2 u (twice |grad |B||^2, codim-1 equality)."""
    return 16.0 * math.tanh(u) ** 2 / math.cosh(u) ** 6


def catenoid_gauss_curvature(u):
    return -1.0 / math.cosh(u) ** 4


def catenoid_lap_scalar(phi, u, h=1e-3):
    """Laplace-Beltrami at (u, 0) of a v-independent scalar via central FD.

    In the conformal chart the operator is cosh(u)^-2 (d^2/du^2 + d^2/dv^2).
    """
    d2 = (phi(u + h) - 2 * phi(u) + phi(u - h)) / h**2
    d2b = (phi(u + h / 2) - 2 * phi(u) + phi(u - h / 2)) / (h / 2) ** 2
    val = (4 * d2b - d2) / 3
    return val / math.cosh(u) ** 2


# -- graphs by sympy ----------------------------------------------------------------

def sympy_graph_fields(components, n, point):
    """v and |B|^2 at `point` of the graph (u, f(u)) of the strings `components` in x, y, z.

    sympy's exact partials, then the textbook route at 30 digits: the metric
    g = dF dF^T, v = sqrt(det g), the ambient normal projector I - dF^T g^-1 dF
    applied to every d_i d_j F, and |B|^2 = g^ik g^jl <B_ij, B_kl>.  None of
    it is curvlab's: no jets, no cofactors, no pair route.
    """
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x y z")[:n]
    F = sympy.Matrix(list(xs) + [sympy.sympify(c.replace("^", "**")) for c in components])
    at = dict(zip(xs, point))
    dF = sympy.Matrix([[sympy.diff(Fa, x).subs(at) for Fa in F] for x in xs]).evalf(30)
    g = dF * dF.T
    ginv = g.inv()
    normal = sympy.eye(len(F)) - dF.T * ginv * dF
    B = [[normal * sympy.Matrix([sympy.diff(Fa, xi, xj).subs(at) for Fa in F]).evalf(30)
          for xj in xs] for xi in xs]
    normB2 = sum(ginv[i, k] * ginv[j, l] * B[i][j].dot(B[k][l])
                 for i in range(n) for j in range(n) for k in range(n) for l in range(n))
    return float(sympy.sqrt(g.det())), float(normB2)


# -- brute-force helpers --------------------------------------------------------

def random_orthonormal_rows(rng, rows, dim):
    """Orthonormal `rows` x `dim` matrix from a seeded Gaussian QR."""
    mat = rng.standard_normal((dim, rows))
    q, r = np.linalg.qr(mat)
    q = q * np.sign(np.diag(r))[None, :]
    return q.T


def gauss_singular_values(g, B):
    """The Gauss map's singular values, (P, n), one point at a time; NaN where B is not
    finite or the Cholesky factorisation of g fails.

    g is (i, j, P) and B (A, i, j, P), as `_GraphFields.at` gives them: the
    per-point loop that `_PointFields.gauss_sv` batches, kept as its bitwise
    reference.
    """
    sv = np.full((B.shape[-1], B.shape[1]), np.nan)
    for p in np.flatnonzero(np.isfinite(B).all(axis=(0, 1, 2))):
        try:
            T = np.linalg.inv(np.linalg.cholesky(g[..., p]))
        except np.linalg.LinAlgError:  # g not positive definite in rounding
            continue
        frame = _frame_B(T[None], B[None, ..., p].transpose(0, 2, 3, 1))[0]  # (i, j, A)
        sv[p] = np.linalg.svd(frame.reshape(len(T), -1), compute_uv=False)
    return sv


def pluecker_residual(e_rows, nu1, nu2, a_rows):
    """Residual of the rank-two replacement determinant identity.

    det(E) det(E with rows 1,2 -> nu1,nu2) - det(E row1 -> nu1) det(E row2 -> nu2)
    + det(E row1 -> nu2) det(E row2 -> nu1), all paired against the rows of A.
    """

    def pairing(rows):
        return np.linalg.det(np.asarray(rows) @ np.asarray(a_rows).T)

    e = [np.asarray(r) for r in e_rows]
    base = pairing(e)
    both = pairing([nu1, nu2] + e[2:])
    r1 = pairing([nu1] + e[1:])
    r2 = pairing(e[:1] + [nu2] + e[2:])
    r12 = pairing([nu2] + e[1:])
    r21 = pairing(e[:1] + [nu1] + e[2:])
    return abs(base * both - r1 * r2 + r12 * r21)


# -- reparametrization -------------------------------------------------------------

def substitute(node, mapping):
    """Replace variables by expressions, e.g. for a linear change of chart."""
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        return mapping.get(node.index, node)
    if isinstance(node, Call):
        return Call(node.func, substitute(node.arg, mapping))
    if isinstance(node, Pow):
        return Pow(substitute(node.base, mapping), node.exponent)
    if isinstance(node, BinOp):
        return BinOp(node.op, substitute(node.left, mapping), substitute(node.right, mapping))
    raise TypeError(f"not an expression node: {node!r}")


# -- the rank-2 normal form ---------------------------------------------------------

def normal_form_residual(pg, cf):
    """Per point, the largest entry of h - (its rank-2 normal form) in the frames `cf` gives.

    The canonical tangent rows are taken to coordinates by C = e dF^T g^-1, so
    e_i = C_ik d_k F, and h_a,ij = <nu_a, C_ik C_jl B_kl> over the full n x n
    block is compared with diag(mu1, -mu1) for a = 1, antidiag(mu2, mu2) for
    a = 2 and zero elsewhere: a plain einsum of the block's values, which
    shares nothing with the frame's rotation.
    """
    C = cf.tangent_frame @ np.swapaxes(pg.dF, 1, 2) @ pg.g_inv
    h = np.einsum("paA,pik,pjl,pklA->paij", cf.normal_frame, C, C, pg.B_coord)
    target = np.zeros_like(h)
    target[:, 0, 0, 0], target[:, 0, 1, 1] = cf.mu1, -cf.mu1
    if pg.m >= 2:
        target[:, 1, 0, 1] = target[:, 1, 1, 0] = cf.mu2
    return np.abs(h - target).max(axis=(1, 2, 3))


# -- one point of the block geometry -------------------------------------------------

def at_point(fn, imm, point, *args):
    """`fn` at one point of `imm`, run as a block of one.

    `fn` is `point_geometry_at`, or a function of the block's PointGeometry
    that takes `args` after it.  A failure the geometry or the result records
    at the point is raised; otherwise every array, jet and field of the
    result loses its batch axis.
    """
    pg = point_geometry_at(imm, np.array([point], dtype=float))
    out = pg if fn is point_geometry_at else fn(pg, *args)
    own = out.failures.get(0) if isinstance(out, Jet) else getattr(out, "errors", [None])[0]
    if pg.errors[0] or own:
        raise pg.errors[0] or own
    return _row(out)


def _row(obj):
    if isinstance(obj, np.ndarray):
        item = obj[0]
        return item.item() if isinstance(item, np.generic) else item
    if isinstance(obj, Jet):
        return Jet(obj.dim, obj.order, obj.coeffs[0])
    if isinstance(obj, tuple):
        return tuple(map(_row, obj))
    if is_dataclass(obj):
        return replace(obj, **{f.name: _row(getattr(obj, f.name)) for f in fields(obj) if f.name != "errors"})
    return obj


# -- a grid check's columns, as a report with detail writes them ---------------------

def column(res, key):
    """The residual, or detail column `key`, of a grid check at the points it evaluated."""
    cols = res.columns.lists()
    values = cols[key] if key in cols else cols["detail"][key]
    return [value for value, skipped in zip(values, cols["skipped"]) if not skipped]


def value_at(res, point, key="residual"):
    """The residual, or detail column `key`, of a grid check at grid point `point`."""
    cols = res.columns.lists()
    values = cols[key] if key in cols else cols["detail"][key]
    return values[res.columns.points.index(point)]
