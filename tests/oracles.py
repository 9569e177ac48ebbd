"""Independent numerical oracles shared by the test suite.

Everything here is deliberately naive: central finite differences with
Richardson extrapolation, closed-form curvature values derived by hand, and
brute-force linear algebra.  None of it reuses the jet pipeline it checks.
"""

from __future__ import annotations

import math

import numpy as np

from curvlab.expressions import BinOp, Call, Const, Pow, Var

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


# -- brute-force helpers --------------------------------------------------------

def random_orthonormal_rows(rng, rows, dim):
    """Orthonormal `rows` x `dim` matrix from a seeded Gaussian QR."""
    mat = rng.standard_normal((dim, rows))
    q, r = np.linalg.qr(mat)
    q = q * np.sign(np.diag(r))[None, :]
    return q.T


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
