"""Per-point differential geometry of an immersion, computed through jets.

From order-4 jets of the ambient components this module produces the induced
metric, Christoffel symbols, orthonormal tangent/normal frames, the second
fundamental form h_{a,ij} and its covariant derivative h_{a,ijk}, mean
curvature, Gauss-map rank, the canonical rank-2 frame (mu1, mu2), the
alignment function of the tangent plane against a fixed reference plane
(with its gradient and Laplace-Beltrami identities), a complex pack for
surfaces in isothermal coordinates, and intrinsic/extrinsic Gauss curvature.

Conventions
-----------
* Latin indices i,j,k run over tangent directions, Greek (written a/alpha
  in code) over normal directions.
* `h[a, i, j]` is the second fundamental form against orthonormal frames:
  h_{a,ij} = <B(e_i, e_j), nu_a>.
* `h3[a, i, j, k]` = <(grad_{e_k} B)(e_i, e_j), nu_a>; by the Codazzi
  equations it is symmetric in all three tangent slots (tested, not
  assumed).
* Anything that is later differentiated is computed by smooth frame-free
  formulas: g^-1 from determinant and cofactors, and B from d_i d_j F less
  its tangential part, raised through g^-1, with no ambient projector.
  Gram-Schmidt frames are used only for point values, where smoothness is
  not needed.  `_cofactor` is the one cofactor formula and `_det` the one
  determinant, for jets here and for the quadrature's arrays in `checks`.
* This module computes and never decides: every quantity is computed at
  every point, and whether a hypothesis of the paper (minimality, Gauss-map
  rank <= 2, positive alignment, an isothermal chart) holds is decided in
  `checks`.

Blocks
------
`point_geometry_at` takes a (P, n) block of points, and each function that
reads geometry takes the PointGeometry it returned; one point is a block of
one.  Every array of a result has a leading axis of length P and every jet is
batched.  A point's geometry failure is recorded in `errors`, never raised; a
field jet's `failures` are those of its own elementary functions.
Contractions that feed per-point results are summed in a fixed index order,
so a point's values do not depend on the block it was evaluated in.  Each
jet, cofactor and frame tensor of a block is formed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .immersions import Immersion, evaluate_immersion
from .jets import (
    Jet,
    _table,
    jet_constant,
    jet_einsum,
    jet_elementary,
    jet_extract,
    jet_variable,
    multi_indices,
    ordered_einsum,
)

RANK_TOL = 1e-8  # Gauss-map rank, and a vanishing second fundamental form
TIE_ULPS = 8  # |b12|^2 - |b11|^2 within this many ulps of their sum is a tie: no mu swap

SCALAR_FIELDS = ("volume", "alignment")


class GeometryError(RuntimeError):
    """Base class for geometric pipeline failures."""


class ImmersionRankError(GeometryError):
    """The differential of F fails to have full rank at the point."""


# -- blocks ---------------------------------------------------------------------

def _dot(u, v):
    """Sum over the last axis of u * v, accumulated in index order."""
    acc = u[..., 0] * v[..., 0]
    for A in range(1, u.shape[-1]):
        acc = acc + u[..., A] * v[..., A]
    return acc


def _pivot(norms: np.ndarray) -> np.ndarray:
    """First index whose norm is within a relative 1e-9 of the largest (last axis).

    Candidates that tie in exact arithmetic (the normal directions of a
    holomorphic graph) would otherwise be decided by rounding.
    """
    return np.argmax(norms >= norms.max(axis=-1, keepdims=True) * (1.0 - 1e-9), axis=-1)


def _gram_schmidt(vectors: np.ndarray, count: int, floor: float, fixed=()):
    """`count` orthonormal rows chosen from the rows of `vectors` (P, K, N) by pivoted Gram-Schmidt.

    Step r takes the remaining row of largest norm, left unnormalised when
    that norm is <= floor; fixed[r] = (rows, mask) overrides it with the
    given row at the points where mask is set.  The remaining rows are then
    projected off the chosen one.  Returns the rows (P, count, N) and each
    step's pivot norm (P, count).
    """
    P = len(vectors)
    out, tops = np.empty((P, count, vectors.shape[-1])), np.empty((P, count))
    for r in range(count):
        norms = np.sqrt(_dot(vectors, vectors))
        pick = _pivot(norms)
        tops[:, r] = top = norms[np.arange(P), pick]
        vec = vectors[np.arange(P), pick] / np.where(top > floor, top, 1.0)[:, None]
        if r < len(fixed):
            vec = np.where(fixed[r][1][:, None], fixed[r][0], vec)
        out[:, r] = vec
        vectors = vectors - _dot(vectors, vec[:, None, :])[:, :, None] * vec[:, None, :]
    return out, tops


def _frame_B(C: np.ndarray, B: np.ndarray) -> np.ndarray:
    """C_ik C_jl B_klA: the second fundamental form in the frame with coefficient rows C.

    The frame changes one index at a time, each step a 2-operand contraction.
    """
    return ordered_einsum("pik,pkjA->pijA", C, ordered_einsum("pjl,pklA->pkjA", C, B))


# -- jet linear algebra on tensor jets (P, n, n, ncoef) -----------------------

def _tensor(rows: list) -> Jet:
    """Tensor jet (P, r, c, ..., ncoef) from an r x c nested list of batched jets (P, ..., ncoef)."""
    first = rows[0][0]
    return Jet(first.dim, first.order, np.moveaxis(np.array([[j.coeffs for j in row] for row in rows]), 2, 0))


def _entries(mat: Jet) -> list:
    """The (n, n) tensor jet `mat` as an n x n nested list of batched jets."""
    n = mat.coeffs.shape[-2]
    return [[mat[..., i, j, :] for j in range(n)] for i in range(n)]


def _cofactor(a: list, i: int, j: int):
    """Cofactor C_ij of a 2x2 or 3x3 nested list of arrays or batched jets.

    The 3x3 cofactors are cyclic, C_ij = a_{i+1,j+1} a_{i+2,j+2} - a_{i+1,j+2} a_{i+2,j+1}
    (indices mod 3).
    """
    if len(a) == 2:
        return a[1 - i][1 - j] if i == j else -a[1 - i][1 - j]
    return (a[(i + 1) % 3][(j + 1) % 3] * a[(i + 2) % 3][(j + 2) % 3]
            - a[(i + 1) % 3][(j + 2) % 3] * a[(i + 2) % 3][(j + 1) % 3])


def _det(a: list, row0: list):
    """det = sum_j a_0j C_0j, added up in order of j, from row 0's cofactors `row0`."""
    det = a[0][0] * row0[0]
    for j in range(1, len(a)):
        det = det + a[0][j] * row0[j]
    return det


def _det_cofactors(a: list):
    """det and cofactors C_ij of a symmetric 2x2 or 3x3 nested list of arrays or batched jets.

    `a` is symmetric bitwise, as a Gram matrix is, and so is C: each C_ij
    with i <= j is formed once and C_ji is that same object, bitwise the
    cofactor formed from the other triangle, as products commute bitwise.
    """
    n = len(a)
    cof = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof[i][j] = cof[j][i] if j < i else _cofactor(a, i, j)
    return _det(a, cof[0]), cof


def _gradient(jet: Jet, n: int) -> np.ndarray:
    """Values of d_k f, k = 0..n-1, on the last axis: the degree-1 coefficients."""
    multis = multi_indices(n, jet.order)
    return jet.coeffs[..., [multis.index(tuple(int(a == k) for a in range(n))) for k in range(n)]]


# -- point geometry -------------------------------------------------------------

@dataclass
class PointGeometry:
    """Full geometric state of an immersion at each point of a block of P points.

    A point whose geometry failed holds its exception in `errors` and
    finite placeholder values elsewhere; the jets here carry no failures.
    `B_frame`, the second fundamental form in the frame e, is formed once
    here and read by the canonical frame and the curvature pack.
    """

    n: int
    m: int
    g: Jet  # (P, n, n) tensor jet of the metric, order 2
    g0: np.ndarray  # (P, n, n) metric values
    g_inv: np.ndarray  # (P, n, n)
    christoffel: np.ndarray  # (P, n, n, n): christoffel[:, l, k, i] = Gamma^l_{ki}
    dF: np.ndarray  # (P, n, n+m) Jacobian values
    tangent_frame: np.ndarray  # (P, n, n+m) orthonormal e_i
    frame_coeffs: np.ndarray  # (P, n, n) T with e = T @ dF
    normal_frame: np.ndarray  # (P, m, n+m) orthonormal nu_a
    second_partials: np.ndarray  # (P, n, n, n+m) values of d_i d_j F
    B_coord: np.ndarray  # (P, n, n, n+m) normal projections of d_i d_j F
    B_frame: np.ndarray  # (P, n, n, n+m) B(e_i, e_j) = _frame_B(frame_coeffs, B_coord)
    nablaB_coord: np.ndarray  # (P, n, n, n, n+m): [:, k, i, j] = (grad_{d_k} B)(d_i, d_j)
    h: np.ndarray  # (P, m, n, n)
    h3: np.ndarray  # (P, m, n, n, n)
    mean_curvature: np.ndarray  # (P, n+m)
    normB2: np.ndarray  # (P,)
    nablaB2: np.ndarray  # (P,)
    # order-2 jets reused by scalar_field_jet and the packs
    dF_jets: Jet  # (P, n, n+m) tensor jet of d_i F
    detg_jet: Jet  # (P,)
    normB2_jet: Jet  # (P,)
    errors: list  # (P,): each point's failure, or None


def _metric(F: Jet, n: int):
    # first partials as order-2 jets (order-3 tails are never consumed)
    dF = _tensor([[F.derivative(i).truncate(2)] for i in range(n)])[:, :, 0]
    g = jet_einsum("piA,pjA->pij", dF, dF)
    return (dF, g, *_det_cofactors(_entries(g)))


def _hessian(F: Jet, dF_jets: Jet, ginv_jets: Jet, n: int):
    """Values of d_i d_j F and of B_ij, B's first partials dB[:, k, i, j] and |B|^2 as a jet.

    B is formed as order-2 jets once per pair q = (i <= j), without an ambient
    projector: with F_q = d_i d_j F, c_kq = <d_k F, F_q> and d_lq = g^{lk} c_kq,
    the normal part is B_q = F_q - d_l F d_lq.  Only what is read in full over
    (i, j) is mirrored: the values, and the jet that |B|^2 = tr(g^-1 B g^-1 B)
    raises once.  The jets are dropped on return: the block's point geometry
    keeps their values only.
    """
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    mirror = np.array([[pairs.index((min(i, j), max(i, j))) for j in range(n)] for i in range(n)])
    F2_jets = _tensor([[F.derivative(i).derivative(j) for i, j in pairs]])[:, 0]  # (P, K, N)
    # Every contraction sums its pair columns in one buffer, sized for the largest,
    # the raising: were each to allocate its own, glibc's heap would hand that
    # memory back to the system on every free and fault it in again.
    work = np.empty(3 * dF_jets.coeffs[..., 0].size * n * len(_table(n, 2).pair_i))
    c = jet_einsum("pkA,pqA->pkq", dF_jets, F2_jets, work)
    d = jet_einsum("plk,pkq->plq", ginv_jets, c, work)
    B_jets = F2_jets - jet_einsum("plA,plq->pqA", dF_jets, d, work)
    second_partials = F2_jets.value[:, mirror]
    del F2_jets, c, d
    B_jets = B_jets[:, mirror]
    # |B|^2 as an order-2 jet: <(g^-1 B)_kj, (g^-1 B)_jk>
    raised = jet_einsum("pki,pijA->pkjA", ginv_jets, B_jets, work)
    return (second_partials, B_jets.value.copy(), np.moveaxis(_gradient(B_jets, n), -1, 1),
            jet_einsum("pkjA,pjkA->p", raised, raised, work))


def first_failures(jets, P: int) -> list:
    """Each of P points' first failure among the batched component `jets`, or None."""
    errors = [None] * P
    for jet in jets:
        for p, exc in jet.failures.items():
            errors[p] = errors[p] or exc
    return errors


def add_rank_errors(errors: list, labels, detg, g_diagonal) -> None:
    """Give each point that has no error an ImmersionRankError where det g is not
    above 1e-13 prod_i g_ii (NaN included); `g_diagonal` is (P, n)."""
    scale = np.prod(g_diagonal, axis=1)
    scale = np.where(scale == 0.0, 1.0, scale)
    for p in np.flatnonzero(~(detg > 1e-13 * scale)):
        errors[p] = errors[p] or ImmersionRankError(
            f"Jacobian rank-deficient at {labels[p]}: det g = {detg[p]:.3e}"
        )


def inverse_cholesky(g: np.ndarray):
    """T = L^-1, L the lower Cholesky factor of each g (P, n, n), and where g is positive definite.

    Where g is not finite or does not factor (not positive definite in
    rounding), T = I and the mask is false.
    """
    n = g.shape[-1]
    ok = np.isfinite(g).all(axis=(1, 2))  # LAPACK may factor a NaN matrix without failing
    L = np.broadcast_to(np.eye(n), g.shape).copy()
    try:
        L[ok] = np.linalg.cholesky(g[ok])
    except np.linalg.LinAlgError:  # g not positive definite in rounding at some point
        for p in np.flatnonzero(ok):
            try:
                L[p] = np.linalg.cholesky(g[p])
            except np.linalg.LinAlgError:
                ok[p] = False
    return np.linalg.solve(L, np.broadcast_to(np.eye(n), L.shape)), ok


def point_geometry_at(imm: Immersion, points) -> PointGeometry:
    """Evaluate the full geometric bundle at each point of a (P, n) block.

    A point where det g degenerates gets an ImmersionRankError in `errors`,
    and one where component evaluation leaves the domain its expression or
    jet domain error; nothing is raised for a point.
    """
    n, m, N = imm.n, imm.m, imm.n + imm.m
    coords = np.asarray(points, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != n:
        raise ValueError(f"points must be a (P, {n}) block, not an array of shape {coords.shape}")
    labels = [tuple(row) for row in coords.tolist()]
    P = len(coords)
    comps = evaluate_immersion(imm, coords, 4)
    errors = first_failures(comps, P)
    F = _tensor([comps])[:, 0]  # (P, N, ncoef)
    del comps  # F holds their coefficients; a jet dropped once read lowers the block's peak

    dF_jets, g_jets, detg_jet, g_cof = _metric(F, n)
    g0, detg = g_jets.value, detg_jet.value
    add_rank_errors(errors, labels, detg, np.diagonal(g0, axis1=1, axis2=2))
    failed = np.array([exc is not None for exc in errors])
    if failed.any():
        # failed points go on as a flat coordinate plane, so the array code
        # below stays finite; their results are never read
        flat = _tensor([[jet_variable(A, coords[:, A], n, 4) if A < n
                         else jet_constant(np.zeros(P), n, 4) for A in range(N)]])[:, 0]
        F = Jet(n, 4, np.where(failed[:, None, None], flat.coeffs, F.coeffs))
        dF_jets, g_jets, detg_jet, g_cof = _metric(F, n)
        g0 = g_jets.value
    dF = dF_jets.value
    # oriented Gram-Schmidt: T = L^-1 is lower triangular with positive diagonal
    T, positive = inverse_cholesky(g0)
    for p in np.flatnonzero(~positive):
        errors[p] = errors[p] or ImmersionRankError(f"metric not positive definite at {labels[p]}")
    e = T @ dF
    # g^-1 = adjugate / det; g's cofactors are symmetric, so each distinct one is scaled once
    inv_det = jet_elementary("recip", detg_jet)
    ginv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ginv[i][j] = ginv[j][i] = g_cof[i][j] * inv_det
    ginv_jets = _tensor(ginv)
    del inv_det, g_cof, ginv
    g_inv = ginv_jets.value

    # normal frame: ambient basis projected to the normal space, pivoted
    # Gram-Schmidt with a tie-robust first-maximum pick for reproducibility
    PT0 = np.swapaxes(dF, 1, 2) @ g_inv @ dF
    PN0 = np.eye(N) - PT0
    nu, tops = _gram_schmidt(np.swapaxes(PN0, 1, 2), m, 1e-10)
    for p in np.flatnonzero((tops <= 1e-10).any(axis=1)):
        errors[p] = errors[p] or ImmersionRankError(f"normal space degenerate at {labels[p]}")

    # Christoffels from the degree-1 metric coefficients:
    # Gamma^l_{ki} = g^{lr} (d_k g_{ir} + d_i g_{kr} - d_r g_{ki}) / 2
    dg = np.moveaxis(_gradient(g_jets, n), -1, 1)  # dg[:, k, i, j] = d_k g_ij
    term = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 3, 2, 1)
    christoffel = 0.5 * ordered_einsum("plr,pkir->plki", g_inv, term)

    second_partials, B_coord, dB, normB2_jet = _hessian(F, dF_jets, ginv_jets, n)

    # covariant derivative of B in coordinates:
    # (grad_k B)_ij = P^N(d_k of the B_ij field) - Gamma^l_{ki} B_lj - Gamma^l_{kj} B_il
    nablaB_coord = ordered_einsum("pAB,pkijB->pkijA", PN0, dB)
    nablaB_coord -= ordered_einsum("plki,pljA->pkijA", christoffel, B_coord)
    nablaB_coord -= ordered_einsum("plkj,pilA->pkijA", christoffel, B_coord)

    B_frame = _frame_B(T, B_coord)
    h = ordered_einsum("pijA,paA->paij", B_frame, nu)
    # normal projection first, then the frame changes one index at a time
    h3 = ordered_einsum("pcabA,pmA->pmcab", nablaB_coord, nu)
    h3 = ordered_einsum("pjb,pmcab->pmcaj", T, h3)
    h3 = ordered_einsum("pia,pmcaj->pmcij", T, h3)
    h3 = ordered_einsum("pkc,pmcij->pmijk", T, h3)
    mean_curvature = ordered_einsum("pij,pijA->pA", g_inv, B_coord)

    return PointGeometry(
        n=n,
        m=m,
        g=g_jets,
        g0=g0,
        g_inv=g_inv,
        christoffel=christoffel,
        dF=dF,
        tangent_frame=e,
        frame_coeffs=T,
        normal_frame=nu,
        second_partials=second_partials,
        B_coord=B_coord,
        B_frame=B_frame,
        nablaB_coord=nablaB_coord,
        h=h,
        h3=h3,
        mean_curvature=mean_curvature,
        normB2=_dot(h.reshape(P, -1), h.reshape(P, -1)),
        nablaB2=_dot(h3.reshape(P, -1), h3.reshape(P, -1)),
        dF_jets=dF_jets,
        detg_jet=detg_jet,
        normB2_jet=normB2_jet,
        errors=errors,
    )


# -- Gauss-map rank and the canonical frame -------------------------------------

def gauss_svd(pg: PointGeometry):
    """U (P, n, n) and the singular values (P, n) of the Gauss-map differential.

    Row i of the Gauss matrix is the differential in the orthonormal bases:
    (j, a) -> h_{a,ij}.
    """
    return np.linalg.svd(np.moveaxis(pg.h, -3, -1).reshape(pg.h.shape[:-3] + (pg.n, pg.n * pg.m)))[:2]


def gauss_rank_at(sv: np.ndarray) -> np.ndarray:
    """Numerical rank of the Gauss-map differential, (P,), from its singular values (P, n)."""
    base = np.where(sv[:, 0] > 0, sv[:, 0], 1.0)
    return np.sum(sv > RANK_TOL * base[:, None], axis=-1)


@dataclass
class CanonicalFrame:
    """Frames rotated to the rank-2 normal form of the shape operators.

    They are computed at every point.  Where the Gauss-map rank is at most 2,
    the only nonzero shape operators restrict to the 2-plane orthogonal to
    the kernel e3, ... as A^1 = diag(mu1, -mu1) and A^2 = antidiag(mu2, mu2),
    mu1 >= mu2 >= 0; `checks` decides where that rank hypothesis holds.
    """

    mu1: np.ndarray  # (P,)
    mu2: np.ndarray  # (P,)
    tangent_frame: np.ndarray  # (P, n, n+m): e1, e2, kernel...
    normal_frame: np.ndarray  # (P, m, n+m): nu1, nu2, completion...


def canonical_frame_at(pg: PointGeometry, U: np.ndarray | None) -> CanonicalFrame:
    """Rotate frames so the shape operators take their rank-2 normal form.

    `U` is the left singular vectors of the Gauss matrix (`gauss_svd`) for
    n = 3, and None for n = 2.
    """
    n, m = pg.n, pg.m
    P = len(pg.h)
    tol = RANK_TOL
    if n == 2:
        U = np.broadcast_to(np.eye(2), (P, 2, 2))
    else:
        U = U.copy()
        # the SVD fixes U only up to column signs; det U = +1 keeps the
        # canonical tangent frame oriented like e
        U[np.linalg.det(U) < 0, :, 2] *= -1.0

    Bf = pg.B_frame
    Bhat = _frame_B(np.swapaxes(U, 1, 2), Bf)
    B11, B12 = Bhat[:, 0, 0], Bhat[:, 0, 1]
    G00, G01, G11 = _dot(B11, B11), _dot(B11, B12), _dot(B12, B12)

    # rotation angle in (-pi/4, pi/4]; order of mu1, mu2 fixed by post-swap
    d, g = G00 - G11, G01
    theta = np.where(np.abs(d) < np.abs(g) * 1e-14, math.pi / 4,
                     0.5 * np.arctan(2.0 * g / np.where(d == 0.0, 1.0, d)))
    theta = np.where((np.abs(d) <= 1e-300) & (np.abs(g) <= 1e-300), 0.0, theta)

    def rotated(alpha):
        c, s = np.cos(alpha)[:, None], np.sin(alpha)[:, None]
        f1 = c * U[:, :, 0] - s * U[:, :, 1]  # coefficients in the e-frame
        f2 = s * U[:, :, 0] + c * U[:, :, 1]
        b11 = ordered_einsum("pi,pj,pijA->pA", f1, f1, Bf)
        b12 = ordered_einsum("pi,pj,pijA->pA", f1, f2, Bf)
        return f1, f2, b11, b12

    alpha = -theta / 2.0
    *_, b11, b12 = rotated(alpha)
    # mu1 >= mu2, swapping only beyond rounding: a conformal point's tie is exact
    s11, s12 = _dot(b11, b11), _dot(b12, b12)
    alpha = np.where(s12 - s11 > TIE_ULPS * np.finfo(float).eps * (s11 + s12),
                     alpha + math.pi / 4.0, alpha)
    f1c, f2c, b11, b12 = rotated(alpha)
    mu1 = np.sqrt(np.maximum(_dot(b11, b11), 0.0))
    mu2 = np.sqrt(np.maximum(_dot(b12, b12), 0.0))

    e1 = ordered_einsum("pi,piA->pA", f1c, pg.tangent_frame)
    e2 = ordered_einsum("pi,piA->pA", f2c, pg.tangent_frame)
    kernel = ordered_einsum("pjr,pjA->prA", U[:, :, 2:], pg.tangent_frame)
    tangent_frame = np.concatenate([e1[:, None], e2[:, None], kernel], axis=1)

    # normal rotation: align nu1 with B(e1,e1), nu2 with B(e1,e2); complete by
    # pivoted Gram-Schmidt over the original normal frame
    fixed = [(b11 / np.where(mu1 > tol, mu1, 1.0)[:, None], mu1 > tol),
             (b12 / np.where(mu2 > tol, mu2, 1.0)[:, None], (mu1 > tol) & (mu2 > tol))]
    normal_frame, _ = _gram_schmidt(pg.normal_frame, m, 0.0, fixed)
    return CanonicalFrame(mu1=mu1, mu2=mu2, tangent_frame=tangent_frame, normal_frame=normal_frame)


# -- scalar fields and the Laplace-Beltrami operator ----------------------------

def _alignment_jet(pg: PointGeometry, reference_frame: np.ndarray) -> Jet:
    """Jet of the frame-free alignment det(<d_j F, a_k>) / sqrt(det g).

    This differentiable route avoids Gram-Schmidt, whose pivoting is not
    smooth; it agrees with det(<e_i, a_k>) for the oriented frame.
    """
    a = np.asarray(reference_frame, dtype=float)
    d = pg.dF_jets.coeffs  # <d_j F, a_k> as an (n, n) tensor jet
    M = Jet(pg.n, 2, sum(d[..., :, A, None, :] * a[:, A, None] for A in range(pg.n + pg.m)))
    rows = _entries(M)
    det = _det(rows, [_cofactor(rows, 0, j) for j in range(pg.n)])
    return det * jet_elementary("pow-const", pg.detg_jet, param=-0.5)


def scalar_field_jet(pg: PointGeometry, field: str, reference_frame=None) -> Jet:
    """Order-2 jet of a derived scalar field of the immersion.

    Fields: 'volume' (sqrt det g) and 'alignment' (needs reference_frame);
    |B|^2 is `pg.normB2_jet`.  It is built from the order-2 jets `pg`
    carries, so the returned (P,) jet holds exact first and second
    derivatives of the field.
    """
    if field not in SCALAR_FIELDS:
        raise ValueError(f"unknown scalar field {field!r} (known: {SCALAR_FIELDS})")
    if field == "volume":
        return jet_elementary("sqrt", pg.detg_jet)
    if reference_frame is None:
        raise ValueError(f"field {field!r} requires a reference frame")
    return _alignment_jet(pg, reference_frame)


def laplace_beltrami_of_jet(pg: PointGeometry, field_jet: Jet):
    """Lap phi = g^{ij} (d_i d_j phi - Gamma^k_{ij} d_k phi), (P,), from an order-2 (P,) jet."""
    n = pg.n
    grad = _gradient(field_jet, n)
    lap = 0.0
    for i in range(n):
        for j in range(n):
            corrected = jet_extract(field_jet, tuple((i, j).count(k) for k in range(n)))
            for k in range(n):
                corrected = corrected - pg.christoffel[..., k, i, j] * grad[..., k]
            lap = lap + pg.g_inv[..., i, j] * corrected
    return lap


def gradient_norm2_of_jet(pg: PointGeometry, field_jet: Jet):
    """|grad phi|^2 = g^{ij} d_i phi d_j phi, (P,)."""
    grad = _gradient(field_jet, pg.n)
    out = 0.0
    for i in range(pg.n):
        for j in range(pg.n):
            out = out + grad[..., i] * pg.g_inv[..., i, j] * grad[..., j]
    return out


# -- plane pairings and the alignment pack ---------------------------------------

def frame_pairing(rows: np.ndarray, reference: np.ndarray):
    """<b_1 ^ ... ^ b_n, a_1 ^ ... ^ a_n> = det(<b_i, a_j>), for the (P, n, N) rows of a block."""
    return np.linalg.det(np.asarray(rows) @ np.asarray(reference).T)


def replaced_pairing(e_rows: np.ndarray, reference: np.ndarray, replacements: dict):
    """Pairing after substituting normal vectors into tangent slots.

    `replacements` maps slot index j to the vector standing in for e_j.
    """
    rows = np.array(e_rows, dtype=float)
    for slot, vec in replacements.items():
        rows[..., slot, :] = vec
    return frame_pairing(rows, reference)


@dataclass
class AlignmentPack:
    """Alignment of the tangent plane with a reference plane, both routes.

    The gradient identity grad_{e_i} a = h_{a,ij} <e_{j a}, A> and the rank-2
    Laplacian identity Lap a = -|B|^2 a + 4 mu1 mu2 <e_{11,22}, A> are each
    evaluated against exact jet differentiation of the alignment scalar, at
    every point; `checks` decides where the Laplacian one's hypotheses hold.
    """

    value: np.ndarray  # (P,)
    value_from_frames: np.ndarray  # (P,)
    grad_frame: np.ndarray  # (P, n): grad_{e_i} a by jet differentiation
    grad_formula: np.ndarray  # (P, n)
    laplacian_numeric: np.ndarray  # (P,)
    laplacian_formula: np.ndarray  # (P,)
    single_pairings: np.ndarray  # (P, n, m): <e_{j a}, A>
    double_pairing: np.ndarray  # (P,): <e_{1 1, 2 2}, A>, with nu_1 again for nu_2 when m == 1
    jet: Jet  # (P,): the alignment scalar as an order-2 jet


def alignment_pack_at(pg: PointGeometry, reference_frame, canon: CanonicalFrame,
                      jet: Jet) -> AlignmentPack:
    """Evaluate the alignment function and its structural identities.

    `jet` is the alignment scalar's, `scalar_field_jet(pg, "alignment", reference_frame)`.
    """
    a = np.asarray(reference_frame, dtype=float)
    n, m, P = pg.n, pg.m, len(pg.h)
    e, nu = pg.tangent_frame, pg.normal_frame

    grad_coord = _gradient(jet, n)
    grad_frame = ordered_einsum("pij,pj->pi", pg.frame_coeffs, grad_coord)

    single = np.empty((P, n, m))
    for j in range(n):
        for al in range(m):
            single[:, j, al] = replaced_pairing(e, a, {j: nu[:, al]})
    double = replaced_pairing(e, a, {0: nu[:, 0], 1: nu[:, min(1, m - 1)]})

    grad_formula = ordered_einsum("paij,pja->pi", pg.h, single)

    if m == 1:
        pair_canon = 0.0  # mu2 = 0 in codimension one; the term drops
    else:
        rows = np.concatenate([canon.normal_frame[:, :2], canon.tangent_frame[:, 2:]], axis=1)
        pair_canon = frame_pairing(rows, a)

    return AlignmentPack(
        value=jet.value,
        value_from_frames=frame_pairing(e, a),
        grad_frame=grad_frame,
        grad_formula=grad_formula,
        laplacian_numeric=laplace_beltrami_of_jet(pg, jet),
        laplacian_formula=-pg.normB2 * jet.value + 4.0 * canon.mu1 * canon.mu2 * pair_canon,
        single_pairings=single,
        double_pairing=double,
        jet=jet,
    )


# -- complex pack for surfaces ----------------------------------------------------

@dataclass
class ComplexPack:
    """Complex derivatives of a surface immersion in its given chart.

    Uses d/dw = (d/du - i d/dv)/2.  Meaningful where the chart is isothermal,
    i.e. conformality_residual is small against conformality_scale; `checks`
    decides where it is, and where B_ww is large enough for zeta.
    """

    conformality_residual: np.ndarray  # (P,): |<F_w, F_w>|
    conformality_scale: np.ndarray  # (P,): |F_w|^2
    omega_coeff: np.ndarray  # (P,) complex: <F_ww, F_ww> complex-bilinear
    B_ww: np.ndarray  # (P, n+m) complex
    B_ww_norm2: np.ndarray  # (P,): |B_ww|^2
    zeta: np.ndarray  # (P,) complex: <nabla_w B_ww, B_ww> / |B_ww|^2, not finite where B_ww = 0
    zeta_residual: np.ndarray  # (P,): |nabla_w B_ww - zeta B_ww|


@np.errstate(divide="ignore", invalid="ignore")
def complex_pack_at(pg: PointGeometry) -> ComplexPack:
    """Complex second-order data of a surface: conformality, omega, zeta."""
    if pg.n != 2:
        raise GeometryError("complex pack requires a 2-dimensional domain")
    Fu, Fv = pg.dF[:, 0], pg.dF[:, 1]
    sp = pg.second_partials
    Fw = 0.5 * (Fu - 1j * Fv)
    Fww = 0.25 * (sp[:, 0, 0] - sp[:, 1, 1]) - 0.5j * sp[:, 0, 1]

    B_ww = 0.5 * pg.B_coord[:, 0, 0] - 0.5j * pg.B_coord[:, 0, 1]
    nablaB_www = 0.5 * pg.nablaB_coord[:, 0, 0, 0] - 0.5j * pg.nablaB_coord[:, 1, 0, 0]

    denom = _dot(np.abs(B_ww), np.abs(B_ww))
    zeta = _dot(nablaB_www, np.conj(B_ww)) / denom
    miss = np.abs(nablaB_www - zeta[:, None] * B_ww)

    return ComplexPack(
        conformality_residual=np.abs(_dot(Fw, Fw)),
        conformality_scale=_dot(np.abs(Fw), np.abs(Fw)),
        omega_coeff=_dot(Fww, Fww),
        B_ww=B_ww,
        B_ww_norm2=denom,
        zeta=zeta,
        zeta_residual=np.sqrt(_dot(miss, miss)),
    )


# -- Gauss curvature ---------------------------------------------------------------

@dataclass
class CurvaturePack:
    K_intrinsic: np.ndarray  # (P,)
    K_extrinsic: np.ndarray  # (P,)


def curvature_pack_at(pg: PointGeometry) -> CurvaturePack:
    """Gauss curvature by two routes: Brioschi (metric only) and det B."""
    if pg.n != 2:
        raise GeometryError("curvature pack requires a 2-dimensional domain")
    Bf = pg.B_frame
    K_ext = _dot(Bf[:, 0, 0], Bf[:, 1, 1]) - _dot(Bf[:, 0, 1], Bf[:, 0, 1])

    d = lambda jet, *axes: jet_extract(jet, tuple(axes.count(k) for k in range(2)))  # noqa: E731
    E, F, G = pg.g[:, 0, 0], pg.g[:, 0, 1], pg.g[:, 1, 1]
    zero = np.zeros(len(Bf))
    m1 = np.moveaxis(np.array(
        [
            [-0.5 * d(E, 1, 1) + d(F, 0, 1) - 0.5 * d(G, 0, 0), 0.5 * d(E, 0), d(F, 0) - 0.5 * d(E, 1)],
            [d(F, 1) - 0.5 * d(G, 0), E.value, F.value],
            [0.5 * d(G, 1), F.value, G.value],
        ]
    ), -1, 0)
    m2 = np.moveaxis(np.array(
        [
            [zero, 0.5 * d(E, 1), 0.5 * d(G, 0)],
            [0.5 * d(E, 1), E.value, F.value],
            [0.5 * d(G, 0), F.value, G.value],
        ]
    ), -1, 0)
    denom = (E.value * G.value - F.value**2) ** 2
    K_int = (np.linalg.det(m1) - np.linalg.det(m2)) / denom
    return CurvaturePack(K_intrinsic=K_int, K_extrinsic=K_ext)
