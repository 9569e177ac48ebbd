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
  formulas (projectors, determinants); Gram-Schmidt frames are used only
  for point values, where smoothness is not needed.  `_det_cofactors` is
  the one determinant-and-cofactor routine, for jets here and for the
  quadrature's arrays in `checks`.
* This module computes and never decides: every quantity is computed at
  every point, and whether a hypothesis of the paper (minimality, Gauss-map
  rank <= 2, positive alignment) holds is decided in `checks`.

Blocks
------
`point_geometry_at` takes one point or a block of points, given as a (P, n)
array; each function that reads geometry takes the PointGeometry it returned.
For a block, each array of the result gains a leading axis of length P, jets
are batched, and a failure at one point is recorded in `errors` (or in a
jet's `failures`) instead of raised.  One point runs the same array code as a
block of one, then raises that point's failure or drops the batch axis.
Contractions that feed per-point results are summed in a fixed index order,
so a point's values do not depend on the block it was evaluated in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .immersions import Immersion, evaluate_immersion
from .jets import (
    Jet,
    JetDomainError,
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

SCALAR_FIELDS = ("volume", "alignment", "log-alignment", "normB2", "normB")


class GeometryError(RuntimeError):
    """Base class for geometric pipeline failures."""


class ImmersionRankError(GeometryError):
    """The differential of F fails to have full rank at the point."""


class GaussRankError(GeometryError):
    """An operation assuming Gauss-map rank <= 2 met a higher rank."""


# -- blocks ---------------------------------------------------------------------

def _objects(values: list) -> np.ndarray:
    # a 1-d object array; tuples stay whole
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        out[i] = v
    return out


def _optional(values: np.ndarray, present: np.ndarray, absent=None) -> np.ndarray:
    """Per-point values as Python scalars, `absent` where `present` is false."""
    return _objects([v if ok else absent for v, ok in zip(values.tolist(), present.tolist())])


def _take(obj, p):
    """Point p of a block result: arrays lose the batch axis, scalars become Python values."""
    if isinstance(obj, np.ndarray):
        item = obj[p]
        return item.item() if isinstance(item, np.generic) else item
    if isinstance(obj, Jet):
        return Jet(obj.dim, obj.order, obj.coeffs[p])
    if is_dataclass(obj):
        return type(obj)(**{name: None if name == "errors" else _take(value, p)
                            for name, value in vars(obj).items()})
    return obj


def _batch1(obj):
    """A block of one from a single-point result; the inverse of _take(., 0)."""
    if isinstance(obj, np.ndarray):
        return obj[None]
    if isinstance(obj, Jet):
        return Jet(obj.dim, obj.order, obj.coeffs[None])
    if isinstance(obj, tuple):
        return _objects([obj])
    if isinstance(obj, float):
        return np.array([obj])
    if is_dataclass(obj):
        return replace(obj, **{f.name: [None] if f.name == "errors" else _batch1(getattr(obj, f.name))
                               for f in fields(obj)})
    return obj


def _single(obj):
    """The only point of a block of one: raise its failure, else drop the batch axis."""
    failure = obj.failures.get(0) if isinstance(obj, Jet) else getattr(obj, "errors", [None])[0]
    if failure is not None:
        raise failure
    return _take(obj, 0)


def _pointwise(block_fn):
    """Let a function of a block PointGeometry also take a single-point one.

    A single point (`errors is None`) runs as a block of one, together with
    any CanonicalFrame passed for it; its failure is then raised, else the
    batch axis dropped.
    """
    @functools.wraps(block_fn)
    def run(pg, *args, **kwargs):
        if pg.errors is not None:
            return block_fn(pg, *args, **kwargs)
        lift = lambda a: _batch1(a) if isinstance(a, CanonicalFrame) else a  # noqa: E731
        return _single(block_fn(_batch1(pg), *map(lift, args),
                                **{k: lift(v) for k, v in kwargs.items()}))
    return run


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
    """C_ik C_jl B_klA: the second fundamental form in the frame with coefficient rows C."""
    return ordered_einsum("pik,pjl,pklA->pijA", C, C, B)


# -- jet linear algebra on tensor jets (P, n, n, ncoef) -----------------------

def _tensor(rows: list) -> Jet:
    """Tensor jet (P, r, c, ..., ncoef) from an r x c nested list of batched jets (P, ..., ncoef)."""
    first = rows[0][0]
    return Jet(first.dim, first.order, np.moveaxis(np.array([[j.coeffs for j in row] for row in rows]), 2, 0))


def _entries(mat: Jet) -> list:
    """The (n, n) tensor jet `mat` as an n x n nested list of batched jets."""
    n = mat.coeffs.shape[-2]
    return [[mat[..., i, j, :] for j in range(n)] for i in range(n)]


def _det_cofactors(a: list):
    """det and cofactors C_ij of a 2x2 or 3x3 nested list of arrays or batched jets.

    The 3x3 cofactors are cyclic, C_ij = a_{i+1,j+1} a_{i+2,j+2} - a_{i+1,j+2} a_{i+2,j+1}
    (indices mod 3), and det = sum_j a_0j C_0j is added up in order of j.
    """
    if len(a) == 2:
        cof = [[a[1][1], -a[1][0]], [-a[0][1], a[0][0]]]
    else:
        cof = [[a[(i + 1) % 3][(j + 1) % 3] * a[(i + 2) % 3][(j + 2) % 3]
                - a[(i + 1) % 3][(j + 2) % 3] * a[(i + 2) % 3][(j + 1) % 3] for j in range(3)]
               for i in range(3)]
    det = a[0][0] * cof[0][0]
    for j in range(1, len(a)):
        det = det + a[0][j] * cof[0][j]
    return det, cof


def _gradient(jet: Jet, n: int) -> np.ndarray:
    """Values of d_k f, k = 0..n-1, on the last axis: the degree-1 coefficients."""
    multis = multi_indices(n, jet.order)
    return jet.coeffs[..., [multis.index(tuple(int(a == k) for a in range(n))) for k in range(n)]]


# -- point geometry -------------------------------------------------------------

@dataclass
class PointGeometry:
    """Full geometric state of an immersion at one parameter point (or a block)."""

    point: tuple[float, ...]
    n: int
    m: int
    g: Jet  # (n, n) tensor jet of the metric, order 2
    g0: np.ndarray  # (n, n) metric values
    g_inv: np.ndarray  # (n, n)
    christoffel: np.ndarray  # (n, n, n): christoffel[l, k, i] = Gamma^l_{ki}
    dF: np.ndarray  # (n, n+m) Jacobian values
    tangent_frame: np.ndarray  # (n, n+m) orthonormal e_i
    frame_coeffs: np.ndarray  # (n, n) T with e = T @ dF
    normal_frame: np.ndarray  # (m, n+m) orthonormal nu_a
    second_partials: np.ndarray  # (n, n, n+m) values of d_i d_j F
    B_coord: np.ndarray  # (n, n, n+m) normal projections of d_i d_j F
    nablaB_coord: np.ndarray  # (n, n, n, n+m): [k, i, j] = (grad_{d_k} B)(d_i, d_j)
    h: np.ndarray  # (m, n, n)
    h3: np.ndarray  # (m, n, n, n)
    mean_curvature: np.ndarray  # (n+m,)
    normB2: float
    nablaB2: float
    # order-2 jets reused by scalar_field_jet and the packs
    dF_jets: Jet  # (n, n+m) tensor jet of d_i F
    detg_jet: Jet
    normB2_jet: Jet
    errors: list | None = None  # block only: the failure of each point, or None


def point_geometry_at(imm: Immersion, point) -> PointGeometry:
    """Evaluate the full per-point geometric bundle at `point`.

    Raises ImmersionRankError when det g degenerates, and propagates
    expression/jet domain errors from component evaluation.  `point` may
    also be a (P, n) block of points; those failures are then collected per
    point in `errors`.
    """
    coords = np.asarray(point, dtype=float)
    if coords.ndim == 2:
        return _geometry(imm, coords, [tuple(row) for row in coords.tolist()])
    return _single(_geometry(imm, coords[None], [tuple(point)]))


def _metric(F: Jet, n: int):
    # first partials as order-2 jets (order-3 tails are never consumed)
    dF = _tensor([[F.derivative(i).truncate(2)] for i in range(n)])[:, :, 0]
    g = jet_einsum("piA,pjA->pij", dF, dF)
    return (dF, g, *_det_cofactors(_entries(g)))


def _hessian(F: Jet, dF_jets: Jet, ginv_jets: Jet, n: int):
    """Values of d_i d_j F and of B_ij, B's first partials dB[:, k, i, j] and |B|^2 as a jet.

    B is formed as order-2 jets, which are dropped on return: the block's
    point geometry keeps their values only.
    """
    # normal-projected Hessian: B_ij = P^N d_i d_j F, P^N = I - dF^T g^{-1} dF
    PT_jets = jet_einsum("piA,piB->pAB", dF_jets, jet_einsum("pij,pjB->piB", ginv_jets, dF_jets))
    F2_jets = _tensor([[F.derivative(i).derivative(j) for j in range(n)] for i in range(n)])
    # The three contractions shaped as B share the buffer of their pair sums, the
    # block's largest arrays: were each to allocate its own, glibc's heap would hand
    # that memory back to the system on every free and fault it in again.
    work = np.empty(3 * F2_jets.coeffs[..., 0].size * len(_table(n, 2).pair_i))
    B_jets = F2_jets - jet_einsum("pAB,pijB->pijA", PT_jets, F2_jets, work)
    second_partials = F2_jets.value.copy()
    del PT_jets, F2_jets
    # |B|^2 as an order-2 jet: <g^{ik} g^{jl} B_ij, B_kl>
    raised = jet_einsum("pjl,pkjA->pklA", ginv_jets,
                        jet_einsum("pik,pijA->pkjA", ginv_jets, B_jets, work), work)
    return (second_partials, B_jets.value.copy(), np.moveaxis(_gradient(B_jets, n), -1, 1),
            jet_einsum("pklA,pklA->p", raised, B_jets))


def _geometry(imm: Immersion, coords: np.ndarray, labels: list) -> PointGeometry:
    n, m, N = imm.n, imm.m, imm.n + imm.m
    P = len(coords)
    comps = evaluate_immersion(imm, coords, 4)
    errors = [None] * P
    for jet in comps:
        for p, exc in jet.failures.items():
            errors[p] = errors[p] or exc
    F = _tensor([comps])[:, 0]  # (P, N, ncoef)
    del comps  # F holds their coefficients; a jet dropped once read lowers the block's peak

    dF_jets, g_jets, detg_jet, g_cof = _metric(F, n)
    g0, detg = g_jets.value, detg_jet.value
    scale = np.prod(np.diagonal(g0, axis1=1, axis2=2), axis=1)
    scale = np.where(scale == 0.0, 1.0, scale)
    for p in np.flatnonzero(~(detg > 1e-13 * scale)):
        errors[p] = errors[p] or ImmersionRankError(
            f"Jacobian rank-deficient at {labels[p]}: det g = {detg[p]:.3e}"
        )
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
    try:
        L = np.linalg.cholesky(g0)
    except np.linalg.LinAlgError:
        L = np.array([np.eye(n)] * P)
        for p in range(P):
            try:
                L[p] = np.linalg.cholesky(g0[p])
            except np.linalg.LinAlgError:
                errors[p] = errors[p] or ImmersionRankError(f"metric not positive definite at {labels[p]}")

    # oriented Gram-Schmidt: T = L^-1 is lower triangular with positive diagonal
    T = np.linalg.solve(L, np.broadcast_to(np.eye(n), L.shape))
    e = T @ dF
    inv_det = jet_elementary("recip", detg_jet)
    ginv_jets = _tensor([[c * inv_det for c in column] for column in zip(*g_cof)])  # adjugate / det
    del inv_det, g_cof
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

    h = ordered_einsum("pijA,paA->paij", _frame_B(T, B_coord), nu)
    # normal projection first: bounds the term array of the frame change
    h3 = ordered_einsum("pkc,pia,pjb,pmcab->pmijk", T, T, T,
                        ordered_einsum("pcabA,pmA->pmcab", nablaB_coord, nu))
    mean_curvature = ordered_einsum("pij,pijA->pA", g_inv, B_coord)

    return PointGeometry(
        point=_objects([tuple(row) for row in coords.tolist()]),
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

def _gauss_matrix(pg: PointGeometry) -> np.ndarray:
    # row i of the Gauss-map differential in the orthonormal bases: (j, a) -> h_{a,ij}
    return np.moveaxis(pg.h, -3, -1).reshape(pg.h.shape[:-3] + (pg.n, pg.n * pg.m))


def gauss_rank_at(pg: PointGeometry):
    """Numerical rank of the Gauss-map differential and its singular values.

    For a block: (P,) ranks and (P, n) singular values.
    """
    sv = np.linalg.svd(_gauss_matrix(pg), compute_uv=False)
    base = np.where(sv[..., 0] > 0, sv[..., 0], 1.0)
    rank = np.sum(sv > RANK_TOL * base[..., None], axis=-1)
    return (rank, sv) if pg.errors is not None else (int(rank), sv)


@dataclass
class CanonicalFrame:
    """Rank-2 normal form of the shape operators.

    In the rotated frames the only nonzero shape operators restrict to the
    2-plane orthogonal to the kernel as A^1 = diag(mu1, -mu1) and
    A^2 = antidiag(mu2, mu2), mu1 >= mu2 >= 0.
    """

    kernel_basis: np.ndarray  # (n-2, n+m) ambient kernel directions
    mu1: float
    mu2: float
    theta: float
    residual: float
    tangent_frame: np.ndarray  # (n, n+m): e1, e2, kernel...
    normal_frame: np.ndarray  # (m, n+m): nu1, nu2, completion...
    errors: list | None = None  # block only: the failure of each point, or None


@_pointwise
def canonical_frame_at(pg: PointGeometry) -> CanonicalFrame:
    """Rotate frames so the shape operators take their rank-2 normal form.

    Requires Gauss-map rank <= 2; raises GaussRankError otherwise (the
    hypothesis is reported, never silently clamped).  For a block the
    failures are collected in `errors`.
    """
    n, m, N = pg.n, pg.m, pg.n + pg.m
    P = len(pg.h)
    tol = RANK_TOL
    rank, sv = gauss_rank_at(pg)
    errors = list(pg.errors)
    for p in np.flatnonzero(rank > 2):
        errors[p] = errors[p] or GaussRankError(
            f"Gauss-map rank {rank[p]} > 2 at {pg.point[p]} (singular values {sv[p]})"
        )

    if n == 2:
        U = np.broadcast_to(np.eye(2), (P, 2, 2))
    else:
        U = np.linalg.svd(_gauss_matrix(pg))[0]
        # the SVD fixes U only up to column signs; det U = +1 keeps the
        # canonical tangent frame oriented like e
        U[np.linalg.det(U) < 0, :, 2] *= -1.0

    # frame-valued second fundamental form
    Bf = _frame_B(pg.frame_coeffs, pg.B_coord)
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
    alpha = np.where(_dot(b11, b11) < _dot(b12, b12), alpha + math.pi / 4.0, alpha)  # mu1 >= mu2
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

    # residual of the normal form, over the full n x n blocks: express the
    # canonical tangent rows in the coordinate basis (e = T dF) and contract
    in_e = np.concatenate([f1c[:, None], f2c[:, None], np.swapaxes(U[:, :, 2:], 1, 2)], axis=1)
    B_can = _frame_B(in_e @ pg.frame_coeffs, pg.B_coord)
    h_can = ordered_einsum("paA,pijA->paij", normal_frame, B_can)

    target = np.zeros_like(h_can)
    target[:, 0, 0, 0] = mu1
    target[:, 0, 1, 1] = -mu1
    if m >= 2:
        target[:, 1, 0, 1] = mu2
        target[:, 1, 1, 0] = mu2

    return CanonicalFrame(
        kernel_basis=kernel,
        mu1=mu1,
        mu2=mu2,
        theta=theta,
        residual=np.max(np.abs(h_can - target), axis=(1, 2, 3)),
        tangent_frame=tangent_frame,
        normal_frame=normal_frame,
        errors=errors,
    )


# -- scalar fields and the Laplace-Beltrami operator ----------------------------

def _alignment_jet(pg: PointGeometry, reference_frame: np.ndarray) -> Jet:
    """Jet of the frame-free alignment det(<d_j F, a_k>) / sqrt(det g).

    This differentiable route avoids Gram-Schmidt, whose pivoting is not
    smooth; it agrees with det(<e_i, a_k>) for the oriented frame.
    """
    a = np.asarray(reference_frame, dtype=float)
    d = pg.dF_jets.coeffs  # <d_j F, a_k> as an (n, n) tensor jet
    M = Jet(pg.n, 2, sum(d[..., :, A, None, :] * a[:, A, None] for A in range(pg.n + pg.m)))
    return _det_cofactors(_entries(M))[0] * jet_elementary("pow-const", pg.detg_jet, param=-0.5)


@_pointwise
def scalar_field_jet(pg: PointGeometry, field: str, reference_frame=None) -> Jet:
    """Order-2 jet of a derived scalar field of the immersion.

    Fields: 'volume' (sqrt det g), 'alignment' (needs reference_frame),
    'log-alignment', 'normB2', 'normB'.  It is built from the order-2 jets
    `pg` carries, so the returned jet holds exact first and second
    derivatives of the field.  For a block the jet is batched.
    """
    if field not in SCALAR_FIELDS:
        raise ValueError(f"unknown scalar field {field!r} (known: {SCALAR_FIELDS})")
    if field == "volume":
        jet = jet_elementary("sqrt", pg.detg_jet)
    elif field == "normB2":
        jet = pg.normB2_jet
    elif field == "normB":
        nb2 = pg.normB2_jet
        flat = {p: JetDomainError("|B| is singular at a zero of the second fundamental form")
                for p in np.flatnonzero(nb2.value <= 0.0).tolist()}
        jet = jet_elementary("sqrt", replace(nb2, failures={**flat, **nb2.failures}))
    else:
        if reference_frame is None:
            raise ValueError(f"field {field!r} requires a reference frame")
        jet = _alignment_jet(pg, reference_frame)
        if field == "log-alignment":
            jet = jet_elementary("log", jet)
    return jet


def laplace_beltrami_of_jet(pg: PointGeometry, field_jet: Jet):
    """Lap phi = g^{ij} (d_i d_j phi - Gamma^k_{ij} d_k phi) from an order-2 jet."""
    n = pg.n
    grad = _gradient(field_jet, n)
    lap = 0.0
    for i in range(n):
        for j in range(n):
            corrected = jet_extract(field_jet, tuple((i, j).count(k) for k in range(n)))
            for k in range(n):
                corrected = corrected - pg.christoffel[..., k, i, j] * grad[..., k]
            lap = lap + pg.g_inv[..., i, j] * corrected
    return float(lap) if np.ndim(lap) == 0 else lap


def gradient_norm2_of_jet(pg: PointGeometry, field_jet: Jet):
    """|grad phi|^2 = g^{ij} d_i phi d_j phi."""
    grad = _gradient(field_jet, pg.n)
    out = 0.0
    for i in range(pg.n):
        for j in range(pg.n):
            out = out + grad[..., i] * pg.g_inv[..., i, j] * grad[..., j]
    return float(out) if np.ndim(out) == 0 else out


def laplace_beltrami(pg: PointGeometry, field: str, reference_frame=None):
    """Laplace-Beltrami of a derived scalar field at a point (or a block)."""
    return laplace_beltrami_of_jet(pg, scalar_field_jet(pg, field, reference_frame))


# -- plane pairings and the alignment pack ---------------------------------------

def frame_pairing(rows: np.ndarray, reference: np.ndarray):
    """<b_1 ^ ... ^ b_n, a_1 ^ ... ^ a_n> = det(<b_i, a_j>); rows may be a (P, n, N) block."""
    det = np.linalg.det(np.asarray(rows) @ np.asarray(reference).T)
    return float(det) if np.ndim(det) == 0 else det


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

    value: float
    value_from_frames: float
    grad_frame: np.ndarray  # grad_{e_i} a by jet differentiation
    grad_formula: np.ndarray
    laplacian_numeric: float
    laplacian_formula: float
    single_pairings: np.ndarray  # (n, m): <e_{j a}, A>
    double_pairing: float  # <e_{1 1, 2 2}, A>, with nu_1 again for nu_2 when m == 1
    jet: Jet  # the alignment scalar as an order-2 jet


@_pointwise
def alignment_pack_at(pg: PointGeometry, reference_frame,
                      canon: CanonicalFrame | None = None) -> AlignmentPack:
    """Evaluate the alignment function and its structural identities (`canon`: computed if None)."""
    a = np.asarray(reference_frame, dtype=float)
    n, m, P = pg.n, pg.m, len(pg.h)
    e, nu = pg.tangent_frame, pg.normal_frame

    jet = _alignment_jet(pg, a)
    grad_coord = _gradient(jet, n)
    grad_frame = ordered_einsum("pij,pj->pi", pg.frame_coeffs, grad_coord)

    single = np.empty((P, n, m))
    for j in range(n):
        for al in range(m):
            single[:, j, al] = replaced_pairing(e, a, {j: nu[:, al]})
    double = replaced_pairing(e, a, {0: nu[:, 0], 1: nu[:, min(1, m - 1)]})

    grad_formula = ordered_einsum("paij,pja->pi", pg.h, single)

    canon = canonical_frame_at(pg) if canon is None else canon
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

    Uses d/dw = (d/du - i d/dv)/2.  Meaningful when the chart is isothermal,
    i.e. conformality_residual is small; `isothermal` records that flag.
    """

    Fww: np.ndarray  # complex (n+m,)
    conformality_residual: float
    isothermal: bool
    omega_coeff: complex  # <F_ww, F_ww> complex-bilinear
    B_ww: np.ndarray
    zeta: complex | None
    zeta_residual: float | None
    xi1: float | None
    xi2: float | None


@_pointwise
def complex_pack_at(pg: PointGeometry) -> ComplexPack:
    """Complex second-order data of a surface: conformality, omega, zeta."""
    if pg.n != 2:
        raise GeometryError("complex pack requires a 2-dimensional domain")
    tol = 1e-8  # the isothermal-chart test, and |B_ww| below which zeta is undefined
    Fu, Fv = pg.dF[:, 0], pg.dF[:, 1]
    sp = pg.second_partials
    Fw = 0.5 * (Fu - 1j * Fv)
    Fww = 0.25 * (sp[:, 0, 0] - sp[:, 1, 1]) - 0.5j * sp[:, 0, 1]

    conf = _dot(Fw, Fw)
    scale = _dot(np.abs(Fw), np.abs(Fw))

    B_ww = 0.5 * pg.B_coord[:, 0, 0] - 0.5j * pg.B_coord[:, 0, 1]
    nablaB_www = 0.5 * pg.nablaB_coord[:, 0, 0, 0] - 0.5j * pg.nablaB_coord[:, 1, 0, 0]

    denom = _dot(np.abs(B_ww), np.abs(B_ww))
    has_zeta = denom > tol * tol
    zeta = _dot(nablaB_www, np.conj(B_ww)) / np.where(has_zeta, denom, 1.0)
    miss = np.abs(nablaB_www - zeta[:, None] * B_ww)
    zres = np.sqrt(_dot(miss, miss))

    return ComplexPack(
        Fww=Fww,
        conformality_residual=np.abs(conf),
        isothermal=np.abs(conf) <= tol * (scale + tol),
        omega_coeff=_dot(Fww, Fww),
        B_ww=B_ww,
        zeta=_optional(zeta, has_zeta),
        zeta_residual=_optional(zres, has_zeta),
        xi1=_optional(zeta.real, has_zeta),
        xi2=_optional(-zeta.imag, has_zeta),
    )


# -- Gauss curvature ---------------------------------------------------------------

@dataclass
class CurvaturePack:
    K_intrinsic: float
    K_extrinsic: float


@_pointwise
def curvature_pack_at(pg: PointGeometry) -> CurvaturePack:
    """Gauss curvature by two routes: Brioschi (metric only) and det B."""
    if pg.n != 2:
        raise GeometryError("curvature pack requires a 2-dimensional domain")
    Bf = _frame_B(pg.frame_coeffs, pg.B_coord)
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
