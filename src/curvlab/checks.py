"""Identity, inequality and equality-characterization checks.

`CHECKS` is the one place a check is declared: one row per name with its
default tolerance, description, evaluator, requirements, hypotheses, option
defaults and aggregator.

Every check evaluates a residual per grid point and aggregates a verdict:
pass iff the worst signed residual stays within tolerance (positive means
violation for inequalities), not-applicable when a documented hypothesis
fails everywhere (Gauss-map rank above 2, vanishing second fundamental
form, wrong immersion kind).  A row's `hypotheses` name its skip rules in
order; `BlockContext.skips` applies them after each point's evaluation
error, and a point is skipped for the first it fails.  `_HYPOTHESES` is the
only place a hypothesis is decided: alignment-identities' note uses it
too, and so does the probe, on the order-2 fields of its three points
(`_GraphFields.at`, the quadrature's one pass over its nodes), and geometry
tests none.  Where a
surface's chart is isothermal and where zeta is defined are decided once
per block too (`BlockContext.isothermal`, `BlockContext.has_zeta`).

Grid checks share one :class:`BlockContext` per block of grid points, sized
by `block_size` so that the block's geometry holds at most BLOCK_BUDGET
bytes at once: the geometry and every derived jet are computed once per
block in array code.  Each check's evaluator computes the residuals of the
points its hypotheses leave live and returns the block's :class:`Columns`;
aggregation reads the blocks' joined columns with numpy.  The columns are
a check's only per-point form: the JSON and CSV writers read them, and a
JSON report with detail writes each column as one list over the report's
points (`Columns.lists`).
Growth tables and the estimate probes integrate over extrinsic balls with
one boundary-fitted Gauss rule (`_BallRule`), whose levels double until
each integral's error estimate |Q_N - Q_(N/2)| reaches QUAD_REL_FLOOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

# evaluate_expression is unused here; perfbench's tracer rebinds it (test_perfbench_names.py)
from .expressions import evaluate_expression  # noqa: F401
from .geometry import (
    RANK_TOL,
    PointGeometry,
    _cofactor,
    _det,
    _det_cofactors,
    _frame_B,
    _gauss_matrix,
    add_rank_errors,
    alignment_pack_at,
    canonical_frame_at,
    complex_pack_at,
    # curvature_pack_at is unused here; perfbench's tracer rebinds it (test_perfbench_names.py)
    curvature_pack_at,
    first_failures,
    gauss_rank_at,
    gradient_norm2_of_jet,
    inverse_cholesky,
    laplace_beltrami_of_jet,
    point_geometry_at,
    scalar_field_jet,
)
from .immersions import Immersion, evaluate_array, evaluate_immersion
from .jets import _table, jet_elementary, ordered_einsum

BLOCK_BUDGET = 6 * 2**20  # bytes: the most point_geometry_at may hold at once for one block
MINIMALITY_TOL = 1e-8  # the minimality hypothesis, not the minimality check itself
ISOTHERMAL_TOL = 1e-8  # the isothermal-chart test, and |B_ww| at or below which zeta is undefined
EQUALITY_THRESHOLD = 1e-4  # looser than identity tolerances by design
IDENTITY_DEEP_TOL = 1e-4  # fourth-order two-route identities
QUAD_REL_FLOOR = 1e-10  # the relative error estimate every growth and probe integral must reach

class CheckConfigError(ValueError):
    """A check was configured outside its documented parameter domain."""


@dataclass
class CheckResult:
    """Aggregated verdict of one check over a grid."""

    name: str
    tolerance: float
    worst_residual: float | None
    verdict: str  # 'pass' | 'fail' | 'not-applicable'
    n_points: int
    n_skipped: int
    extras: dict = field(default_factory=dict)
    reason: str | None = None
    columns: Columns | None = field(default=None, repr=False, compare=False)  # None: growth, probe


class _Hypotheses:
    """The skip rules of _HYPOTHESES over a run of `points`.

    A subclass gives each point's evaluation `errors` and the fields that
    the rules it is asked for read (`normH`, `rank_errors`, `flat`, `w`).
    """

    @property
    def minimal(self) -> np.ndarray:  # false where |H| is NaN
        return self.normH <= MINIMALITY_TOL

    def skips(self, hypotheses) -> Columns:
        """The points' Columns, each point skipped for the first hypothesis it fails.

        Evaluation errors come first, then each name of `hypotheses` in turn: a
        key of _HYPOTHESES, or a `laplacian` field whose jet must not fail.  No
        later name is computed once every point is skipped.
        """
        skips = Columns(self.points, np.full(len(self.points), None, dtype=object))
        skips.fail(self.errors)
        for name in hypotheses:
            if skips.done:
                break
            if name in _HYPOTHESES:
                skips.fail(_HYPOTHESES[name](self), prefix="")
            else:
                skips.fail(self.laplacian(name)[1])
        return skips


def _rank_errors(points, singular_values) -> list:
    """Each point's Gauss-map rank failure, or None where the rank is at most 2.

    `singular_values()` gives the Gauss matrix's, (P, n).  With n = 2 rows
    the rank is at most 2, so it is not called.
    """
    if len(points[0]) == 2:
        return [None] * len(points)
    rank, sv = gauss_rank_at(None, singular_values())  # given `sv`, it reads no geometry
    return [f"Gauss-map rank {r} > 2 at {point} (singular values {s})" if r > 2 else None
            for r, s, point in zip(rank, sv, points)]


class BlockContext(_Hypotheses):
    """Lazy per-block cache shared by all grid checks.

    Each attribute is computed once, for every point of the block, by the
    array code of `geometry`; the check evaluators read whole columns of it.
    """

    def __init__(self, imm: Immersion, points, reference_frame):
        self.imm = imm
        self.points = [tuple(float(p) for p in point) for point in points]
        self.reference_frame = reference_frame
        self._laplacians = {}

    @cached_property
    def pg(self) -> PointGeometry:
        return point_geometry_at(self.imm, np.array(self.points))

    @property
    def errors(self) -> list:
        return self.pg.errors

    @cached_property
    def gauss_svd(self):  # n = 3: U and the singular values, for the canonical frame and the rank
        return np.linalg.svd(_gauss_matrix(self.pg))[:2] if self.imm.n == 3 else (None, None)

    @cached_property
    def canon(self):
        return canonical_frame_at(self.pg, self.gauss_svd[0])

    @cached_property
    def rank_errors(self) -> list:
        return _rank_errors(self.points, lambda: self.gauss_svd[1])

    @cached_property
    def alignment(self):  # the alignment scalar as an order-2 jet
        return scalar_field_jet(self.pg, "alignment", self.reference_frame)

    @property
    def w(self) -> np.ndarray:  # the alignment function's values
        return self.alignment.value

    @cached_property
    def apack(self):
        return alignment_pack_at(self.pg, self.reference_frame, self.canon, self.alignment)

    @cached_property
    def cpack(self):
        return complex_pack_at(self.pg)

    @cached_property
    def isothermal(self) -> np.ndarray:  # where a surface's chart is isothermal
        cp = self.cpack
        return cp.conformality_residual <= ISOTHERMAL_TOL * (cp.conformality_scale + ISOTHERMAL_TOL)

    @cached_property
    def has_zeta(self) -> np.ndarray:  # where B_ww is large enough to define zeta
        return self.cpack.B_ww_norm2 > ISOTHERMAL_TOL * ISOTHERMAL_TOL

    @cached_property
    def volume_jet(self):
        return scalar_field_jet(self.pg, "volume")

    @cached_property
    def grad_normB_sq(self):
        # |grad |B||^2 = |grad |B|^2|^2 / (4 |B|^2); read only where |B| > 0
        return gradient_norm2_of_jet(self.pg, self.pg.normB2_jet) / (4.0 * self.pg.normB2)

    @cached_property
    def normH(self) -> np.ndarray:
        mc = self.pg.mean_curvature
        return np.sqrt(_dot(mc.T, mc.T))

    @cached_property
    def flat(self) -> np.ndarray:  # where the second fundamental form vanishes
        return self.pg.normB2 <= RANK_TOL

    def laplacian(self, field):
        """Per-point Laplacian of a derived field, and the failures of its jet.

        `field` is "normB2", "log-alignment" or ("subharmonic", s, q) for
        |B|^(2s) v^q; each is built once per block.
        """
        if field not in self._laplacians:
            if field == "normB2":
                jet = self.pg.normB2_jet
            elif field == "log-alignment":
                jet = jet_elementary("log", self.alignment)
            else:
                _, s, q = field
                jet = _power_jet(self.pg.normB2_jet, s) * _power_jet(self.volume_jet, q)
            self._laplacians[field] = (laplace_beltrami_of_jet(self.pg, jet), jet.failures)
        return self._laplacians[field]


@dataclass
class _PointFields(_Hypotheses):
    """The fields of `_GraphFields.at` at a run of points; None where not asked for."""

    coords: np.ndarray  # (P, n)
    errors: list  # each point's first jet failure, or None
    g: np.ndarray  # (i, j, P)
    det: np.ndarray  # det g
    v: np.ndarray  # sqrt(det g)
    B: np.ndarray | None = None  # (A, i, j, P), order 2
    normB2: np.ndarray | None = None  # order 2
    normH: np.ndarray | None = None  # order 2
    w: np.ndarray | None = None  # the alignment function, given a reference frame

    @cached_property
    def points(self) -> list:
        return [tuple(p) for p in self.coords.tolist()]

    @cached_property
    def rank_errors(self) -> list:
        return _rank_errors(self.points, self.gauss_sv)

    def gauss_sv(self) -> np.ndarray:
        """The Gauss map's singular values, (P, n); NaN where B is not finite or g is
        not positive definite.

        Those of B(e_i, e_j) in the orthonormal frame e = T dF, T the inverse
        Cholesky factor of g, by ambient components: B is normal, so they are
        the singular values of its normal components too.
        """
        B = self.B.transpose(3, 1, 2, 0)  # (P, i, j, A)
        _, n, _, N = B.shape
        T, positive = inverse_cholesky(self.g.transpose(2, 0, 1))
        rows = positive & np.isfinite(B).all(axis=(1, 2, 3))
        sv = np.full(B.shape[:2], np.nan)
        frame = _frame_B(T[rows], B[rows]).reshape(-1, n, n * N)  # the Gauss matrices
        sv[rows] = np.linalg.svd(frame, compute_uv=False)
        return sv


# skip rules by name: points -> each point's reason, None where the rule holds
_HYPOTHESES = {
    "minimal": lambda b: np.where(b.minimal, None, np.where(
        np.isfinite(b.normH), "mean curvature does not vanish", "second fundamental form not finite")),
    "rank": lambda b: b.rank_errors,
    "curved": lambda b: np.where(b.flat, "second fundamental form vanishes", None),
    "aligned": lambda b: np.where(b.w <= 0.0, "alignment function not positive", None),
}


@dataclass
class Columns:
    """One check's results over a run of grid points, column by column.

    `skip` holds each point's skip reason (None: evaluated); a point keeps
    the first reason it is given.  `residual`, `note` (a reason kept at an
    evaluated point) and every `detail` column hold one value per evaluated
    point; an object column holds None where the point has no such value.
    """

    points: list
    skip: np.ndarray
    residual: np.ndarray = field(default_factory=lambda: np.empty(0))
    note: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=object))
    detail: dict = field(default_factory=dict)

    @property
    def live(self) -> np.ndarray:
        return np.equal(self.skip, None)

    @property
    def done(self) -> bool:
        return not self.live.any()

    def fail(self, errors, prefix="evaluation error: "):
        """Skip the live points that have an error (a list per point, or {point: error})."""
        for i, exc in (errors.items() if isinstance(errors, dict) else enumerate(errors)):
            if exc is not None and self.skip[i] is None:
                self.skip[i] = f"{prefix}{exc}"
        return self

    def evaluated(self, residual, note=None, **detail) -> Columns:
        """These skips, with `residual`, `note` and `detail` (one per point) at the live points."""
        live = self.live
        note = np.full(len(live), None, dtype=object) if note is None else note
        return replace(self, residual=residual[live], note=note[live],
                       detail={key: column[live] for key, column in detail.items()})

    @classmethod
    def concat(cls, parts: list) -> Columns:
        """The columns of consecutive runs of points; a run with no live point may lack detail."""
        parts = [cls([], np.empty(0, dtype=object)), *parts]  # no parts join to no points
        keys = next((part.detail for part in parts if part.detail), {})
        return cls(
            [point for part in parts for point in part.points],
            *(np.concatenate([getattr(part, name) for part in parts])
              for name in ("skip", "residual", "note")),
            {key: np.concatenate([part.detail[key] for part in parts if part.detail])
             for key in keys},
        )

    def get(self, name) -> np.ndarray:
        """Detail column `name`, or None at every evaluated point when the check gave none."""
        return self.detail.get(name, np.full(len(self.residual), None, dtype=object))

    def lists(self) -> dict:
        """The columns as lists over every point, as a report with detail writes them.

        `skipped` flags each point, and `reason` holds a skipped point's skip
        reason and an evaluated point's note.  `residual` and each `detail`
        column hold None at a skipped point.
        """
        live = self.live

        def spread(column):
            out = np.full(len(live), None, dtype=object)
            out[live] = column
            return out.tolist()

        reason = self.skip.copy()
        reason[live] = self.note
        return {"residual": spread(self.residual), "skipped": (~live).tolist(),
                "reason": reason.tolist(),
                "detail": {key: spread(column) for key, column in self.detail.items()}}


def _optional(values: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Per-point values as Python scalars in a 1-d object array, None where `present` is false."""
    out = np.empty(len(present), dtype=object)
    out[:] = [v if ok else None for v, ok in zip(values.tolist(), present.tolist())]
    return out


def _pymax(first, *others):
    """Elementwise max(first, *others) by Python's rule: a later value wins only if greater."""
    for other in others:
        first = np.where(other > first, other, first)
    return first


# -- individual check evaluators -------------------------------------------------
# Each grid check has an eval(block, state, skips) -> the block's Columns, computed
# column by column over the block; `skips` (BlockContext.skips of the row's
# hypotheses) leaves some point live, and the state (its options and tol) is
# built once by make_check_state and shared by every block.

def _eval_minimality(block, state, skips):
    return skips.evaluated(block.normH)


def _eval_minimal_system(block, state, skips):
    pg = block.pg
    n = pg.n
    fx, fy = pg.dF[:, 0, n:], pg.dF[:, 1, n:]
    sp = pg.second_partials[..., n:]
    vec = ((1 + _dot(fy.T, fy.T))[:, None] * sp[:, 0, 0]
           - (2 * _dot(fx.T, fy.T))[:, None] * sp[:, 0, 1]
           + (1 + _dot(fx.T, fx.T))[:, None] * sp[:, 1, 1])
    return skips.evaluated(np.sqrt(_dot(vec.T, vec.T)))


def _eval_pluecker(block, state, skips):
    # the alignment pack's pairings <e with slots replaced by normals, A>
    ap = block.apack
    b = 1 if block.pg.m > 1 else 0  # nu2, or nu1 again in codimension one
    one = ap.single_pairings
    return skips.evaluated(np.abs(
        ap.value_from_frames * ap.double_pairing - one[:, 0, 0] * one[:, 1, b]
        + one[:, 0, b] * one[:, 1, 0]
    ))


def _eval_alignment_identities(block, state, skips):
    ap = block.apack
    grad_scale = 1.0 + np.abs(ap.grad_frame).max(axis=-1)
    grad_res = np.abs(ap.grad_frame - ap.grad_formula).max(axis=-1) / grad_scale
    # the gradient identity holds for any immersion; only the rank-2
    # Laplacian identity needs the hypotheses (the note says which failed)
    note = block.skips(("minimal", "rank")).skip
    applicable = np.equal(note, None)
    lap_res = np.abs(ap.laplacian_numeric - ap.laplacian_formula) / (1.0 + np.abs(ap.laplacian_numeric))
    return skips.evaluated(
        np.where(applicable, _pymax(grad_res, lap_res), grad_res),
        note,
        grad_residual=grad_res,
        alignment=ap.value,
        laplacian_residual=_optional(lap_res, applicable),
    )


def _eval_log_alignment(block, state, skips):
    lap = block.laplacian("log-alignment")[0]
    normB2 = block.pg.normB2
    signed = (lap + normB2) / (1.0 + normB2)  # positive = inequality violated
    if block.imm.kind == "graph" and block.imm.n == 2:  # equality holds: the residual is |signed|
        return skips.evaluated(np.abs(signed), signed_violation=signed)
    return skips.evaluated(signed, equality_residual=np.abs(signed))


def _shape_operator_terms(h):
    # tilde = sum_ab [tr(A^a A^b)]^2, under = -sum_ab tr([A^a, A^b]^2), per point
    traces = ordered_einsum("paij,pbij->pab", h, h)
    products = ordered_einsum("paij,pbjk->pabik", h, h)
    comm = products - np.swapaxes(products, 1, 2)
    return (ordered_einsum("pab,pab->p", traces, traces),
            -ordered_einsum("pabik,pabki->p", comm, comm))


def _eval_simons(block, state, skips):
    lapB2 = block.laplacian("normB2")[0]
    pg, canon = block.pg, block.canon
    normB2, nablaB2 = pg.normB2, pg.nablaB2
    inner_numeric = 0.5 * (lapB2 - 2.0 * nablaB2)
    tilde, under = _shape_operator_terms(pg.h)
    scale = 1.0 + normB2**2

    # (i) the inequality itself (valid in any codimension)
    violation = (2.0 * nablaB2 - 3.0 * normB2**2 - lapB2) / scale
    # (ii) two independent routes to <grad^2 B, B>
    identity_res = np.abs(inner_numeric + tilde + under) / scale

    has_canon = np.equal(block.rank_errors, None)  # where mu1, mu2 give the normal form
    mu1, mu2 = canon.mu1, canon.mu2
    inner_formula = -(4 * mu1**4 + 4 * mu2**4 + 16 * mu1**2 * mu2**2)
    mu_residual = np.abs((tilde + under) + inner_formula) / scale

    curved = ~block.flat  # differs from normB2 > RANK_TOL only at NaN, which "minimal" skipped
    ratio = -inner_numeric / normB2**2
    bound_violation = np.where(curved, _pymax(1.0 - ratio, ratio - 1.5), 0.0)
    has_conformal = curved & has_canon
    conformal = np.abs(mu1 - mu2) <= EQUALITY_THRESHOLD * (mu1 + mu2 + EQUALITY_THRESHOLD)
    # at a conformal point the ratio is pinned at the equality case
    coupling = np.where(has_conformal & conformal, np.abs(ratio - 1.5), 0.0)
    return skips.evaluated(
        _pymax(violation, bound_violation, coupling),
        lapB2=lapB2,
        nablaB2=nablaB2,
        inner_numeric=inner_numeric,
        inner_formula=_optional(inner_formula, has_canon),
        tilde_term=tilde,
        under_term=under,
        identity_residual=identity_res,
        mu_residual=_optional(mu_residual, has_canon),
        ratio=_optional(ratio, curved),
        conformal=_optional(conformal, has_conformal),
    )


def _aggregate_simons(cols, tol):
    worst_identity, bad_identity = _finite_max(cols.get("identity_residual"))
    worst_mu, bad_mu = _finite_max(_given(cols.get("mu_residual")))
    extras = {
        "worst_identity_residual": 0.0 if worst_identity is None else worst_identity,
        "identity_tolerance": IDENTITY_DEEP_TOL,
        "worst_mu_residual": worst_mu,
        "conformal_points": int(np.sum(np.equal(cols.get("conformal"), True))),
    }
    worst = max(worst_identity or 0.0, worst_mu or 0.0)
    ok = not (bad_identity or bad_mu) and worst <= IDENTITY_DEEP_TOL
    return extras, ok


def _eval_kato(block, state, skips):
    pg = block.pg
    grad_nb_sq = block.grad_normB_sq
    gap = pg.nablaB2 - 2.0 * grad_nb_sq
    equality = np.abs(gap) <= EQUALITY_THRESHOLD * (1.0 + pg.nablaB2)
    residual = -gap
    detail = {"gap": gap, "nablaB2": pg.nablaB2, "grad_normB_sq": grad_nb_sq, "equality": equality}
    if pg.n == 2:
        cp, has_zeta, isothermal = block.cpack, block.has_zeta, block.isothermal
        # in an isothermal chart, equality forces the cubic derivative to be proportional
        # to B_ww; zeta_asserted is false at an equality point of a chart that is not
        asserted = equality & has_zeta & isothermal
        residual = np.where(asserted, _pymax(residual, cp.zeta_residual), residual)
        detail.update(zeta_re=_optional(cp.zeta.real, has_zeta),
                      zeta_im=_optional(cp.zeta.imag, has_zeta),
                      zeta_residual=_optional(cp.zeta_residual, has_zeta),
                      zeta_asserted=_optional(asserted, asserted | equality & ~isothermal))
    return skips.evaluated(residual, **detail)


def _aggregate_kato(cols, tol):
    equality = cols.get("equality").astype(bool)
    not_isothermal = np.equal(cols.get("zeta_asserted"), False)  # zeta is not asserted there
    zres = cols.get("zeta_residual")
    extras = {
        "equality_points": int(np.sum(equality)),
        "evaluated_points": len(equality),
        "equality_not_isothermal": int(np.sum(not_isothermal)),
        # recorded, not asserted: near-proportional points without gap equality
        "zeta_without_equality": int(np.sum(_given(zres[~equality]) <= tol)),
        "worst_zeta_residual_at_equality": _finite_max(_given(zres[equality & ~not_isothermal]))[0],
        "worst_gap": _finite_max(np.abs(cols.get("gap").astype(float)))[0],
    }
    return extras, True


def _eval_refined_simons(block, state, skips):
    pg, lhs = block.pg, block.laplacian("normB2")[0]
    rhs = 4.0 * block.grad_normB_sq - 3.0 * pg.normB2**2
    scale = 1.0 + pg.normB2**2
    return skips.evaluated((rhs - lhs) / scale, margin=lhs - rhs)


def _eval_gauss_conformal(block, state, skips):
    pg, canon = block.pg, block.canon
    tol = state["tol"]
    convention = block.flat  # B = 0: conformal by convention, a record, not a skip
    skips.fail({i: exc for i, exc in enumerate(block.rank_errors) if not convention[i]}, prefix="")
    crit_mu = np.abs(canon.mu1 - canon.mu2) <= tol * (canon.mu1 + canon.mu2 + tol)
    agree = np.ones(len(convention), dtype=bool)
    isothermal, omega = np.zeros(len(convention), dtype=bool), np.zeros(len(convention))
    crit_bww = crit_omega = crit_mu
    if pg.n == 2:
        cp, isothermal = block.cpack, block.isothermal
        crit_bww = np.abs(_dot(cp.B_ww.T, cp.B_ww.T)) <= tol * (cp.B_ww_norm2 + tol)
        omega = np.abs(cp.omega_coeff)
        crit_omega = omega <= tol
        agree = ~isothermal | ((crit_bww == crit_mu) & (crit_omega == crit_mu))
    shown = ~convention  # a convention point has only conformal and criteria
    return skips.evaluated(
        np.where(agree | convention, 0.0, 1.0),
        conformal=crit_mu | convention,
        criteria=_optional(np.full(len(convention), "convention"), convention),
        agree=_optional(agree, shown),
        omega=_optional(omega, isothermal & shown),
        criterion_mu=_optional(crit_mu, shown),
        criterion_bww=_optional(crit_bww, isothermal & shown),
        criterion_omega=_optional(crit_omega, isothermal & shown),
    )


def _aggregate_gauss_conformal(cols, tol):
    conformal = cols.get("conformal").astype(bool)
    omegas = _given(cols.get("omega"))
    extras = {
        "conformal_points": int(np.sum(conformal)),
        "evaluated_points": len(conformal),
        "all_conformal": bool(conformal.size) and bool(np.all(conformal)),
    }
    if omegas.size:
        omega_max, n_nonfinite = _finite_max(omegas)
        extras["omega_max"] = omega_max
        # the holomorphic coefficient vanishes on the grid iff every point is conformal
        extras["omega_coupling_ok"] = not n_nonfinite and (
            (omega_max <= tol) == extras["all_conformal"]
        )
    return extras, extras.get("omega_coupling_ok", True)


def _eval_jacobian(block, state, skips):
    pg = block.pg
    n = pg.n
    Df = np.swapaxes(pg.dF[:, :, n:], 1, 2)  # (P, m, n)
    m = Df.shape[1]
    sv = np.linalg.svd(Df, compute_uv=False)
    s1 = sv[:, 0]
    s2 = sv[:, 1] if m > 1 else np.zeros(len(s1))
    minors = np.zeros(len(s1))
    for a in range(m):
        for b in range(a + 1, m):
            minors = minors + (Df[:, a, 0] * Df[:, b, 1] - Df[:, a, 1] * Df[:, b, 0]) ** 2
    v = np.sqrt(np.linalg.det(pg.g0))
    res1 = np.abs(s1**2 * s2**2 - minors) / (1.0 + s1**2 * s2**2)
    res2 = np.abs(v**2 - (1 + s1**2) * (1 + s2**2)) / (1.0 + v**2)
    detail = {"sigma1": s1, "sigma2": s2, "minor_sum": minors, "volume_factor": v}
    residual = _pymax(res1, res2)
    if m == 2:
        jac = np.abs(np.linalg.det(Df))
        residual = _pymax(residual, np.abs(s1 * s2 - jac) / (1.0 + jac))
        detail["abs_jacobian"] = jac
    return skips.evaluated(residual, **detail)


def _setup_isothermal(state):
    if state["b"] <= 0:
        raise CheckConfigError("isothermal shear requires b > 0")


def _eval_isothermal(block, state, skips):
    # the sheared chart u1 = x1, u2 = a x1 + b x2 has dx/du = J = [[1, 0], [c, d]],
    # c = -a/b, d = 1/b, so by the chain rule its metric is J^T g J of the block's g
    g = block.pg.g0
    c, d = -state["a"] / state["b"], 1.0 / state["b"]
    g00 = g[:, 0, 0] + 2.0 * c * g[:, 0, 1] + c * c * g[:, 1, 1]
    g01 = d * (g[:, 0, 1] + c * g[:, 1, 1])
    g11 = d * d * g[:, 1, 1]
    residual = _pymax(np.abs(g00 - g11), np.abs(g01)) / (1.0 + np.abs(g00))
    v = np.sqrt(np.linalg.det(g))
    # sqrt det g = lam^2 det J^-1 = lam^2 b, lam^2 the conformal factor g00
    return skips.evaluated(
        residual,
        conformal_factor=g00,
        volume_factor=v,
        decomposition_residual=np.abs(v - g00 * state["b"]) / (1.0 + v),
    )


def _setup_subharmonicity(state):
    for key in ("s", "q"):
        if state[key] < 1.0:
            raise CheckConfigError(f"subharmonicity requires {key} >= 1, got {key}={state[key]}")


def _power_jet(jet, p: float):
    if p == int(p) and p >= 0:
        return jet ** int(p)
    return jet_elementary("pow-const", jet, param=p)


def _eval_subharmonicity(block, state, skips):
    s, q = state["s"], state["q"]
    pg, flat = block.pg, block.flat
    # where |B| vanishes the function touches its minimum 0: both sides vanish
    lap = rhs = np.zeros(len(flat))
    if (skips.live & ~flat).any():
        lap, failures = block.laplacian(("subharmonic", s, q))
        skips.fail({i: exc for i, exc in failures.items() if not flat[i]})
        rhs = (q - 3.0 * s) * pg.normB2 ** (s + 1.0) * block.volume_jet.value**q
        lap, rhs = np.where(flat, 0.0, lap), np.where(flat, 0.0, rhs)
    return skips.evaluated((rhs - lap) / (1.0 + np.abs(rhs)), margin=lap - rhs, lap=lap, rhs=rhs)


class _Check(NamedTuple):
    tol: float  # the default tolerance
    description: str  # its `curvlab list-checks` line
    evaluate: Callable | None = None  # (BlockContext, state, skips) -> the block's Columns, or None
    requires: tuple = ()  # keys of _REQUIREMENTS, checked in order
    hypotheses: tuple = ()  # the skip rules of BlockContext.skips, in order
    setup: Callable = lambda state: None  # raises when an option is outside its domain
    aggregate: Callable = lambda cols, tol: ({}, True)  # (Columns, tol) -> (extras, ok)
    options: dict = {}  # {key: default} a config may set, each value checked by its default's type
    sweep: tuple = ()  # the extras a sweep's aggregation table collects, in order


_REQUIREMENTS = {
    "frame": (lambda imm, frame: frame is not None, "a reference frame"),
    "graph": (lambda imm, frame: imm.kind == "graph", "a graph immersion"),
    "surface": (lambda imm, frame: imm.n == 2, "a 2-dimensional domain"),
}

# every check, in `list-checks` order; growth and probe run off the grid (a
# probe's parameters have their own config section)
CHECKS = {
    "minimality": _Check(1e-10, "mean curvature vanishes on the grid", _eval_minimality),
    "minimal-system": _Check(
        1e-9, "graph components solve the minimal-surface system (graphs, n=2)",
        _eval_minimal_system, ("graph", "surface")),
    "pluecker": _Check(1e-12, "replacement-determinant identity of the plane pairings",
                       _eval_pluecker, ("frame",)),
    "alignment-identities": _Check(
        1e-6, "gradient and Laplacian identities of the alignment function",
        _eval_alignment_identities, ("frame",)),
    "log-alignment": _Check(
        1e-5, "Lap log(alignment) <= -|B|^2, equality for 2d minimal graphs",
        _eval_log_alignment, ("frame",), ("minimal", "aligned", "log-alignment")),
    "simons": _Check(
        1e-5, "Bochner inequality for |B|^2, trace identity and curvature ratio bounds",
        _eval_simons, hypotheses=("minimal", "normB2"), aggregate=_aggregate_simons),
    "kato": _Check(1e-5, "|grad B|^2 >= 2 |grad |B||^2 under rank <= 2, equality structure",
                   _eval_kato, hypotheses=("minimal", "rank", "curved"),
                   aggregate=_aggregate_kato),
    "refined-simons": _Check(1e-8, "combined inequality Lap|B|^2 >= 4|grad|B||^2 - 3|B|^4",
                             _eval_refined_simons, hypotheses=("minimal", "rank", "curved", "normB2")),
    "gauss-conformal": _Check(
        1e-6, "agreement of the conformal-point criteria (mu, B_ww, omega)",
        _eval_gauss_conformal, hypotheses=("minimal",), aggregate=_aggregate_gauss_conformal),
    "jacobian": _Check(1e-10, "singular-value identities of the graph Jacobian (graphs, n=2)",
                       _eval_jacobian, ("graph", "surface")),
    "isothermal": _Check(1e-10, "sheared coordinates (a,b) are isothermal (graphs, n=2)",
                         _eval_isothermal, ("graph", "surface"), setup=_setup_isothermal,
                         options={"a": 0.0, "b": 1.0}),
    "subharmonicity": _Check(
        1e-6, "Lap(|B|^(2s) v^q) >= (q-3s) |B|^(2s+2) v^q pointwise",
        _eval_subharmonicity, hypotheses=("minimal",), setup=_setup_subharmonicity,
        options={"s": 1.0, "q": 1.0}),
    "growth": _Check(1e-2, "extrinsic-ball volume and slope growth table (graphs)",
                     options={"radii": [1.0, 2.0, 4.0], "cells": 256},
                     sweep=("volumes", "volume_exponent", "max_v")),
    "probe": _Check(1e-6, "integral curvature-estimate probes with implied constants (graphs)",
                    sweep=("implied_c3", "implied_c4")),
}
GRID_CHECKS = tuple(name for name, check in CHECKS.items() if check.evaluate)


def make_check_state(name: str, imm: Immersion, frame, options: dict, tol: float):
    """Validate a grid check's options once; the state is shared by every point.

    The state maps each of the check's options, given or default, to a float, and "tol" to `tol`.
    """
    if name not in GRID_CHECKS:
        raise CheckConfigError(f"unknown check {name!r}")
    check = CHECKS[name]
    for need in check.requires:
        holds, what = _REQUIREMENTS[need]
        if not holds(imm, frame):
            raise CheckConfigError(f"check {name!r} requires {what}")
    state = {key: float(options.get(key, default)) for key, default in check.options.items()}
    check.setup(state)
    state["tol"] = tol
    return state


def block_size(imm: Immersion) -> int:
    """Grid points per block: BLOCK_BUDGET over a point's share of point_geometry_at's peak.

    A point's share is at most eight float64 arrays the size of the widest
    tensor jet's pair-table columns, those of the raised B, g^-1 B: (n + m)
    n^2 entries of an order-2 jet's pair count.  The raising holds three of
    them (its two pair sums and their term); the jets and values the block
    holds then make up the rest.  tracemalloc measures 5.7 to 7.3 such arrays
    per point for n = 2, 3 and m = 1 to 3.
    """
    point_bytes = 8 * 8 * (imm.n + imm.m) * imm.n**2 * len(_table(imm.n, 2).pair_i)
    return max(1, BLOCK_BUDGET // point_bytes)


def blocks(imm: Immersion, points: list):
    """Consecutive runs of at most block_size(imm) points, in order."""
    size = block_size(imm)
    return [points[i:i + size] for i in range(0, len(points), size)]


def evaluate_point(imm: Immersion, frame, specs, points):
    """Evaluate grid checks at a block of points that share one BlockContext.

    `specs` is a list of (name, state) pairs.  Returns, per spec in spec
    order, the block's Columns; a point's values do not depend on its
    block.  A point that fails to evaluate, or fails a hypothesis of the
    check's row, is skipped with the first such reason; a check whose points
    are all skipped is not evaluated.
    """
    block = BlockContext(imm, points, frame)
    out = []
    with np.errstate(all="ignore"):
        for name, state in specs:
            check = CHECKS[name]
            skips = block.skips(check.hypotheses)
            out.append(skips if skips.done else check.evaluate(block, state, skips))
    return out


def _finite_max(values):
    """The largest finite value (None if there is none) and the count of the others.

    Of equal maxima the first wins, as in Python's max (0.0 and -0.0 print differently).
    """
    values = np.asarray(values, dtype=float)
    finite = values[np.isfinite(values)]
    return (float(finite[np.argmax(finite)]) if finite.size else None), values.size - finite.size


def _given(column):
    """An object column's values as floats, without its None ones."""
    return column[np.not_equal(column, None)].astype(float)


def aggregate_check(name: str, tol: float, cols: Columns) -> CheckResult:
    """Fold a check's columns over the grid into a CheckResult.

    A non-finite residual fails the check; their count goes to
    extras["n_nonfinite"].
    """
    extras, extra_ok = CHECKS[name].aggregate(cols, tol)
    n_skipped = len(cols.skip) - len(cols.residual)
    if len(cols.residual):
        worst, n_nonfinite = _finite_max(cols.residual)
        if n_nonfinite:
            extras = {**extras, "n_nonfinite": n_nonfinite}
        ok = not n_nonfinite and worst <= tol and extra_ok
        verdict, reason = "pass" if ok else "fail", None
    else:
        worst, verdict = None, "not-applicable"
        reason = cols.skip[0] if n_skipped else "no points evaluated"
    return CheckResult(
        name=name, tolerance=tol, worst_residual=worst, verdict=verdict,
        n_points=len(cols.skip), n_skipped=n_skipped, extras=extras,
        reason=reason, columns=cols,
    )


# -- quadrature over graphs ---------------------------------------------------------

_UNIT_BALL_VOLUME = {2: math.pi, 3: 4.0 * math.pi / 3.0}
SEARCH_SAMPLES = 128  # samples per ray in one step of the boundary search
SEARCH_STEPS = 40  # per search, the scan included: 5-10 on smooth graphs, 25 on a plateau
SEARCH_ULPS = 4  # a ray's search ends when its bracket is this many ulps wide
STAR_ULPS = 16  # the star-shape test's rounding slack, in ulps of R (R + |F(0)|)
NODE_BUDGET = 2**24  # the most nodes or search samples one `fields` or `dist2` call takes
JET_NODES = 2**16  # nodes or samples per evaluation in `fields` and `dist2`: bounds their memory


def _dot(xs, ys):
    """sum_k xs[k] * ys[k], in order of k, over two short lists or leading axes of per-point arrays."""
    total = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        total += x * y
    return total


class _GraphFields:
    """Extrinsic distance, ball boundaries and the per-node v and |B|^2 of a graph immersion.

    `dist2` and `boundary` evaluate the graph components over arrays;
    `at` reads the order-1 or order-2 fields of any points off the jets of
    `evaluate_immersion`, the derivatives every grid check reads, and
    `fields` runs it over the quadrature's nodes.
    """

    def __init__(self, imm: Immersion):
        reason = self.not_a_graph(imm)
        if reason:
            raise CheckConfigError(reason)
        self.imm, self.n, self.m = imm, imm.n, imm.m
        self.comps = imm.graph_components()
        with np.errstate(all="ignore"):  # F(0) is NaN where the graph is undefined there
            self.f0 = np.array([evaluate_array(c, [np.zeros(1)] * imm.n)[0] for c in self.comps])

    @staticmethod
    def not_a_graph(imm: Immersion) -> str | None:
        """Why growth and the probe cannot integrate over `imm`, or None for a graph."""
        return None if imm.kind == "graph" else "quadrature fields require a graph immersion"

    @np.errstate(all="ignore")
    def dist2(self, axes):
        """Squared extrinsic distance |x|^2 + sum_a (f^a - f^a(0))^2 to F(0).

        `axes` broadcast together; the graph components are evaluated over
        runs of at most JET_NODES samples, their shared subtrees once per run.
        Not finite wherever F is undefined.
        """
        shape = np.broadcast_shapes(*(np.shape(ax) for ax in axes))
        axes = [np.broadcast_to(ax, shape).ravel() for ax in axes]
        out = np.empty(axes[0].size)
        for s in range(0, out.size, JET_NODES):
            part, memo = [ax[s:s + JET_NODES] for ax in axes], self.imm.sharing.memo()
            sq = [(evaluate_array(c, part, memo) - c0) ** 2 for c, c0 in zip(self.comps, self.f0)]
            # the sum over a first, then |x|^2: a change of order moves boundaries by an ulp
            out[s:s + JET_NODES] = sum(ax**2 for ax in part) + sum(sq[1:], sq[0])
        return out.reshape(shape)

    def fields(self, axes, want_normB2=False):
        """Per-node volume element v = sqrt(det g), and |B|^2 when `want_normB2`.

        From order-1 jets of F at the nodes (order 2 when |B|^2 is read), in
        blocks of at most JET_NODES nodes; NaN where a jet failed.
        """
        points = np.stack(axes, axis=1)
        parts = [self.at(points[s:s + JET_NODES], 2 if want_normB2 else 1)
                 for s in range(0, len(points), JET_NODES)]
        failed = np.concatenate([np.not_equal(part.errors, None) for part in parts])
        return {key: np.where(failed, np.nan, np.concatenate([getattr(part, key) for part in parts]))
                for key in (("v", "normB2") if want_normB2 else ("v",))}

    @np.errstate(all="ignore")
    def at(self, points, order, reference_frame=None) -> _PointFields:
        """The fields of order-`order` jets of F at `points` (P, n), each jet evaluated once.

        Each point's first jet failure, g, det g and v = sqrt(det g); at order 2
        the normal parts B of the second partials, |B|^2 = tr(g^-1 B g^-1 B) and
        |H| = |g^ij B_ij|; given a frame, the alignment function
        w = det<d_j F, a_k> / v.  Nothing is decided here: the det g test of
        `point_geometry_at` (`add_rank_errors`) is the caller's.
        """
        n = self.n
        points = np.asarray(points, dtype=float)
        jets = evaluate_immersion(self.imm, points, order)
        coeffs = np.stack([jet.coeffs for jet in jets]).transpose(2, 0, 1).copy()  # (coef, A, P)
        index = _table(n, order).index

        def coefficient(*axes):  # of u_axes[0] u_axes[1] ... in every component: (A, P)
            return coeffs[index[tuple(axes.count(k) for k in range(n))]]

        # every sum runs over the leading axis of its operands in order (`_dot`), so that
        # a node's values do not depend on how many nodes share its call
        dF = np.stack([coefficient(i) for i in range(n)], axis=1)  # (A, i, P)
        g = _dot(dF[:, :, None], dF[:, None])  # (i, j, P)
        det, cof = _det_cofactors([list(row) for row in g])
        out = _PointFields(points, first_failures(jets, len(points)), g, det, np.sqrt(det))
        if order == 2:
            ginv = np.array(cof) / det  # the adjugate over det: g is symmetric
            # geometry._hessian's pair route on values, once per pair q = (i <= j): the normal
            # part B_q = F_q - d_l F g^lk <d_k F, F_q>; the coefficient of u_i^2 is half d_i^2 F
            pairs = [(i, j) for i in range(n) for j in range(i, n)]
            F2 = np.stack([coefficient(i, j) * (2.0 if i == j else 1.0) for i, j in pairs], axis=1)
            c = _dot(dF[:, :, None], F2[:, None])  # <d_k F, F_q>: (k, q, P)
            d = _dot(ginv[:, :, None], c[:, None])  # g^lk c_kq: (l, q, P)
            B = F2 - _dot(dF.swapaxes(0, 1)[:, :, None], d[:, None])  # (A, q, P)
            out.B = B[:, [[pairs.index((min(i, j), max(i, j))) for j in range(n)] for i in range(n)]]
            # g^-1 B as (k, A, j, P); |B|^2 = <(g^-1 B)_kj, (g^-1 B)_jk> and H its trace
            raised = _dot(ginv[:, :, None, None], out.B.swapaxes(0, 1)[:, None])
            P = len(points)
            out.normB2 = _dot(raised.reshape(-1, P), raised.swapaxes(0, 2).reshape(-1, P))
            H = np.trace(raised, axis1=0, axis2=2)  # (A, P)
            out.normH = np.sqrt(_dot(H, H))
        if reference_frame is not None:
            a = np.asarray(reference_frame, dtype=float)
            pairing = list(_dot(dF[:, :, None], a.T[:, None, :, None]))  # <d_j F, a_k>: (j, k, P)
            out.w = _det(pairing, [_cofactor(pairing, 0, k) for k in range(n)]) / out.v
        return out

    @np.errstate(all="ignore")
    def boundary(self, radii, dirs):
        """rho[b, j]: where the ray along the unit vector dirs[j] leaves Omega_radii[b].

        One batched search for every ray of every ball: dist2 >= |x|^2, so the
        ray's boundary lies in [0, R].  The first step scans [0, R] at
        SEARCH_SAMPLES points, ends included; the last sample inside and the
        first outside are the ray's bracket [lo, hi].  Each later step takes
        dist2 at x and x -+ tau, tau = 2 ulps of x, and the bracket shrinks to
        the two of lo, these and hi around the boundary, so an x within tau of
        it closes the bracket.  x is the regula falsi point of log(dist2 / R^2)
        against log s, exact where dist2 is a power of s, with the Illinois
        rule (an end kept twice running counts half), kept at least tau inside
        the bracket; from lo = 0 the line has slope 2, that of dist2 at a
        smooth origin.  No derivative is taken.  A ray is done once its bracket
        is SEARCH_ULPS ulps wide, and rho is its inner end; a ray's steps read
        its own samples only.  CheckConfigError when F(0) or F at a sample is
        not finite, when dist2 falls between a step's sorted samples of a ray
        by more than rounding (Omega_R is not star-shaped there), or when a
        bracket is still open after SEARCH_STEPS steps, the scan included;
        each names the first ball, in the order of `radii`, that it happens on.
        """
        if not np.all(np.isfinite(self.f0)):
            raise CheckConfigError("graph undefined at the origin: F(0) is not finite")
        n_dirs, eps = len(dirs), np.finfo(float).eps
        R = np.repeat(np.asarray(radii, dtype=float), n_dirs)
        # rounding of dist2 near R^2: the graph part is a difference of values near F(0)
        slack = STAR_ULPS * eps * R * (R + math.sqrt(float(np.sum(self.f0**2))))
        ray, u = np.arange(R.size), np.tile(dirs, (len(radii), 1)).T  # the open rays

        def sample(s):
            """dist2 at s (samples, open rays); CheckConfigError where it is not finite."""
            d = self.dist2([u_a * s for u_a in u])
            if not np.isfinite(d).all():
                ball, undefined = ray // n_dirs, np.sum(~np.isfinite(d), axis=0)
                mine = ball == ball[np.argmax(undefined > 0)]
                raise CheckConfigError(
                    f"graph undefined on {int(np.sum(undefined[mine]))} of {mine.sum() * len(s)} "
                    f"boundary-search samples within radius {radii[ball[mine][0]]}")
            return d

        def star_shaped(d, slack):
            """CheckConfigError where dist2 d (sorted samples, open rays) falls by over slack."""
            falls = d[1:] - d[:-1] < -slack
            if falls.any():
                ball = ray[np.argmax(falls.any(axis=0))] // n_dirs
                raise CheckConfigError(f"Omega_R is not star-shaped along a sampled ray "
                                       f"within radius {radii[ball]}")

        s = np.linspace(0.0, 1.0, SEARCH_SAMPLES)[:, None] * R
        s[-1] = R
        d = sample(s)
        star_shaped(d, slack)
        # s[0] = 0 is inside, so the first sample outside, if any, is s[1] or later; a ray
        # without one has the bracket [R, R]
        first = np.argmax(d > R**2, axis=0)
        pair = (np.where(first, [first - 1, first], SEARCH_SAMPLES - 1), ray)
        # a row each per open ray: lo, hi, dist2 at both, the Illinois weights of both, the
        # end that the last step kept (1: lo, 4: hi), R^2 and the slack
        state = np.empty((9, R.size))
        state[:2], state[2:4], state[4:6] = s[pair], d[pair], 1.0
        state[6], state[7], state[8] = 0.0, R**2, slack
        rho = np.empty(R.size)
        offsets = np.array([[-1.0], [0.0], [1.0]])  # x - tau, x, x + tau
        pick = np.array([[-1], [0], [4], [5]])  # lo, hi and their dist2, from the first outside
        held = np.array([[1], [4]])  # the first sample outside when a step keeps lo, hi
        for step in range(SEARCH_STEPS):
            if step:  # the first step was the scan
                lo, hi, d_lo, d_hi, w_lo, _, kept, R2, slack = state
                # log(dist2 / R^2) at lo and hi; dist2 = R^2 at lo counts as rounded from
                # below, or the line would meet zero at lo itself
                g = np.log(state[2:4] / R2)
                g[0] = np.minimum(g[0], -eps / 2.0)
                g *= state[4:6]
                # the line's step down from hi in log s, log(hi / lo) from the exact hi - lo
                log_ratio = np.log1p((hi - lo) / lo)
                down = np.where(lo > 0, g[1] * log_ratio / (g[1] - g[0]), g[1] / (2.0 * w_lo))
                x = hi * np.exp(-down)
                tau = 2.0 * np.spacing(x)
                x = np.minimum(np.maximum(x, lo + tau), hi - tau)  # strictly inside [lo, hi]
                # the sorted samples lo, x - tau, x, x + tau, hi, then their dist2
                sd = np.empty((10, ray.size))
                sd[0], sd[1:4], sd[4] = lo, x + tau * offsets, hi
                sd[5], sd[6:9], sd[9] = d_lo, sample(sd[1:4]), d_hi
                star_shaped(sd[5:], slack)
                # lo is inside and hi outside, so the first sample outside is x - tau or later
                first = np.argmax(sd[5:] > R2, axis=0)
                state[:4] = sd.ravel()[(first + pick) * ray.size + np.arange(ray.size)]
                # the Illinois rule: an end kept twice running counts half as much
                halved = state[4:6] * np.where(first == kept, 0.5, 1.0)
                state[4:6], state[6] = np.where(first == held, halved, 1.0), first
            lo, hi = state[:2]
            done = hi - lo <= SEARCH_ULPS * eps * hi
            if done.any():
                rho[ray[done]] = lo[done]
                ray, u, state = ray[~done], u[:, ~done], state[:, ~done]
            if not ray.size:
                return rho.reshape(len(radii), n_dirs)
        raise CheckConfigError(f"quadrature did not converge: the boundary of Omega_R is not "
                               f"located within {SEARCH_STEPS} search steps")


@lru_cache(maxsize=None)
def _gauss(nodes: int):
    """Gauss-Legendre nodes and weights of [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def _directions(n: int, N: int):
    """The rays of level N as unit vectors (D, n) and their weights on the unit sphere.

    n = 2: N equally spaced angles, weight 2 pi / N each, so the rays of
    level N are the even rays of level 2N.  n = 3: those angles times N
    Gauss nodes in cos(phi), D = N^2.
    """
    theta = 2.0 * math.pi * np.arange(N) / N
    if n == 2:
        return np.stack([np.cos(theta), np.sin(theta)], axis=1), np.full(N, 2.0 * math.pi / N)
    c, w = np.polynomial.legendre.leggauss(N)
    sin = np.sqrt(1.0 - c * c)
    dirs = np.stack([np.outer(sin, np.cos(theta)).ravel(), np.outer(sin, np.sin(theta)).ravel(),
                     np.repeat(c, N)], axis=1)
    return dirs, np.repeat(w * (2.0 * math.pi / N), N)


class _BallRule:
    """A boundary-fitted Gauss rule over the extrinsic balls Omega_R of one check.

    Level N integrates over each ball on the rays of `_directions(n, N)`,
    with N Gauss-Legendre nodes r = rho t_k on each, rho the ray's boundary
    radius: N^n nodes per ball, weight rho^n w_k t_k^(n-1) times the ray's.
    `sizes` are the levels, powers of two: N0 / 2, then N0 = min(16, cells)
    doubled while it stays within `cells` (each rounded down to a power of
    two), so a ball takes at most cells^n <= 2^24 nodes per level.  N / 2
    is even: were it odd, the new rays of level N would be the antipodes of
    level N / 2's, and on a centrally symmetric ball (an affine graph's)
    Q_N = Q_(N/2) whatever the error.  `integrate` reads N0 / 2 and N0
    before it can compare them, so those two are computed together and
    each later level alone.  Levels computed together take one
    `_GraphFields.boundary` search for every ball's new rays (n = 2: the
    last level's rays, whose even rays are the level below's, and level 2N
    reuses level N's; n = 3: every level's rays) and one
    `_GraphFields.fields` call per jet order: order 2, for v and |B|^2, at
    the balls of `normB2_radii`, order 1, for v, at the others.  Both are
    split by balls to stay within NODE_BUDGET, a search by its largest
    `dist2` call, the scan of SEARCH_SAMPLES samples per ray; its later
    steps take 3 per ray.  Levels are computed on
    first use and kept, a failure too, so a sweep shares them between
    integrands.  A failed search fails every level it searched for; a
    level whose nodes are undefined names the first such ball in the order
    of `radii`.
    """

    def __init__(self, gf: _GraphFields, radii, cells: int, normB2_radii=()):
        self.gf = gf
        self.radii = list(dict.fromkeys(radii))  # each distinct ball once, in order
        self.curved = [R in normB2_radii for R in self.radii]  # whose |B|^2 is read
        top = 1 << (int(cells).bit_length() - 1)  # the largest power of two within cells
        self.sizes = [min(8, top // 2)]
        while self.sizes[-1] < top:
            self.sizes.append(2 * self.sizes[-1])
        self._rho, self._levels = {}, {}

    def level(self, N: int) -> list:
        """Per ball, its nodes' weights "w", "v" and maybe "normB2"; CheckConfigError if it fails."""
        if N not in self._levels:
            together = self.sizes[:2] if N in self.sizes[:2] else [N]
            try:
                self._levels.update(self._compute(together))
            except CheckConfigError as exc:
                self._levels.update(dict.fromkeys(together, str(exc)))
        if isinstance(self._levels[N], str):
            raise CheckConfigError(self._levels[N])
        return self._levels[N]

    def _compute(self, sizes: list) -> dict:
        """Each level of `sizes` as `level` gives it, or why it fails; raises on a failed search."""
        gf, n, balls = self.gf, self.gf.n, len(self.radii)
        rays = [_directions(n, N) for N in sizes]
        if n == 2:  # level N's rays are the even rays of the last level
            dirs, known = rays[-1][0], self._rho.get(sizes[-1] // 2)
            cols = [slice(0, None, sizes[-1] // N) for N in sizes]
        else:  # Gauss nodes in cos(phi) do not nest: each level's rays are its own
            dirs, known = np.concatenate([d for d, _ in rays]), None
            starts = np.cumsum([0] + [N * N for N in sizes])
            cols = [slice(a, b) for a, b in zip(starts, starts[1:])]
        rho = np.empty((balls, len(dirs)))
        new = slice(None) if known is None else slice(1, None, 2)
        if known is not None:
            rho[:, ::2] = known
        step = max(1, NODE_BUDGET // (len(dirs[new]) * SEARCH_SAMPLES))  # balls per search
        for b in range(0, balls, step):
            rho[b:b + step, new] = gf.boundary(self.radii[b:b + step], dirs[new])
        self._rho[sizes[-1]] = rho
        levels = []  # per level: its rays, each ball's radial nodes (ray, node) and its weights
        for N, (d, dir_w), col in zip(sizes, rays, cols):
            t, w = _gauss(N)
            r = rho[:, col, None]
            levels.append((d, r * t, (r**n * dir_w[:, None] * (w * t ** (n - 1))).reshape(balls, -1)))
        # a ball's row of a `fields` call holds its nodes level by level, each level's up to `ends`
        ends = np.cumsum([N**n for N in sizes])
        step = max(1, NODE_BUDGET // ends[-1])  # balls per `fields` call
        fields = [{} for _ in range(balls)]  # per ball and key, each level's values
        for want in (False, True):
            group = [b for b in range(balls) if self.curved[b] == want]
            for g in range(0, len(group), step):
                chunk = group[g:g + step]
                axes = [np.concatenate([(radial[chunk] * d[:, a, None]).reshape(len(chunk), -1)
                                        for d, radial, _ in levels], axis=1).ravel() for a in range(n)]
                for key, value in gf.fields(axes, want).items():
                    for b, row in zip(chunk, value.reshape(len(chunk), -1)):
                        fields[b][key] = np.split(row, ends[:-1])
        out = {}
        for i, (N, (_, _, weights)) in enumerate(zip(sizes, levels)):
            level = [{key: values[i] for key, values in ball.items()} for ball in fields]
            reasons = (_undefined(list(ball.values()), f"quadrature nodes inside the extrinsic "
                                  f"ball of radius {R}") for R, ball in zip(self.radii, level))
            # the level, or why the first of its balls with undefined nodes fails
            out[N] = next(filter(None, reasons), None) or [
                {"w": w, **ball} for w, ball in zip(weights, level)]
        return out

    def integrate(self, integrals: Callable, radii: list):
        """(Q_N, |Q_N - Q_(N/2)|, N, level N) of `integrals(level) -> [Q]` at the first level
        whose every estimate is at most QUAD_REL_FLOOR |Q_N|.

        `radii[i]` is the ball of integral i: a not-converged reason names the
        first integral whose estimate misses the floor.
        """
        previous = None
        for N in self.sizes:
            level = self.level(N)
            values = integrals(level)
            if previous is not None:
                errors = [abs(q - p) for q, p in zip(values, previous)]
                missed = [i for i, (e, q) in enumerate(zip(errors, values))
                          if not e <= QUAD_REL_FLOOR * abs(q)]
                if not missed:
                    return values, errors, N, level
            previous = values
        i = missed[0]
        raise CheckConfigError(
            f"quadrature did not converge: relative error estimate "
            f"{errors[i] / abs(values[i]) if values[i] else math.inf:.2g} > "
            f"{QUAD_REL_FLOOR:g} at {N} nodes per axis within radius {radii[i]}")


def _undefined(arrays, what: str) -> str | None:
    """Why one of `arrays` is not finite at one of its entries, or None."""
    undefined = int(np.sum(~np.logical_and.reduce([np.isfinite(a) for a in arrays])))
    return f"graph undefined on {undefined} of {arrays[0].size} {what}" if undefined else None


@dataclass
class GrowthTable:
    """Extrinsic-ball statistics for probing polynomial-growth hypotheses."""

    radii: list
    volumes: list
    max_v: list
    half_volumes: list
    volume_ratios: list  # V(R) / V(R/2)
    volume_exponent: float | None
    slope_exponent: float | None
    v_over_R23: list  # max_v(R) / R^(2/3)
    flags: dict
    cells: int  # the cap on nodes_per_axis
    nodes_per_axis: int  # N of the level every volume converged at
    volume_errors: list  # |Q_N - Q_(N/2)| of each volume
    half_volume_errors: list


def quadrature_cells_fault(cells: int, n: int) -> str | None:
    """Why the node cap `cells` is not an integer with 4 <= cells, cells^n <= 2^24 (128 MB per
    float array), or None; an integral float counts, as in a config."""
    if not (isinstance(cells, (int, np.integer)) or isinstance(cells, float) and cells.is_integer()):
        return f"cells must be an integer, got {cells!r}"
    if cells < 4:
        return f"cells must be at least 4, got {cells}"
    return None if cells**n <= 2**24 else f"cells^{n} must be at most 2^24, got {cells}^{n}"


def growth_option_fault(key: str, value, n: int) -> str | None:
    """Why a growth option breaks its rule on an n-dimensional domain, or None when it holds."""
    if key == "cells":
        return quadrature_cells_fault(value, n)
    if not all(math.isfinite(r) for r in value):
        return f"radii must be finite, got {value}"
    if value and value[0] > 0 and all(r2 > r1 for r1, r2 in zip(value, value[1:])):
        return None
    return f"radii must be non-empty, positive and strictly increasing, got {value}"


def growth_table(imm: Immersion, radii,
                 cells: int = CHECKS["growth"].options["cells"]) -> GrowthTable:
    """Volumes of the extrinsic balls Omega_R and Omega_(R/2), from one `_BallRule`.

    Omega_R = {x : |x|^2 + |f(x) - f(0)|^2 <= R^2} is integrated in polar
    (n = 3: spherical) coordinates up to its boundary on each ray, found
    from f alone.  The levels double up to `cells` nodes per axis until
    every volume's estimate |Q_N - Q_(N/2)| is at most QUAD_REL_FLOOR of
    it; max_v is the largest v at that level's nodes of Omega_R.  Fails
    where the rule, the probe's too, fails: f or its jets undefined, Omega_R
    not star-shaped along a sampled ray, or no convergence within `cells`.
    """
    radii = [float(r) for r in radii]
    fault = growth_option_fault("radii", radii, imm.n) or growth_option_fault("cells", cells, imm.n)
    if fault:
        raise CheckConfigError(f"growth {fault}")
    pairs = [r for R in radii for r in (R, R / 2.0)]  # each radius, then its half
    rule = _BallRule(_GraphFields(imm), pairs, cells)
    balls = [rule.radii.index(r) for r in pairs]

    def volumes(level):
        return [float(np.sum(level[b]["w"] * level[b]["v"])) for b in balls]

    values, errors, N, level = rule.integrate(volumes, pairs)
    volumes, half_volumes = values[0::2], values[1::2]
    max_v = [float(np.max(level[b]["v"])) for b in balls[0::2]]

    ratios = [v / h for v, h in zip(volumes, half_volumes)]
    v_over = [mv / R ** (2.0 / 3.0) for mv, R in zip(max_v, radii)]

    def fit_exponent(values):
        if len(radii) < 2:
            return None
        return float(np.polyfit(np.log(radii), np.log(values), 1)[0])

    omega_n = _UNIT_BALL_VOLUME[imm.n]
    bound_ok = all(
        vol <= mv * omega_n * R**imm.n * (1.0 + 1e-9) + 1e-12
        for vol, mv, R in zip(volumes, max_v, radii)
    )
    slope_exponent = fit_exponent(max_v)
    flags = {
        "volume_monotone": all(b >= a * (1.0 - 1e-12) for a, b in zip(volumes, volumes[1:])),
        "volume_bound_ok": bound_ok,
        "v_ratio_strictly_increasing": all(b > a for a, b in zip(v_over, v_over[1:])),
        # empirical stand-ins for the rigidity hypotheses: max v = o(R^(2/3))
        # and slope growth strictly below linear
        "v_subcritical": all(b <= a for a, b in zip(v_over, v_over[1:])),
        "slope_below_linear": slope_exponent is not None and slope_exponent < 1.0 - 1e-6,
    }
    return GrowthTable(
        radii=radii,
        volumes=volumes,
        max_v=max_v,
        half_volumes=half_volumes,
        volume_ratios=ratios,
        volume_exponent=fit_exponent(volumes),
        slope_exponent=slope_exponent,
        v_over_R23=v_over,
        flags=flags,
        cells=cells,
        nodes_per_axis=N,
        volume_errors=errors[0::2],
        half_volume_errors=errors[1::2],
    )


def _table_result(name, tol, verdict, worst=None, n_points=0, table=None, fields=(),
                  reason=None, **extras) -> CheckResult:
    """A growth or probe result: extras are `table`'s `fields` by name, then `extras`."""
    return CheckResult(
        name=name, tolerance=CHECKS[name].tol if tol is None else tol,
        worst_residual=worst, verdict=verdict, n_points=n_points, n_skipped=0,
        extras={**{key: getattr(table, key) for key in fields}, **extras}, reason=reason,
    )


def growth_check_result(imm, radii, cells, tol) -> tuple[CheckResult, GrowthTable | None]:
    """Wrap the growth table as a check: volume monotonicity and V(R) <= max v omega_n R^n.

    Not applicable, with no table and its reason, when `growth_table` raises.
    """
    try:
        table = growth_table(imm, radii, cells)
    except CheckConfigError as exc:
        return _table_result("growth", tol, "not-applicable", reason=str(exc)), None
    ok = table.flags["volume_monotone"] and table.flags["volume_bound_ok"]
    fields = ("radii", "volumes", "max_v", "volume_ratios", "volume_exponent",
              "slope_exponent", "v_over_R23", "flags", "nodes_per_axis", "volume_errors",
              "half_volume_errors")
    return _table_result("growth", tol, "pass" if ok else "fail", 0.0 if ok else 1.0,
                         len(table.radii), table, fields), table


# -- estimate probes -----------------------------------------------------------------

@dataclass(frozen=True)
class ProbeParams:
    """Exponents and radii for the integral curvature-estimate probes.

    The integral probes need t >= 3 and q > (3t-3)/2; the pointwise
    subharmonicity probe uses its own (s, q) pair via the dedicated check.
    """

    t: float = 3.0
    q: float = 4.0
    s: float = 1.0
    R: float = 1.0
    R0: float = 0.5
    cells: int = 256

    def validate(self):
        for name in ("t", "q", "s", "R", "R0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise CheckConfigError(f"probe requires finite parameters, got {name}={value}")
        if self.t < 3.0:
            raise CheckConfigError(f"probe requires t >= 3, got t={self.t}")
        if self.q <= (3.0 * self.t - 3.0) / 2.0:
            raise CheckConfigError(
                f"probe requires q > (3t-3)/2 = {(3 * self.t - 3) / 2}, got q={self.q}"
            )
        if self.s < 1.0:
            raise CheckConfigError(f"probe requires s >= 1, got s={self.s}")
        if not (0.0 < self.R0 < self.R):
            raise CheckConfigError(f"probe requires 0 < R0 < R, got R0={self.R0}, R={self.R}")


@dataclass
class ProbeRecord:
    params: ProbeParams
    applicable: bool
    reason: str | None = None
    lp_lhs: float | None = None  # || |B|^2 v^(2q/t) ||_{L^t(B_R0)}
    lp_rhs: float | None = None  # || v^(2q/t) ||_{L^t(B_R)}
    implied_c3: float | None = None  # lhs (R - R0)^2 / rhs
    pointwise_lhs: float | None = None  # (|B|^2 v^3)(0)
    max_v: float | None = None
    volume_R: float | None = None
    volume_half_R: float | None = None
    implied_c4: float | None = None  # lhs R^2 (max v)^-3 (V(R)/V(R/2))^(-1/t)
    nodes_per_axis: int | None = None  # N of the level every integral converged at
    errors: dict | None = None  # |Q_N - Q_(N/2)| of each integral, lp_lhs^t and lp_rhs^t as lhs_t, rhs_t


def _now(compute, slot, *inputs):
    """The `_once` hook of a stand-alone run: compute every piece of work."""
    return compute()


def estimate_probe(imm: Immersion, reference_frame, params: ProbeParams, *,
                   _once=_now) -> ProbeRecord:
    """Evaluate both sides of the integral estimates and report implied constants.

    The probes are reported, never asserted: the constants in the estimates
    are non-constructive, so only the measured quotients are meaningful.
    The hypotheses are decided at three points near the origin from their
    order-2 fields (`_GraphFields.at`) and the det g test of
    `point_geometry_at`, by the grid checks' rules and in their words, and
    the pointwise term (|B|^2 v^3)(0) reads the first of them.  The integrals
    over Omega_R, Omega_R0 and Omega_(R/2), each distinct ball once, come
    from one `_BallRule`, growth's rule too, and are not applicable where
    it fails; only Omega_R0's integrand reads |B|^2, so only its nodes take
    order-2 jets.  `_once(compute, slot, *inputs)` gives the hypothesis fields
    and the rule, whose levels a sweep shares between values of t, q and s.
    """
    params.validate()
    fault = quadrature_cells_fault(params.cells, imm.n)
    if fault:
        raise CheckConfigError(f"probe {fault}")
    t, q = params.t, params.q

    reason = _GraphFields.not_a_graph(imm)
    if reason:
        return ProbeRecord(params=params, applicable=False, reason=reason)

    @np.errstate(all="ignore")  # prod g_ii may overflow
    def hypotheses():
        # the first of the three points that fails a hypothesis gives the first it fails;
        # a jet failure comes first, then the det g test of point_geometry_at
        at = _GraphFields(imm).at([(0.1 * k,) * imm.n for k in (0, 1, 3)], 2, reference_frame)
        add_rank_errors(at.errors, at.points, at.det, np.diagonal(at.g))
        names = ("minimal", "rank") + (("aligned",) if reference_frame is not None else ())
        return at, next(filter(None, at.skips(names).skip), None)

    radii = [params.R0, params.R, params.R, params.R / 2.0]  # the ball of each integral

    def balls():  # the rule, or why it cannot be built
        try:
            return _BallRule(_GraphFields(imm), radii, params.cells, normB2_radii={params.R0})
        except CheckConfigError as exc:
            return str(exc)

    at, reason = _once(hypotheses, "probe origin", reference_frame)
    if reason is not None:
        return ProbeRecord(params=params, applicable=False, reason=reason)
    rule = _once(balls, "probe balls", params.R, params.R0, params.cells)
    if isinstance(rule, str):
        return ProbeRecord(params=params, applicable=False, reason=rule)
    in_R0, in_R, _, in_half = (rule.radii.index(r) for r in radii)

    def integrals(level):
        # the volume element is v dx: L^t norms carry one extra factor of v
        b0, b, half = level[in_R0], level[in_R], level[in_half]
        return [float(np.sum(b0["w"] * b0["normB2"] ** t * b0["v"] ** (2 * q + 1))),
                float(np.sum(b["w"] * b["v"] ** (2 * q + 1))),
                float(np.sum(b["w"] * b["v"])), float(np.sum(half["w"] * half["v"]))]

    try:
        (lhs_t, rhs_t, volume_R, volume_half), errors, N, level = rule.integrate(integrals, radii)
    except CheckConfigError as exc:
        return ProbeRecord(params=params, applicable=False, reason=str(exc))
    # v >= 1 on a graph and every weight is positive, so lp_rhs, volume_half and max_v are > 0
    lp_lhs = lhs_t ** (1.0 / t)
    lp_rhs = rhs_t ** (1.0 / t)
    implied_c3 = lp_lhs * (params.R - params.R0) ** 2 / lp_rhs

    pointwise_lhs = float(at.normB2[0]) * float(at.v[0]) ** 3
    max_v = float(np.max(level[in_R]["v"]))
    implied_c4 = pointwise_lhs * params.R**2 * max_v**-3 * (volume_R / volume_half) ** (-1.0 / t)

    return ProbeRecord(
        params=params, applicable=True,
        lp_lhs=lp_lhs, lp_rhs=lp_rhs, implied_c3=implied_c3,
        pointwise_lhs=pointwise_lhs, max_v=max_v, volume_R=volume_R,
        volume_half_R=volume_half, implied_c4=implied_c4, nodes_per_axis=N,
        errors=dict(zip(("lhs_t", "rhs_t", "volume_R", "volume_half_R"), errors)),
    )


def probe_check_result(imm, reference_frame, params, sub, tol, *, _once=_now):
    """Wrap a probe as a check: only the subharmonicity part is asserted.

    `sub` is the grid result of the probe's own ("subharmonicity", params.s,
    params.q) check, or None when the grid was not evaluated for it.  Not
    applicable, with `sub`'s reason, when that part evaluated no grid point.
    """
    record = estimate_probe(imm, reference_frame, params, _once=_once)
    evaluated = 0 if sub is None else sub.n_points - sub.n_skipped
    fields = ("applicable", "implied_c3", "implied_c4", "lp_lhs", "lp_rhs", "pointwise_lhs",
              "max_v", "volume_R", "volume_half_R", "nodes_per_axis", "errors")
    if record.applicable and evaluated:
        verdict, worst, reason = sub.verdict, sub.worst_residual, None
    else:
        verdict, worst = "not-applicable", None
        reason = record.reason or (sub.reason if sub else "no points evaluated")
    return _table_result("probe", tol, verdict, worst, evaluated if record.applicable else 0,
                         record, fields, reason, subharmonicity_points=evaluated), record
