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
only place a hypothesis is decided: alignment-identities' note and the
probe's sampled points use it too, and geometry tests none.

Grid checks share one :class:`BlockContext` per block of grid points, sized
by `block_size` so that the block's geometry holds at most BLOCK_BUDGET
bytes at once: the geometry and every derived jet are computed once per
block in array code.  Each check's evaluator computes the residuals of the
points its hypotheses leave live and returns the block's :class:`Columns`;
aggregation reads the blocks' joined columns with numpy.  The per-point
records (`CheckResult.details`) are the library view, built from the
columns on first read; the JSON and CSV writers read the columns directly,
and a JSON report with detail writes each column as one list over the
report's points (`Columns.lists`).
Growth tables and the estimate probes integrate over extrinsic balls with
a masked tensor-product midpoint rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

# evaluate_expression is unused here; perfbench's tracer rebinds it (test_perfbench_names.py)
from .expressions import MAX_DEPTH, _depth, differentiate, evaluate_expression  # noqa: F401
from .geometry import (
    RANK_TOL,
    PointGeometry,
    _det_cofactors,
    _optional,
    alignment_pack_at,
    canonical_frame_at,
    complex_pack_at,
    # the next two are unused here; perfbench's tracer rebinds them (test_perfbench_names.py)
    curvature_pack_at,
    gauss_rank_at,
    gradient_norm2_of_jet,
    laplace_beltrami_of_jet,
    point_geometry_at,
    scalar_field_jet,
)
from .immersions import Immersion, evaluate_array
from .jets import _table, jet_elementary, ordered_einsum

BLOCK_BUDGET = 6 * 2**20  # bytes: the most point_geometry_at may hold at once for one block
MINIMALITY_TOL = 1e-8  # the minimality hypothesis, not the minimality check itself
EQUALITY_THRESHOLD = 1e-4  # looser than identity tolerances by design
IDENTITY_DEEP_TOL = 1e-4  # fourth-order two-route identities

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
    columns: Columns | None = field(default=None, repr=False, compare=False)

    @cached_property
    def details(self) -> list:
        """One record per grid point, built from `columns` (none for growth and probe)."""
        return [] if self.columns is None else self.columns.records()


class BlockContext:
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

    @cached_property
    def canon(self):
        return canonical_frame_at(self.pg)

    @cached_property
    def apack(self):
        return alignment_pack_at(self.pg, self.reference_frame, self.canon)

    @cached_property
    def cpack(self):
        return complex_pack_at(self.pg)

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
    def minimal(self) -> np.ndarray:
        return self.normH <= MINIMALITY_TOL

    @cached_property
    def flat(self) -> np.ndarray:  # where the second fundamental form vanishes
        return self.pg.normB2 <= RANK_TOL

    def skips(self, hypotheses) -> Columns:
        """The block's Columns, each point skipped for the first hypothesis it fails.

        Evaluation errors come first, then each name of `hypotheses` in turn: a
        key of _HYPOTHESES, or a `laplacian` field whose jet must not fail.  No
        later name is computed once every point is skipped.
        """
        skips = Columns(self.points, np.full(len(self.points), None, dtype=object))
        skips.fail(self.pg.errors)
        for name in hypotheses:
            if skips.done:
                break
            if name in _HYPOTHESES:
                skips.fail(_HYPOTHESES[name](self), prefix="")
            else:
                skips.fail(self.laplacian(name)[1])
        return skips

    def laplacian(self, field):
        """Per-point Laplacian of a derived field, and the failures of its jet.

        `field` is "normB2", "log-alignment" or ("subharmonic", s, q) for
        |B|^(2s) v^q; each is built once per block.
        """
        if field not in self._laplacians:
            if field == "normB2":
                jet = self.pg.normB2_jet
            elif field == "log-alignment":
                jet = jet_elementary("log", self.apack.jet)
            else:
                _, s, q = field
                jet = _power_jet(self.pg.normB2_jet, s) * _power_jet(self.volume_jet, q)
            self._laplacians[field] = (laplace_beltrami_of_jet(self.pg, jet), jet.failures)
        return self._laplacians[field]


# skip rules by name: block -> each point's reason, None where the rule holds
_HYPOTHESES = {
    "minimal": lambda b: np.where(b.minimal, None, "mean curvature does not vanish"),
    "rank": lambda b: b.canon.errors,  # the canonical frame's Gauss-map rank error
    "curved": lambda b: np.where(b.flat, "second fundamental form vanishes", None),
    "aligned": lambda b: np.where(b.apack.value <= 0.0, "alignment function not positive", None),
}


_ABSENT = ...  # a column value that a record omits; Ellipsis survives pickle and copy


@dataclass
class Columns:
    """One check's results over a run of grid points, column by column.

    `skip` holds each point's skip reason (None: evaluated); a point keeps
    the first reason it is given.  `residual`, `note` (a reason kept at an
    evaluated point) and every `detail` column hold one value per evaluated
    point.  An object column may hold _ABSENT, which a record omits and a
    detail report writes as null.
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

    def records(self) -> list:
        """One dict per point: its skip reason, or its residual, note and detail (the lists zipped)."""
        cols = self.lists(absent=_ABSENT)
        rows = zip(self.points, cols["residual"], cols["skipped"], cols["reason"],
                   *cols["detail"].values())
        return [{"residual": residual, "skipped": skipped, "reason": reason,
                 "detail": {} if skipped else {key: value for key, value in zip(self.detail, values)
                                               if value is not _ABSENT},
                 "point": point} for point, residual, skipped, reason, *values in rows]

    def lists(self, absent=None) -> dict:
        """The columns as lists over every point, as a report with detail writes them.

        `skipped` flags each point, and `reason` holds a skipped point's skip
        reason and an evaluated point's note.  `residual` and each `detail`
        column hold None at a skipped point, and `absent` for an _ABSENT value.
        """
        live = self.live

        def spread(column):
            out = np.full(len(live), None, dtype=object)
            out[live] = column
            if column.dtype == object:
                out[np.equal(out, _ABSENT)] = absent
            return out.tolist()

        reason = self.skip.copy()
        reason[live] = self.note
        return {"residual": spread(self.residual), "skipped": (~live).tolist(),
                "reason": reason.tolist(),
                "detail": {key: spread(column) for key, column in self.detail.items()}}


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
    scale = 1.0 + normB2
    signed = (lap + normB2) / scale  # positive = inequality violated
    equality = np.abs(lap + normB2) / scale
    residual = equality if block.imm.kind == "graph" and block.imm.n == 2 else signed
    return skips.evaluated(residual, signed_violation=signed, equality_residual=equality)


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

    has_canon = np.equal(canon.errors, None)
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
        cp = block.cpack
        has_zeta = np.not_equal(cp.zeta, None)
        zeta = np.where(has_zeta, cp.zeta, 0).astype(complex)
        # in an isothermal chart, equality forces the cubic derivative to be proportional
        # to B_ww; zeta_asserted is false at an equality point of a chart that is not
        asserted = equality & has_zeta & cp.isothermal
        zres = np.array(cp.zeta_residual.tolist(), dtype=float)  # NaN where None
        residual = np.where(asserted, _pymax(residual, zres), residual)
        detail.update(zeta_re=_optional(zeta.real, has_zeta),
                      zeta_im=_optional(zeta.imag, has_zeta), zeta_residual=cp.zeta_residual,
                      xi1=cp.xi1, xi2=cp.xi2,
                      zeta_asserted=_optional(asserted, asserted | equality & ~cp.isothermal,
                                              _ABSENT))
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
    skips.fail({i: exc for i, exc in enumerate(canon.errors) if not convention[i]}, prefix="")
    crit_mu = np.abs(canon.mu1 - canon.mu2) <= tol * (canon.mu1 + canon.mu2 + tol)
    agree = np.ones(len(convention), dtype=bool)
    isothermal, omega = np.zeros(len(convention), dtype=bool), np.zeros(len(convention))
    crit_bww = crit_omega = crit_mu
    if pg.n == 2:
        cp = block.cpack
        isothermal = cp.isothermal
        abs_bww = np.abs(cp.B_ww)
        bww2 = _dot(abs_bww.T, abs_bww.T)
        crit_bww = np.abs(_dot(cp.B_ww.T, cp.B_ww.T)) <= tol * (bww2 + tol)
        omega = np.abs(cp.omega_coeff)
        crit_omega = omega <= tol
        agree = ~isothermal | ((crit_bww == crit_mu) & (crit_omega == crit_mu))
    shown = ~convention  # a convention point's record holds only conformal and criteria
    return skips.evaluated(
        np.where(agree | convention, 0.0, 1.0),
        conformal=crit_mu | convention,
        criteria=_optional(np.full(len(convention), "convention"), convention, _ABSENT),
        agree=_optional(agree, shown, _ABSENT),
        omega=_optional(_optional(omega, isothermal), shown, _ABSENT),
        criterion_mu=_optional(crit_mu, shown, _ABSENT),
        criterion_bww=_optional(crit_bww, isothermal & shown, _ABSENT),
        criterion_omega=_optional(crit_omega, isothermal & shown, _ABSENT),
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
                             _eval_refined_simons, hypotheses=("minimal", "curved", "normB2")),
    "gauss-conformal": _Check(
        1e-6, "agreement of the conformal-point criteria (mu, B_ww, omega)",
        _eval_gauss_conformal, aggregate=_aggregate_gauss_conformal),
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
    tensor jet's pair-table columns, B's: (n + m) n^2 entries of an order-2
    jet's pair count.  The contraction of B that peaks holds three of them
    (its two pair sums and their term); the jets and values the block holds
    then make up the rest.  tracemalloc measures 6.3 to 7.7 such arrays per
    point for n = 2, 3 and m = 1 to 3.
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
    """An object column's values as floats, without its None and _ABSENT ones."""
    return column[np.not_equal(column, None) & np.not_equal(column, _ABSENT)].astype(float)


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


def _dot(xs, ys):
    """sum_k xs[k] * ys[k] over two short lists of per-point arrays."""
    total = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        total += x * y
    return total


class _GraphFields:
    """Vectorized v, |B|^2 and extrinsic distance for a graph immersion.

    Uses symbolic derivatives of the graph components, so the quadrature
    path is independent of the jet pipeline (and cross-checked against it).
    Fields are flat per-point arrays; the n <= 3 algebra is written out.
    The second derivatives, which only |B|^2 reads, are built on first use.
    """

    def __init__(self, imm: Immersion):
        reason = self.not_a_graph(imm)
        if reason:
            raise CheckConfigError(reason)
        self.n, self.m = imm.n, imm.m
        comps = imm.graph_components()
        self.d1 = [[_shallow(differentiate(c, i)) for i in range(imm.n)] for c in comps]
        self.comps = comps
        with np.errstate(all="ignore"):  # F(0) is NaN where the graph is undefined there
            self.f0 = np.array([evaluate_array(c, [np.zeros(1)] * imm.n)[0] for c in comps])

    @staticmethod
    def not_a_graph(imm: Immersion) -> str | None:
        """Why growth and the probe cannot integrate over `imm`, or None for a graph."""
        return None if imm.kind == "graph" else "quadrature fields require a graph immersion"

    @np.errstate(all="ignore")
    def dist2(self, axes):
        """Squared extrinsic distance |x|^2 + sum_a (f^a - f^a(0))^2 to F(0).

        One evaluation of each graph component over `axes`, which broadcast
        together (sparse grid axes give the whole grid); not finite wherever
        F is undefined.
        """
        sq = [(evaluate_array(c, axes) - c0) ** 2 for c, c0 in zip(self.comps, self.f0)]
        # the sum over a first, then |x|^2: a change of order moves cells on the boundary
        return sum(ax**2 for ax in axes) + sum(sq[1:], sq[0])

    @cached_property
    def d2(self):  # f_ij is symmetric: i <= j only
        return [{(i, j): _shallow(differentiate(d1[i], j))
                 for i in range(self.n) for j in range(i, self.n)} for d1 in self.d1]

    @np.errstate(all="ignore")
    def fields(self, axes, want_normB2=False):
        """Per-point volume element v, optionally |B|^2.

        Not finite wherever the graph or its derivatives are undefined.
        """
        rn, rm = range(self.n), range(self.m)
        cols = [[evaluate_array(self.d1[a][i], axes) for a in rm] for i in rn]  # cols[i][a] = f^a_i
        g = [[_dot(cols[i], cols[j]) + (i == j) for j in rn] for i in rn]  # delta_ij + f_i . f_j
        det, cof = _det_cofactors(g)
        out = {"v": np.sqrt(det)}
        if want_normB2:
            ginv = [[c / det for c in row] for row in cof]  # the cofactors are the adjugate: g is symmetric
            # B_ij = F_ij - e_ij^r F_r is the normal part of F_ij = (0, f_ij), F_r = (e_r, f_r),
            # e_ij = g^-1 c_ij, c_ijs = f_ij . f_s; its first n components, -e_ij, enter squared
            B = {}
            for i, j in self.d2[0]:
                fij = [evaluate_array(d2[i, j], axes) for d2 in self.d2]
                c = [_dot(fij, cols[s]) for s in rn]
                e = [_dot(row, c) for row in ginv]
                B[i, j] = B[j, i] = e + [fij[a] - _dot(e, [cols[r][a] for r in rn]) for a in rm]
            # |B|^2 = g^ik g^jl <B_ij, B_kl>: per component, tr(A A) with A = g^-1 B
            out["normB2"] = 0.0
            for comp in range(self.n + self.m):
                A = [[_dot(ginv[i], [B[k, j][comp] for k in rn]) for j in rn] for i in rn]
                out["normB2"] += _dot(sum(A, []), [a for row in zip(*A) for a in row])
        return out

    def box(self, radius: float, cells: int, want_normB2=False):
        """The midpoint cells of [-radius, radius]^n inside Omega_radius, and the cell volume.

        Membership comes from F alone: `dist2` on every cell of the box, which
        holds Omega_radius.  `fields` then runs only on the cells with
        dist2 <= radius^2, in raster order, and the returned arrays (their
        `dist2` included) hold those cells only.  Growth and the probe share
        this rule: CheckConfigError when F(0) is not finite, when F or the
        distance is not finite on a cell of the box (it can be placed neither
        inside nor outside), when v or |B|^2 is not finite on a cell inside,
        when fewer than 8 cells land inside (each naming the radius and the
        count), or when a derivative tree is too deep (`_shallow`).
        """
        if not np.all(np.isfinite(self.f0)):
            raise CheckConfigError("graph undefined at the origin: F(0) is not finite")
        h = 2.0 * radius / cells
        centers = -radius + h * (np.arange(cells) + 0.5)
        dist2 = self.dist2(np.meshgrid(*([centers] * self.n), indexing="ij", sparse=True))
        _require_defined([dist2], f"within radius {radius}")
        inside = dist2 <= radius * radius
        fields = self.fields([centers[i] for i in np.nonzero(inside)], want_normB2)
        n_inside = _require_defined(list(fields.values()),
                                    f"inside the extrinsic ball of radius {radius}")
        if n_inside < 8:
            raise CheckConfigError(f"quadrature too coarse: {n_inside} cells inside radius {radius}")
        fields["dist2"] = dist2[inside]
        return fields, h**self.n


def _shallow(tree):
    """`tree`, or CheckConfigError when deeper than MAX_DEPTH: the bound, not the stack, decides."""
    if _depth(tree) > MAX_DEPTH:
        raise CheckConfigError("graph expression too deep for quadrature")
    return tree


def _require_defined(arrays, where: str) -> int:
    """The cells of `arrays`; CheckConfigError when an array is not finite on one of them."""
    undefined = int(np.sum(~np.logical_and.reduce([np.isfinite(a) for a in arrays])))
    if undefined:
        raise CheckConfigError(f"graph undefined on {undefined} of {arrays[0].size} "
                               f"quadrature cells {where}")
    return arrays[0].size


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
    cells: int


def quadrature_cells_fault(cells: int, n: int) -> str | None:
    """Why `cells` per axis breaks cells^n <= 2^24 (128 MB per float array), or None."""
    return None if cells**n <= 2**24 else f"cells^{n} must be at most 2^24, got {cells}^{n}"


def growth_option_fault(key: str, value, n: int) -> str | None:
    """Why a growth option breaks its rule on an n-dimensional domain, or None when it holds."""
    if key == "cells" and value < 1:
        return f"cells must be at least 1, got {value}"
    if key == "cells":
        return quadrature_cells_fault(value, n)
    if value and value[0] > 0 and all(r2 > r1 for r1, r2 in zip(value, value[1:])):
        return None
    return f"radii must be non-empty, positive and strictly increasing, got {value}"


def growth_table(imm: Immersion, radii,
                 cells: int = CHECKS["growth"].options["cells"]) -> GrowthTable:
    """Quadrature of the volume element over extrinsic balls Omega_R.

    Omega_R = {x : |x|^2 + |f(x) - f(0)|^2 <= R^2} is covered by the box
    [-R, R]^n; a masked midpoint rule integrates v over the cells inside it,
    placed by f alone.  Fails where `_GraphFields.box`, the probe's rule too,
    fails: fewer than 8 cells inside Omega_R, or f undefined or too deep.
    """
    radii = [float(r) for r in radii]
    fault = growth_option_fault("radii", radii, imm.n) or growth_option_fault("cells", cells, imm.n)
    if fault:
        raise CheckConfigError(f"growth {fault}")
    gf = _GraphFields(imm)
    volumes, max_v, half_volumes = [], [], []
    for R in radii:
        (ball, weight), (half, half_weight) = gf.box(R, cells), gf.box(R / 2.0, cells)
        volumes.append(float(np.sum(ball["v"]) * weight))
        max_v.append(float(np.max(ball["v"])))
        half_volumes.append(float(np.sum(half["v"]) * half_weight))

    ratios = [v / h for v, h in zip(volumes, half_volumes)]
    v_over = [mv / R ** (2.0 / 3.0) for mv, R in zip(max_v, radii)]

    def fit_exponent(values):
        if len(radii) < 2:
            return None
        return float(np.polyfit(np.log(radii), np.log(values), 1)[0])

    omega_n = _UNIT_BALL_VOLUME[gf.n]
    bound_ok = all(
        vol <= mv * omega_n * R**gf.n * (1.0 + 1e-9) + 1e-12
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
    """Wrap the growth table as a check: volume monotonicity and the box bound.

    Not applicable, with no table and its reason, when `growth_table` raises.
    """
    try:
        table = growth_table(imm, radii, cells)
    except CheckConfigError as exc:
        return _table_result("growth", tol, "not-applicable", reason=str(exc)), None
    ok = table.flags["volume_monotone"] and table.flags["volume_bound_ok"]
    fields = ("radii", "volumes", "max_v", "volume_ratios", "volume_exponent",
              "slope_exponent", "v_over_R23", "flags")
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
        if self.cells < 8:
            raise CheckConfigError("probe quadrature needs at least 8 cells per axis")


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


def _now(compute, slot, *inputs):
    """The `_once` hook of a stand-alone run: compute every piece of work."""
    return compute()


def estimate_probe(imm: Immersion, reference_frame, params: ProbeParams, *,
                   _once=_now) -> ProbeRecord:
    """Evaluate both sides of the integral estimates and report implied constants.

    The probes are reported, never asserted: the constants in the estimates
    are non-constructive, so only the measured quotients are meaningful.
    The hypotheses are sampled at three points near the origin, and the
    pointwise term (|B|^2 v^3)(0) reads the first of them.  The integrals
    take v and |B|^2 on the cells of Omega_R only; the Omega_R0 and
    Omega_(R/2) cells are among them, picked by their distance.  Not
    applicable where `_GraphFields.box`, growth's rule too, fails.
    `_once(compute, slot, *inputs)` gives the hypothesis block and the box
    outcome, which a sweep shares between values of t, q and s.
    """
    params.validate()
    fault = quadrature_cells_fault(params.cells, imm.n)
    if fault:
        raise CheckConfigError(f"probe {fault}")
    t, q = params.t, params.q

    reason = _GraphFields.not_a_graph(imm)
    if reason:
        return ProbeRecord(params=params, applicable=False, reason=reason)

    def hypotheses():
        # the first of the three points that fails a hypothesis gives the first it fails
        block = BlockContext(imm, [(0.1 * k,) * imm.n for k in (0, 1, 3)], reference_frame)
        names = ("minimal", "rank") + (("aligned",) if reference_frame is not None else ())
        return block, next(filter(None, block.skips(names).skip), None)

    def box():  # the fields and cell volume, or why the ball cannot be integrated
        try:
            return _GraphFields(imm).box(params.R, params.cells, want_normB2=True)
        except CheckConfigError as exc:
            return str(exc)

    block, reason = _once(hypotheses, "probe origin", reference_frame)
    if reason is not None:
        return ProbeRecord(params=params, applicable=False, reason=reason)
    ball = _once(box, "probe box", params.R, params.cells)
    if isinstance(ball, str):
        return ProbeRecord(params=params, applicable=False, reason=ball)
    fields, weight = ball
    v, nb2, dist2 = fields["v"], fields["normB2"], fields["dist2"]  # cells inside Omega_R
    inside_R0 = dist2 <= params.R0**2
    inside_half = dist2 <= (params.R / 2.0) ** 2

    # the volume element is v dx: L^t norms carry one extra factor of v
    lhs_t = float(np.sum((nb2[inside_R0] ** t) * (v[inside_R0] ** (2 * q + 1))) * weight)
    rhs_t = float(np.sum(v ** (2 * q + 1)) * weight)
    lp_lhs = lhs_t ** (1.0 / t)
    lp_rhs = rhs_t ** (1.0 / t)
    implied_c3 = lp_lhs * (params.R - params.R0) ** 2 / lp_rhs if lp_rhs > 0 else None

    pointwise_lhs = float(block.pg.normB2[0]) * float(block.volume_jet.value[0]) ** 3
    max_v = float(np.max(v))
    volume_R = float(np.sum(v) * weight)
    volume_half = float(np.sum(v[inside_half]) * weight)
    implied_c4 = None
    if volume_half > 0 and max_v > 0:
        implied_c4 = (
            pointwise_lhs
            * params.R**2
            * max_v**-3
            * (volume_R / volume_half) ** (-1.0 / t)
        )

    return ProbeRecord(
        params=params, applicable=True,
        lp_lhs=lp_lhs, lp_rhs=lp_rhs, implied_c3=implied_c3,
        pointwise_lhs=pointwise_lhs, max_v=max_v, volume_R=volume_R,
        volume_half_R=volume_half, implied_c4=implied_c4,
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
              "max_v", "volume_R", "volume_half_R")
    if record.applicable and evaluated:
        verdict, worst, reason = sub.verdict, sub.worst_residual, None
    else:
        verdict, worst = "not-applicable", None
        reason = record.reason or (sub.reason if sub else "no points evaluated")
    return _table_result("probe", tol, verdict, worst, evaluated if record.applicable else 0,
                         record, fields, reason, subharmonicity_points=evaluated), record
