"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines.
Tolerances are pinned here and intentionally not shared with library code.
"""

import json
import math

import numpy as np
import pytest

from curvlab import checks as C
from curvlab.expressions import evaluate_expression
from curvlab.geometry import (
    complex_pack_at,
    curvature_pack_at,
    laplace_beltrami_of_jet,
    point_geometry_at,
    scalar_field_jet,
)
from curvlab.immersions import GridSpec, build_graph_immersion, catalogue_lookup
from curvlab.jets import Jet, jet_constant, jet_extract, jet_variable, multi_indices
from curvlab.scenario import CheckSpec, emit_report, load_config, run_checks, run_scenario

import oracles
from oracles import at_point, column, gauss_rank, rel_err, value_at

COORD_PLANE = np.eye(2, 4)


def verdict(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"acceptance criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def z2():
    return catalogue_lookup("holo-curve", {"coeffs": [0, 0, 1]})


@pytest.fixture(scope="module")
def z2_full_config():
    from importlib import resources

    raw = json.loads((resources.files("curvlab") / "scenarios" / "z2-full.json").read_text())
    return raw


@pytest.fixture(scope="module")
def z2_full_report(z2_full_config):
    return run_scenario(load_config(z2_full_config), jobs=1)


def _expression_pool(rng):
    """Catalogue component expressions with randomized parameters."""
    pool = []
    for _ in range(4):
        slopes = rng.uniform(-1.5, 1.5, size=(2, 2)).tolist()
        imm = catalogue_lookup("affine", {"slopes": slopes})
        pool.extend((c, imm.n) for c in imm.graph_components())
    for _ in range(4):
        deg = int(rng.integers(2, 5))
        coeffs = [float(round(c, 3)) for c in rng.uniform(-1, 1, size=deg + 1)]
        imm = catalogue_lookup("holo-curve", {"coeffs": coeffs})
        pool.extend((c, imm.n) for c in imm.graph_components())
    for name in ("catenoid", "helicoid", "enneper"):
        imm = catalogue_lookup(name, {})
        pool.extend((c, imm.n) for c in imm.components[:3])
    cyl = catalogue_lookup("cylinder-over", {"base": "catenoid"})
    pool.extend((c, cyl.n) for c in cyl.components[:3])
    return pool


def test_criterion_1_jet_kernel_vs_finite_differences():
    rng = np.random.default_rng(20240817)
    pool = _expression_pool(rng)
    picks = rng.choice(len(pool), size=20, replace=False)
    worst = 0.0
    for idx in picks:
        node, dim = pool[idx]

        def f(coords):
            return evaluate_expression(node, list(coords))

        for _ in range(10):
            point = rng.uniform(-1.2, 1.2, size=dim)
            jets = [jet_variable(i, point[i], dim, 4) for i in range(dim)]
            value = evaluate_expression(node, jets)
            if not isinstance(value, Jet):
                value = jet_constant(float(value), dim, 4)
            for alpha in multi_indices(dim, 4):
                fd = oracles.richardson_derivative(f, point, alpha, h=0.1)
                worst = max(worst, rel_err(jet_extract(value, alpha), fd))
    verdict(1, worst <= 1e-6, f"20 expressions x 10 points, all |alpha| <= 4: worst rel err {worst:.2e}")


def test_criterion_2_affine_plane():
    imm = catalogue_lookup("affine", {})
    grid = GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (11, 11))
    plane = at_point(point_geometry_at, imm, (0.0, 0.0)).tangent_frame
    worst = 0.0
    ranks = set()
    for point in grid.points():
        pg = at_point(point_geometry_at, imm, point)
        worst = max(
            worst,
            pg.normB2,
            pg.nablaB2,
            float(np.linalg.norm(pg.mean_curvature)),
            abs(at_point(lambda pg: laplace_beltrami_of_jet(pg, scalar_field_jet(pg, "alignment", plane)),
                         imm, point)),
        )
        ranks.add(at_point(gauss_rank, imm, point)[0])
    verdict(2, worst <= 1e-12 and ranks == {0}, f"affine: worst quantity {worst:.2e}, ranks {ranks}")


def test_criterion_3_holomorphic_curve(z2, z2_full_report):
    report = {r.name: r for r in z2_full_report.results}
    ok = True
    notes = []

    minimality = report["minimality"].worst_residual
    ok &= minimality <= 1e-10
    notes.append(f"|H| {minimality:.1e}")

    nb0 = at_point(point_geometry_at, z2, (0.0, 0.0)).normB2
    ok &= rel_err(nb0, 16.0) <= 1e-8
    notes.append(f"|B|^2(0) = {nb0}")

    ratios = column(report["simons"], "ratio")
    ratio_dev = max(abs(r - 1.5) for r in ratios)
    ok &= len(ratios) == 441 and ratio_dev <= 1e-5
    notes.append(f"ratio dev {ratio_dev:.1e} at {len(ratios)} pts")

    gaps = [abs(gap) for gap in column(report["kato"], "gap")]
    ok &= max(gaps) <= 1e-5
    notes.append(f"|gap| {max(gaps):.1e}")

    dlogw = report["log-alignment"].worst_residual
    ok &= dlogw <= 1e-5
    notes.append(f"dlog residual {dlogw:.1e}")

    omega = report["gauss-conformal"].extras["omega_max"]
    ok &= omega <= 1e-10
    notes.append(f"|omega| {omega:.1e}")

    unanimous = all(
        mu == bww == omega
        for mu, bww, omega in zip(*(column(report["gauss-conformal"], key) for key in
                                    ("criterion_mu", "criterion_bww", "criterion_omega")))
        if mu is not None
    )
    ok &= unanimous and report["gauss-conformal"].extras["all_conformal"]
    notes.append("criteria unanimous" if unanimous else "criteria disagree")

    verdict(3, ok, "z^2 graph: " + ", ".join(notes))


def test_criterion_4_catenoid():
    imm = catalogue_lookup("catenoid", {})
    ok = True
    notes = []

    worst_b2 = max(
        rel_err(at_point(point_geometry_at, imm, (u, 0.4)).normB2, oracles.catenoid_normB2(u))
        for u in np.linspace(-1, 1, 11)
    )
    ok &= worst_b2 <= 1e-8
    notes.append(f"|B|^2 vs 2 sech^4 u: {worst_b2:.1e}")

    grid = GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (9, 9))
    simons, kato = run_checks(imm, grid, [CheckSpec("simons"), CheckSpec("kato")])
    ratio_dev = max(abs(ratio - 1.0) for ratio in column(simons, "ratio"))
    ok &= ratio_dev <= 1e-5
    notes.append(f"ratio dev {ratio_dev:.1e}")

    gap = max(abs(gap) for gap in column(kato, "gap"))
    ok &= gap <= 1e-5
    notes.append(f"|gap| {gap:.1e}")

    omega_dev = max(
        rel_err(abs(at_point(complex_pack_at, imm, pt).omega_coeff), 0.25)
        for pt in [(0.0, 0.0), (0.8, -0.5), (-1.0, 1.0)]
    )
    ok &= omega_dev <= 1e-8
    notes.append(f"omega vs 1/4: {omega_dev:.1e}")

    kp = at_point(curvature_pack_at, imm, (0.0, 0.0))
    ok &= abs(kp.K_extrinsic + 1.0) <= 1e-8
    ok &= rel_err(kp.K_intrinsic, kp.K_extrinsic) <= 1e-6
    notes.append(f"K(0,0) = {kp.K_extrinsic:.10f}")

    verdict(4, ok, "catenoid: " + ", ".join(notes))


def test_criterion_5_cylinder_over_helicoid():
    imm = catalogue_lookup("cylinder-over", {"base": "helicoid"})
    grid = GridSpec(((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), (4, 4, 4))
    ok = True
    worst_sv3 = 0.0
    worst_h3j = 0.0
    for point in grid.points():
        pg = at_point(point_geometry_at, imm, point)
        rank, sv = at_point(gauss_rank, imm, point)
        ok &= rank == 2
        worst_sv3 = max(worst_sv3, sv[2])
        worst_h3j = max(worst_h3j, float(np.abs(pg.h[:, 2, :]).max()))
    ok &= worst_sv3 <= 1e-10 and worst_h3j <= 1e-10

    frame = np.array([[1.0, 0, 0, 0, 0], [0, 0, 1.0, 0, 0], [0, 0, 0, 0, 1.0]])
    inequality_checks = run_checks(
        imm, grid, [CheckSpec(name) for name in ("simons", "kato", "refined-simons", "log-alignment")],
        frame,
    )
    ok &= all(res.verdict == "pass" for res in inequality_checks)
    verdict(
        5,
        ok,
        f"cylinder-over-helicoid: sv3 {worst_sv3:.1e}, h(.,3,.) {worst_h3j:.1e}, "
        + ", ".join(f"{r.name}:{r.verdict}" for r in inequality_checks),
    )


def test_criterion_6_cross_validation():
    rng = np.random.default_rng(7)
    worst_pluecker = 0.0
    for _ in range(1000):
        dim = int(rng.integers(4, 8))
        n = int(rng.integers(2, min(dim - 2, 3) + 1))
        rows = oracles.random_orthonormal_rows(rng, n + 2, dim)
        a = oracles.random_orthonormal_rows(rng, n, dim)
        worst_pluecker = max(
            worst_pluecker, oracles.pluecker_residual(rows[:n], rows[n], rows[n + 1], a)
        )

    surfaces = [
        (catalogue_lookup("holo-curve", {"coeffs": [0, 0, 1]}), (0.5, -0.7)),
        (catalogue_lookup("catenoid", {}), (0.8, 0.3)),
        (catalogue_lookup("helicoid", {}), (-0.4, 0.9)),
        (catalogue_lookup("enneper", {}), (0.3, 0.2)),
        (catalogue_lookup("affine", {}), (0.1, 0.1)),
        (catalogue_lookup("cylinder-over", {"base": "helicoid"}), (0.2, -0.3, 0.7)),
    ]
    worst_codazzi = 0.0
    for imm, pt in surfaces:
        pg = at_point(point_geometry_at, imm, pt)
        scale = 1.0 + math.sqrt(pg.nablaB2)
        worst_codazzi = max(
            worst_codazzi, float(np.abs(pg.h3 - pg.h3.transpose(0, 1, 3, 2)).max()) / scale
        )

    worst_inner = 0.0
    grid = GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (5, 5))
    for imm in (surfaces[0][0], surfaces[1][0]):
        [simons] = run_checks(imm, grid, [CheckSpec("simons")])
        for numeric, tilde, under in zip(*(column(simons, key) for key in
                                           ("inner_numeric", "tilde_term", "under_term"))):
            algebraic = -(tilde + under)
            worst_inner = max(worst_inner, abs(numeric - algebraic) / (1.0 + abs(algebraic)))

    ok = worst_pluecker <= 1e-12 and worst_codazzi <= 1e-8 and worst_inner <= 1e-4
    verdict(
        6,
        ok,
        f"pluecker(1000 frames) {worst_pluecker:.1e}, codazzi {worst_codazzi:.1e}, "
        f"inner-term two-route {worst_inner:.1e}",
    )


def test_criterion_7_nonminimal_detection():
    imm = build_graph_immersion(["x^2 + y^2", "0"], 2)
    [res] = run_checks(imm, GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (5, 5)), [CheckSpec("minimality")])
    origin = value_at(res, (0.0, 0.0))
    ok = res.verdict == "fail" and rel_err(origin, 4.0) <= 1e-10
    verdict(7, ok, f"paraboloid graph: verdict {res.verdict}, |H|(0) = {origin}")


def test_criterion_8_growth_and_probes(z2):
    affine = catalogue_lookup("affine", {})
    table = C.growth_table(affine, [1.0, 2.0, 4.0], cells=256)
    vol_err = max(
        abs(V - math.pi * R * R) / (math.pi * R * R)
        for V, R in zip(table.volumes, table.radii)
    )
    ok = vol_err <= 0.01

    z2_table = C.growth_table(z2, [10.0, 100.0, 1000.0], cells=256)
    ok &= z2_table.flags["v_ratio_strictly_increasing"]

    margins = []
    grid = GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (9, 9))
    specs = [CheckSpec("subharmonicity", options={"s": s, "q": q}) for s, q in [(1, 1), (1, 3)]]
    for res in run_checks(z2, grid, specs):
        margins.append(min(column(res, "margin")))
    ok &= all(m >= -1e-6 for m in margins)

    verdict(
        8,
        ok,
        f"affine V(R) err {vol_err:.2%}; z^2 max_v/R^(2/3) {['%.2f' % v for v in z2_table.v_over_R23]}; "
        f"subharmonicity margins {['%.1e' % m for m in margins]}",
    )


def test_criterion_9_determinism(z2_full_config, z2_full_report, tmp_path):
    config = load_config(z2_full_config)
    paths = [tmp_path / f"run{i}.json" for i in range(3)]
    emit_report(z2_full_report, "json", paths[0], detail=True)
    emit_report(run_scenario(config, jobs=1), "json", paths[1], detail=True)
    emit_report(run_scenario(config, jobs=2), "json", paths[2], detail=True)
    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2]
    verdict(9, ok, f"three z2-full runs (jobs 1, 1, 2): byte-identical = {ok}")
