"""Independent oracle for the benchmark's correctness outcomes.

Nothing here calls curvlab.  An outcome is one expectation compared with an
emitted report:

* every check's verdict is `pass`: each grid check holds on minimal
  holomorphic graphs and on cylinders over them, and the growth and probe
  checks assert only monotonicity, the box bound and subharmonicity;
* the report's point counts equal the numpy count of the masked grid, and no
  check skips a point;
* each growth volume lies within QUAD_REL_BOUND[R] of the closed form;
* the report bytes equal those of the workload's reference run.

`failed` counts mismatched outcomes.  A mismatch listed in KNOWN_DEFECTS is a
defect of the program that the benchmark reports and leaves standing; any
other mismatch makes the run incorrect.
"""

from __future__ import annotations

import json
import math

# (workload, outcome) -> the defect that makes the outcome fail at every seed.
KNOWN_DEFECTS = {
    ("grid-solid", "alignment-identities:verdict"):
        "geometry.canonical_frame_at takes U from an SVD without fixing det U = +1; "
        "for n = 3 this reverses the canonical tangent frame at some points and flips "
        "the sign of the 4 mu1 mu2 <e_11,22, A> term of the alignment Laplacian.  "
        "Repro: cylinder-over holo-curve [0, 0, 1] at (-0.5, 0, -1), default frame: "
        "formula -2.0, jet route 0.0.",
}

# Relative error bound per radius of the growth volumes.  The 256-cell rule
# covers Omega_R by the box [-R, R]^2 while Omega_R has parameter radius about
# sqrt(R / |c|), so at R = 1000 only about 52 / |c| cells land inside.  Over
# |c| in [0.5, 1.5] its worst errors are 0.013, 0.058 and 0.33 at R = 10, 100
# and 1000; the bounds keep that present accuracy with headroom, so they catch
# a wrong volume or mask but not the known coarseness, which the per-layer
# metric checks.quad_rel_err reports.
QUAD_REL_BOUND = {10.0: 0.03, 100.0: 0.1, 1000.0: 0.5}


def closed_form_volume(R: float, c_abs: float, k: int) -> float:
    """Area of the extrinsic ball of radius R on the graph w = c z^k.

    With rho the parameter radius, rho^2 + |c|^2 rho^(2k) = R^2 and
    V(R) = pi (rho^2 + k |c|^2 rho^(2k)).  s = rho^2 is found by bisection.
    """
    c2 = c_abs * c_abs
    lo, hi = 0.0, R * R
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + c2 * mid**k < R * R:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    return math.pi * (s + k * c2 * s**k)


class Tally:
    """Outcomes attempted and failed over every run of one benchmark process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []  # mismatches no known defect explains
        self.known: set[str] = set()

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if (self.workload, name) in KNOWN_DEFECTS:
            self.known.add(name)
        elif name not in self.unexpected:
            self.unexpected.append(name)

    @property
    def correct(self) -> bool:
        return not self.unexpected


class ReportOracle:
    """Outcomes of one emitted JSON report against the workload's expectations."""

    def __init__(self, work):
        self.work = work
        self.quad_rel_err = 0.0
        self._cache: dict[bytes, list] = {}

    def outcomes(self, data: bytes) -> list[tuple[str, bool]]:
        if data not in self._cache:
            self._cache[data] = self._evaluate(json.loads(data))
        return self._cache[data]

    def _evaluate(self, report: dict) -> list[tuple[str, bool]]:
        work = self.work
        out = [("report:points", report["n_grid_points"] == work.points)]
        for entry in report["checks"]:
            name = entry["name"]
            out.append((f"{name}:verdict", entry["verdict"] == "pass"))
            out.append((f"{name}:skips", entry["n_skipped"] == 0))
            if name in work.grid_checks:
                out.append((f"{name}:points", entry["n_points"] == work.points))
            if name == "growth":
                out.extend(self._growth(entry["extras"]["volumes"]))
        return out

    def _growth(self, volumes) -> list[tuple[str, bool]]:
        g = self.work.growth
        out = [("growth:radii", len(volumes) == len(g["radii"]))]
        for R, vol in zip(g["radii"], volumes):
            exact = closed_form_volume(R, g["c_abs"], g["k"])
            err = abs(vol - exact) / exact
            self.quad_rel_err = max(self.quad_rel_err, err)
            out.append((f"growth:volume@{R:g}", err <= QUAD_REL_BOUND[R]))
        return out
