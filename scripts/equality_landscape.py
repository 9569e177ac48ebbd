#!/usr/bin/env python3
"""Where do the curvature inequalities become equalities?

Samples the catalogue surfaces on a grid and tabulates, per surface, the
Bochner-ratio range, the Kato gap, and the holomorphic coefficient omega.
Holomorphic graphs saturate every inequality simultaneously; codimension-one
shapes (catenoid, helicoid) sit at the opposite end with ratio 1.
"""

import argparse

from curvlab.immersions import GridSpec, catalogue_lookup
from curvlab.scenario import CheckSpec, run_checks

SURFACES = [
    ("holo-curve z^2", "holo-curve", {"coeffs": [0, 0, 1]}),
    ("holo-curve z^3", "holo-curve", {"coeffs": [0, 0, 0, 1]}),
    ("catenoid", "catenoid", {}),
    ("helicoid", "helicoid", {}),
    ("enneper", "enneper", {}),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=9, help="grid samples per axis")
    args = parser.parse_args()

    grid = GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (args.samples, args.samples))
    print(f"{'surface':<16} {'ratio min':>10} {'ratio max':>10} {'|kato gap|':>11} "
          f"{'|omega| max':>12} {'conformal pts':>14}")
    for label, name, params in SURFACES:
        imm = catalogue_lookup(name, params)
        sres, kres, gres = run_checks(
            imm, grid, [CheckSpec("simons"), CheckSpec("kato"), CheckSpec("gauss-conformal")]
        )
        # each detail column holds one value per evaluated point; ratio is None where B = 0
        ratios = [r for r in sres.columns.get("ratio") if r is not None]
        gaps = [abs(gap) for gap in kres.columns.get("gap")]
        omega = gres.extras.get("omega_max", float("nan"))
        print(
            f"{label:<16} {min(ratios):>10.6f} {max(ratios):>10.6f} "
            f"{max(gaps):>11.2e} {omega:>12.3e} "
            f"{gres.extras['conformal_points']:>7}/{gres.extras['evaluated_points']}"
        )


if __name__ == "__main__":
    main()
