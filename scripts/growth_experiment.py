#!/usr/bin/env python3
"""Volume and slope growth of entire minimal graphs over extrinsic balls.

An affine graph keeps theta(R) = V(R) / (pi R^2) = 1 and a bounded volume
factor; genuinely curved entire graphs push max v past the R^(2/3)
threshold that separates rigid (necessarily affine) behavior from the rest.
The table prints theta(R), each volume's error estimate |Q_N - Q_(N/2)| and
the N it converged at, the fitted growth exponents and the threshold
ratios; a graph the rule cannot integrate within `--cells` nodes per axis
prints why.
"""

import argparse
import math

from curvlab import checks as C
from curvlab.immersions import catalogue_lookup

GRAPHS = [
    ("affine", "affine", {}),
    ("z^2 graph", "holo-curve", {"coeffs": [0, 0, 1]}),
    ("z^3 graph", "holo-curve", {"coeffs": [0, 0, 0, 1]}),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radii", type=float, nargs="+", default=[10.0, 100.0, 1000.0])
    parser.add_argument("--cells", type=int, default=256)
    args = parser.parse_args()

    for label, name, params in GRAPHS:
        imm = catalogue_lookup(name, params)
        print(f"== {label}")
        try:
            table = C.growth_table(imm, args.radii, cells=args.cells)
        except C.CheckConfigError as exc:
            print(f"   not applicable: {exc}")
            continue
        print(f"   {'R':>8} {'theta(R)':>12} {'estimate':>10} {'max v':>12} "
              f"{'V(R)/V(R/2)':>12} {'max v/R^(2/3)':>14}")
        for i, R in enumerate(table.radii):
            print(
                f"   {R:>8.1f} {table.volumes[i] / (math.pi * R * R):>12.8f} "
                f"{table.volume_errors[i]:>10.2e} {table.max_v[i]:>12.4e} "
                f"{table.volume_ratios[i]:>12.4f} {table.v_over_R23[i]:>14.4f}"
            )
        print(f"   N = {table.nodes_per_axis} nodes per axis, "
              f"volume exponent {table.volume_exponent:.3f}, "
              f"slope exponent {table.slope_exponent:.3f}, "
              f"sub-threshold slope growth: {table.flags['v_subcritical']}")

if __name__ == "__main__":
    main()
