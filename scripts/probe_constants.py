#!/usr/bin/env python3
"""Implied constants of the integral curvature estimates on a model graph.

The estimates bound a curvature norm over an inner ball by data on a larger
ball, up to constants depending only on the exponents.  The constants are
non-constructive; this script measures the quotient both sides actually
realize on the z^2 graph across an exponent sweep.
"""

import argparse

import numpy as np

from curvlab import checks as C
from curvlab.immersions import GridSpec, catalogue_lookup
from curvlab.scenario import CheckSpec, run_checks


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t", type=float, nargs="+", default=[3.0, 4.0, 5.0])
    parser.add_argument("--radius", type=float, default=1.0)
    parser.add_argument("--cells", type=int, default=256)
    args = parser.parse_args()

    imm = catalogue_lookup("holo-curve", {"coeffs": [0, 0, 1]})
    frame = np.eye(2, 4)
    grid = GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (9, 9))

    print(f"{'t':>4} {'q':>6} {'L^t lhs':>12} {'L^t rhs':>12} {'C3':>10} {'C4':>10} "
          f"{'subharmonicity worst':>21}")
    for t in args.t:
        q = (3.0 * t - 3.0) / 2.0 + 1.0  # just inside the legal domain
        params = C.ProbeParams(t=t, q=q, s=1.0, R=args.radius, R0=args.radius / 2,
                               cells=args.cells)
        rec = C.estimate_probe(imm, frame, params)
        [sub] = run_checks(imm, grid, [CheckSpec("subharmonicity", options={"s": 1.0, "q": q})])
        print(
            f"{t:>4.1f} {q:>6.2f} {rec.lp_lhs:>12.5e} {rec.lp_rhs:>12.5e} "
            f"{rec.implied_c3:>10.5f} {rec.implied_c4:>10.5f} "
            f"{sub.worst_residual:>21.3e}"
        )


if __name__ == "__main__":
    main()
