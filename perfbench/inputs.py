"""Seeded scenario configs for the benchmark workloads.

The seed moves the polynomial coefficients only.  Degree, check list, grid
shape, mask and radii are fixed per workload, so every seed asks curvlab for
the same amount of work and the same number of jet operations.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

# The eleven grid checks of the bundled z2-full scenario (all but isothermal).
SURFACE_CHECKS = (
    "minimality", "minimal-system", "pluecker", "alignment-identities",
    "log-alignment", "simons", "kato", "refined-simons", "gauss-conformal",
    "jacobian", "subharmonicity",
)
# The eight checks of the bundled cylinder-helicoid scenario.
SOLID_CHECKS = (
    "minimality", "pluecker", "alignment-identities", "log-alignment",
    "simons", "kato", "refined-simons", "gauss-conformal",
)

# The disk mask keeps x^2 + y^2 <= MASK_R2.  The 21 x 21 samples of [-1, 1]^2
# sit on multiples of 0.1 and 95 is not a sum of two squares, so no sample
# lies on the boundary, where rounding could decide whether it is kept.
MASK_R2 = 0.95
SURFACE_GRID = {"ranges": [[-1.0, 1.0], [-1.0, 1.0]], "counts": [21, 21],
                "mask": f"x^2+y^2-{MASK_R2}"}
SOLID_GRID = {"ranges": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]], "counts": [5, 5, 5]}
QUAD_GRID = {"ranges": [[-1.0, 1.0], [-1.0, 1.0]], "counts": [7, 7]}

GROWTH_RADII = [10.0, 100.0, 1000.0]
QUAD_CELLS = 256
QUAD_POWER = 2  # k in w = c z^k
PROBE_T_VALUES = [3, 4, 5]


@dataclass
class Workload:
    """The inputs of one workload for one seed, and what theory expects of them.

    `config` is the raw scenario document the program receives; for a sweep
    workload curvlab expands its `sweep` section itself.
    """

    config: dict
    sweep: bool = False
    jobs: int = 1
    points: int = 0  # grid points per report, counted with numpy
    masked: int = 0  # grid points the mask removes
    grid_checks: tuple = ()
    growth: dict = field(default_factory=dict)  # closed-form volume parameters


def _complex(rng: random.Random, lo: float, hi: float) -> list:
    modulus = rng.uniform(lo, hi)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return [modulus * math.cos(phase), modulus * math.sin(phase)]


def cubic_coeffs(seed: int) -> list:
    """Coefficients [c0, c1, c2, c3] of a complex cubic, all nonzero.

    The second fundamental form vanishes where f'' = 2 c2 + 6 c3 z does, at
    |z| = |c2| / (3 |c3|) >= 1.2 / 0.9 > 1.  Keeping that zero off the grid
    keeps every point evaluable, so theory expects no skipped point.
    """
    rng = random.Random(f"curvlab-bench:cubic:{seed}")
    return [_complex(rng, 0.1, 0.5), _complex(rng, 0.5, 1.0),
            _complex(rng, 1.2, 1.6), _complex(rng, 0.15, 0.3)]


def power_coeff(seed: int) -> list:
    """The coefficient c of the graph w = c z^k of the quadrature workload."""
    rng = random.Random(f"curvlab-bench:power:{seed}")
    return _complex(rng, 0.5, 1.5)


def count_points(grid: dict) -> tuple[int, int]:
    """(kept, masked) sample counts of a grid section, computed with numpy alone."""
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(grid["ranges"], grid["counts"])]
    mesh = np.meshgrid(*axes, indexing="ij")
    total = int(mesh[0].size)
    if "mask" not in grid:
        return total, 0
    kept = int(np.count_nonzero(mesh[0] ** 2 + mesh[1] ** 2 <= MASK_R2))
    return kept, total - kept


def _grid_workload(config: dict, checks: tuple, **kwargs) -> Workload:
    config["checks"] = [
        dict(name=n, s=1, q=1) if n == "subharmonicity" else {"name": n} for n in checks
    ]
    points, masked = count_points(config["grid"])
    return Workload(config=config, points=points, masked=masked, grid_checks=checks, **kwargs)


def grid_surface(seed: int) -> Workload:
    return _grid_workload({
        "surface": {"kind": "catalogue", "name": "holo-curve",
                    "params": {"coeffs": cubic_coeffs(seed)}},
        "grid": SURFACE_GRID,
    }, SURFACE_CHECKS)


def grid_surface_pool(seed: int) -> Workload:
    work = grid_surface(seed)
    work.jobs = max(2, os.cpu_count() or 1)  # the CLI default, always through the pool
    return work


def grid_solid(seed: int) -> Workload:
    return _grid_workload({
        "surface": {"kind": "catalogue", "name": "cylinder-over",
                    "params": {"base": "holo-curve",
                               "base_params": {"coeffs": cubic_coeffs(seed)}}},
        "grid": SOLID_GRID,
    }, SOLID_CHECKS)


def quadrature(seed: int) -> Workload:
    c = power_coeff(seed)
    config = {
        "surface": {"kind": "catalogue", "name": "holo-curve",
                    "params": {"coeffs": [0] * QUAD_POWER + [c]}},
        "grid": QUAD_GRID,
        "probe": {"t": PROBE_T_VALUES[0], "q": 7, "s": 1, "R": 1.0, "R0": 0.5,
                  "cells": QUAD_CELLS},
        "checks": [
            {"name": "growth", "radii": GROWTH_RADII, "cells": QUAD_CELLS},
            {"name": "probe"},
            {"name": "subharmonicity", "s": 1, "q": 3},
        ],
        "sweep": {"parameter": "probe.t", "values": PROBE_T_VALUES},
    }
    points, masked = count_points(QUAD_GRID)
    return Workload(config=config, sweep=True, points=points, masked=masked,
                    grid_checks=("subharmonicity",),
                    growth={"c_abs": math.hypot(*c), "k": QUAD_POWER, "radii": GROWTH_RADII})


WORKLOADS = {
    "grid-surface": grid_surface,
    "grid-solid": grid_solid,
    "quadrature": quadrature,
    "grid-surface-pool": grid_surface_pool,
}
