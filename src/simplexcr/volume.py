"""Region volume estimation on the simplex grid and the two-way counting
check behind the average-volume optimality of the level-set construction.

Volumes are reported as fractions of the simplex measure; the optimality
inequality is scale invariant, so no (k-1)-dimensional normalization
constant is ever committed to. Grid fractions carry an empirical error
budget of about 3/M, calibrated against a one-dimensional bisection oracle
at k = 2.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import EmpiricalDistribution, SimplexGrid, enumerate_simplex
from .regions import RegionSpec, covering_sizes_grid, membership_grid

MIN_RESOLUTION = 50  # least grid resolution M for a usable estimate


@dataclass(frozen=True)
class VolumeReport:
    """Per-outcome region volumes (as simplex fractions) and their total."""

    per_phat: dict
    total: float
    construction: str
    grid_resolution: int


def region_volume(phat: EmpiricalDistribution, spec: RegionSpec, M: int) -> float:
    """Fraction of the resolution-M grid inside the region of ``phat``."""
    if M < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION} for a usable estimate")
    points = SimplexGrid(spec.k, M).points
    return float(membership_grid(phat, spec, points).mean())


def average_volume(spec: RegionSpec, M: int) -> VolumeReport:
    """Sum of region volumes over every possible outcome."""
    if M < MIN_RESOLUTION:  # refused before the outcomes are enumerated
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION} for a usable estimate")
    SimplexGrid(spec.k, M).points  # an oversized grid is refused before the outcomes
    outcomes = enumerate_simplex(spec.k, spec.n)
    per_phat = {phat: region_volume(phat, spec, M) for phat in outcomes}
    return VolumeReport(
        per_phat=per_phat,
        total=float(sum(per_phat.values())),
        construction=spec.kind,
        grid_resolution=M,
    )


def covering_size_integral(n: int, k: int, delta: float, M: int) -> float:
    """Average covering-collection size over the grid: the independent side
    of the two-way counting identity for the summed region volumes."""
    if M < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION} for a usable estimate")
    points = SimplexGrid(k, M).points
    return float(covering_sizes_grid(n, k, delta, points).mean())
