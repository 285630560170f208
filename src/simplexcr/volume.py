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

from .core import EmpiricalDistribution, SimplexGrid, _check_delta, enumerate_simplex
from .regions import RegionSpec, covering_member_counts, covering_sizes_grid, membership_grid

MIN_RESOLUTION = 50  # least grid resolution M for a usable estimate


@dataclass(frozen=True)
class VolumeReport:
    """Per-outcome region volumes (as simplex fractions) and their total."""

    per_phat: dict
    total: float
    construction: str
    grid_resolution: int


def _volume_grid(k: int, M: int) -> SimplexGrid:
    """The resolution-M grid, refused below MIN_RESOLUTION."""
    if M < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION} for a usable estimate")
    return SimplexGrid(k, M)


def region_volume(phat: EmpiricalDistribution, spec: RegionSpec, M: int) -> float:
    """Fraction of the resolution-M grid inside the region of ``phat``."""
    return float(membership_grid(phat, spec, _volume_grid(spec.k, M).points).mean())


def average_volume(spec: RegionSpec, M: int) -> VolumeReport:
    """Sum of region volumes over every possible outcome. Level-set volumes
    are regions.covering_member_counts over the grid size (that docstring
    states the identity's two sides); Sanov and polytope volumes take one
    membership_grid call per outcome."""
    points = _volume_grid(spec.k, M).points  # refused before the outcomes are enumerated
    outcomes = enumerate_simplex(spec.k, spec.n)
    if spec.kind == "levelset":
        held = covering_member_counts(spec.n, spec.k, spec.delta, points).tolist()
        per_phat = {phat: h / len(points) for phat, h in zip(outcomes, held)}
    else:
        per_phat = {phat: float(membership_grid(phat, spec, points).mean()) for phat in outcomes}
    return VolumeReport(
        per_phat=per_phat,
        total=float(sum(per_phat.values())),
        construction=spec.kind,
        grid_resolution=M,
    )


def covering_size_integral(n: int, k: int, delta: float, M: int) -> float:
    """Average covering-collection size over the grid: the independent side
    of the two-way counting identity for the summed region volumes."""
    _check_delta(delta)  # before the grid is built
    return float(covering_sizes_grid(n, k, delta, _volume_grid(k, M).points).mean())
