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

import numpy as np

from .core import EmpiricalDistribution, SimplexGrid, enumerate_simplex
from .regions import RegionSpec, covering_sizes_grid, membership_grid


@dataclass(frozen=True)
class VolumeReport:
    """Per-outcome region volumes (as simplex fractions) and their total."""

    per_phat: dict
    total: float
    construction: str
    grid_resolution: int
    mc_draws: int | None = None
    seed: int | None = None


def region_volume(phat: EmpiricalDistribution, spec: RegionSpec, M: int) -> float:
    """Fraction of the resolution-M grid inside the region of ``phat``."""
    if M < 50:
        raise ValueError("resolution must be >= 50 for a usable estimate")
    points = SimplexGrid(spec.k, M).points
    return float(membership_grid(phat, spec, points).mean())


def average_volume(spec: RegionSpec, M: int) -> VolumeReport:
    """Sum of region volumes over every possible outcome."""
    if M < 50:  # refused before the outcomes are enumerated
        raise ValueError("resolution must be >= 50 for a usable estimate")
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
    if M < 50:
        raise ValueError("resolution must be >= 50 for a usable estimate")
    points = SimplexGrid(k, M).points
    return float(covering_sizes_grid(n, k, delta, points).mean())


def uniform_prior_expected_volume(
    spec: RegionSpec, M: int, draws: int, seed: int
) -> VolumeReport:
    """Monte-Carlo expected region volume when the parameter is drawn
    uniformly from the simplex and the outcome is drawn from it."""
    if draws < 1:
        raise ValueError("draws must be >= 1")
    base = average_volume(spec, M)
    by_counts = {phat.counts: vol for phat, vol in base.per_phat.items()}
    rng = np.random.default_rng(seed)
    ps = rng.dirichlet(np.ones(spec.k), size=draws)
    total = 0.0
    for p in ps:
        counts = tuple(int(c) for c in rng.multinomial(spec.n, p))
        total += by_counts[counts]
    return VolumeReport(
        per_phat=base.per_phat,
        total=total / draws,
        construction=spec.kind,
        grid_resolution=M,
        mc_draws=draws,
        seed=seed,
    )
