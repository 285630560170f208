"""Exact minimal-average-volume confidence regions for categorical data,
induced intervals for linear functionals, and a best-arm bandit harness."""

from .bandit import METHODS, Arm, BanditRun, benchmark_arms, lucb_run
from .core import (
    EmpiricalDistribution,
    SimplexGrid,
    SimplexPoint,
    enumerate_simplex,
    simplex_size,
)
from .functionals import (
    EmptyScanError,
    IntervalResult,
    LinearFunctional,
    empirical_bernstein_interval,
    functional_interval,
    hoeffding_interval,
    kl_bernoulli_interval,
    oracle_chernoff_interval,
)
from .regions import (
    KINDS,
    CoveringCollection,
    RegionSpec,
    covering_collection,
    member_of_covering,
    p_value,
    region_membership,
    sanov_threshold,
)
from .volume import (
    VolumeReport,
    average_volume,
    covering_size_integral,
    region_volume,
)

__version__ = "0.1.0"

__all__ = [
    "Arm",
    "BanditRun",
    "CoveringCollection",
    "EmpiricalDistribution",
    "EmptyScanError",
    "IntervalResult",
    "KINDS",
    "LinearFunctional",
    "METHODS",
    "RegionSpec",
    "SimplexGrid",
    "SimplexPoint",
    "VolumeReport",
    "average_volume",
    "benchmark_arms",
    "covering_collection",
    "covering_size_integral",
    "empirical_bernstein_interval",
    "enumerate_simplex",
    "functional_interval",
    "hoeffding_interval",
    "kl_bernoulli_interval",
    "lucb_run",
    "member_of_covering",
    "oracle_chernoff_interval",
    "p_value",
    "region_membership",
    "region_volume",
    "sanov_threshold",
    "simplex_size",
]
