"""The library's input rules: each is written once, with one message, and
every entry that takes the input refuses it before it builds any table."""
import math
import re

import numpy as np
import pytest

from simplexcr import (
    Arm,
    EmpiricalDistribution,
    LinearFunctional,
    RegionSpec,
    SimplexPoint,
    benchmark_arms,
    covering_collection,
    empirical_bernstein_interval,
    functional_interval,
    hoeffding_interval,
    kl_bernoulli_interval,
    lucb_run,
    member_of_covering,
    oracle_chernoff_interval,
    p_value,
    region_membership,
    sanov_threshold,
)
from simplexcr.core import compositions_array
from simplexcr.regions import (
    covering_member_counts,
    covering_sizes_grid,
    kl_ball_radius,
    levelset_membership_grid,
    membership_grid,
    polytope_threshold,
)

PHAT = EmpiricalDistribution((1, 2, 2))
POINTS = np.full((1, 3), 1.0 / 3.0)

# Every library entry that takes delta, called with valid other inputs.
DELTA_ENTRIES = {
    "RegionSpec": lambda d: RegionSpec(d, "levelset", 5, 3),
    "covering_collection": lambda d: covering_collection(SimplexPoint.uniform(3), 5, d),
    "sanov_threshold": lambda d: sanov_threshold(3, 5, d),
    "polytope_threshold": lambda d: polytope_threshold(3, 5, d),
    "kl_ball_radius": lambda d: kl_ball_radius(PHAT.counts, d),
    "levelset_membership_grid": lambda d: levelset_membership_grid(PHAT, d, POINTS),
    "covering_sizes_grid": lambda d: covering_sizes_grid(5, 3, d, POINTS),
    "covering_member_counts": lambda d: covering_member_counts(5, 3, d, POINTS),
    "hoeffding_interval": lambda d: hoeffding_interval(0.5, 10, d),
    "oracle_chernoff_interval": lambda d: oracle_chernoff_interval(0.5, 0.1, 10, d),
    "empirical_bernstein_interval": lambda d: empirical_bernstein_interval([0.0, 1.0], d),
    "kl_bernoulli_interval": lambda d: kl_bernoulli_interval(0.5, 10, d),
    "lucb_run": lambda d: lucb_run(benchmark_arms(), d, 0.0, "hoeffding", 1),
}


def table_lookups() -> int:
    info = compositions_array.cache_info()
    return info.hits + info.misses


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(DELTA_ENTRIES))
def test_every_entry_refuses_delta_outside_0_1(entry, delta):
    before = table_lookups()
    with pytest.raises(ValueError, match=re.escape(f"delta must lie in (0, 1), got {delta}")):
        DELTA_ENTRIES[entry](delta)
    assert table_lookups() == before


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Arm(SimplexPoint((0.5, 0.5)), LinearFunctional((0.0, 1.0, 2.0))),
         "pmf has 2 categories, values has 3"),
        (lambda: LinearFunctional((0.0, 1.0, 2.0)).apply(SimplexPoint((0.5, 0.5))),
         "f has 3 categories, p has 2"),
        (lambda: functional_interval(
            EmpiricalDistribution((1, 2)), LinearFunctional((0.0, 1.0, 2.0)), 0.5,
            RegionSpec(0.5, "levelset", 3, 2)),
         "phat has 2 categories, f has 3"),
        (lambda: p_value(EmpiricalDistribution((2, 2)), SimplexPoint((0.3, 0.3, 0.4))),
         "phat has 2 categories, p has 3"),
        (lambda: region_membership(
            SimplexPoint((0.3, 0.3, 0.4)), EmpiricalDistribution((2, 2)),
            RegionSpec(0.5, "sanov", 4, 2)),
         "phat has 2 categories, p has 3"),
        (lambda: member_of_covering(
            EmpiricalDistribution((2, 2)), SimplexPoint((0.3, 0.3, 0.4)), 0.5),
         "phat has 2 categories, p has 3"),
    ],
)
def test_categories_agree_with_one_wording(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda spec: membership_grid(EmpiricalDistribution((1, 2)), spec, POINTS[:, :2]),
        lambda spec: functional_interval(
            EmpiricalDistribution((1, 2)), LinearFunctional((0.0, 1.0)), 0.5, spec),
    ],
)
def test_spec_matches_phat_with_one_wording(call):
    spec = RegionSpec(0.5, "levelset", 4, 2)
    before = table_lookups()
    with pytest.raises(ValueError, match=re.escape("phat lies in Delta_(2,3), the spec in Delta_(2,4)")):
        call(spec)
    assert table_lookups() == before


@pytest.mark.parametrize(
    "call, shape",
    [
        # an IndexError and numpy's matmul message before the rule had one writer
        (lambda: levelset_membership_grid(PHAT, 0.5, np.array([0.3, 0.3, 0.4])), "(3,)"),
        (lambda: covering_sizes_grid(3, 3, 0.1, np.array([[0.5, 0.5]])), "(1, 2)"),
        (lambda: covering_member_counts(3, 3, 0.1, np.full((2, 4), 0.25)), "(2, 4)"),
    ],
)
def test_points_of_another_shape_are_a_value_error(call, shape):
    message = f"phat has 3 categories, so points must have shape (G, 3); got {shape}"
    before = table_lookups()
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
    assert table_lookups() == before
