import math

import numpy as np
import pytest

from simplexcr import (
    KINDS,
    EmpiricalDistribution,
    EmptyScanError,
    LinearFunctional,
    OverBudgetError,
    RegionSpec,
    SimplexGrid,
    SimplexPoint,
    empirical_bernstein_interval,
    enumerate_simplex,
    functional_interval,
    hoeffding_interval,
    kl_bernoulli_interval,
    oracle_chernoff_interval,
)
from simplexcr import regions
from simplexcr.core import (
    MAX_GRID_POINTS,
    _grid_points,
    compositions_array,
    log_weights,
    simplex_size,
)
from simplexcr.functionals import IntervalResult
from simplexcr.regions import membership_grid, phat_mass_survivors

from oracles import kl_bernoulli

MEAN3 = LinearFunctional((0.0, 0.5, 1.0))


class TestLinearFunctional:
    def test_range_and_apply(self):
        f = LinearFunctional((2.0, -1.0, 0.5))
        assert f.value_range == (-1.0, 2.0)
        assert f.apply(SimplexPoint((0.5, 0.25, 0.25))) == pytest.approx(0.875)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LinearFunctional((1.0, float("nan")))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MEAN3.apply(SimplexPoint((0.5, 0.5)))


class TestIntervalResult:
    def test_orders_endpoints(self):
        with pytest.raises(ValueError):
            IntervalResult(lower=1.0, upper=0.0, method="x")

    def test_width(self):
        assert IntervalResult(0.25, 0.75, "x").width == 0.5

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: hoeffding_interval(math.nan, 10, 0.1), "lower nan"),
            (lambda: oracle_chernoff_interval(0.5, math.nan, 10, 0.1), "variance"),
            (lambda: empirical_bernstein_interval([math.nan, 1.0], 0.1), "lower nan"),
            (lambda: hoeffding_interval(0.5, 10, 0.1, (1.0, 0.0)), "value_range"),
            (lambda: IntervalResult(math.nan, 1.0, "x"), "lower nan"),
        ],
    )
    def test_no_nan_or_reversed_interval(self, call, match):
        # each returned [nan, nan] (or [0, 1] for the reversed range) before
        with pytest.raises(ValueError, match=match):
            call()


class TestFunctionalInterval:
    def test_constant_functional_collapses(self):
        f = LinearFunctional((0.4, 0.4, 0.4))
        phat = EmpiricalDistribution((2, 2, 1))
        for kind in ("levelset", "sanov", "polytope"):
            spec = RegionSpec(0.3, kind, 5, 3)
            iv = functional_interval(phat, f, 0.3, spec, M=60)
            assert (iv.lower, iv.upper) == (0.4, 0.4)

    def test_contains_member_values_by_construction(self):
        phat = EmpiricalDistribution((3, 4, 3))
        spec = RegionSpec(0.3, "levelset", 10, 3)
        M = 80
        iv = functional_interval(phat, MEAN3, 0.3, spec, M=M)
        pts = SimplexGrid(3, M).points
        member = membership_grid(phat, spec, pts)
        fv = pts[member] @ np.asarray(MEAN3.values)
        assert iv.lower <= fv.min() and fv.max() <= iv.upper

    def test_contains_member_values_every_outcome_and_construction(self):
        M = 80
        pts = SimplexGrid(3, M).points
        vals = np.asarray(MEAN3.values)
        for phat in enumerate_simplex(3, 10):
            for kind in ("levelset", "sanov", "polytope"):
                spec = RegionSpec(0.3, kind, 10, 3)
                member = membership_grid(phat, spec, pts)
                if not member.any():
                    continue
                iv = functional_interval(phat, MEAN3, 0.3, spec, M=M)
                fv = pts[member] @ vals
                assert iv.lower <= fv.min() + 1e-12
                assert fv.max() <= iv.upper + 1e-12

    def test_monotone_in_delta(self):
        phat = EmpiricalDistribution((2, 2, 16))
        M = 150
        widths = []
        for delta in (0.1, 0.3, 0.7):
            spec = RegionSpec(delta, "levelset", 20, 3)
            iv = functional_interval(phat, MEAN3, delta, spec, M=M)
            widths.append((iv.lower, iv.upper))
        for (lo1, hi1), (lo2, hi2) in zip(widths, widths[1:]):
            assert lo1 <= lo2 and hi2 <= hi1

    def test_near_one_delta_collapse_against_denser_scan(self):
        phat = EmpiricalDistribution((6, 6, 3))
        spec = RegionSpec(0.999, "levelset", 15, 3)
        iv = functional_interval(phat, MEAN3, 0.999, spec, M=200)
        oracle = functional_interval(phat, MEAN3, 0.999, spec, M=400)
        # the denser scan refines the same small region around phat's level set
        assert iv.lower <= oracle.lower + 1e-12
        assert oracle.upper <= iv.upper + 1e-12
        assert abs(iv.lower - oracle.lower) <= iv.conservative_padding + oracle.conservative_padding
        assert abs(iv.upper - oracle.upper) <= iv.conservative_padding + oracle.conservative_padding

    def test_padding_and_provenance_recorded(self):
        phat = EmpiricalDistribution((2, 2, 16))
        spec = RegionSpec(0.7, "levelset", 20, 3)
        iv = functional_interval(phat, MEAN3, 0.7, spec, M=200)
        assert iv.method == "levelset-grid"
        assert iv.grid_resolution == 200
        assert iv.conservative_padding == pytest.approx(2.0 / 200)

    def test_default_resolution(self):
        phat = EmpiricalDistribution((2, 2, 16))
        spec = RegionSpec(0.7, "levelset", 20, 3)
        iv = functional_interval(phat, MEAN3, 0.7, spec)
        assert iv.grid_resolution == 200  # max(10 n, 150)

    def test_delta_spec_mismatch(self):
        phat = EmpiricalDistribution((2, 2, 16))
        spec = RegionSpec(0.7, "levelset", 20, 3)
        with pytest.raises(ValueError):
            functional_interval(phat, MEAN3, 0.3, spec)
        with pytest.raises(ValueError, match="disagrees"):
            functional_interval(phat, MEAN3, math.nan, spec)

    def test_monte_carlo_path_for_k4(self):
        phat = EmpiricalDistribution((2, 3, 3, 2))
        f = LinearFunctional((0.0, 1 / 3, 2 / 3, 1.0))
        spec = RegionSpec(0.3, "levelset", 10, 4)
        iv = functional_interval(phat, f, 0.3, spec, mc_draws=4000, seed=5)
        assert iv.method == "levelset-mc"
        assert 0.0 < iv.scan_coverage < 1.0
        assert iv.lower < f.apply(phat.as_point()) < iv.upper

    def test_monte_carlo_requires_seed(self):
        phat = EmpiricalDistribution((2, 3, 3, 2))
        f = LinearFunctional((0.0, 1 / 3, 2 / 3, 1.0))
        spec = RegionSpec(0.3, "levelset", 10, 4)
        with pytest.raises(ValueError, match="seed"):
            functional_interval(phat, f, 0.3, spec)

    @pytest.mark.parametrize("draws, error, match", [
        (0, ValueError, "mc_draws must be >= 1"),
        (MAX_GRID_POINTS + 1, OverBudgetError, f"more than {MAX_GRID_POINTS}"),
    ])
    def test_monte_carlo_draws_refused_before_drawing(self, monkeypatch, draws, error, match):
        def no_generator(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        phat = EmpiricalDistribution((2, 3, 3, 2))
        f = LinearFunctional((0.0, 1 / 3, 2 / 3, 1.0))
        spec = RegionSpec(0.3, "levelset", 10, 4)
        with pytest.raises(error, match=match):
            functional_interval(phat, f, 0.3, spec, mc_draws=draws, seed=5)

    def test_empty_scan_raises_with_guidance(self):
        # at delta this close to one the region hides between coarse grid points
        phat = EmpiricalDistribution((7, 5, 3))
        spec = RegionSpec(0.99999, "levelset", 15, 3)
        with pytest.raises(EmptyScanError, match="finer grid"):
            functional_interval(phat, MEAN3, 0.99999, spec, M=7)


def full_scan_interval(phat, f, delta, spec, M):
    """The grid interval from membership of every grid point: the member
    hull of f widened by the grid padding and clamped to f's range; None
    when no grid point is a member."""
    points = SimplexGrid(phat.k, M).points
    member = membership_grid(phat, spec, points)
    if not member.any():
        return None
    fv = (points @ np.asarray(f.values))[member]
    lo_range, hi_range = f.value_range
    pad = (hi_range - lo_range) * (phat.k - 1) / M
    return IntervalResult(
        lower=max(lo_range, float(fv.min()) - pad),
        upper=min(hi_range, float(fv.max()) + pad),
        method=f"{spec.kind}-grid",
        grid_resolution=M,
        conservative_padding=pad,
    )


class TestExtremalScan:
    """functional_interval tests the grid from each end of the f order and
    stops at the first member; its result must equal the full scan's."""

    @pytest.mark.parametrize("k, n, M, f", [
        (3, 10, 60, MEAN3),
        (2, 30, 400, LinearFunctional((0.3, -1.7))),
    ])
    def test_matches_full_scan_every_outcome(self, k, n, M, f):
        for phat in enumerate_simplex(k, n):
            for kind in KINDS:
                for delta in (0.05, 0.3, 0.7):
                    spec = RegionSpec(delta, kind, n, k)
                    want = full_scan_interval(phat, f, delta, spec, M)
                    try:
                        got = functional_interval(phat, f, delta, spec, M=M)
                    except EmptyScanError:
                        got = None
                    assert got == want

    def test_members_only_in_last_chunk(self):
        # chunks of 64, 128, 256, 512 end at row 960 of the f order; the
        # region of phat sits at the top of f's range, beyond that row
        phat = EmpiricalDistribution((0, 0, 10))
        spec = RegionSpec(0.05, "levelset", 10, 3)
        M = 60
        points = SimplexGrid(3, M).points
        order = np.argsort(points @ np.asarray(MEAN3.values), kind="stable")
        member = membership_grid(phat, spec, points[order])
        assert len(points) > 960
        assert member.any() and not member[:960].any()
        want = full_scan_interval(phat, MEAN3, 0.05, spec, M)
        assert functional_interval(phat, MEAN3, 0.05, spec, M=M) == want

    def test_lone_member(self):
        # one member: the scan and the full scan read its f value from the
        # same whole-grid product
        phat = EmpiricalDistribution((2, 2, 2))
        f = LinearFunctional((0.1, 0.2, 0.3))
        spec = RegionSpec(0.99, "levelset", 6, 3)
        points = SimplexGrid(3, 7).points
        assert membership_grid(phat, spec, points).sum() == 1
        want = full_scan_interval(phat, f, 0.99, spec, 7)
        assert functional_interval(phat, f, 0.99, spec, M=7) == want

    def test_oversized_grid_refused_before_allocation(self):
        phat = EmpiricalDistribution((3, 4, 3))
        spec = RegionSpec(0.3, "levelset", 10, 3)
        assert simplex_size(3, 100_000) > MAX_GRID_POINTS
        caches = (_grid_points, compositions_array)
        stored = [fn.cache_info()[2:] for fn in caches]  # (currsize, nbytes)
        message = rf"Delta_\(3,100000\) has 5000150001 points, more than {MAX_GRID_POINTS}"
        with pytest.raises(OverBudgetError, match=message):
            functional_interval(phat, MEAN3, 0.3, spec, M=100_000)
        # nothing stored; the refused calls still count as misses
        assert [fn.cache_info()[2:] for fn in caches] == stored


class TestSurvivorScan:
    """A level-set scan walks only the points that survive the phat-mass
    prune, in chunks of 8, 16, 32, ... from each end of the f order."""

    def test_members_only_in_last_survivor_chunk(self):
        # 24 survivors: chunks of 8 and 16 from the low end; the two members
        # lie past the first 8 survivors from each end
        phat = EmpiricalDistribution((0, 7, 3))
        spec = RegionSpec(0.9, "levelset", 10, 3)
        M = 12
        points = SimplexGrid(3, M).points
        order = np.argsort(points @ np.asarray(MEAN3.values), kind="stable")
        walked = order[phat_mass_survivors(phat, log_weights(points), 0.9)[order]]
        member = membership_grid(phat, spec, points[walked])
        assert len(walked) == 24
        assert member.any() and not member[:8].any() and not member[-8:].any()
        want = full_scan_interval(phat, MEAN3, 0.9, spec, M)
        assert functional_interval(phat, MEAN3, 0.9, spec, M=M) == want

    def test_no_survivor_raises_empty_scan(self, monkeypatch):
        # every point of the resolution-2 grid has a zero coordinate, where
        # an interior phat has no mass: nothing survives, no kernel call
        phat = EmpiricalDistribution((33, 33, 34))
        spec = RegionSpec(0.05, "levelset", 100, 3)
        points = SimplexGrid(3, 2).points
        assert not phat_mass_survivors(phat, log_weights(points), 0.05).any()
        calls = []
        monkeypatch.setattr(
            regions, "levelset_membership_grid", lambda *args: calls.append(args)
        )
        message = (
            "no member among 6 grid points at resolution 2 (kind=levelset, "
            "n=100, delta=0.05); the region is nonempty, so rerun with a "
            "finer grid"
        )
        with pytest.raises(EmptyScanError) as err:
            functional_interval(phat, MEAN3, 0.05, spec, M=2)
        assert str(err.value) == message
        assert calls == []

    def test_kernel_sees_few_points(self, monkeypatch):
        # a level-set bandit refinement at n = 390: a scan in grid-point
        # chunks from 64 tested 6,016 of the 7,381 grid points
        phat = EmpiricalDistribution((43, 222, 125))
        delta = 0.05 / (5 * 390 * 391)
        spec = RegionSpec(delta, "levelset", 390, 3)
        want = full_scan_interval(phat, MEAN3, delta, spec, 120)
        kernel = regions.levelset_membership_grid
        seen = []

        def counted(phat, delta, points):
            seen.append(len(points))
            return kernel(phat, delta, points)

        monkeypatch.setattr(regions, "levelset_membership_grid", counted)
        assert functional_interval(phat, MEAN3, delta, spec, M=120) == want
        assert sum(seen) <= 200


class TestHoeffding:
    def test_radius_formula(self):
        iv = hoeffding_interval(0.5, 20, 0.7)
        radius = math.sqrt(math.log(2.0 / 0.7) / 40.0)
        assert iv.upper - 0.5 == pytest.approx(radius, abs=1e-15)
        assert 0.5 - iv.lower == pytest.approx(radius, abs=1e-15)

    def test_rejects_degenerate_delta(self):
        with pytest.raises(ValueError):
            hoeffding_interval(0.5, 20, 2.0)

    def test_width_monotone_in_n(self):
        widths = [hoeffding_interval(0.5, n, 0.3).width for n in (10, 40, 160)]
        assert widths[0] > widths[1] > widths[2]

    def test_clamped_to_range(self):
        iv = hoeffding_interval(0.95, 5, 0.3)
        assert iv.upper == 1.0


class TestOracleChernoff:
    def test_zero_variance(self):
        iv = oracle_chernoff_interval(0.4, 0.0, 10, 0.3)
        assert iv.lower == iv.upper == 0.4

    def test_matches_hoeffding_at_worst_case_variance(self):
        n, delta = 25, 0.3
        a, b = 0.0, 1.0
        hoeff = hoeffding_interval(0.5, n, delta, (a, b))
        oracle = oracle_chernoff_interval(0.5, (b - a) ** 2 / 4.0, n, delta, (a, b))
        assert oracle.lower == pytest.approx(hoeff.lower, abs=1e-15)
        assert oracle.upper == pytest.approx(hoeff.upper, abs=1e-15)

    def test_inverse_sqrt_n_scaling(self):
        w1 = oracle_chernoff_interval(0.5, 0.04, 100, 0.3).width
        w2 = oracle_chernoff_interval(0.5, 0.04, 400, 0.3).width
        assert w1 / w2 == pytest.approx(2.0, rel=1e-12)


class TestEmpiricalBernstein:
    def test_zero_variance_leaves_range_term(self):
        samples = [0.4] * 12
        iv = empirical_bernstein_interval(samples, 0.3)
        want = 3.0 * math.log(3.0 / 0.3) / 12.0
        assert iv.upper - 0.4 == pytest.approx(want, abs=1e-15)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            empirical_bernstein_interval([0.5], 0.3)

    def test_rate_approaches_variance_term(self):
        # the 1/n range term washes out against the 1/sqrt(n) variance term
        rng = np.random.default_rng(71)
        ratios = []
        for n in (100, 1000, 10000):
            x = rng.uniform(0, 1, size=n)
            iv = empirical_bernstein_interval(x, 0.3)
            var = x.var(ddof=1)
            sub_gaussian = 2.0 * math.sqrt(2.0 * var * math.log(3.0 / 0.3) / n)
            ratios.append(iv.width / sub_gaussian)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] - 1.0 < (ratios[1] - 1.0) / 2.0
        assert ratios[2] < 1.15


class TestKlBernoulliInterval:
    def test_zero_mean_closed_form(self):
        n, delta = 12, 0.3
        iv = kl_bernoulli_interval(0.0, n, delta)
        level = math.log(2.0 / delta) / n
        assert iv.lower == 0.0
        assert iv.upper == pytest.approx(1.0 - math.exp(-level), abs=1e-9)

    def test_endpoints_satisfy_defining_equation(self):
        iv = kl_bernoulli_interval(0.5, 20, 0.3)
        level = math.log(2.0 / 0.3) / 20.0
        assert kl_bernoulli(0.5, iv.lower) == pytest.approx(level, abs=1e-9)
        assert kl_bernoulli(0.5, iv.upper) == pytest.approx(level, abs=1e-9)

    def test_contains_mean_and_shrinks(self):
        w_prev = None
        for n in (10, 100, 1000, 10000):
            iv = kl_bernoulli_interval(0.3, n, 0.3)
            assert iv.lower <= 0.3 <= iv.upper
            if w_prev is not None:
                assert iv.width < w_prev
            w_prev = iv.width
        assert w_prev < 0.03
