import numpy as np
import pytest

from simplexcr import (
    EmpiricalDistribution,
    RegionSpec,
    SimplexPoint,
    average_volume,
    covering_size_integral,
    region_volume,
    simplex_size,
)
from simplexcr.regions import covering_sizes_grid

from oracles import k2_region_measure_bisection, k2_region_runs


class TestRegionVolume:
    def test_small_delta_fills_simplex(self):
        # as delta -> 0 the region absorbs every parameter compatible with
        # phat's support; grid rows with a zero coordinate give phat
        # probability zero and stay outside for any delta < 1
        phat = EmpiricalDistribution((2, 2, 1))
        from simplexcr import SimplexGrid

        pts = SimplexGrid(3, 60).points
        interior_share = float((pts > 0).all(axis=1).mean())
        fractions = [
            region_volume(phat, RegionSpec(d, "levelset", 5, 3), 60)
            for d in (0.3, 0.01, 1e-12)
        ]
        assert fractions[0] < fractions[1] < fractions[2]
        assert fractions[2] == pytest.approx(interior_share, abs=1e-12)

    def test_resolution_floor(self):
        phat = EmpiricalDistribution((2, 2, 1))
        spec = RegionSpec(0.3, "levelset", 5, 3)
        with pytest.raises(ValueError):
            region_volume(phat, spec, 40)

    def test_binary_case_against_bisection_oracle(self):
        M = 2000
        for counts, delta in [((3, 5), 0.3), ((1, 7), 0.1)]:
            phat = EmpiricalDistribution(counts)
            spec = RegionSpec(delta, "levelset", 8, 2)
            frac = region_volume(phat, spec, M)
            oracle = k2_region_measure_bisection(phat, delta)
            assert frac == pytest.approx(oracle, abs=2.0 / M)

    def test_fig2_volume_ordering(self):
        phat = EmpiricalDistribution((6, 6, 3))
        fr = {
            kind: region_volume(phat, RegionSpec(0.7, kind, 15, 3), 200)
            for kind in ("levelset", "sanov", "polytope")
        }
        assert fr["levelset"] < fr["sanov"]
        assert fr["levelset"] < fr["polytope"]


class TestAverageVolume:
    def test_ordering_small_binary_case(self):
        totals = {
            kind: average_volume(RegionSpec(0.3, kind, 4, 2), 300).total
            for kind in ("levelset", "sanov", "polytope")
        }
        assert totals["levelset"] <= totals["polytope"]
        assert totals["levelset"] <= totals["sanov"]

    def test_two_way_counting_identity(self):
        M = 300
        report = average_volume(RegionSpec(0.7, "levelset", 5, 3), M)
        integral = covering_size_integral(5, 3, 0.7, M)
        assert report.total == pytest.approx(integral, abs=3.0 / M)

    @pytest.mark.parametrize("n, delta", [(5, 0.3), (8, 0.1)])
    def test_two_way_counting_identity_at_k2_against_bisection(self, n, delta):
        # Summed over the n + 1 outcomes, the regions' lengths in p1 equal
        # the integral of f(p1) = |S(p1, 1 - p1)| over [0, 1] (duality and
        # Fubini). f is a step function in [1, n + 1] whose jumps lie at the
        # regions' edges inside (0, 1), J in all, so its left Riemann sum
        # on the grid's M cells is within J / M of the integral, and the
        # grid's (M + 1)-point mean within n / (M + 1) of that sum.
        M = 20_000
        runs = [
            run
            for c in range(n + 1)
            for run in k2_region_runs(EmpiricalDistribution((c, n - c)), delta)
        ]
        total = sum(end - start for start, end in runs)
        jumps = sum(end not in (0.0, 1.0) for run in runs for end in run)
        integral = covering_size_integral(n, 2, delta, M)
        assert total == pytest.approx(integral, abs=(jumps + n) / M)

    def test_report_fields(self):
        report = average_volume(RegionSpec(0.3, "sanov", 4, 2), 120)
        assert report.construction == "sanov"
        assert report.grid_resolution == 120
        assert len(report.per_phat) == 5
        assert all(0.0 <= v <= 1.0 for v in report.per_phat.values())
        assert report.total == pytest.approx(sum(report.per_phat.values()))

    def test_degenerate_n_zero(self):
        report = average_volume(RegionSpec(0.3, "levelset", 0, 3), 60)
        assert simplex_size(3, 0) == 1
        assert report.total == 1.0


class TestCoveringSizeIntegral:
    def test_small_delta_interior_limit(self):
        pts = np.array([[0.3, 0.4, 0.3], [0.2, 0.5, 0.3], [1 / 3, 1 / 3, 1 / 3]])
        sizes = covering_sizes_grid(5, 3, 1e-9, pts)
        assert sizes.tolist() == [21, 21, 21]

    def test_uniform_contribution(self):
        pts = np.array([[1 / 3, 1 / 3, 1 / 3]])
        assert covering_sizes_grid(5, 3, 0.7, pts).tolist() == [3]

    def test_matches_average_volume_binary(self):
        M = 400
        total = average_volume(RegionSpec(0.3, "levelset", 4, 2), M).total
        integral = covering_size_integral(4, 2, 0.3, M)
        assert total == pytest.approx(integral, abs=3.0 / M)
