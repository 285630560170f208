import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

from simplexcr import (
    EmpiricalDistribution,
    SimplexGrid,
    SimplexPoint,
    enumerate_simplex,
    simplex_size,
)
from simplexcr.core import (
    MAX_GRID_POINTS,
    composition_rank,
    compositions_array,
    kahan_cumsum,
    kl_bernoulli_many,
    log_coefficients,
    outcome_log_pmf,
)

from oracles import (
    exact_log_pmf,
    iter_compositions,
    kl_bernoulli,
    kl_divergence,
    point_from_fractions,
    random_rational_point,
)


class TestEmpiricalDistribution:
    def test_basic_fields(self):
        phat = EmpiricalDistribution((1, 2, 2))
        assert phat.n == 5
        assert phat.k == 3
        assert phat.counts == (1, 2, 2)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution((1, -1, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(())

    def test_ordering_is_lexicographic_and_total(self):
        a = EmpiricalDistribution((0, 4))
        b = EmpiricalDistribution((1, 3))
        c = EmpiricalDistribution((1, 3))
        assert a < b
        assert b == c
        assert sorted([b, a]) == [a, b]

    def test_as_point(self):
        phat = EmpiricalDistribution((1, 3))
        assert phat.as_point().probs == (0.25, 0.75)
        with pytest.raises(ValueError):
            EmpiricalDistribution((0, 0)).as_point()


class TestSimplexPoint:
    def test_valid_point(self):
        p = SimplexPoint((0.2, 0.3, 0.5))
        assert p.k == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimplexPoint((0.5, 0.6, -0.1))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SimplexPoint((0.2, 0.3, 0.4))

    def test_normalize_opt_in(self):
        p = SimplexPoint((2.0, 3.0, 5.0), normalize=True)
        assert p.probs == (0.2, 0.3, 0.5)

    def test_uniform(self):
        u = SimplexPoint.uniform(3)
        assert abs(math.fsum(u.probs) - 1.0) <= 1e-12


class TestEnumeration:
    def test_fig_scale_count(self):
        assert len(enumerate_simplex(3, 5)) == 21

    def test_single_category(self):
        assert [e.counts for e in enumerate_simplex(1, 7)] == [(7,)]

    def test_binary_case_listing(self):
        got = [e.counts for e in enumerate_simplex(2, 4)]
        assert got == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]

    def test_counts_match_closed_form(self):
        for k in range(1, 7):
            for n in range(0, 11):
                elems = enumerate_simplex(k, n)
                assert len(elems) == simplex_size(k, n)
                assert len(set(elems)) == len(elems)

    def test_lexicographic_order(self):
        for k, n in [(3, 5), (4, 3)]:
            elems = [e.counts for e in enumerate_simplex(k, n)]
            assert elems == sorted(elems)

    def test_n_zero(self):
        assert [e.counts for e in enumerate_simplex(3, 0)] == [(0, 0, 0)]

    def test_overflow_reports_capacity(self):
        with pytest.raises(OverflowError, match="capacity"):
            enumerate_simplex(60, 60)

    def test_compositions_array_matches_iterator(self):
        for k in range(1, 7):
            for n in range(0, 11):
                arr = compositions_array(k, n)
                assert arr.dtype == np.int64
                assert not arr.flags.writeable
                assert arr.shape == (simplex_size(k, n), k)
                assert [tuple(r) for r in arr.tolist()] == list(iter_compositions(k, n))

    def test_compositions_array_refuses_oversized_table(self):
        # (3, 3161) has 5,000,703 rows, just past the budget
        assert simplex_size(3, 3161) > MAX_GRID_POINTS >= simplex_size(3, 3160)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"\(3,3161\).*{MAX_GRID_POINTS}"):
                compositions_array(3, 3161)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the table would take 120 MB

    def test_log_coefficients_match_gammaln(self):
        for k, n in [(1, 7), (2, 0), (3, 0), (3, 40), (4, 12), (5, 9)]:
            counts = compositions_array(k, n)
            want = gammaln(n + 1) - gammaln(counts + 1).sum(axis=1)
            got = log_coefficients(k, n)
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable


def _log_pmf(counts, probs) -> float:
    """The outcome table's log-pmf row of ``counts`` under ``probs``."""
    logp = outcome_log_pmf(len(counts), sum(counts), probs)
    return float(logp[composition_rank(counts)])


class TestLogPmf:
    def test_deterministic_outcome(self):
        assert _log_pmf((5, 0, 0), (1.0, 0.0, 0.0)) == 0.0

    def test_uniform_example(self):
        expected = math.log(30) - math.log(243)  # 5!/(1!2!2!) / 3^5
        assert _log_pmf((1, 2, 2), SimplexPoint.uniform(3).probs) == pytest.approx(
            expected, abs=1e-12
        )

    def test_impossible_outcome(self):
        assert _log_pmf((1, 0, 0), (0.0, 1.0, 0.0)) == float("-inf")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            outcome_log_pmf(2, 2, SimplexPoint.uniform(3).as_array())

    def test_against_rational_oracle(self):
        rng = np.random.default_rng(11)
        counts = compositions_array(3, 8)
        for _ in range(20):
            fracs = random_rational_point(rng, 3)
            p = point_from_fractions(fracs)
            got = outcome_log_pmf(3, 8, p.as_array())
            for row, g in zip(counts, got):
                want = exact_log_pmf(tuple(row), fracs)
                assert g == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_total_probability_one(self):
        rng = np.random.default_rng(7)
        for k in range(1, 5):
            for n in range(0, 13):
                ps = rng.dirichlet(np.ones(k), size=100)
                for p in ps:
                    total = np.exp(outcome_log_pmf(k, n, p)).sum()
                    assert total == pytest.approx(1.0, abs=1e-10)


class TestKlDivergence:
    def test_identity(self):
        for probs in [(1.0, 0.0), (0.3, 0.7), (0.2, 0.3, 0.5)]:
            p = SimplexPoint(probs)
            assert kl_divergence(p, p) == 0.0

    def test_closed_form(self):
        got = kl_divergence(SimplexPoint((1.0, 0.0)), SimplexPoint((0.5, 0.5)))
        assert got == pytest.approx(math.log(2.0), abs=1e-15)

    def test_direct_summation_example(self):
        p = SimplexPoint((6 / 15, 6 / 15, 3 / 15))
        q = SimplexPoint.uniform(3)
        want = math.fsum(
            a * math.log(a / b) for a, b in zip(p.probs, q.probs)
        )
        assert kl_divergence(p, q) == pytest.approx(want, abs=1e-15)

    def test_infinite_when_support_mismatch(self):
        got = kl_divergence(SimplexPoint((0.5, 0.5)), SimplexPoint((1.0, 0.0)))
        assert got == float("inf")

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = SimplexPoint(tuple(rng.dirichlet(np.ones(3))), normalize=True)
            q = SimplexPoint(tuple(rng.dirichlet(np.ones(3))), normalize=True)
            d = kl_divergence(p, q)
            assert d >= 0.0
            if max(abs(a - b) for a, b in zip(p.probs, q.probs)) > 1e-12:
                assert d > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(SimplexPoint((0.5, 0.5)), SimplexPoint.uniform(3))


class TestKlBernoulli:
    def test_zero_at_equality(self):
        assert kl_bernoulli(0.5, 0.5) == 0.0

    def test_closed_form(self):
        assert kl_bernoulli(1.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_direct_two_term_sum(self):
        want = 0.4 * math.log(0.4 / 0.2) + 0.6 * math.log(0.6 / 0.8)
        assert kl_bernoulli(0.4, 0.2) == pytest.approx(want, abs=1e-15)

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            kl_bernoulli(1.2, 0.5)
        with pytest.raises(ValueError):
            kl_bernoulli(0.5, -0.1)

    def test_subnormal_second_argument_stays_finite(self):
        """a / b overflows for b below about a / 1.8e308; log a - log b does
        not, and KL(0.046, 5e-324) is about 34."""
        got = kl_bernoulli(0.046, 5e-324)
        want = kl_bernoulli_many(np.array([0.046]), np.array([[5e-324]]))[0, 0]
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-15)
        assert 34.0 < got < 34.1

    def test_infinite_cases(self):
        assert kl_bernoulli(0.3, 0.0) == float("inf")
        assert kl_bernoulli(0.3, 1.0) == float("inf")
        assert kl_bernoulli(0.0, 0.0) == 0.0
        assert kl_bernoulli(1.0, 1.0) == 0.0


class TestSimplexGrid:
    def test_point_count(self):
        grid = SimplexGrid(3, 20)
        assert len(grid) == simplex_size(3, 20)
        assert grid.points.shape == (len(grid), 3)

    def test_points_are_valid(self):
        for row in SimplexGrid(3, 7).points:
            SimplexPoint(tuple(row))  # raises when invalid

    def test_iterates_simplex_points(self):
        pts = [SimplexPoint(tuple(row)) for row in SimplexGrid(2, 4).points]
        assert [p.probs for p in pts] == [
            (0.0, 1.0),
            (0.25, 0.75),
            (0.5, 0.5),
            (0.75, 0.25),
            (1.0, 0.0),
        ]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SimplexGrid(0, 10)
        with pytest.raises(ValueError):
            SimplexGrid(3, 0)


def test_kahan_cumsum_matches_fsum():
    rng = np.random.default_rng(13)
    vals = rng.random(5000) * 1e-6
    cum = kahan_cumsum(vals, math.inf)
    assert cum[-1] == pytest.approx(math.fsum(vals), abs=1e-18)
    assert cum[10] == pytest.approx(math.fsum(vals[:11]), abs=1e-18)
    target = float(cum[2500])
    prefix = kahan_cumsum(vals, target)
    first = int(np.flatnonzero(cum >= target)[0])
    assert np.array_equal(prefix, cum[: first + 1])


def test_composition_rank_is_row_index():
    for k in range(1, 7):
        for n in range(13):
            rows = compositions_array(k, n).tolist()
            assert [composition_rank(tuple(r)) for r in rows] == list(range(len(rows)))
