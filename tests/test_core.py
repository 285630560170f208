import math
import tracemalloc

import numpy as np
import pytest

from simplexcr import (
    EmpiricalDistribution,
    SimplexGrid,
    SimplexPoint,
    enumerate_simplex,
    simplex_size,
)
from simplexcr import core
from simplexcr.core import (
    MAX_GRID_POINTS,
    _grid_points,
    _log_factorials,
    composition_rank,
    compositions_array,
    exact_sum,
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

    def test_refuses_non_integral_counts(self):
        with pytest.raises(TypeError):
            EmpiricalDistribution((1.5, 2.9))
        with pytest.raises(TypeError):
            EmpiricalDistribution((1.0, 2.0))

    def test_accepts_numpy_integer_counts(self):
        counts = np.random.default_rng(0).multinomial(7, [0.2, 0.3, 0.5])
        phat = EmpiricalDistribution(tuple(counts))
        assert phat.counts == tuple(int(c) for c in counts)
        assert all(type(c) is int for c in phat.counts)

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

    @pytest.mark.parametrize(
        "probs, normalize",
        [
            ((math.nan, 0.5, 0.5), False),
            ((math.nan,), True),
            ((math.inf, 1.0), True),
        ],
    )
    def test_rejects_non_finite(self, probs, normalize):
        with pytest.raises(ValueError, match="finite"):
            SimplexPoint(probs, normalize=normalize)

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
        with pytest.raises(ValueError, match="more than"):
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
        for k, n in [(3, 5), (4, 6)]:
            log_coefficients(k, n)
        _grid_points(3, 4)
        held = _cache_entries()
        infos = [fn.cache_info() for fn in CACHED]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"\(3,3161\).*{MAX_GRID_POINTS}"):
                compositions_array(3, 3161)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the table would take 120 MB
        with pytest.raises(ValueError, match=r"\(3,3161\)"):
            log_coefficients(3, 3161)
        # nothing stored or evicted; each refused call counts as one miss
        assert _cache_entries() == held
        after = [fn.cache_info() for fn in CACHED]
        assert [i._replace(misses=0) for i in after] == [i._replace(misses=0) for i in infos]
        assert [i.misses - j.misses for i, j in zip(after, infos)] == [2, 1, 0]

    def test_log_coefficients_match_gammaln(self):
        gammaln = pytest.importorskip("scipy.special").gammaln
        for k, n in [(1, 7), (2, 0), (3, 0), (3, 40), (4, 12), (5, 9)]:
            counts = compositions_array(k, n)
            want = gammaln(n + 1) - gammaln(counts + 1).sum(axis=1)
            got = log_coefficients(k, n)
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    def test_log_factorials_are_gammalns_bits(self):
        """The port matches scipy.special.gammaln bit for bit on every m up
        to the largest n a table within the budget has. The match rests on
        both calling the same libm ``log`` for x >= 13; this checks it on
        the machine that runs the suite."""
        gammaln = pytest.importorskip("scipy.special").gammaln
        n = MAX_GRID_POINTS
        got = _log_factorials(n)
        want = gammaln(np.arange(1, n + 2, dtype=float))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
        """A count on a zero-probability category gives a row whose
        probability is exactly 0.0: its log-pmf is the finite stand-in for
        log 0 times the count, not -inf."""
        assert math.exp(_log_pmf((1, 0, 0), (0.0, 1.0, 0.0))) == 0.0

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


@pytest.mark.parametrize(
    "values", [[1.0, -1e-300], [-0.0], [0.5, math.nan], [math.inf], [2.0, -math.inf]]
)
def test_exact_sum_refuses_negative_and_nonfinite(values):
    with pytest.raises(ValueError):
        exact_sum(values)


def test_exact_sum_in_blocks_equals_fsum_in_bounded_memory():
    rng = np.random.default_rng(29)
    values = np.ldexp(rng.random(200_000), rng.integers(-1074, 1000, 200_000))
    assert len(values) > 3 * core._SUM_BLOCK
    tracemalloc.start()
    try:
        got = exact_sum(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == math.fsum(values)
    assert peak < 4_000_000  # one block's temporaries; the values take 1.6 MB


#: the functions kept in the shared byte-budgeted cache
CACHED = (compositions_array, log_coefficients, _grid_points)


def _cache_entries() -> list:
    """(key, id of array) of every cached entry, least recently used first."""
    return [(key, id(arr)) for key, arr in core._byte_cached._entries.items()]


@pytest.fixture
def empty_caches():
    for fn in CACHED:
        fn.cache_clear()
    yield
    for fn in CACHED:
        fn.cache_clear()


def test_cache_info_counts_lookups(empty_caches):
    """bench/worker.py's miss_ratio reads these two counters."""
    compositions_array(3, 5)
    compositions_array(3, 5)
    compositions_array(3, 6)
    info = compositions_array.cache_info()
    assert type(info.hits) is int and type(info.misses) is int
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
    compositions_array.cache_clear()
    assert compositions_array.cache_info()[:3] == (0, 0, 0)


def test_cache_holds_more_shapes_than_eight(empty_caches):
    shapes = [(k, n) for k in (2, 3, 4) for n in (3, 5, 7, 9)]
    assert len(shapes) == 12
    for _ in range(2):
        for k, n in shapes:
            compositions_array(k, n)
    info = compositions_array.cache_info()
    assert (info.hits, info.misses, info.currsize) == (12, 12, 12)


def test_cache_evicts_least_recently_used_within_budget(empty_caches, monkeypatch):
    budget = 1000
    monkeypatch.setattr(core, "_CACHE_BYTES", budget)

    def check_held():
        infos = [fn.cache_info() for fn in CACHED]
        held = sum(i.nbytes for i in infos)
        assert held <= budget or sum(i.currsize for i in infos) == 1
        return held

    def misses():
        return sum(fn.cache_info().misses for fn in CACHED)

    # compositions_array(2, n) takes 16 (n + 1) bytes
    a = compositions_array(2, 9)  # 160
    compositions_array(2, 19)  # 320
    compositions_array(2, 29)  # 480
    assert check_held() == 960
    assert compositions_array(2, 9) is a  # a is now the most recent
    compositions_array(2, 14)  # 240 more: (2, 19) goes
    assert check_held() == 880
    before = misses()
    for n in (29, 9, 14):
        compositions_array(2, n)
    assert misses() == before
    compositions_array(2, 19)  # back, and (2, 29) goes
    assert misses() == before + 1
    assert check_held() == 720
    compositions_array(2, 29)
    assert misses() == before + 2
    # a lone entry over the budget is kept, alone
    big = compositions_array(2, 99)  # 1600
    assert check_held() == 1600
    assert compositions_array(2, 99) is big
    # the budget is shared: a log_coefficients entry evicts a table
    log_coefficients(2, 9)  # table (2, 9) at 160, then 80 of coefficients
    assert check_held() == 240
    assert compositions_array.cache_info().currsize == 1
    assert log_coefficients.cache_info().currsize == 1


def test_cached_arrays_are_read_only(empty_caches):
    for _ in range(2):  # on the miss and on the hit
        for arr in (compositions_array(3, 4), log_coefficients(3, 4), _grid_points(3, 4)):
            assert not arr.flags.writeable
    assert [fn.cache_info().hits for fn in CACHED] == [3, 1, 1]


def test_composition_rank_is_row_index():
    for k in range(1, 7):
        for n in range(13):
            rows = compositions_array(k, n).tolist()
            assert [composition_rank(tuple(r)) for r in rows] == list(range(len(rows)))
