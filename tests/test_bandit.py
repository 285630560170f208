import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexcr import (
    Arm,
    BanditRun,
    LinearFunctional,
    SimplexPoint,
    benchmark_arms,
    lucb_run,
)
from simplexcr import bandit
from simplexcr.bandit import _HoeffdingBounds, _KlBernoulliBounds, _LevelSetBounds
from simplexcr.functionals import (
    _KlBallBracket,
    _kl_ball_sup,
    _kl_bernoulli_solve,
    kl_bernoulli_interval,
)

from oracles import (
    hoeffding_arm_bounds,
    kl_bernoulli_arm_bounds,
    kl_bernoulli_bounds_bisection,
    kl_end_allowance,
)


def four_category_arms() -> list[Arm]:
    """Three four-category arms, each with one zero entry."""
    values = LinearFunctional((0.0, 0.25, 0.75, 1.0))
    return [
        Arm(SimplexPoint((0.0, 0.3, 0.3, 0.4)), values),
        Arm(SimplexPoint((0.4, 0.0, 0.3, 0.3)), values),
        Arm(SimplexPoint((0.25, 0.25, 0.5, 0.0)), values),
    ]


def deterministic_arms() -> list[Arm]:
    """Opposite deterministic payoffs on disjoint supports."""
    values = LinearFunctional((0.0, 1.0))
    return [
        Arm(SimplexPoint((1.0, 0.0)), values),
        Arm(SimplexPoint((0.0, 1.0)), values),
    ]


class TestArms:
    def test_benchmark_means(self):
        means = [arm.true_mean for arm in benchmark_arms()]
        assert means == pytest.approx([0.6, 0.4, 0.35, 0.25, 0.2])

    def test_arm_dimension_check(self):
        with pytest.raises(ValueError):
            Arm(SimplexPoint((0.5, 0.5)), LinearFunctional((0.0, 0.5, 1.0)))


class TestLucbBasics:
    @pytest.mark.parametrize("method", ["hoeffding", "kl-bernoulli", "levelset"])
    def test_deterministic_arms_identify_high_payoff(self, method):
        run = lucb_run(deterministic_arms(), 0.1, 0.0, method, seed=3)
        assert run.completed
        assert run.identified_arm == 1
        assert run.stopping_time >= 2

    def test_validates_inputs(self):
        arms = deterministic_arms()
        with pytest.raises(ValueError):
            lucb_run(arms[:1], 0.1, 0.0, "hoeffding", seed=1)
        with pytest.raises(ValueError):
            lucb_run(arms, 1.5, 0.0, "hoeffding", seed=1)
        with pytest.raises(ValueError):
            lucb_run(arms, 0.1, 0.0, "ucb1", seed=1)

    def test_refuses_nan_tolerance(self):
        # lcb >= ucb - nan is never true: such a run could only hit the cap
        with pytest.raises(ValueError, match="tolerance"):
            lucb_run(benchmark_arms(), 0.05, math.nan, "hoeffding", seed=1, sample_cap=200)

    @pytest.mark.parametrize("tolerance", [-0.5, -1.0, -math.inf])
    def test_refuses_negative_tolerance(self, tolerance):
        # LUCB's tolerance is nonnegative; at -1 the stop rule never holds
        # and at -0.5 a run draws for a gap that may not open
        with pytest.raises(ValueError, match="tolerance"):
            lucb_run(benchmark_arms(), 0.05, tolerance, "hoeffding", seed=1, sample_cap=200)

    def test_counts_account_for_every_sample(self):
        run = lucb_run(benchmark_arms(), 0.2, 0.0, "hoeffding", seed=11)
        assert sum(sum(c) for c in run.per_arm_counts) == run.stopping_time
        assert run.stopping_time == len(run.per_arm_counts) + 2 * (run.rounds - 1)
        assert all(sum(c) >= 1 for c in run.per_arm_counts)

    def test_determinism(self):
        for method in ("hoeffding", "kl-bernoulli"):
            a = lucb_run(benchmark_arms(), 0.2, 0.0, method, seed=5)
            b = lucb_run(benchmark_arms(), 0.2, 0.0, method, seed=5)
            assert a == b
        a = lucb_run(deterministic_arms(), 0.1, 0.0, "levelset", seed=5)
        b = lucb_run(deterministic_arms(), 0.1, 0.0, "levelset", seed=5)
        assert a == b

    def test_sample_cap_flagged(self):
        run = lucb_run(benchmark_arms(), 0.05, 0.0, "hoeffding", seed=2, sample_cap=25)
        assert not run.completed
        assert 0 <= run.identified_arm < 5
        assert run.stopping_time <= 25

    def test_correct_arm_short_sweep(self):
        for seed in range(5):
            run = lucb_run(benchmark_arms(), 0.1, 0.0, "kl-bernoulli", seed=seed)
            assert run.completed
            assert run.identified_arm == 0

    def test_kl_bernoulli_runs_equal_recorded_runs(self):
        """Three kl-bernoulli runs as recorded when every pull still called
        rng.choice: the CDF draw gives the same categories, on three-category
        arms, on four-category arms with zero entries, and up to the cap."""
        arms, arms4 = benchmark_arms(), four_category_arms()
        recorded = [
            (
                lucb_run(arms, 0.2, 0.1, "kl-bernoulli", seed=31),
                BanditRun(31, 1185, 0, ((64, 349, 178), (83, 173, 30), (70, 92, 20),
                          (35, 21, 1), (44, 18, 7)), "kl-bernoulli", 591, True),
            ),
            (
                lucb_run(arms4, 0.1, 0.0, "kl-bernoulli", seed=32),
                BanditRun(32, 3003, 0, ((0, 468, 433, 600), (490, 0, 374, 385),
                          (71, 57, 125, 0)), "kl-bernoulli", 1501, True),
            ),
            (
                lucb_run(arms, 0.05, 0.0, "kl-bernoulli", seed=33, sample_cap=401),
                BanditRun(33, 401, 0, ((19, 123, 54), (28, 55, 7), (24, 22, 2),
                          (25, 9, 4), (21, 7, 1)), "kl-bernoulli", 199, False),
            ),
        ]
        for got, want in recorded:
            assert got == want

    def test_levelset_runs_equal_recorded_runs(self):
        """Three level-set runs as recorded when every round computed both
        ends of every arm, warm-starting every (arm, side) every round: on
        the benchmark arms at tolerance 0 and 0.1, and on four-category
        arms with zero entries."""
        arms, arms4 = benchmark_arms(), four_category_arms()
        recorded = [
            (
                lucb_run(arms, 0.2, 0.0, "levelset", seed=41),
                BanditRun(41, 1403, 0, ((63, 431, 204), (101, 198, 39), (73, 100, 20),
                          (47, 26, 6), (61, 22, 12)), "levelset", 700, True),
            ),
            (
                lucb_run(arms, 0.2, 0.1, "levelset", seed=42),
                BanditRun(42, 485, 0, ((18, 150, 73), (28, 51, 7), (29, 40, 6),
                          (32, 12, 5), (27, 5, 2)), "levelset", 241, True),
            ),
            (
                lucb_run(arms4, 0.1, 0.0, "levelset", seed=43),
                BanditRun(43, 3521, 0, ((0, 560, 536, 664), (630, 0, 480, 517),
                          (29, 38, 67, 0)), "levelset", 1760, True),
            ),
        ]
        for got, want in recorded:
            assert got == want

    @pytest.mark.parametrize("method", ["hoeffding", "kl-bernoulli", "levelset"])
    def test_one_lower_and_rival_uppers_per_round(self, method, monkeypatch):
        """Each round asks for the leader's lower end and every rival's upper
        end, nothing more: the ends the stop rule reads."""
        calls = []

        class Counting(bandit._BOUNDS[method]):
            def lower(self, a, *rest):
                calls.append(("lower", a))
                return super().lower(a, *rest)

            def upper(self, a, *rest):
                calls.append(("upper", a))
                return super().upper(a, *rest)

        monkeypatch.setitem(bandit._BOUNDS, method, Counting)
        arms = benchmark_arms()
        run = lucb_run(arms, 0.2, 0.1, method, seed=7)
        assert len(calls) == run.rounds * len(arms)
        for t in range(run.rounds):
            (side, leader), *rivals = calls[t * len(arms) : (t + 1) * len(arms)]
            assert side == "lower"
            assert rivals == [("upper", a) for a in range(len(arms)) if a != leader]


class TestStrategyIsolation:
    def test_sampling_rule_sees_only_endpoints(self, monkeypatch):
        """Forcing the kl strategy to emit hoeffding endpoints must reproduce
        the hoeffding run exactly: the loop never looks inside a method."""
        arms = benchmark_arms()
        reference = lucb_run(arms, 0.2, 0.0, "hoeffding", seed=13)

        hoeffding = _HoeffdingBounds(arms)
        monkeypatch.setattr(
            _KlBernoulliBounds, "lower", lambda self, *args: hoeffding.lower(*args)
        )
        monkeypatch.setattr(
            _KlBernoulliBounds, "upper", lambda self, *args: hoeffding.upper(*args)
        )
        disguised = lucb_run(arms, 0.2, 0.0, "kl-bernoulli", seed=13)
        assert disguised.stopping_time == reference.stopping_time
        assert disguised.identified_arm == reference.identified_arm
        assert disguised.per_arm_counts == reference.per_arm_counts

    def test_levelset_confirmation_lives_in_its_bounds(self, monkeypatch):
        """A level-set bounds object that emits hoeffding endpoints
        reproduces the hoeffding run: the certified bracket is the whole
        level-set refinement, and the loop holds no confirmation step of
        its own to call."""
        assert not hasattr(_LevelSetBounds, "confirm")
        arms = benchmark_arms()
        reference = lucb_run(arms, 0.2, 0.0, "hoeffding", seed=13)

        hoeffding = _HoeffdingBounds(arms)
        monkeypatch.setattr(
            _LevelSetBounds, "lower", lambda self, *args: hoeffding.lower(*args)
        )
        monkeypatch.setattr(
            _LevelSetBounds, "upper", lambda self, *args: hoeffding.upper(*args)
        )
        disguised = lucb_run(arms, 0.2, 0.0, "levelset", seed=13)
        assert disguised.stopping_time == reference.stopping_time
        assert disguised.identified_arm == reference.identified_arm
        assert disguised.per_arm_counts == reference.per_arm_counts


class TestLevelSetBounds:
    def test_state_belongs_to_one_run(self):
        """A run's bracket writers, with their cached balls and warm starts,
        do not leak into the next run: seed A, then seed B, then seed A
        again gives A's run twice."""
        arms = benchmark_arms()
        first = lucb_run(arms, 0.2, 0.1, "levelset", seed=21)
        other = lucb_run(arms, 0.2, 0.1, "levelset", seed=22)
        again = lucb_run(arms, 0.2, 0.1, "levelset", seed=21)
        assert first == again
        assert other != first

    def test_interleaved_instances_match_solo_runs(self):
        """Two bounds objects driven alternately with different count
        streams, each round asking for one arm's lower end and the other
        arms' upper ends as the loop does, each give the endpoints of the
        same stream driven alone."""
        arms = benchmark_arms()
        rng = np.random.default_rng(8)
        streams = []
        for _ in range(2):
            counts = [np.ones(3, dtype=np.int64) for _ in arms]
            stream = []
            for t in range(1, 60):
                for a in rng.choice(len(arms), size=2, replace=False):
                    counts[a][rng.integers(3)] += 1
                leader = int(rng.integers(len(arms)))
                stream.append(
                    ([c.copy() for c in counts], leader, 0.05 / (5 * t * (t + 1)))
                )
            streams.append(stream)

        def ends(bounds, counts, leader, delta_t):
            return [
                (bounds.lower if a == leader else bounds.upper)(
                    a, counts[a], None, None, delta_t
                )
                for a in range(len(arms))
            ]

        def solo(stream):
            bounds = _LevelSetBounds(arms)
            return [ends(bounds, *step) for step in stream]

        want = [solo(stream) for stream in streams]
        pair = [_LevelSetBounds(arms), _LevelSetBounds(arms)]
        for t in range(len(streams[0])):
            for i in (0, 1):
                got = ends(pair[i], *streams[i][t])
                assert np.array(got).tobytes() == np.array(want[i][t]).tobytes()

    def test_four_category_arms_complete(self):
        """The bracket needs no grid, so arms with four categories run to
        a stop and the better arm is picked."""
        values = LinearFunctional((0.0, 0.25, 0.75, 1.0))
        arms = [
            Arm(SimplexPoint((0.1, 0.2, 0.3, 0.4)), values),
            Arm(SimplexPoint((0.4, 0.3, 0.2, 0.1)), values),
        ]
        run = lucb_run(arms, 0.1, 0.0, "levelset", seed=1)
        assert run.completed
        assert run.identified_arm == 0


class TestKlBallSup:
    """Edge cases of the dual solver behind the level-set bracket."""

    def test_boundary_optimum(self):
        """The top-payoff category is unobserved and g'(max f) >= 0: the
        bound is g at lambda = max f, reached with offset 0."""
        f, w, eps = [0.0, 1.0], [1.0, 0.0], 0.5
        bound, x = _kl_ball_sup(f, w, eps)
        assert x == 0.0
        assert bound == pytest.approx(1.0 - math.exp(-eps), abs=1e-15)

    def test_interior_optimum_matches_two_point_kl(self):
        """With f = (0, 1) the ball's range is the kl-bernoulli interval,
        and for a mean inside (0, 1) the optimum is interior."""
        w, eps = [0.7, 0.3], 0.05
        bound, x = _kl_ball_sup([0.0, 1.0], w, eps)
        assert x > 0.0
        _, ref = kl_bernoulli_bounds_bisection(0.3, eps)
        assert bound == pytest.approx(float(ref), abs=1e-12)

    def test_all_mass_on_top_category(self):
        assert _kl_ball_sup([0.0, 0.5, 1.0], [0.0, 0.0, 1.0], 3.0) == (1.0, 0.0)
        assert _kl_ball_sup([1.0, 0.5, 1.0], [0.4, 0.0, 0.6], 3.0) == (1.0, 0.0)

    def test_constant_payoff(self):
        assert _kl_ball_sup([0.25] * 3, [0.2, 0.3, 0.5], 0.1) == (0.25, 0.0)

    def test_one_category(self):
        assert _kl_ball_sup([2.0], [1.0], 0.1) == (2.0, 0.0)
        run = lucb_run(
            [
                Arm(SimplexPoint((1.0,)), LinearFunctional((0.0,))),
                Arm(SimplexPoint((1.0,)), LinearFunctional((1.0,))),
            ],
            0.1, 0.0, "levelset", seed=4,
        )
        assert run.completed and run.identified_arm == 1 and run.stopping_time == 2

    def test_one_draw_at_tiny_delta(self):
        """n = 1 at delta_t = 1e-12: the ball reaches almost every vertex,
        so the bracket is nearly the whole payoff range, and the observed
        category alone pins its own end: both solves end at the boundary
        offset 0. The bounds object gives the writer's ends."""
        f = LinearFunctional((0.0, 0.5, 1.0))
        counts = np.array([0, 1, 0])
        writer = _KlBallBracket(f)
        lower, upper = writer.end(counts, 1e-12, 0), writer.end(counts, 1e-12, 1)
        assert writer.starts == [0.0, 0.0]
        assert 1.0 - 1e-11 < upper < 1.0
        assert 0.0 < lower < 1e-11
        bounds = _LevelSetBounds([Arm(SimplexPoint((0.2, 0.6, 0.2)), f)])
        lcb = bounds.lower(0, counts, None, None, 1e-12)
        ucb = bounds.upper(0, counts, None, None, 1e-12)
        assert (lcb, ucb) == (lower, upper)
        assert ucb - lcb > 1.0 - 2e-11


class TestKlSolver:
    def test_runs_equal_under_bisection_oracle(self, monkeypatch):
        """The KL-ball dual solver and the 64-step bisection give the same
        kl-bernoulli LUCB runs (500-600 rounds each). The bisection's
        stand-in for _kl_bernoulli_solve looks its ends up in one array call
        over every end the dual runs asked for, calls the bisection for any
        other end, and returns no dual point."""
        arms = benchmark_arms()
        asked = []

        def recording(mean_hat, level, edge, start):
            asked.append((mean_hat, level, edge))
            return _kl_bernoulli_solve(mean_hat, level, edge, start)

        monkeypatch.setattr(bandit, "_kl_bernoulli_solve", recording)
        runs = [lucb_run(arms, 0.2, 0.1, "kl-bernoulli", seed=s) for s in range(5)]
        mean_hats, levels, edges = (np.array(x) for x in zip(*asked))
        lower, upper = kl_bernoulli_bounds_bisection(mean_hats, levels)
        table = dict(zip(asked, np.where(edges == 1.0, upper, lower).tolist()))

        def bisection_root(mean_hat, level, edge, start):
            key = (mean_hat, level, edge)
            if key not in table:
                ends = kl_bernoulli_bounds_bisection(mean_hat, level)
                table[key] = float(ends[edge == 1.0])
            return table[key], None

        monkeypatch.setattr(bandit, "_kl_bernoulli_solve", bisection_root)
        for seed, run in enumerate(runs):
            assert lucb_run(arms, 0.2, 0.1, "kl-bernoulli", seed=seed) == run

    @pytest.mark.parametrize("tolerance", [0.1, 0.0])
    def test_warm_runs_equal_cold_runs(self, tolerance, monkeypatch):
        """Warm-started ends kept per round give the runs of cold solves.
        Without the per-round ends, seeds 1 and 3 fork at both
        tolerances: two rivals at equal (mean, n) get ends a rounding
        apart, and the challenger tie-break goes the other way."""
        arms = benchmark_arms()
        warm = [lucb_run(arms, 0.2, tolerance, "kl-bernoulli", seed=s) for s in range(4)]
        def cold(mean_hat, level, edge, start):
            return _kl_bernoulli_solve(mean_hat, level, edge, None)

        monkeypatch.setattr(bandit, "_kl_bernoulli_solve", cold)
        cold = [lucb_run(arms, 0.2, tolerance, "kl-bernoulli", seed=s) for s in range(4)]
        assert warm == cold

    def test_equal_inputs_in_one_round_give_equal_bits(self):
        """Two arms with equal payoffs and different histories hold
        different dual points, from which one end's warm solves differ in
        the last bit; in one round their upper ends at equal (mean, n,
        delta_t) are still equal bit for bit. A new delta_t empties the
        round's ends."""
        f = LinearFunctional((0.0, 0.5, 1.0))
        arm = Arm(SimplexPoint((0.2, 0.3, 0.5)), f)
        bounds = _KlBernoulliBounds([arm, arm])
        bounds.upper(0, None, 0.3, 5, 0.01)
        bounds.upper(1, None, 0.7, 6, 0.02)
        assert len(bounds.ends) == 1
        start0, start1 = (starts[1] for starts in bounds.starts)
        assert start0 != start1
        level = math.log(2.0 / 0.001) / 20
        solo = [_kl_bernoulli_solve(0.5, level, 1, s)[0] for s in (start0, start1)]
        assert solo[0] != solo[1]
        ends = [bounds.upper(a, None, 0.5, 20, 0.001) for a in (0, 1)]
        assert ends[0] == ends[1] == solo[0]
        assert list(bounds.ends) == [(0.5, level, 1)]
        bounds.lower(1, None, 0.5, 20, 0.0005)
        assert list(bounds.ends) == [(0.5, math.log(2.0 / 0.0005) / 20, 0)]

    def test_round_ends_stay_within_two_per_arm(self, monkeypatch):
        """Over a whole run the round's ends never number more than 2K,
        and afterwards the library's kl-bernoulli interval is still the
        cold solve's."""
        before = kl_bernoulli_interval(0.3, 40, 0.01)
        sizes = []

        class Watched(_KlBernoulliBounds):
            def _end(self, *args):
                end = super()._end(*args)
                sizes.append(len(self.ends))
                return end

        monkeypatch.setitem(bandit._BOUNDS, "kl-bernoulli", Watched)
        arms = benchmark_arms()
        run = lucb_run(arms, 0.05, 0.0, "kl-bernoulli", seed=5)
        assert run.completed and len(sizes) == run.rounds * len(arms)
        assert 0 < max(sizes) <= 2 * len(arms)
        after = kl_bernoulli_interval(0.3, 40, 0.01)
        level = math.log(2.0 / 0.01) / 40
        cold = [_kl_bernoulli_solve(0.3, level, edge, None)[0] for edge in (0, 1)]
        assert after == before and [after.lower, after.upper] == cold


class TestMethodOrdering:
    def test_single_seed_interval_tightness_transfers(self):
        # kl intervals sit inside hoeffding intervals pointwise, so on any
        # fixed history the kl stop cannot come later
        arms = benchmark_arms()
        hoeff = _HoeffdingBounds(arms)
        kl = _KlBernoulliBounds(arms)
        rng = np.random.default_rng(19)
        for _ in range(50):
            a = int(rng.integers(len(arms)))
            n = int(rng.integers(1, 200))
            mean = float(rng.uniform(0, 1))
            delta_t = float(rng.uniform(1e-6, 0.2))
            args = (a, None, mean, n, delta_t)
            assert kl.lower(*args) >= hoeff.lower(*args) - 1e-12
            assert kl.upper(*args) <= hoeff.upper(*args) + 1e-12


@st.composite
def arm_rounds(draw):
    """Arms with random payoffs (a constant payoff among them, a zero
    span), and a round's per-arm means, sample counts and delta_t; a mean
    may sit at or an ulp past either end of its payoff range, where the
    kl-bernoulli scaling clamps it."""
    num = draw(st.integers(1, 5))
    payoff = st.floats(-3.0, 3.0, allow_subnormal=False)
    arms, means = [], []
    for _ in range(num):
        values = draw(st.lists(payoff, min_size=1, max_size=4))
        arms.append(Arm(SimplexPoint((1.0 / len(values),) * len(values)),
                        LinearFunctional(tuple(values))))
        lo, hi = min(values), max(values)
        mean = draw(st.one_of(
            st.floats(lo, hi),
            st.sampled_from([lo, hi, math.nextafter(lo, -math.inf),
                             math.nextafter(hi, math.inf)]),
        ))
        means.append(mean)
    ns = draw(st.lists(st.integers(1, 10**6), min_size=num, max_size=num))
    delta_t = 10.0 ** -draw(st.floats(0.31, 30.0))
    return arms, means, ns, delta_t


@settings(derandomize=True, max_examples=300, deadline=None)
@given(arm_rounds())
@example((benchmark_arms(), [0.6, 0.0, 1.0, 0.25, 0.5], [1, 2, 3, 40, 500], 0.005))
def test_per_arm_ends_match_whole_array_formulas(case):
    """Each arm's lower and upper Hoeffding end is, bit for bit, that arm's
    entry of the whole-array formula over every arm. Each kl-bernoulli end
    lies within the rounding allowance, scaled to the payoff range, of the
    bisection's end over every arm, and a constant payoff's ends are its
    mean."""
    arms, means, ns, delta_t = case
    los = np.array([arm.values.value_range[0] for arm in arms])
    spans = np.array([arm.values.value_range[1] for arm in arms]) - los
    means_a, ns_a = np.array(means), np.array(ns, dtype=float)
    args = [(a, None, means[a], ns[a], delta_t) for a in range(len(arms))]

    lcb, ucb = hoeffding_arm_bounds(los, spans, means_a, ns_a, delta_t)
    bounds = _HoeffdingBounds(arms)
    for a in range(len(arms)):
        assert np.float64(bounds.lower(*args[a])).tobytes() == lcb[a].tobytes()
        assert np.float64(bounds.upper(*args[a])).tobytes() == ucb[a].tobytes()

    lcb, ucb, scaled, levels = kl_bernoulli_arm_bounds(
        los, spans, means_a, ns_a, delta_t
    )
    bounds = _KlBernoulliBounds(arms)
    for a in range(len(arms)):
        lo, span = float(los[a]), float(spans[a])
        ends = (bounds.lower(*args[a]), bounds.upper(*args[a]))
        for edge, end, ref in zip((0.0, 1.0), ends, (lcb[a], ucb[a])):
            if span == 0.0:
                assert end == means[a] == ref
                continue
            end_s = min(max((end - lo) / span, 0.0), 1.0)
            ref_s = min(max((ref - lo) / span, 0.0), 1.0)
            allowance = 1e-14 + kl_end_allowance(
                float(scaled[a]), float(levels[a]), edge, end_s, ref_s
            )
            # the scaling back, lo + span * end, rounds in each
            assert abs(end - ref) <= span * allowance + 2.0**-50 * (abs(lo) + span)
