"""Property tests of the paper's identities, of the probability ordering, of
the level-set kernel's prune, of the chi-square screen, of the level-set
bandit's incremental screen and of the KL-bound solver over generated
inputs."""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexcr import (
    EmpiricalDistribution,
    RegionSpec,
    SimplexPoint,
    covering_collection,
    enumerate_simplex,
    member_of_covering,
    region_membership,
)
from simplexcr.core import (
    SimplexGrid,
    compositions_array,
    kl_bernoulli,
    outcome_log_pmf,
)
from simplexcr.functionals import (
    hoeffding_interval,
    kl_bernoulli_bounds_vec,
    kl_bernoulli_interval,
)
from simplexcr.bandit import Arm, _LevelSetBounds
from simplexcr.functionals import LinearFunctional
from simplexcr.regions import _probability_ordering, levelset_membership_grid

from oracles import (
    chi2_membership_grid,
    chi2_membership_grid_masked,
    kl_bernoulli_bounds_bisection,
    levelset_membership_grid_kl_prune,
    levelset_screen_full,
    probability_ordering_lexsort,
)


@st.composite
def simplex_points(draw, k):
    """A seeded Dirichlet point, the uniform point, a point with one zero
    coordinate, or a point with two equal coordinates."""
    if k == 1:
        return SimplexPoint((1.0,))
    shape = draw(st.sampled_from(("dirichlet", "uniform", "zero", "equal")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "dirichlet":
        probs = rng.dirichlet(np.ones(k))
    elif shape == "uniform":
        return SimplexPoint.uniform(k)
    else:
        probs = list(rng.dirichlet(np.ones(k - 1)))
        if shape == "zero":
            probs.insert(draw(st.integers(0, k - 1)), 0.0)
        else:
            j = draw(st.integers(0, k - 2))
            probs[j] /= 2.0
            probs.insert(j, probs[j])
    return SimplexPoint(tuple(probs), normalize=True)


@st.composite
def levelset_cases(draw):
    k = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(0, 12))
    delta = draw(st.floats(0.02, 0.98))
    points = draw(st.lists(simplex_points(k), min_size=2, max_size=3))
    return k, n, delta, points


@settings(derandomize=True, max_examples=250, deadline=None)
@given(levelset_cases())
def test_scalar_grid_and_collection_agree(case):
    """Region/collection duality through every level-set membership entry
    point: the scalar query, region_membership, and one multi-row grid
    call all equal phat in covering_collection(p, n, delta)."""
    k, n, delta, points = case
    rows = np.array([p.probs for p in points])
    collections = [set(covering_collection(p, n, delta).members) for p in points]
    spec = RegionSpec(delta, "levelset", n, k)
    for phat in enumerate_simplex(k, n):
        grid = levelset_membership_grid(phat, delta, rows)
        for p, members, in_grid in zip(points, collections, grid):
            want = phat in members
            assert member_of_covering(phat, p, delta) == want
            assert region_membership(p, phat, spec) == want
            assert bool(in_grid) == want


@st.composite
def prune_cases(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(0, (40, 30, 15, 8, 6)[k - 1]))
    counts = draw(st.lists(st.integers(0, n), min_size=k, max_size=k))
    # spread n over the drawn weights, the remainder on the last category
    total = sum(counts) or 1
    cells = [c * n // total for c in counts[:-1]]
    phat = EmpiricalDistribution(tuple(cells) + (n - sum(cells),))
    delta = draw(st.floats(-12.0, math.log10(0.98)).map(lambda e: 10.0**e))
    points = draw(st.lists(simplex_points(k), min_size=1, max_size=8))
    return phat, delta, points


@settings(derandomize=True, max_examples=400, deadline=None)
@given(prune_cases())
def test_phat_mass_prune_matches_kl_prune(case):
    """levelset_membership_grid, pruned by phat's own mass, gives the bits
    of the same kernel pruned by the KL outer bound, at delta from 1e-12
    to 0.98, on points with zero and with equal coordinates (ties)."""
    phat, delta, points = case
    rows = np.array([p.probs for p in points])
    want = levelset_membership_grid_kl_prune(phat, delta, rows)
    assert np.array_equal(levelset_membership_grid(phat, delta, rows), want)


def log_uniform_deltas(top):
    return st.floats(-12.0, math.log10(top)).map(lambda e: 10.0**e)


@st.composite
def screen_cases(draw):
    k = draw(st.integers(2, 4))
    M = draw(st.integers(10, 120))
    counts = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(0, 400)), min_size=k, max_size=k
        ).filter(lambda c: sum(c) >= 1)
    )
    return EmpiricalDistribution(tuple(counts)), draw(log_uniform_deltas(0.99)), k, M


@settings(derandomize=True, max_examples=150, deadline=None)
@given(screen_cases())
def test_mask_free_screen_matches_masked_screen(case):
    """chi2_membership_grid, which computes the statistic on every grid row
    and lets rows with a zero coordinate fail by inf or nan, gives the bits
    of the screen that masked those rows out first: a row with a zero
    coordinate is never a screen member, which the level-set bandit's
    incremental screen relies on when it drops such rows."""
    phat, delta, k, M = case
    points = SimplexGrid(k, M).points
    want = chi2_membership_grid_masked(phat, delta, points)
    assert np.array_equal(chi2_membership_grid(phat, delta, points), want)


@st.composite
def screen_streams(draw):
    """2-5 arms with 2 or 3 categories, each pulled once, then up to 40
    rounds that pull 0, 1 or 2 arms each, 1 to 5,000 draws at a time, so
    that some regions fall between grid points. Every arm draws only
    categories of a drawn support, so counts often hold zeros. delta_t
    falls as LUCB's delta / (K t (t + 1))."""
    num_arms = draw(st.integers(2, 5))
    arms, supports = [], []
    for _ in range(num_arms):
        k = draw(st.sampled_from((2, 3)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = LinearFunctional(tuple(float(v) for v in rng.normal(size=k)))
        pmf = SimplexPoint(tuple(rng.dirichlet(np.ones(k))), normalize=True)
        arms.append(Arm(pmf, values))
        supports.append(
            draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
        )
    batch = st.sampled_from((1, 2, 3, 50, 5000))
    pull = st.tuples(st.integers(0, num_arms - 1), st.integers(0, 2), batch)
    rounds = draw(st.lists(st.lists(pull, max_size=2), min_size=1, max_size=40))
    first = [draw(st.integers(0, 2)) for _ in range(num_arms)]
    delta = draw(log_uniform_deltas(0.5))
    return arms, supports, first, rounds, delta


@settings(derandomize=True, max_examples=150, deadline=None)
@given(screen_streams())
def test_incremental_screen_matches_full_screen(case):
    """After every round the level-set bandit's incremental screen gives
    the bitwise endpoints of the screen that recomputes chi2_membership_grid
    over the whole grid for every arm."""
    arms, supports, first, rounds, delta = case
    bounds = _LevelSetBounds(arms)
    counts = [np.zeros(arm.pmf.k, dtype=np.int64) for arm in arms]
    for a, c in enumerate(first):
        counts[a][supports[a][c % len(supports[a])]] += 1
    for t, pulls in enumerate(rounds, start=1):
        delta_t = delta / (len(arms) * t * (t + 1))
        got = bounds(counts, None, None, delta_t)
        want = levelset_screen_full(arms, counts, delta_t)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        for a, c, draws in pulls:
            counts[a][supports[a][c % len(supports[a])]] += draws


@st.composite
def bernoulli_cases(draw):
    n = draw(st.integers(1, 10**6))
    mean_hat = draw(
        st.one_of(st.integers(0, n).map(lambda c: c / n), st.floats(0.0, 1.0))
    )
    return mean_hat, n, draw(log_uniform_deltas(0.999))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(bernoulli_cases())
def test_kl_interval_inside_hoeffding_interval(case):
    """Pinsker's inequality, KL(a, b) >= 2 (a - b)^2, puts the two-point KL
    interval inside the Hoeffding interval at the same n and delta."""
    mean_hat, n, delta = case
    kl = kl_bernoulli_interval(mean_hat, n, delta)
    hoeff = hoeffding_interval(mean_hat, n, delta)
    assert kl.lower >= hoeff.lower - 1e-12
    assert kl.upper <= hoeff.upper + 1e-12


@st.composite
def ordering_cases(draw):
    k = draw(st.integers(2, 5))
    n = draw(st.integers(0, 30))
    p = draw(simplex_points(k))
    jitter_seed = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    return k, n, p, jitter_seed


@settings(derandomize=True, max_examples=400, deadline=None)
@given(ordering_cases())
@example((1, 7, SimplexPoint((1.0,)), None))
@example((3, 0, SimplexPoint.uniform(3), None))
def test_probability_ordering_matches_lexsort(case):
    """The run-key ordering equals the lexsort-and-re-sort reference on the
    log-pmfs of every outcome, -inf entries from zero coordinates included.
    A seeded jitter by multiples of 3e-10 makes near-tie runs span distinct
    floats, so that runs chain across more than one LOG_TIE_TOL."""
    k, n, p, jitter_seed = case
    logp = outcome_log_pmf(k, n, p.as_array())
    if jitter_seed is not None:
        rng = np.random.default_rng(jitter_seed)
        logp = logp + 3e-10 * rng.integers(-3, 4, size=len(logp))
    want = probability_ordering_lexsort(compositions_array(k, n), logp)
    assert np.array_equal(_probability_ordering(logp), want)


def mean_hats():
    """Sample means in [0, 1]: the edges, multiples of 1/n, values within
    1e-12 of either edge, and uniform values."""
    fractions = st.integers(1, 2000).flatmap(
        lambda n: st.integers(0, n).map(lambda i: i / n)
    )
    near_zero = st.floats(0.0, 1e-12)
    return st.one_of(
        st.sampled_from((0.0, 1.0)),
        fractions,
        near_zero,
        near_zero.map(lambda x: 1.0 - x),
        st.floats(0.0, 1.0),
    )


def _kl_rounding(mean_hat: float, m: float) -> float:
    """Scale of the absolute rounding error of KL(mean_hat, m) as computed
    by core.kl_bernoulli or core.kl_bernoulli_many: each term's logarithms
    carry about one ulp of their size."""
    s = 0.0
    if mean_hat > 0.0:
        s += mean_hat * (1.0 + abs(math.log(mean_hat)) + abs(math.log(m)))
    if mean_hat < 1.0:
        s += (1.0 - mean_hat) * (
            1.0 + abs(math.log1p(-mean_hat)) + abs(math.log1p(-m))
        )
    return 2.0**-52 * s


def _kl_slope(mean_hat: float, m: float) -> float:
    return abs(m - mean_hat) / (m * (1.0 - m))


def kl_levels():
    """Levels from 1e-14 to 50, log-uniform."""
    return st.floats(-14.0, math.log10(50.0)).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(mean_hats(), kl_levels()), min_size=1, max_size=6))
def test_kl_bounds_feasible_and_match_bisection(pairs):
    """Every endpoint of the Newton solver is feasible by core.kl_bernoulli,
    brackets the sample mean, is 0 or 1 exactly when the 64-step bisection's
    is, and lies within 1e-14 of the bisection's endpoint plus four times
    the distance over which KL's rounding error can move the root. At small
    levels the root is ill-conditioned: KL's rounding error of about 1e-16
    meets a slope of about sqrt(2 level / (m (1 - m))), so the two methods,
    each exact on its own rounded KL, part by more than 1e-14 below level
    ~2.5e-5 and by up to ~5e-10 at level 1e-14."""
    mh = np.array([m for m, _ in pairs])
    levels = np.array([level for _, level in pairs])
    lower, upper = kl_bernoulli_bounds_vec(mh, levels)
    ref_lower, ref_upper = kl_bernoulli_bounds_bisection(mh, levels)
    for m, level, lo, hi, ref_lo, ref_hi in zip(
        mh.tolist(), levels.tolist(), lower.tolist(), upper.tolist(),
        ref_lower.tolist(), ref_upper.tolist(),
    ):
        assert lo <= m <= hi
        for end, ref in ((lo, ref_lo), (hi, ref_hi)):
            assert kl_bernoulli(m, end) <= level
            assert (end in (0.0, 1.0)) == (ref in (0.0, 1.0))
            if end == ref:
                continue
            slope = min(_kl_slope(m, end), _kl_slope(m, ref))
            allowance = 4.0 * (_kl_rounding(m, end) + _kl_rounding(m, ref)) / slope
            assert abs(end - ref) <= 1e-14 + allowance
