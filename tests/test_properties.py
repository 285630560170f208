"""Property tests of the paper's identities, of the probability ordering
(one outcome vector or a block of columns), of the collection-side volume
count, of the level-set kernel's prune, of the KL-ball bracket on the
level-set region, of the KL-bound solver, of the exact p-value and of its
correctly rounded sum over generated inputs."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexcr import (
    EmpiricalDistribution,
    LinearFunctional,
    RegionSpec,
    SimplexPoint,
    average_volume,
    covering_collection,
    enumerate_simplex,
    member_of_covering,
    p_value,
    region_membership,
)
from simplexcr import regions
from simplexcr.core import (
    LOG_TIE_TOL,
    SimplexGrid,
    composition_rank,
    compositions_array,
    exact_sum,
    kl_to_many,
    log_coefficients,
    log_weights,
    outcome_log_pmf,
)
from simplexcr.functionals import (
    _KL_LEVEL_FLOOR,
    _KlBallBracket,
    _kl_ball_sup,
    _kl_bernoulli_end,
    hoeffding_interval,
    kl_bernoulli_interval,
)
from simplexcr.regions import (
    _probability_ordering,
    covering_member_counts,
    kl_ball_radius,
    levelset_membership_grid,
    membership_grid,
    phat_mass_survivors,
)

from oracles import (
    exact_p_value,
    kl_bernoulli_bounds_bisection,
    kl_end_allowance,
    levelset_membership_grid_kl_prune,
    per_outcome_volumes,
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
    call all equal phat in covering_collection(p, n, delta), and
    covering_member_counts counts phat at the points whose collection
    holds it (Dirichlet, uniform, face and equal-coordinate points)."""
    k, n, delta, points = case
    rows = np.array([p.probs for p in points])
    collections = [set(covering_collection(p, n, delta).members) for p in points]
    spec = RegionSpec(delta, "levelset", n, k)
    held = covering_member_counts(n, k, delta, rows).tolist()
    for phat, count in zip(enumerate_simplex(k, n), held):
        grid = levelset_membership_grid(phat, delta, rows)
        for p, members, in_grid in zip(points, collections, grid):
            want = phat in members
            assert member_of_covering(phat, p, delta) == want
            assert region_membership(p, phat, spec) == want
            assert bool(in_grid) == want
        assert count == sum(phat in members for members in collections)


GEMM_SHAPE_NOTE = (
    "one-row and many-row level-set answers differ; this check depends on "
    "the BLAS build's matrix product giving each entry the same bits for "
    "any number of columns from two up (fallback: a fixed-order sum "
    "coef + c_0 w_0 + c_1 w_1 + ...)"
)


def test_one_row_and_two_row_answers_agree_at_a_boundary_point():
    """A point within rounding of the level-set boundary, where a one-row
    product run as a matrix-vector product rounds differently from a
    two-row product: every entry point says False."""
    phat = EmpiricalDistribution((9, 15))
    delta = 0.5364805196294313
    p = SimplexPoint((0.4596735846041373, 0.5403264153958627))
    spec = RegionSpec(delta, "levelset", 24, 2)
    rows = np.array([p.probs, SimplexPoint.uniform(2).probs])
    assert phat not in covering_collection(p, 24, delta)
    assert not membership_grid(phat, spec, rows)[0], GEMM_SHAPE_NOTE
    assert not region_membership(p, phat, spec), GEMM_SHAPE_NOTE


@st.composite
def boundary_rays(draw):
    """phat, delta log-uniform in [1e-4, 0.9] and a ray from phat's own
    point, where phat is a member, to a point that gives one of phat's
    positive counts probability 0, where it is not, at k from 2 to 5."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, (40, 20, 12, 8)[k - 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.multinomial(n, rng.dirichlet(np.ones(k)))
    delta = draw(st.floats(-4.0, math.log10(0.9)).map(lambda e: 10.0**e))
    end = rng.dirichlet(np.ones(k))
    end[rng.choice(np.flatnonzero(counts))] = 0.0
    phat = EmpiricalDistribution(tuple(int(c) for c in counts))
    return phat, delta, counts / n, end / end.sum()


def one_row(phat, delta, p):
    return bool(levelset_membership_grid(phat, delta, np.asarray(p)[None, :])[0])


def boundary_points(phat, delta, start, end):
    """Bisect the ray from start, a member, to end, a non-member, onto the
    kernel's boundary with one-row calls, and return the last 16 bisection
    points, all within rounding of the boundary."""
    assert one_row(phat, delta, start) and not one_row(phat, delta, end)
    lo, hi, tried = 0.0, 1.0, []
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        tried.append(mid)
        if one_row(phat, delta, start + mid * (end - start)):
            lo = mid
        else:
            hi = mid
    return start + np.array(tried[-16:])[:, None] * (end - start)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(boundary_rays(), st.permutations(range(16)))
def test_one_row_and_many_row_answers_agree_on_the_boundary(case, perm):
    """On the last 16 bisection points of a ray, all within rounding of
    the boundary, a many-row call, the same call with its rows shuffled,
    and each point's one-row call give the same bits."""
    phat, delta, start, end = case
    rows = boundary_points(phat, delta, start, end)
    single = [one_row(phat, delta, row) for row in rows]
    many = levelset_membership_grid(phat, delta, rows)
    shuffled = levelset_membership_grid(phat, delta, rows[list(perm)])
    assert many.tolist() == single, GEMM_SHAPE_NOTE
    assert shuffled.tolist() == [single[i] for i in perm], GEMM_SHAPE_NOTE


@settings(derandomize=True, max_examples=250, deadline=None)
@given(boundary_rays())
@example(  # reaches p = (0.46875000024902297, 0.531249999750977)
    (EmpiricalDistribution((14, 17)), 0.8946178760692466, np.array([14, 17]) / 31,
     np.array([1.0, 0.0]))
)
def test_kernel_and_collection_agree_on_the_boundary(case):
    """Region/collection duality within rounding of the boundary: on the
    last 16 bisection points of a ray, normalized through SimplexPoint so
    that both sides see the same floats, the one-row kernel, the many-row
    kernel and phat in covering_collection give the same answer, and
    covering_member_counts counts phat at as many points. The sides share
    the log-pmf product, the tie test's arithmetic and the correctly
    rounded mass comparison; a difference in any of them makes some of
    these points disagree."""
    phat, delta, start, end = case
    rows = boundary_points(phat, delta, start, end)
    points = [SimplexPoint(tuple(row), normalize=True) for row in rows]
    rows = np.array([p.probs for p in points])
    many = levelset_membership_grid(phat, delta, rows)
    for p, in_many in zip(points, many):
        want = phat in covering_collection(p, phat.n, delta)
        assert one_row(phat, delta, p.probs) == want
        assert bool(in_many) == want
    held = covering_member_counts(phat.n, phat.k, delta, rows)
    assert held[composition_rank(phat.counts)] == many.sum()


@pytest.mark.parametrize("k, n", [(3, 30), (5, 50)])
def test_band_answers_on_the_boundary(monkeypatch, k, n):
    """On the last 16 bisection points of seeded rays, the kernel's answer
    is the correctly rounded mass G (math.fsum of the probabilities ranked
    before phat) compared with 1 - delta, and it differs from the oracle's
    float sum only where G lies within 2 N u G of 1 - delta. At k = 3,
    n = 30 the 16 points form one block; at k = 5, n = 50 each is a block
    of its own, summed pairwise. Some points must reach exact_sum."""
    calls = []
    exact = regions.exact_sum
    monkeypatch.setattr(regions, "exact_sum", lambda v: calls.append(1) or exact(v))
    counts_f = compositions_array(k, n).astype(float)
    coef = log_coefficients(k, n)
    reached = 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(n, rng.dirichlet(np.ones(k)))
        delta = 10.0 ** rng.uniform(-4.0, math.log10(0.9))
        end = rng.dirichlet(np.ones(k))
        end[rng.choice(np.flatnonzero(counts))] = 0.0
        phat = EmpiricalDistribution(tuple(int(c) for c in counts))
        rows = boundary_points(phat, delta, counts / n, end / end.sum())
        before = len(calls)
        got = levelset_membership_grid(phat, delta, rows)
        reached += len(calls) > before
        want = levelset_membership_grid_kl_prune(phat, delta, rows)
        lp = regions._log_pmf_block(coef, counts_f, log_weights(rows))
        idx = composition_rank(phat.counts)
        sel = (lp > lp[idx] + LOG_TIE_TOL) | (
            (np.arange(len(lp)) < idx)[:, None] & (lp + LOG_TIE_TOL >= lp[idx])
        )
        pr = np.exp(lp)
        mass = np.array([math.fsum(pr[sel[:, j], j]) for j in range(len(rows))])
        target = 1.0 - delta
        assert got.tolist() == (mass < target).tolist()
        band = np.abs(mass - target) <= 2.0 * len(lp) * 2.0**-53 * mass
        assert band[got != want].all()
    assert reached > 0


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


@st.composite
def row_cut_cases(draw):
    """Shapes where the kernel's row cut keeps far fewer rows than the
    oracle's floor: n log-uniform up to 3,000 at k = 2, 600 at k = 3 and
    40 at k = 4 and 5. delta is log-uniform in [1e-8, 0.95]; the points are
    drawn around phat at spreads from a tenth to ten times its own, and
    some get a zero coordinate. Drawn from one seeded generator, so that
    large n and small delta are as likely as small n and large delta."""
    k = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(round((3000, 600, 40, 40)[k - 2] ** rng.uniform()))
    counts = rng.multinomial(n, rng.dirichlet(np.ones(k)))
    delta = 10.0 ** rng.uniform(-8.0, math.log10(0.95))
    points = []
    for spread in 10.0 ** rng.uniform(-1.0, 1.0, size=rng.integers(1, 7)):
        p = rng.dirichlet((counts + 0.5) / spread**2 + 0.05)
        if rng.random() < 0.2:
            p[rng.integers(k)] = 0.0
        points.append(p / p.sum() if p.sum() > 0.0 else np.full(k, 1.0 / k))
    phat = EmpiricalDistribution(tuple(int(c) for c in counts))
    return phat, delta, np.array(points)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(row_cut_cases())
def test_row_cut_matches_the_floor_oracle(case):
    """The kernel's row cut by the prune's own bound gives the bits of the
    oracle, which keeps the rows above the floor log(delta) - log N - 30:
    the many-row answer and each one-row answer."""
    phat, delta, rows = case
    want = levelset_membership_grid_kl_prune(phat, delta, rows)
    assert np.array_equal(levelset_membership_grid(phat, delta, rows), want)
    for row, bit in zip(rows, want):
        assert levelset_membership_grid(phat, delta, row[None, :])[0] == bit


def log_uniform_deltas(top):
    return st.floats(-12.0, math.log10(top)).map(lambda e: 10.0**e)


@st.composite
def bracket_cases(draw):
    """k from 2 to 5, counts with zeros, delta log-uniform in [1e-12, 0.9]
    and normal payoffs, some of them tied."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, (60, 30, 12, 8)[k - 2]))
    weights = draw(
        st.lists(st.one_of(st.just(0), st.integers(1, 9)), min_size=k, max_size=k)
    )
    total = sum(weights) or 1
    cells = [c * n // total for c in weights[:-1]]
    counts = tuple(cells) + (n - sum(cells),)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = rng.normal(size=k)
    if draw(st.booleans()):  # tie the top payoff with another category
        f[rng.integers(k)] = f.max()
    return counts, draw(log_uniform_deltas(0.9)), f


def bracket(counts, delta, f):
    """The bracket's lower and upper ends from a fresh _KlBallBracket, the
    level eps = kl_ball_radius(counts, delta) / n of the ball that holds
    the level-set region, and the writer's two dual offsets lambda - max
    g, g = -f and f."""
    writer = _KlBallBracket(LinearFunctional(tuple(f)))
    lower = writer.end(np.array(counts), delta, 0)
    upper = writer.end(np.array(counts), delta, 1)
    return lower, upper, kl_ball_radius(counts, delta) / sum(counts), *writer.starts


def ball_maximizer(f, w, eps, x):
    """The maximizer of f.p over {p : KL(w || p) <= eps} that the dual
    point lambda = max f + x gives: p_j = w_j / ((lambda - f_j) S1) inside;
    at the boundary x = 0, E w_j / (lambda - f_j) on the observed categories
    and the rest of the mass on an unobserved top-payoff category; w itself
    when every observed category pays max f."""
    f, w = np.asarray(f, dtype=float), np.asarray(w, dtype=float)
    obs = w > 0.0
    top = f.max()
    if (f[obs] == top).all():
        return w
    p = np.zeros_like(w)
    d = x + (top - f[obs])
    if x == 0.0:
        e = math.exp(float(w[obs] @ np.log(d)) - eps)
        p[obs] = e * w[obs] / d
        p[np.flatnonzero(~obs & (f == top))[0]] = 1.0 - p.sum()
    else:
        p[obs] = w[obs] / d / (w[obs] / d).sum()
    return p


@settings(derandomize=True, max_examples=120, deadline=None)
@given(bracket_cases())
def test_kl_ball_bracket_contains_the_region(case):
    """The bracket holds the payoff of every level-set member: members of a
    resolution-60 grid at k <= 3, of 3,000 Dirichlet draws at k >= 4."""
    counts, delta, f = case
    k = len(counts)
    lower, upper = bracket(counts, delta, f)[:2]
    if k <= 3:
        points = SimplexGrid(k, 60).points
    else:
        points = np.random.default_rng(sum(counts)).dirichlet(np.ones(k), 3000)
    member = levelset_membership_grid(EmpiricalDistribution(counts), delta, points)
    fv = points[member] @ f
    assert (fv >= lower - 1e-9).all()
    assert (fv <= upper + 1e-9).all()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(bracket_cases())
def test_kl_ball_bracket_is_tight(case):
    """At each end, the primal point recovered at the solver's dual point
    lies in the ball (KL at most eps (1 + 1e-9)) and has a payoff within
    1e-9 of the end."""
    counts, delta, f = case
    lower, upper, eps, x_down, x_up = bracket(counts, delta, f)
    w = np.array(counts) / sum(counts)
    for g, end, x in ((-f, -lower, x_down), (f, upper, x_up)):
        p = ball_maximizer(g, w, eps, x)
        assert kl_to_many(w, p[None, :])[0] <= eps * (1.0 + 1e-9)
        assert abs(float(g @ p) - end) <= 1e-9


@settings(derandomize=True, max_examples=300, deadline=None)
@given(bracket_cases(), st.lists(st.floats(-9.0, 3.0), min_size=1, max_size=5))
def test_kl_ball_dual_is_least_at_the_solution(case, offsets):
    """g(lambda) at lambda = max f and at max f + 10^u, u in [-9, 3], is at
    least the solver's bound, up to rounding."""
    counts, delta, f = case
    w = np.array(counts) / sum(counts)
    _, upper, eps, _, _ = bracket(counts, delta, f)
    obs = w > 0.0
    for lam in [f.max()] + [f.max() + 10.0**u for u in offsets]:
        with np.errstate(divide="ignore"):
            log_e = float(w[obs] @ np.log(lam - f[obs])) - eps
        assert lam - math.exp(log_e) >= upper - 1e-12 * (1.0 + abs(lam))


def dual_allowance(f, w, eps, x):
    """The dual-rounding term of oracles.kl_end_allowance for any k: the
    bound is max f + x - E, and E = exp(sum w_j log(x + a_j) - eps) errs by
    about 2^-52 times the size of its exponent's terms; four times that."""
    top = max(f)
    logs = math.fsum(wj * abs(math.log(x + (top - fj))) for wj, fj in zip(w, f) if wj > 0.0)
    return 4.0 * 2.0**-52 * (1.0 + x) * (1.0 + eps + logs)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(bracket_cases(), st.floats(-10.0, math.log10(30.0)))
def test_kl_ball_sup_does_not_depend_on_its_start(case, log_eps):
    """The bound from a start at 0.5x, 2x + 1e-3, x + 10, 1e-6 or (1 +
    1e-3)x, x the cold solve's offset, is the cold bound up to the dual's
    rounding at both offsets; a start outside the Newton bracket is
    replaced by its midpoint. Weights come from counts with zeros, eps is
    log-uniform in [1e-10, 30]. A cold offset of 0 is an explicit case,
    which no start reaches."""
    counts, _, f = case
    f = f.tolist()
    w = [c / sum(counts) for c in counts]
    eps = 10.0**log_eps
    cold, x = _kl_ball_sup(f, w, eps)
    for start in (0.5 * x, 2.0 * x + 1e-3, x + 10.0, 1e-6, (1.0 + 1e-3) * x):
        warm, x_warm = _kl_ball_sup(f, w, eps, start)
        if x == 0.0:
            assert (warm, x_warm) == (cold, x)
            continue
        allowance = dual_allowance(f, w, eps, x) + dual_allowance(f, w, eps, x_warm)
        assert abs(warm - cold) <= allowance


@settings(derandomize=True, max_examples=200, deadline=None)
@given(bracket_cases(), st.integers(0, 4), st.integers(0, 3))
def test_bracket_writer_follows_its_counts(case, a, b):
    """One writer driven through counts c, c + e_i, c + e_i + e_j, back to
    c + e_i, then c + e_j (the same n), at a delta halved every step, gives
    at each step and side a fresh writer's cold end, up to the dual's
    rounding at both offsets: its cached radius offset and weights follow
    the counts, and a warm start moves an end only by rounding."""
    counts, delta, f = case
    k = len(counts)
    i = a % k
    j = (i + 1 + b % (k - 1)) % k
    c, e = np.array(counts), np.eye(k, dtype=np.int64)
    functional = LinearFunctional(tuple(f))
    writer = _KlBallBracket(functional)
    for t, step in enumerate([c, c + e[i], c + e[i] + e[j], c + e[i], c + e[j]]):
        d = delta * 0.5**t
        n = int(step.sum())
        w, eps = step / n, kl_ball_radius(step, d) / n
        for side, g in ((0, -f), (1, f)):
            warm = writer.end(step, d, side)
            fresh = _KlBallBracket(functional)
            cold = fresh.end(step, d, side)
            x, x_warm = fresh.starts[side], writer.starts[side]
            if x == 0.0:  # an explicit case, which no start reaches
                assert (warm, x_warm) == (cold, x)
                continue
            allowance = dual_allowance(g, w, eps, x) + dual_allowance(g, w, eps, x_warm)
            assert abs(warm - cold) <= allowance


@settings(derandomize=True, max_examples=300, deadline=None)
@given(bracket_cases(), st.integers(0, 2**32 - 1))
def test_kl_ball_radius_restates_the_prune(case, seed):
    """n KL(phat || p) < kl_ball_radius exactly where phat_mass_survivors
    keeps p, on every point farther than 1e-9 r from the radius: uniform
    Dirichlet points, points drawn around phat at several spreads, and the
    vertices, of which at least one lies outside the ball."""
    counts, delta, _ = case
    k, n = len(counts), sum(counts)
    rng = np.random.default_rng(seed)
    w = np.array(counts) / n
    points = np.vstack(
        [np.eye(k), rng.dirichlet(np.ones(k), 200)]
        + [rng.dirichlet(w * s + 0.05, 200) for s in (3.0, 30.0, 300.0)]
    )
    r = kl_ball_radius(counts, delta)
    kept = phat_mass_survivors(EmpiricalDistribution(counts), log_weights(points), delta)
    nkl = n * kl_to_many(w, points)
    far = np.abs(nkl - r) > 1e-9 * r
    assert np.array_equal((nkl < r)[far], kept[far])
    assert (nkl < r).any() and not (nkl < r).all()


@st.composite
def bernoulli_cases(draw):
    n = draw(st.integers(1, 10**6))
    mean_hat = draw(
        st.one_of(st.integers(0, n).map(lambda c: c / n), st.floats(0.0, 1.0))
    )
    return mean_hat, n, draw(log_uniform_deltas(0.999))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(bernoulli_cases())
@example((0.5, 1, 1e-310))  # 2 / delta overflows: the level is inf
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
    log-pmfs of every outcome, the finite stand-in for log 0 at zero
    coordinates included. A seeded jitter by multiples of 3e-10 makes
    near-tie runs span distinct floats, so that runs chain across more than
    one LOG_TIE_TOL."""
    k, n, p, jitter_seed = case
    logp = outcome_log_pmf(k, n, p.as_array())
    if jitter_seed is not None:
        rng = np.random.default_rng(jitter_seed)
        logp = logp + 3e-10 * rng.integers(-3, 4, size=len(logp))
    want = probability_ordering_lexsort(compositions_array(k, n), logp)
    assert np.array_equal(_probability_ordering(logp), want)


@st.composite
def ordering_blocks(draw):
    """An (N, m) block of log-pmf columns over Delta_(k,n): each under its
    own point (exact ties at uniform and equal coordinates, the finite
    stand-in for log 0 on a face), optionally jittered by multiples of
    3e-10 into near ties of unequal values, and optionally with some
    entries set to -inf."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(0, 20))
    points = draw(st.lists(simplex_points(k), min_size=1, max_size=6))
    block = np.column_stack([outcome_log_pmf(k, n, p.as_array()) for p in points])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        block += 3e-10 * rng.integers(-3, 4, size=block.shape)
    if draw(st.booleans()):
        block[rng.random(block.shape) < 0.2] = -np.inf
    return k, n, block


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ordering_blocks())
def test_probability_ordering_orders_each_column_alone(case):
    """_probability_ordering of a block orders every column as the
    one-column call and the lexsort reference do."""
    k, n, block = case
    counts = compositions_array(k, n)
    whole = _probability_ordering(block)
    for j in range(block.shape[1]):
        want = probability_ordering_lexsort(counts, block[:, j])
        assert np.array_equal(_probability_ordering(block[:, j]), want)
        assert np.array_equal(whole[:, j], want)


@st.composite
def volume_cases(draw):
    """k from 1 to 4, n from 0 to 8 (to 5 at k = 4), delta log-uniform in
    [1e-4, 0.95] and a grid resolution M from 50 to 200 (to 55 at k = 4):
    the reference makes one call per outcome over a grid that grows as M^3
    at k = 4. Every grid holds points on each face and at equal
    coordinates."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(0, 5 if k == 4 else 8))
    delta = draw(st.floats(-4.0, math.log10(0.95)).map(lambda e: 10.0**e))
    M = draw(st.integers(50, 55 if k == 4 else 200))
    return k, n, delta, M


@settings(derandomize=True, max_examples=60, deadline=None)
@given(volume_cases())
def test_levelset_volumes_equal_the_per_outcome_kernel(case):
    """The two-way counting identity, outcome by outcome: the level-set
    volumes that average_volume counts from the collection side equal
    the region side's, one kernel call per outcome, bit for bit."""
    k, n, delta, M = case
    spec = RegionSpec(delta, "levelset", n, k)
    assert average_volume(spec, M).per_phat == per_outcome_volumes(spec, M)


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


def kl_levels():
    """Levels from 1e-14 to 50, log-uniform."""
    return st.floats(-14.0, math.log10(50.0)).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(mean_hats(), kl_levels()), min_size=1, max_size=6))
@example([(0.9921875, math.log(20.0))])  # d * d underflows in the dual
@example([(0.046, 46.0)])  # the lower end is below the least subnormal
@example([(5e-324, 1.0)])  # no float inside the dual's bracket
@example([(5e-324, 1e-14)])  # rounding puts the dual's lower end above m
@example([(0.5, 800.0)])  # e^eps overflows
def test_kl_bounds_feasible_and_match_bisection(pairs):
    """Every end of the two-point KL ball brackets the sample mean and lies
    within 1e-14 plus kl_end_allowance of the 64-step bisection's end. The
    dual's ends lie at or outside the exact ones up to rounding: none lies
    inside the bisection's feasible end by more than kl_end_allowance."""
    for m, level in pairs:
        ref_lo, ref_hi = (float(r) for r in kl_bernoulli_bounds_bisection(m, level))
        lo = _kl_bernoulli_end(m, level, 0.0)
        hi = _kl_bernoulli_end(m, level, 1.0)
        assert lo <= m <= hi
        for edge, end, ref in ((0.0, lo, ref_lo), (1.0, hi, ref_hi)):
            allowance = kl_end_allowance(m, level, edge, end, ref)
            assert abs(end - ref) <= 1e-14 + allowance
            inward = ref - end if edge else end - ref
            assert inward <= allowance


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    bernoulli_cases(),
    st.one_of(st.integers(1, 10**6), st.integers(1, 10**300)),
    st.floats(0.0, 320.0).map(lambda e: 0.999 * 10.0**-e),
)
@example((0.9921875, 1, 0.1), 1, 0.1)
@example((0.5, 1, 1e-310), 1, 1e-310)
@example((5e-324, 1, 0.5), 10**15, 0.999)
@example((0.5, 1, 0.5), 10**300, 0.5)  # a level far below the floor
def test_kl_interval_ends_match_bisection(case, n, delta):
    """kl_bernoulli_interval raises nothing for a mean in [0, 1], n >= 1 and
    delta in (0, 1), subnormal delta and an overflowing 2 / delta included.
    Each end lies within 1e-14 plus kl_end_allowance of the bisection's end
    at level log(2 / delta) / n raised to the solver's floor, and not inside
    it by more than kl_end_allowance. The ball at the floor holds the ball
    at any smaller level, so its ends are outer ends there."""
    mean_hat = case[0]
    iv = kl_bernoulli_interval(mean_hat, n, delta)
    assert iv.lower <= mean_hat <= iv.upper
    level = max(math.log(2.0 / delta) / n, _KL_LEVEL_FLOOR)
    refs = (float(r) for r in kl_bernoulli_bounds_bisection(mean_hat, level))
    for edge, end, ref in zip((0.0, 1.0), (iv.lower, iv.upper), refs):
        allowance = kl_end_allowance(mean_hat, level, edge, end, ref)
        assert abs(end - ref) <= 1e-14 + allowance
        assert (ref - end if edge else end - ref) <= allowance


@st.composite
def nonnegative_float_arrays(draw):
    """Up to about 5,000 nonnegative finite floats: a few drawn one by one,
    then a seeded bulk of exp(-t) tails, of random exponents over a drawn
    span of the whole range (subnormals included) or of raw bit patterns,
    with a drawn share set to zero and a drawn share set to one repeated
    value."""
    head = draw(st.lists(st.floats(0.0, allow_infinity=False), max_size=8))
    size = draw(st.integers(0, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("tail", "exponents", "bits")))
    if kind == "tail":
        bulk = np.exp(-rng.exponential(draw(st.floats(1.0, 400.0)), size))
    elif kind == "exponents":
        lo = draw(st.integers(-1080, 1023))
        hi = draw(st.integers(lo, 1023))
        bulk = np.ldexp(rng.random(size), rng.integers(lo, hi + 1, size))
    else:
        bulk = rng.integers(0, 0x7FF0_0000_0000_0000, size).view(np.float64)
    bulk[rng.random(size) < draw(st.floats(0.0, 1.0))] = 0.0
    if size:
        bulk[rng.random(size) < draw(st.floats(0.0, 1.0))] = bulk[0]
    return np.concatenate((head, bulk))


def _sum_or_overflow(sum_fn, values):
    try:
        return repr(sum_fn(values))
    except OverflowError:
        return "OverflowError"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(nonnegative_float_arrays())
@example([1.0, 2**-53])
@example([1.0, 2**-53, 2**-1074])
@example([1 - 2**-53, 2**-54, 2**-54])
@example([5e-324] * 3)
@example([])
@example([1.7976931348623157e308, 2.0**970])  # rounds half to even: overflows
@example([1.7976931348623157e308, 2.0**969])
def test_exact_sum_equals_fsum(values):
    """core.exact_sum is math.fsum bit for bit on nonnegative finite
    floats, half-even ties included; where the rounded sum overflows, both
    raise OverflowError."""
    want = _sum_or_overflow(math.fsum, values)
    assert _sum_or_overflow(exact_sum, values) == want


@st.composite
def rational_p_value_cases(draw):
    """A k = 2..4 outcome with n <= 8 and a rational point whose
    coordinates have one denominator of at most 24; zero coordinates
    allowed."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(0, 8))
    weights = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
    if not any(weights):
        weights[draw(st.integers(0, k - 1))] = 1
    fracs = tuple(Fraction(w, sum(weights)) for w in weights)
    cells = draw(st.lists(st.integers(0, n), min_size=k - 1, max_size=k - 1))
    cuts = sorted(cells)
    counts = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    return counts, fracs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rational_p_value_cases())
def test_p_value_matches_rational_oracle(case):
    """p_value agrees with the exact big-rational p-value, at the tolerance
    of the hand-picked rational oracle test."""
    counts, fracs = case
    p = SimplexPoint(tuple(float(f) for f in fracs), normalize=True)
    want = float(exact_p_value(counts, fracs))
    got = p_value(EmpiricalDistribution(counts), p)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
