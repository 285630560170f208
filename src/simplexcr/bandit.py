"""Best-arm identification with LUCB over categorical arms.

Each arm is a categorical distribution with per-category payoffs; arms are
compared through confidence intervals on their mean payoff. Every
construction is one bounds object with the same two calls:
``bounds(counts, means, ns, delta_t) -> (lcb, ucb)`` gives the round's
endpoints, and ``bounds.confirm(counts, delta_t, leader, tolerance, t)``
decides whether a stop those endpoints allow holds. The loop picks the
object by method name and sees nothing else, so swapping constructions
changes nothing but the endpoint values and the confirmation.

Per-round error budget: at round t every arm's interval is built at
delta / (K * t * (t + 1)), which sums to delta over all arms and rounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtri

from .core import EmpiricalDistribution, SimplexGrid, SimplexPoint
from .functionals import (
    EmptyScanError,
    LinearFunctional,
    functional_interval,
    kl_bernoulli_bounds_vec,
)
from .regions import RegionSpec

_BENCHMARK_PMFS = (
    (0.1, 0.6, 0.3),
    (0.3, 0.6, 0.1),
    (0.4, 0.5, 0.1),
    (0.6, 0.3, 0.1),
    (0.7, 0.2, 0.1),
)


@dataclass(frozen=True)
class Arm:
    """A categorical reward distribution together with category payoffs."""

    pmf: SimplexPoint
    values: LinearFunctional

    def __post_init__(self) -> None:
        if self.pmf.k != self.values.k:
            raise ValueError(
                f"pmf has {self.pmf.k} categories but values has {self.values.k}"
            )

    @property
    def true_mean(self) -> float:
        return self.values.apply(self.pmf)


@dataclass(frozen=True)
class BanditRun:
    seed: int
    stopping_time: int
    identified_arm: int
    per_arm_counts: tuple[tuple[int, ...], ...]
    confidence_method: str
    rounds: int
    completed: bool


def benchmark_arms() -> list[Arm]:
    """The five-arm, three-category rating benchmark with star payoffs
    mapped to (0, 1/2, 1). Arm 0 has the highest mean (0.6)."""
    values = LinearFunctional((0.0, 0.5, 1.0))
    return [Arm(SimplexPoint(p), values) for p in _BENCHMARK_PMFS]


class _MeanBounds:
    """Endpoints from the arms' sample means, scaled to each arm's payoff
    range [los, los + spans]; every stop they allow holds."""

    def __init__(self, arms: list[Arm]):
        self.spans = np.array(
            [arm.values.value_range[1] - arm.values.value_range[0] for arm in arms]
        )
        self.los = np.array([arm.values.value_range[0] for arm in arms])

    def confirm(self, counts, delta_t, leader, tolerance, t) -> bool:
        return True


class _HoeffdingBounds(_MeanBounds):
    def __call__(self, counts, means, ns, delta_t):
        radius = self.spans * np.sqrt(math.log(2.0 / delta_t) / (2.0 * ns))
        lcb = np.maximum(means - radius, self.los)
        ucb = np.minimum(means + radius, self.los + self.spans)
        return lcb, ucb


class _KlBernoulliBounds(_MeanBounds):
    def __call__(self, counts, means, ns, delta_t):
        span = np.where(self.spans > 0.0, self.spans, 1.0)
        scaled = np.clip((means - self.los) / span, 0.0, 1.0)
        levels = math.log(2.0 / delta_t) / ns
        lo_s, hi_s = kl_bernoulli_bounds_vec(scaled, levels)
        lcb = self.los + self.spans * lo_s
        ucb = self.los + self.spans * hi_s
        return np.where(self.spans > 0.0, lcb, means), np.where(
            self.spans > 0.0, ucb, means
        )


class _LevelSetBounds:
    """Level-set intervals, screened cheaply and confirmed exactly.

    Screen: each round's endpoints are the extremes of the arm's payoff over
    the resolution-96 grid points inside the chi-square approximation of
    the region, {p : n * sum_j (c_j/n - p_j)^2 / p_j <= chdtri(k - 1,
    delta_t)}, padded by the grid's Lipschitz term (the payoff range when
    no point is inside). Confirm: a stop the screen allows holds only if
    exact level-set intervals at resolution 120 (``functional_interval``)
    also put the leader's lower end above every rival's upper end minus the
    tolerance. Backoff: after the f-th failed confirmation none is tried for
    min(512, 16 * 2^(f-1)) rounds. The exact intervals scan a dense grid,
    so arms may have at most three categories.

    The screen is incremental. Grid points with a zero coordinate are never
    inside (their statistic is inf or nan), so each arm keeps only the
    interior points, sorted by payoff (stable argsort of the full-grid
    product's f-values). An arm's statistic, the running minimum of it from
    the low-payoff end and the one from the high-payoff end are recomputed
    only when the arm's counts changed since they were last computed: in
    round 1 every arm, after that only the two pulled arms. delta_t moves
    only the threshold, computed once per round. Both running minima are
    monotone, so the least member is the first point whose low-end minimum
    is at or below the threshold, and the greatest member the first such
    point from the high end: one ``searchsorted`` each. The statistic is
    the same arithmetic on the same points and the comparison is the same
    ``stat <= threshold``, so the member set, and with it the least and
    greatest member f-values and the padded endpoints, are bit-identical to
    testing every grid point each round. The state belongs to the instance,
    that is to one run.
    """

    SCREEN_RESOLUTION = 96
    REFINE_RESOLUTION = 120

    def __init__(self, arms: list[Arm]):
        if any(arm.pmf.k > 3 for arm in arms):
            raise ValueError(
                "levelset LUCB needs arms with k <= 3 categories: its exact "
                "intervals scan a dense simplex grid, built only for k <= 3"
            )
        self.arms = arms
        self.dofs = np.array([arm.pmf.k - 1 for arm in arms])
        # interior screen points in f order, one row per coordinate
        self.points, self.fvals = [], []
        for arm in arms:
            grid = SimplexGrid(arm.pmf.k, self.SCREEN_RESOLUTION).points
            fv = grid @ np.asarray(arm.values.values)
            inner = np.flatnonzero((grid > 0.0).all(axis=1))
            inner = inner[np.argsort(fv[inner], kind="stable")]
            self.points.append(np.ascontiguousarray(grid[inner].T))
            self.fvals.append(fv[inner])
        # per arm: the counts last screened, and the negated running minima
        # of the statistic from the low and the high f end (nondecreasing)
        self.screened = [None] * len(arms)
        self.low_min = [None] * len(arms)
        self.high_min = [None] * len(arms)
        self.fails = 0
        self.next_exact_round = 0

    def __call__(self, counts, means, ns, delta_t):
        ends = np.array([arm.values.value_range for arm in self.arms])
        thresholds = -chdtri(self.dofs, delta_t)
        for a, arm in enumerate(self.arms):
            c = counts[a].tolist()
            if c != self.screened[a]:
                n = sum(c)
                # the k terms summed left to right, as numpy sums a row
                terms = ((cj / n - pj) ** 2 / pj for cj, pj in zip(c, self.points[a]))
                stat = n * sum(terms)
                self.low_min[a] = -np.minimum.accumulate(stat)
                self.high_min[a] = -np.minimum.accumulate(stat[::-1])
                self.screened[a] = c
            first = np.searchsorted(self.low_min[a], thresholds[a])
            if first < len(self.low_min[a]):
                last = np.searchsorted(self.high_min[a], thresholds[a])
                fv = self.fvals[a]
                lo, hi = ends[a]
                pad = (hi - lo) * (arm.pmf.k - 1) / self.SCREEN_RESOLUTION
                ends[a] = max(lo, fv[first] - pad), min(hi, fv[-1 - last] + pad)
        return ends[:, 0], ends[:, 1]

    def confirm(self, counts, delta_t, leader, tolerance, t) -> bool:
        if t < self.next_exact_round:
            return False
        ends = np.array([arm.values.value_range for arm in self.arms])
        for a, arm in enumerate(self.arms):
            phat = EmpiricalDistribution(tuple(int(c) for c in counts[a]))
            spec = RegionSpec(delta_t, "levelset", phat.n, phat.k)
            try:
                iv = functional_interval(
                    phat, arm.values, delta_t, spec, M=self.REFINE_RESOLUTION
                )
                ends[a] = iv.lower, iv.upper
            except EmptyScanError:  # no member: keep the payoff range
                pass
        if ends[leader, 0] >= np.delete(ends[:, 1], leader).max() - tolerance:
            return True
        self.fails += 1
        self.next_exact_round = t + min(512, 16 * 2 ** (self.fails - 1))
        return False


_BOUNDS = {
    "levelset": _LevelSetBounds,
    "kl-bernoulli": _KlBernoulliBounds,
    "hoeffding": _HoeffdingBounds,
}
METHODS = tuple(_BOUNDS)


def lucb_run(
    arms: list[Arm],
    delta: float,
    tolerance: float,
    method: str,
    seed: int,
    sample_cap: int = 1_000_000,
) -> BanditRun:
    """Run LUCB until the leader's lower bound clears every rival's upper
    bound minus ``tolerance`` and the bounds object confirms the stop, or
    the sample cap is hit (completed=False).

    Deterministic given (arms, delta, tolerance, method, seed).
    """
    if len(arms) < 2:
        raise ValueError("need at least two arms")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")

    bounds = _BOUNDS[method](arms)
    num_arms = len(arms)
    rng = np.random.default_rng(seed)
    pmfs = [arm.pmf.as_array() for arm in arms]
    vals = [np.asarray(arm.values.values) for arm in arms]
    counts = [np.zeros(arm.pmf.k, dtype=np.int64) for arm in arms]

    def pull(a: int) -> None:
        cat = rng.choice(len(pmfs[a]), p=pmfs[a])
        counts[a][cat] += 1

    for a in range(num_arms):
        pull(a)
    samples = num_arms

    t = 0
    while True:
        t += 1
        delta_t = delta / (num_arms * t * (t + 1))
        ns = np.array([c.sum() for c in counts], dtype=float)
        means = np.array([counts[a] @ vals[a] / ns[a] for a in range(num_arms)])
        lcb, ucb = bounds(counts, means, ns, delta_t)

        leader = int(np.argmax(means))
        rival_ucb = ucb.copy()
        rival_ucb[leader] = -np.inf
        challenger = int(np.argmax(rival_ucb))

        completed = bool(
            lcb[leader] >= ucb[challenger] - tolerance
        ) and bounds.confirm(counts, delta_t, leader, tolerance, t)

        if completed or samples + 2 > sample_cap:
            return BanditRun(
                seed=seed,
                stopping_time=samples,
                identified_arm=leader,
                per_arm_counts=tuple(tuple(int(x) for x in c) for c in counts),
                confidence_method=method,
                rounds=t,
                completed=completed,
            )
        pull(leader)
        pull(challenger)
        samples += 2
