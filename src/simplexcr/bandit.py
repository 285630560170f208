"""Best-arm identification with LUCB over categorical arms.

Each arm is a categorical distribution with per-category payoffs; arms are
compared through confidence intervals on their mean payoff. Every
construction is one bounds object, called as ``bounds(counts, means, ns,
delta_t) -> (lcb, ucb)`` for each round's endpoints. The loop picks the
object by method name and sees nothing else, so swapping constructions
changes nothing but the endpoint values. A run stops as soon as the
leader's lower end clears every rival's upper end minus the tolerance.

Per-round error budget: at round t every arm's interval is built at
delta / (K * t * (t + 1)), which sums to delta over all arms and rounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SimplexPoint
from .functionals import LinearFunctional, _kl_ball_sup, kl_bernoulli_bounds_vec
from .regions import kl_ball_radius

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
    range [los, los + spans]."""

    def __init__(self, arms: list[Arm]):
        self.spans = np.array(
            [arm.values.value_range[1] - arm.values.value_range[0] for arm in arms]
        )
        self.los = np.array([arm.values.value_range[0] for arm in arms])


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
    """Level-set intervals relaxed to the KL ball that holds the region.

    Every member p of an arm's level-set region satisfies n KL(phat || p) <
    r = kl_ball_radius(counts, delta_t), so the payoff's range over that
    ball, [-sup(-f).p, sup f.p] from _kl_ball_sup, clamped to the payoff
    range, is a certified outer interval: wider than the region's exact
    range, for any number of categories, with no grid. Each (arm, side)
    starts its solve from its last dual point, about 3 dual evaluations per
    solve against 8 from a cold start; the starts belong to the instance,
    that is to one run.
    """

    def __init__(self, arms: list[Arm]):
        self.payoffs = [
            ([-v for v in arm.values.values], list(arm.values.values)) for arm in arms
        ]
        self.ranges = [arm.values.value_range for arm in arms]
        self.starts = [[None, None] for _ in arms]  # per arm: lower, upper end

    def __call__(self, counts, means, ns, delta_t):
        ends = np.array(self.ranges)
        for a, c in enumerate(counts):
            c = c.tolist()
            n = sum(c)
            eps = kl_ball_radius(c, delta_t) / n
            w = [x / n for x in c]
            (neg, pos), start = self.payoffs[a], self.starts[a]
            down, start[0] = _kl_ball_sup(neg, w, eps, start[0])
            up, start[1] = _kl_ball_sup(pos, w, eps, start[1])
            ends[a] = max(ends[a, 0], -down), min(ends[a, 1], up)
        return ends[:, 0], ends[:, 1]


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
    bound minus ``tolerance``, or the sample cap is hit (completed=False).

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
    # each arm's normalized CDF, from which numpy's Generator.choice draws
    cdfs = [arm.pmf.as_array().cumsum() for arm in arms]
    for cdf in cdfs:
        cdf /= cdf[-1]
    vals = [np.asarray(arm.values.values) for arm in arms]
    counts = [np.zeros(arm.pmf.k, dtype=np.int64) for arm in arms]

    def pull(a: int) -> None:
        # the draw of rng.choice(k, p=pmf), without re-validating pmf
        counts[a][cdfs[a].searchsorted(rng.random(), side="right")] += 1

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

        completed = bool(lcb[leader] >= ucb[challenger] - tolerance)

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
