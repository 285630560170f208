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

from .core import EmpiricalDistribution, SimplexGrid, SimplexPoint
from .functionals import (
    EmptyScanError,
    LinearFunctional,
    functional_interval,
    kl_bernoulli_bounds_vec,
)
from .regions import RegionSpec, chi2_membership_grid

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
    the region, padded by the grid's Lipschitz term (the payoff range when
    no point is inside). Confirm: a stop the screen allows holds only if
    exact level-set intervals at resolution 120 (``functional_interval``)
    also put the leader's lower end above every rival's upper end minus the
    tolerance. Backoff: after the f-th failed confirmation none is tried for
    min(512, 16 * 2^(f-1)) rounds. The exact intervals scan a dense grid,
    so arms may have at most three categories.
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
        self.grids = [SimplexGrid(a.pmf.k, self.SCREEN_RESOLUTION).points for a in arms]
        self.fvals = [g @ np.asarray(a.values.values) for g, a in zip(self.grids, arms)]
        self.fails = 0
        self.next_exact_round = 0

    def __call__(self, counts, means, ns, delta_t):
        ends = np.array([arm.values.value_range for arm in self.arms])
        for a, arm in enumerate(self.arms):
            phat = EmpiricalDistribution(tuple(int(c) for c in counts[a]))
            member = chi2_membership_grid(phat, delta_t, self.grids[a])
            if member.any():
                lo, hi = ends[a]
                fv = self.fvals[a][member]
                pad = (hi - lo) * (arm.pmf.k - 1) / self.SCREEN_RESOLUTION
                ends[a] = max(lo, fv.min() - pad), min(hi, fv.max() + pad)
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
