"""Best-arm identification with LUCB over categorical arms.

Each arm is a categorical distribution with per-category payoffs; arms are
compared through confidence intervals on their mean payoff, built by a
pluggable construction. The sampling rule sees only interval endpoints, so
swapping constructions changes nothing but the endpoint values.

Per-round error budget: at round t every arm's interval is built at
delta / (K * t * (t + 1)), which sums to delta over all arms and rounds.

With level-set intervals the per-round endpoints come from the cheap
chi-square approximation of the region; whenever that approximation says
the race is over, the stopping condition is re-checked with exact
level-set intervals, and only an exact pass stops the run.
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

METHODS = ("levelset", "kl-bernoulli", "hoeffding")

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
    def __call__(self, means, ns, delta_t):
        radius = self.spans * np.sqrt(math.log(2.0 / delta_t) / (2.0 * ns))
        lcb = np.maximum(means - radius, self.los)
        ucb = np.minimum(means + radius, self.los + self.spans)
        return lcb, ucb


class _KlBernoulliBounds(_MeanBounds):
    def __call__(self, means, ns, delta_t):
        span = np.where(self.spans > 0.0, self.spans, 1.0)
        scaled = np.clip((means - self.los) / span, 0.0, 1.0)
        levels = math.log(2.0 / delta_t) / ns
        lo_s, hi_s = kl_bernoulli_bounds_vec(scaled, levels)
        lcb = self.los + self.spans * lo_s
        ucb = self.los + self.spans * hi_s
        return np.where(self.spans > 0.0, lcb, means), np.where(
            self.spans > 0.0, ucb, means
        )


class _ChiSquareLevelSetBounds:
    """Approximate level-set interval endpoints from the chi-square region
    over a fixed scan grid. Screening only; never the stopping authority."""

    def __init__(self, arms: list[Arm], resolution: int):
        self.resolution = resolution
        self.arms = arms
        self.grids = {}
        self.fvals = []
        for arm in arms:
            k = arm.pmf.k
            if k not in self.grids:
                self.grids[k] = SimplexGrid(k, resolution).points
            self.fvals.append(self.grids[k] @ np.asarray(arm.values.values))

    def __call__(self, counts, ns, delta_t):
        lcb = np.empty(len(self.arms))
        ucb = np.empty(len(self.arms))
        for a, arm in enumerate(self.arms):
            lo, hi = arm.values.value_range
            phat = EmpiricalDistribution(tuple(int(c) for c in counts[a]))
            member = chi2_membership_grid(phat, delta_t, self.grids[arm.pmf.k])
            if not member.any():
                lcb[a], ucb[a] = lo, hi
                continue
            fv = self.fvals[a][member]
            pad = (hi - lo) * (arm.pmf.k - 1) / self.resolution
            lcb[a] = max(lo, float(fv.min()) - pad)
            ucb[a] = min(hi, float(fv.max()) + pad)
        return lcb, ucb


def _exact_levelset_bounds(arms, counts, delta_t, resolution):
    lcb = np.empty(len(arms))
    ucb = np.empty(len(arms))
    for a, arm in enumerate(arms):
        phat = EmpiricalDistribution(tuple(int(c) for c in counts[a]))
        spec = RegionSpec(delta_t, "levelset", phat.n, phat.k)
        try:
            iv = functional_interval(
                phat, arm.values, delta_t, spec, M=resolution
            )
            lcb[a], ucb[a] = iv.lower, iv.upper
        except EmptyScanError:
            lcb[a], ucb[a] = arm.values.value_range
    return lcb, ucb


def lucb_run(
    arms: list[Arm],
    delta: float,
    tolerance: float,
    method: str,
    seed: int,
    sample_cap: int = 1_000_000,
    screen_resolution: int = 96,
    refine_resolution: int = 120,
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

    num_arms = len(arms)
    rng = np.random.default_rng(seed)
    pmfs = [arm.pmf.as_array() for arm in arms]
    vals = [np.asarray(arm.values.values) for arm in arms]
    counts = [np.zeros(arm.pmf.k, dtype=np.int64) for arm in arms]

    if method == "hoeffding":
        bounds = _HoeffdingBounds(arms)
        mean_based = True
    elif method == "kl-bernoulli":
        bounds = _KlBernoulliBounds(arms)
        mean_based = True
    else:
        bounds = _ChiSquareLevelSetBounds(arms, screen_resolution)
        mean_based = False

    def pull(a: int) -> None:
        cat = rng.choice(len(pmfs[a]), p=pmfs[a])
        counts[a][cat] += 1

    for a in range(num_arms):
        pull(a)
    samples = num_arms

    t = 0
    fails = 0
    next_exact_round = 0
    while True:
        t += 1
        delta_t = delta / (num_arms * t * (t + 1))
        ns = np.array([c.sum() for c in counts], dtype=float)
        means = np.array([counts[a] @ vals[a] / ns[a] for a in range(num_arms)])
        if mean_based:
            lcb, ucb = bounds(means, ns, delta_t)
        else:
            lcb, ucb = bounds(counts, ns, delta_t)

        leader = int(np.argmax(means))
        rival_ucb = ucb.copy()
        rival_ucb[leader] = -np.inf
        challenger = int(np.argmax(rival_ucb))

        completed = False
        if lcb[leader] >= ucb[challenger] - tolerance:
            if mean_based:
                completed = True
            elif t >= next_exact_round:
                elcb, eucb = _exact_levelset_bounds(
                    arms, counts, delta_t, refine_resolution
                )
                rival = max(eucb[b] for b in range(num_arms) if b != leader)
                completed = bool(elcb[leader] >= rival - tolerance)
                if not completed:
                    fails += 1
                    next_exact_round = t + min(512, 16 * 2 ** (fails - 1))

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
