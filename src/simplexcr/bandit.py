"""Best-arm identification with LUCB over categorical arms.

Each arm is a categorical distribution with per-category payoffs; arms are
compared through confidence intervals on their mean payoff. Every
construction is one bounds object with per-arm ends ``lower(a, counts,
mean, n, delta_t)`` and ``upper(...)``; the loop picks it by method name
and sees nothing else, so swapping constructions changes only the ends. A
run stops as soon as the leader's lower end clears every rival's upper
end minus the tolerance; a round asks for those K ends only. The
level-set bounds hold one ``functionals._KlBallBracket`` per arm; the
two-point KL bounds start each (arm, side)'s solve from its last dual
point and keep the round's ends by their inputs, so that equal inputs in
one round give equal ends.

Per-round error budget: at round t every arm's interval is built at
delta / (K * t * (t + 1)), which sums to delta over all arms and rounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SimplexPoint, _check_delta, _check_same_k
from .functionals import LinearFunctional, _KlBallBracket, _kl_bernoulli_solve

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
        _check_same_k("pmf", self.pmf.k, "values", self.values.k)

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
    """Endpoints from an arm's sample mean on its payoff range [los[a],
    los[a] + spans[a]]; ``_end`` gives the end toward edge 0 or 1."""

    def __init__(self, arms: list[Arm]):
        self.los = [arm.values.value_range[0] for arm in arms]
        self.spans = [arm.values.value_range[1] - lo for arm, lo in zip(arms, self.los)]

    def lower(self, a, counts, mean, n, delta_t):
        return self._end(a, mean, n, delta_t, 0)

    def upper(self, a, counts, mean, n, delta_t):
        return self._end(a, mean, n, delta_t, 1)


class _HoeffdingBounds(_MeanBounds):
    def _end(self, a, mean, n, delta_t, edge):
        lo, span = self.los[a], self.spans[a]
        radius = span * math.sqrt(math.log(2.0 / delta_t) / (2.0 * n))
        return min(mean + radius, lo + span) if edge else max(mean - radius, lo)


class _KlBernoulliBounds(_MeanBounds):
    """Two-point KL ends of the mean scaled to [0, 1], each solved from
    that (arm, side)'s last dual point. A warm end may differ from a cold
    one in its last bits, and two arms' warm ends at equal inputs from each
    other, which could flip the challenger tie-break. So the ends of one
    delta_t, that is of one round, are kept by their inputs: equal inputs in
    one round give equal bits, as the cold solve does. A new delta_t empties
    them, so at most 2K are kept. The state belongs to one run."""

    def __init__(self, arms: list[Arm]):
        super().__init__(arms)
        self.starts = [[None, None] for _ in arms]  # each (arm, side)'s last dual point
        self.delta_t = None
        self.ends = {}  # (scaled mean, level, edge) -> end, at self.delta_t

    def _end(self, a, mean, n, delta_t, edge):
        """A constant payoff's interval is its mean."""
        lo, span = self.los[a], self.spans[a]
        if not span > 0.0:
            return mean
        if delta_t != self.delta_t:
            self.delta_t, self.ends = delta_t, {}
        key = (min(max((mean - lo) / span, 0.0), 1.0), math.log(2.0 / delta_t) / n, edge)
        end = self.ends.get(key)
        if end is None:
            starts = self.starts[a]
            end, starts[edge] = _kl_bernoulli_solve(*key, starts[edge])
            self.ends[key] = end
        return lo + span * end


class _LevelSetBounds:
    """Level-set intervals relaxed to the KL ball that holds the region: one
    ``_KlBallBracket`` per arm, whose state belongs to one run."""

    def __init__(self, arms: list[Arm]):
        self.brackets = [_KlBallBracket(arm.values) for arm in arms]

    def lower(self, a, counts, mean, n, delta_t):
        return self.brackets[a].end(counts, delta_t, 0)

    def upper(self, a, counts, mean, n, delta_t):
        return self.brackets[a].end(counts, delta_t, 1)


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
    _check_delta(delta)
    if not tolerance >= 0.0:  # also refuses nan
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if seed < 0:  # numpy's Generator would refuse it without naming it
        raise ValueError(f"seed must be >= 0, got {seed}")

    bounds = _BOUNDS[method](arms)
    num_arms = len(arms)
    rng = np.random.default_rng(seed)
    # each arm's normalized CDF, from which numpy's Generator.choice draws
    cdfs = [arm.pmf.as_array().cumsum() for arm in arms]
    for cdf in cdfs:
        cdf /= cdf[-1]
    vals = [np.asarray(arm.values.values) for arm in arms]
    counts = [np.zeros(arm.pmf.k, dtype=np.int64) for arm in arms]
    ns, means = [0] * num_arms, [0.0] * num_arms

    def pull(a: int) -> None:
        # the draw of rng.choice(k, p=pmf), without re-validating pmf
        counts[a][cdfs[a].searchsorted(rng.random(), side="right")] += 1
        ns[a] += 1
        means[a] = float(counts[a] @ vals[a] / ns[a])

    for a in range(num_arms):
        pull(a)
    samples = num_arms

    t = 0
    while True:
        t += 1
        delta_t = delta / (num_arms * t * (t + 1))
        leader = max(range(num_arms), key=means.__getitem__)
        lcb = bounds.lower(leader, counts[leader], means[leader], ns[leader], delta_t)
        rivals = [a for a in range(num_arms) if a != leader]
        ucbs = [bounds.upper(a, counts[a], means[a], ns[a], delta_t) for a in rivals]
        ucb = max(ucbs)
        challenger = rivals[ucbs.index(ucb)]  # the first rival with that end

        completed = lcb >= ucb - tolerance

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
