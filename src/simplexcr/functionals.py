"""Confidence intervals for linear functionals of the simplex parameter.

The region-induced interval is extracted by an extremal scan of a dense
grid (a full Monte Carlo scan for k > 3) widened by the worst-case change
of the functional between adjacent grid points, giving a
resolution-controlled outer approximation.
Baselines for width comparisons: the closed-form Hoeffding, oracle
sub-Gaussian and empirical Bernstein intervals, and the two-point KL
interval. One safeguarded Newton solver of the finite-support KL-UCB dual
bounds f over a KL ball: for the level-set bracket, whose one writer
``_KlBallBracket`` the bandit holds per arm, and, as its k = 2 case with
f = (0, 1), for the two-point KL interval, whose one writer is
``_kl_bernoulli_solve``. Its ends are dual bounds: at or outside the exact
ends in exact arithmetic, and tight to the dual's rounding in floats. A
solve given no start begins from one cold start, the dual point of the
two-point ball's second-order end; ``kl_bernoulli_interval`` solves cold,
and the bandit starts each arm's two-point ends from their last dual
points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_GRID_POINTS,
    EmpiricalDistribution,
    OverBudgetError,
    SimplexGrid,
    SimplexPoint,
    log_weights,
)
from .core import _check_delta, _check_k, _check_n, _check_same_k
from .regions import RegionSpec, _kl_ball_offset, membership_grid, phat_mass_survivors


@dataclass(frozen=True)
class LinearFunctional:
    """Assigns a real value to each category; evaluates as values . p."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        _check_k(len(vals))
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"values must be finite, got {vals}")
        object.__setattr__(self, "values", vals)

    @property
    def k(self) -> int:
        return len(self.values)

    @property
    def value_range(self) -> tuple[float, float]:
        return (min(self.values), max(self.values))

    def apply(self, p: SimplexPoint) -> float:
        _check_same_k("f", self.k, "p", p.k)
        return float(math.fsum(v * x for v, x in zip(self.values, p.probs)))


@dataclass(frozen=True)
class IntervalResult:
    """A confidence interval with its construction provenance."""

    lower: float
    upper: float
    method: str
    grid_resolution: int | None = None
    conservative_padding: float = 0.0
    scan_coverage: float | None = None

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:  # also refuses a nan end
            raise ValueError(f"lower {self.lower} is not <= upper {self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower


class EmptyScanError(RuntimeError):
    """No scan point fell inside the region; rerun with a finer grid."""


def _first_member(
    phat: EmpiricalDistribution,
    spec: RegionSpec,
    points: np.ndarray,
    order: np.ndarray,
) -> int | None:
    """Position in ``order`` of the first row of ``points`` in the region,
    or None; the rows are tested in chunks of 8, 16, 32, ..., so a member
    near the start costs a few small kernel calls and one far in costs
    about log2 of its position."""
    start, size = 0, 8
    while start < len(order):
        member = membership_grid(phat, spec, points[order[start : start + size]])
        if member.any():
            return start + int(member.argmax())
        start += size
        size *= 2
    return None


def scan_resolution(n: int) -> int:
    """Default resolution of a region's scan grid at sample size n."""
    return max(10 * n, 150)


def functional_interval(
    phat: EmpiricalDistribution,
    f: LinearFunctional,
    delta: float,
    spec: RegionSpec,
    M: int | None = None,
    mc_draws: int = 20000,
    seed: int | None = None,
) -> IntervalResult:
    """Range of f over the confidence region of phat, as an interval.

    Takes the hull of f over the members of the resolution-M simplex grid
    (default scan_resolution(n), max(10n, 150); a grid of more than
    MAX_GRID_POINTS points raises OverBudgetError before it is built) and
    widens it by the grid Lipschitz padding (max_ij |v_i - v_j|) * (k - 1) / M.
    The padded interval is clamped to the functional's range. The hull
    comes from an extremal scan: the grid points sorted by f are tested from each end in
    chunks of 8, 16, 32, ... points, and the first member from each end
    holds the least and the greatest member value. For the level-set kind only the points that
    survive ``phat_mass_survivors`` over the whole grid are walked: a
    pruned point is a proven non-member, so the first member from each end
    is the same. Membership is decided per point, whatever the chunk, so
    the interval is the one a scan of the whole grid gives. For k > 3
    dense grids are infeasible and the scan tests all ``mc_draws`` uniform
    Dirichlet proposals instead (``seed`` required; 1 to MAX_GRID_POINTS
    draws, more raise OverBudgetError before any is drawn); the member
    fraction is reported as ``scan_coverage``.
    """
    _check_same_k("phat", phat.k, "f", f.k)
    spec._check_phat(phat)
    if not abs(spec.delta - delta) <= 1e-12:  # also refuses a nan delta
        raise ValueError(f"delta {delta} disagrees with spec.delta {spec.delta}")
    vals = np.asarray(f.values)
    lo_range, hi_range = f.value_range

    if phat.k <= 3:
        if M is None:
            M = scan_resolution(phat.n)
        points = SimplexGrid(phat.k, M).points
        fv = points @ vals
        order = np.argsort(fv, kind="stable")
        if spec.kind == "levelset":  # pruned points are proven non-members
            keep = phat_mass_survivors(phat, log_weights(points), spec.delta)
            order = order[keep[order]]
        first = _first_member(phat, spec, points, order)
        if first is None:
            raise EmptyScanError(
                f"no member among {len(points)} grid points at resolution "
                f"{M} (kind={spec.kind}, n={spec.n}, delta={spec.delta}); "
                "the region is nonempty, so rerun with a finer grid"
            )
        # the highest member lies at or after the lowest one along order
        rest = order[first:][::-1]
        low, high = order[first], rest[_first_member(phat, spec, points, rest)]
        f_low, f_high = float(fv[low]), float(fv[high])
        pad = (hi_range - lo_range) * (phat.k - 1) / M
        return IntervalResult(
            lower=max(lo_range, f_low - pad),
            upper=min(hi_range, f_high + pad),
            method=f"{spec.kind}-grid",
            grid_resolution=M,
            conservative_padding=pad,
        )

    if seed is None:
        raise ValueError("Monte Carlo scan for k > 3 requires a seed")
    if mc_draws < 1:
        raise ValueError(f"mc_draws must be >= 1, got {mc_draws}")
    if mc_draws > MAX_GRID_POINTS:
        raise OverBudgetError(
            f"{mc_draws} Monte Carlo draws, more than {MAX_GRID_POINTS}; "
            "no scan that large is built"
        )
    rng = np.random.default_rng(seed)
    points = rng.dirichlet(np.ones(phat.k), size=mc_draws)
    member = membership_grid(phat, spec, points)
    if not member.any():
        raise EmptyScanError(
            f"no member among {mc_draws} Dirichlet proposals "
            f"(kind={spec.kind}, n={spec.n}, delta={spec.delta}); "
            "increase mc_draws"
        )
    fv = points[member] @ vals
    return IntervalResult(
        lower=max(lo_range, float(fv.min())),
        upper=min(hi_range, float(fv.max())),
        method=f"{spec.kind}-mc",
        grid_resolution=None,
        conservative_padding=0.0,
        scan_coverage=float(member.mean()),
    )


def _clamped(lower: float, upper: float, rng: tuple[float, float], method: str) -> IntervalResult:
    a, b = rng
    if not a <= b:
        raise ValueError(f"value_range must have its lower end first, got {rng}")
    return IntervalResult(
        lower=min(max(lower, a), b), upper=max(min(upper, b), a), method=method
    )


def hoeffding_interval(
    mean_hat: float,
    n: int,
    delta: float,
    value_range: tuple[float, float] = (0.0, 1.0),
) -> IntervalResult:
    """Two-sided Hoeffding interval for a mean supported on value_range."""
    _check_n(n)
    _check_delta(delta)
    a, b = value_range
    radius = (b - a) * math.sqrt(math.log(2.0 / delta) / (2.0 * n))
    return _clamped(mean_hat - radius, mean_hat + radius, value_range, "hoeffding")


def oracle_chernoff_interval(
    mean_hat: float,
    variance_true: float,
    n: int,
    delta: float,
    value_range: tuple[float, float] = (0.0, 1.0),
) -> IntervalResult:
    """Sub-Gaussian interval using the true variance as the proxy; the best
    interval any sub-Gaussian tail bound could give with perfect knowledge
    of scale."""
    _check_n(n)
    _check_delta(delta)
    if not variance_true >= 0.0:  # also refuses nan
        raise ValueError(f"variance must be nonnegative, got {variance_true}")
    radius = math.sqrt(2.0 * variance_true * math.log(2.0 / delta) / n)
    return _clamped(
        mean_hat - radius, mean_hat + radius, value_range, "oracle-chernoff"
    )


def empirical_bernstein_interval(
    samples,
    delta: float,
    value_range: tuple[float, float] = (0.0, 1.0),
) -> IntervalResult:
    """Variance-adaptive interval from the observed sample: radius
    sqrt(2 Vhat log(3/delta) / n) + 3 (b - a) log(3/delta) / n with the
    unbiased sample variance Vhat."""
    x = np.asarray(samples, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError("need at least two samples to estimate variance")
    _check_delta(delta)
    a, b = value_range
    mean_hat = float(x.mean())
    var_hat = float(x.var(ddof=1))
    log_term = math.log(3.0 / delta)
    radius = math.sqrt(2.0 * var_hat * log_term / n) + 3.0 * (b - a) * log_term / n
    return _clamped(
        mean_hat - radius,
        mean_hat + radius,
        value_range,
        "empirical-bernstein[log(3/delta), 3(b-a)/n]",
    )


def kl_bernoulli_interval(mean_hat: float, n: int, delta: float) -> IntervalResult:
    """All means m in [0, 1] with KL(mean_hat, m) <= log(2/delta) / n, each
    end the two-point KL ball's bound from _kl_bernoulli_end."""
    if not 0.0 <= mean_hat <= 1.0:
        raise ValueError(f"mean must lie in [0, 1], got {mean_hat}")
    _check_n(n)
    _check_delta(delta)
    level = math.log(2.0 / delta) / n
    return IntervalResult(
        lower=_kl_bernoulli_end(mean_hat, level, 0.0),
        upper=_kl_bernoulli_end(mean_hat, level, 1.0),
        method="kl-bernoulli",
    )


# A dual Newton step shorter than this share of lambda - max f has converged.
_DUAL_STEP_RTOL = 1e-12


def _kl_ball_sup(
    f: list[float], w: list[float], eps: float, start: float | None = None
) -> tuple[float, float]:
    """sup f.p over {p : KL(w || p) <= eps}, as an upper bound tight to
    rounding, and the dual point as its offset x = lambda - max f, which
    keeps its precision when lambda is within rounding of max f.

    The sup is the least g(lambda) = lambda - E over lambda >= max f, E =
    exp(sum_{w_j > 0} w_j log(lambda - f_j) - eps) (the finite-support
    KL-UCB bound of Honda and Takemura, and Cappe et al.); g is convex, g' =
    1 - E S1, g'' = E (S2 - S1^2), S_m = sum_{w_j > 0} w_j / (lambda -
    f_j)^m. By weak duality every g(lambda) bounds the sup, so stopping
    early only loosens the bound. Newton steps on g' run in x inside [0,
    (wbar - a_min e^eps) / (e^eps - 1)], where g' >= 0 by AM-GM (a_j = max
    f - f_j, wbar = sum w_j a_j, a_min = the least observed a_j), from
    ``start`` (a previous offset) or, cold, from the second-order dual
    point: with observed weight c on max f, the optimum gives those
    categories mass q > c at offset c (1 - q) / (q - c), and q is about c +
    sqrt(2 eps c (1 - c)), the second-order root of KL(c, q) = eps. A start
    outside the bracket is replaced by its midpoint. A step that leaves the
    bracket or is longer than half the last one is replaced by bisection.
    Explicit cases: max f when every observed category pays it (constant f
    included); g(max f) when none does and g'(max f) >= 0, the boundary
    optimum; max f, always sound, when e^eps overflows.
    """
    top = max(f)
    obs = [(wj, top - fj) for wj, fj in zip(w, f) if wj > 0.0]
    a_min = min(a for _, a in obs)
    wbar = math.fsum(wj * a for wj, a in obs)
    if wbar == 0.0:  # every observed category pays max f
        return top, 0.0

    def dual(x: float) -> tuple[float, float, float]:
        """E, S1 and S2 at lambda = max f + x."""
        log_e = s1 = s2 = 0.0
        for wj, a in obs:
            d = x + a
            dd = d * d
            log_e += wj * math.log(d)
            s1 += wj / d
            s2 += wj / dd if dd else math.inf  # IEEE's wj / +0 on underflow
        return math.exp(log_e - eps), s1, s2

    if a_min > 0.0:
        e, s1, _ = dual(0.0)
        if e * s1 <= 1.0:  # g'(max f) >= 0: the boundary optimum
            return top - e, 0.0
    try:
        growth = math.exp(eps)
    except OverflowError:
        return top, 0.0
    lo, hi = 0.0, (wbar - a_min * growth) / math.expm1(eps)
    # no room left by rounding, or, when a_min = 0 makes log(x + a_min) at
    # x = 0 infinite, no float inside the bracket: max f is always sound
    if not hi > 0.0 or (a_min == 0.0 and 0.5 * hi == 0.0):
        return top, 0.0
    if start is None:
        c = sum(wj for wj, a in obs if a == 0.0)
        d = math.sqrt(2.0 * eps * c * (1.0 - c))
        start = c * (1.0 - c - d) / d if d else lo  # no start: the midpoint
    x = start if lo < start < hi else 0.5 * (lo + hi)
    last = math.inf  # length of the previous Newton step
    while True:
        e, s1, s2 = dual(x)
        slope, curv = 1.0 - e * s1, e * (s2 - s1 * s1)
        lo, hi = (x, hi) if slope < 0.0 else (lo, x)
        # a curvature lost to rounding sends the step to bisection
        step = slope / curv if curv > 0.0 else math.inf
        if abs(step) <= _DUAL_STEP_RTOL * x:
            return top + x - e, x
        nxt = x - step
        if lo < nxt < hi and abs(step) <= 0.5 * last:
            last = abs(step)
        else:
            nxt, last = 0.5 * (lo + hi), math.inf
            if nxt == lo or nxt == hi:
                return top + x - e, x
        x = nxt


class _KlBallBracket:
    """f's range over the KL ball n KL(phat || p) < kl_ball_radius(counts,
    delta) that holds phat's level-set region: the level-set bracket, an
    outer interval of the region's range for any k, with no grid. ``end(counts,
    delta, side)``, counts an integer array, is -sup(-f).p (side 0) or sup
    f.p (side 1) from _kl_ball_sup, clamped to f's range. The radius less
    log(2 / delta) and phat's weights are kept until the counts change. Each
    side starts from its last dual point, a sound bound however stale, for
    about 3 dual evaluations per solve against 8 cold."""

    def __init__(self, f: LinearFunctional):
        self.payoffs = ([-v for v in f.values], list(f.values))
        self.range = f.value_range
        self.starts = [None, None]  # each side's last dual point
        self.ball = None  # counts, n, offset, weights

    def end(self, counts: np.ndarray, delta: float, side: int) -> float:
        c = counts.tolist()
        ball = self.ball
        if ball is None or ball[0] != c:
            n = sum(c)
            ball = self.ball = (c, n, _kl_ball_offset(c), [x / n for x in c])
        _, n, offset, w = ball
        eps = (offset + math.log(2.0 / delta)) / n
        sup, self.starts[side] = _kl_ball_sup(self.payoffs[side], w, eps, self.starts[side])
        return min(self.range[1], sup) if side else max(self.range[0], -sup)


# Below this level the dual cannot resolve eps against the rounding of its
# exponent's log terms, about 2^-53 |log x| at x ~ sqrt(m (1 - m) / (2
# level)): at 1e-14 an end errs by up to about a tenth of its distance from
# the mean, below 1e-15 it can cross the mean. The ball at a larger level
# holds the smaller ball, so the floor's ends are outer ends.
_KL_LEVEL_FLOOR = 1e-14


def _kl_bernoulli_solve(
    mean_hat: float, level: float, edge: float, start: float | None
) -> tuple[float, float]:
    """The end toward edge 0 or 1 of {m : KL(mean_hat, m) <= level}, and
    its dual point: the two-category KL ball with weights (1 - mean_hat,
    mean_hat), bounded over payoff (0, 1) for edge 1 and (-0, -1) for edge
    0, at a level of at least _KL_LEVEL_FLOOR, solved from ``start`` (a
    previous dual point; None for the cold start). By weak duality the end
    lies at or outside the exact one in exact arithmetic; in floats it is
    tight to the dual's rounding, so a warm and a cold solve may differ in
    the last bits. The ball holds its centre, so the end is clamped to its
    side of mean_hat, which rounding can cross when mean_hat is subnormal."""
    w = [1.0 - mean_hat, mean_hat]
    level = max(level, _KL_LEVEL_FLOOR)
    if edge:
        sup, x = _kl_ball_sup([0.0, 1.0], w, level, start)
        return min(1.0, max(mean_hat, sup)), x
    sup, x = _kl_ball_sup([-0.0, -1.0], w, level, start)
    return max(0.0, min(mean_hat, -sup)), x


def _kl_bernoulli_end(mean_hat: float, level: float, edge: float) -> float:
    """_kl_bernoulli_solve's end from the cold start: it depends only on
    (mean_hat, level, edge)."""
    return _kl_bernoulli_solve(mean_hat, level, edge, None)[0]
