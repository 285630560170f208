"""Confidence intervals for linear functionals of the simplex parameter.

The region-induced interval is extracted by a dense grid scan (Monte Carlo
for k > 3) widened by the worst-case change of the functional between
adjacent grid points, giving a resolution-controlled outer approximation.
Closed-form baselines (Hoeffding, oracle sub-Gaussian, empirical Bernstein,
two-point KL inversion) are provided for width comparisons.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EmpiricalDistribution,
    SimplexGrid,
    SimplexPoint,
    kl_bernoulli,
    kl_bernoulli_many,
)
from .regions import RegionSpec, membership_grid


@dataclass(frozen=True)
class LinearFunctional:
    """Assigns a real value to each category; evaluates as values . p."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 1:
            raise ValueError("need at least one category")
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
        if p.k != self.k:
            raise ValueError(f"dimension mismatch: {p.k} vs {self.k}")
        return float(math.fsum(v * x for v, x in zip(self.values, p.probs)))

    @classmethod
    def category_mean(cls, k: int) -> "LinearFunctional":
        """The mean functional under vertex labels 0, 1, ..., k-1."""
        return cls(tuple(float(i) for i in range(k)))


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
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower


class EmptyScanError(RuntimeError):
    """No scan point fell inside the region; rerun with a finer grid."""


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

    Scans the resolution-M simplex grid (default max(10n, 150)) and widens
    the hull of member values by the grid Lipschitz padding
    (max_ij |v_i - v_j|) * (k - 1) / M. The padded interval is clamped to
    the functional's range. For k > 3 dense grids are infeasible and the
    scan uses ``mc_draws`` uniform Dirichlet proposals instead (``seed``
    required); the member fraction is reported as ``scan_coverage``.
    """
    if f.k != phat.k:
        raise ValueError(f"dimension mismatch: {f.k} vs {phat.k}")
    if spec.n != phat.n or spec.k != phat.k:
        raise ValueError("spec does not match phat")
    if abs(spec.delta - delta) > 1e-12:
        raise ValueError(f"delta {delta} disagrees with spec.delta {spec.delta}")
    vals = np.asarray(f.values)
    lo_range, hi_range = f.value_range

    if phat.k <= 3:
        if M is None:
            M = max(10 * phat.n, 150)
        points = SimplexGrid(phat.k, M).points
        member = membership_grid(phat, spec, points)
        if not member.any():
            raise EmptyScanError(
                f"no member among {len(points)} grid points at resolution "
                f"{M} (kind={spec.kind}, n={spec.n}, delta={spec.delta}); "
                "the region is nonempty, so rerun with a finer grid"
            )
        fv = points[member] @ vals
        pad = (hi_range - lo_range) * (phat.k - 1) / M
        return IntervalResult(
            lower=max(lo_range, float(fv.min()) - pad),
            upper=min(hi_range, float(fv.max()) + pad),
            method=f"{spec.kind}-grid",
            grid_resolution=M,
            conservative_padding=pad,
        )

    if seed is None:
        raise ValueError("Monte Carlo scan for k > 3 requires a seed")
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
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
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
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if variance_true < 0.0:
        raise ValueError("variance must be nonnegative")
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
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
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


def _kl2_root(mean_hat: float, level: float, upper: bool) -> float:
    # Bisection on the monotone branch of m -> KL(mean_hat, m).
    lo, hi = (mean_hat, 1.0) if upper else (0.0, mean_hat)
    if kl_bernoulli(mean_hat, hi if upper else lo) <= level:
        return hi if upper else lo
    # Invariant: the endpoint nearest mean_hat satisfies the constraint.
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        ok = kl_bernoulli(mean_hat, mid) <= level
        if upper:
            lo, hi = (mid, hi) if ok else (lo, mid)
        else:
            lo, hi = (lo, mid) if ok else (mid, hi)
    return lo if upper else hi


def kl_bernoulli_interval(mean_hat: float, n: int, delta: float) -> IntervalResult:
    """All means m in [0, 1] with KL(mean_hat, m) <= log(2/delta) / n,
    endpoints located by bisection to 1e-10."""
    if not 0.0 <= mean_hat <= 1.0:
        raise ValueError(f"mean must lie in [0, 1], got {mean_hat}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    level = math.log(2.0 / delta) / n
    return IntervalResult(
        lower=_kl2_root(mean_hat, level, upper=False),
        upper=_kl2_root(mean_hat, level, upper=True),
        method="kl-bernoulli",
    )


def kl_bernoulli_bounds_vec(
    mean_hats: np.ndarray, levels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized endpoints of the two-point KL interval, one per entry.
    The bandit loop calls this every round, so it runs as array bisection."""
    mh = np.asarray(mean_hats, dtype=float)
    lv = np.asarray(levels, dtype=float)
    lo_lo, lo_hi = np.zeros_like(mh), mh.copy()
    hi_lo, hi_hi = mh.copy(), np.ones_like(mh)
    done_lo = kl_bernoulli_many(mh, lo_lo) <= lv
    done_hi = kl_bernoulli_many(mh, hi_hi) <= lv
    for _ in range(64):
        mid = 0.5 * (lo_lo + lo_hi)
        ok = kl_bernoulli_many(mh, mid) <= lv
        lo_hi = np.where(ok, mid, lo_hi)
        lo_lo = np.where(ok, lo_lo, mid)
        mid = 0.5 * (hi_lo + hi_hi)
        ok = kl_bernoulli_many(mh, mid) <= lv
        hi_lo = np.where(ok, mid, hi_lo)
        hi_hi = np.where(ok, hi_hi, mid)
    lower = np.where(done_lo, 0.0, lo_hi)
    upper = np.where(done_hi, 1.0, hi_lo)
    return lower, upper


def mixture_point_from_uniform(u: float) -> SimplexPoint:
    """Deterministic map from u in [-1, 1] to the 3-simplex whose pushforward
    under the mean functional p1 + 2 p2 is uniform on [0, 2]."""
    if not -1.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [-1, 1], got {u}")
    if u >= 0.0:
        return SimplexPoint((u, 1.0 - u, 0.0))
    return SimplexPoint((0.0, 1.0 + u, -u))


def induced_measure_sampler(seed: int, size: int | None = None):
    """Draw from the mixture measure on the 3-simplex that induces the
    uniform measure on the mean's range [0, 2].

    Returns a single SimplexPoint when ``size`` is None, otherwise a
    (size, 3) array of simplex rows. Stateless given the seed.
    """
    rng = np.random.default_rng(seed)
    if size is None:
        return mixture_point_from_uniform(float(rng.uniform(-1.0, 1.0)))
    u = rng.uniform(-1.0, 1.0, size=size)
    pts = np.zeros((size, 3))
    pos = u >= 0.0
    pts[pos, 0] = u[pos]
    pts[~pos, 2] = -u[~pos]
    pts[:, 1] = 1.0 - pts[:, 0] - pts[:, 2]
    return pts
