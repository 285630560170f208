"""Simplex primitives: discrete and continuous simplex points, composition
enumeration, the multinomial log-pmf, and KL divergences.

All probability arithmetic runs in natural-log space through the log-gamma
function. Exact big-rational cross-checks live in the test suite only.
"""
from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np
from scipy.special import gammaln

#: tolerance on |sum(probs) - 1| accepted at SimplexPoint construction
SUM_TOL = 1e-12

#: two outcomes count as equiprobable when their log-pmfs are this close
LOG_TIE_TOL = 1e-9

#: most points of a scan grid or an outcome table; checked before either is built
MAX_GRID_POINTS = 5_000_000

# Finite stand-in for log(0) in vectorized matmul paths. exp() of anything
# at this scale underflows to exactly 0.0, and 0 * _LOG_ZERO is 0.0 rather
# than the nan produced by 0 * (-inf).
_LOG_ZERO = -1e18


@dataclass(frozen=True, order=True)
class EmpiricalDistribution:
    """Per-category counts observed in a sample; an element of the discrete
    simplex. Ordering is lexicographic on the count vector."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        if len(counts) < 1:
            raise ValueError("need at least one category")
        if any(c < 0 for c in counts):
            raise ValueError(f"counts must be nonnegative, got {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def k(self) -> int:
        return len(self.counts)

    def as_point(self) -> "SimplexPoint":
        """Rescale the counts to a point on the continuous simplex."""
        n = self.n
        if n == 0:
            raise ValueError("cannot rescale an empty sample to the simplex")
        return SimplexPoint(tuple(c / n for c in self.counts))


@dataclass(frozen=True)
class SimplexPoint:
    """A point of the probability simplex: nonnegative entries summing to 1.

    Construction rejects vectors whose sum is off by more than SUM_TOL
    unless ``normalize=True`` is passed; silent renormalization hides
    caller bugs.
    """

    probs: tuple[float, ...]
    normalize: InitVar[bool] = False

    def __post_init__(self, normalize: bool) -> None:
        probs = tuple(float(x) for x in self.probs)
        if len(probs) < 1:
            raise ValueError("need at least one category")
        if any(x < 0.0 for x in probs):
            raise ValueError(f"probabilities must be nonnegative, got {probs}")
        total = math.fsum(probs)
        if normalize:
            if total <= 0.0:
                raise ValueError("cannot normalize a zero vector")
            probs = tuple(x / total for x in probs)
            total = math.fsum(probs)
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(
                f"probabilities sum to {total!r}; pass normalize=True to rescale"
            )
        object.__setattr__(self, "probs", probs)

    @property
    def k(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    @classmethod
    def uniform(cls, k: int) -> "SimplexPoint":
        return cls((1.0 / k,) * k)


def simplex_size(k: int, n: int) -> int:
    """Number of count vectors of length k summing to n."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(n + k - 1, k - 1)


@lru_cache(maxsize=8)
def compositions_array(k: int, n: int) -> np.ndarray:
    """All count vectors of Delta_{k,n} as a read-only (size, k) int64
    array in lexicographic order: index order breaks probability ties, and a
    row's index is its ``composition_rank``. Column by column, each partial
    row with rest units left is repeated rest + 1 times with values 0..rest.
    More than MAX_GRID_POINTS rows are refused before allocating. Cached."""
    size = simplex_size(k, n)
    if size > MAX_GRID_POINTS:
        raise ValueError(
            f"Delta_({k},{n}) has {size} points, more than {MAX_GRID_POINTS}; "
            "no outcome table or grid that large is built"
        )
    arr = np.empty((1, 0), dtype=np.int64)
    rest = np.array([n], dtype=np.int64)
    for _ in range(k - 1):
        reps = rest + 1
        arr = np.repeat(arr, reps, axis=0)
        v = np.arange(len(arr)) - np.repeat(np.cumsum(reps) - reps, reps)
        arr = np.column_stack((arr, v))
        rest = np.repeat(rest, reps) - v
    arr = np.column_stack((arr, rest))
    arr.setflags(write=False)
    return arr


def composition_rank(counts: tuple[int, ...]) -> int:
    """Row index of ``counts`` in ``compositions_array(len(counts),
    sum(counts))``: its lexicographic rank, in O(k). Position j, with m
    units left and t = k - j - 1 positions after it, passes over the
    C(m + t, t) - C(m - c_j + t, t) outcomes whose entry there is below c_j."""
    m = sum(counts)
    rank = 0
    for j, c in enumerate(counts):
        t = len(counts) - j - 1
        rank += math.comb(m + t, t) - math.comb(m - c + t, t)
        m -= c
    return rank


@lru_cache(maxsize=8)
def log_coefficients(k: int, n: int) -> np.ndarray:
    """Log multinomial coefficients log(n! / prod c_j!) of the rows of
    ``compositions_array(k, n)``, in the same order, as a read-only array.
    Cached; callers must not modify."""
    out = _log_coefficients(compositions_array(k, n))
    out.setflags(write=False)
    return out


def _log_coefficients(counts: np.ndarray) -> np.ndarray:
    """log(n! / prod c_j!) per count row, n its row sum, via a gammaln table."""
    n = counts.sum(axis=1)
    lg = gammaln(np.arange(n.max(initial=0) + 2))
    return lg[n + 1] - lg[counts + 1].sum(axis=1)


def enumerate_simplex(k: int, n: int) -> list[EmpiricalDistribution]:
    """The rows of ``compositions_array(k, n)``, lexicographic, as empirical
    distributions. n = 0 gives the single all-zero count vector."""
    size = simplex_size(k, n)
    if size > sys.maxsize:
        raise OverflowError(
            f"enumerating Delta_({k},{n}) needs capacity for {size} elements, "
            f"beyond the platform integer range {sys.maxsize}"
        )
    rows = compositions_array(k, n).tolist()
    return [EmpiricalDistribution(tuple(r)) for r in rows]


def log_pmf(phat: EmpiricalDistribution, p: SimplexPoint) -> float:
    """Natural log of the multinomial probability of observing ``phat``
    under parameter ``p``. Exactly -inf when some positive count sits on a
    zero-probability category; zero counts contribute nothing."""
    if phat.k != p.k:
        raise ValueError(f"dimension mismatch: {phat.k} counts vs {p.k} probabilities")
    n = phat.n
    s = math.lgamma(n + 1) - math.fsum(math.lgamma(c + 1) for c in phat.counts)
    for c, x in zip(phat.counts, p.probs):
        if c == 0:
            continue
        if x == 0.0:
            return float("-inf")
        s += c * math.log(x)
    return s


def log_pmf_array(counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Vectorized multinomial log-pmf of many count rows under one p.

    Rows with a positive count on a zero-probability category come back
    as exactly -inf.
    """
    counts = np.asarray(counts)
    p = np.asarray(probs, dtype=float)
    if counts.shape[1] != p.shape[0]:
        raise ValueError("dimension mismatch between counts and probabilities")
    return _finite_to_inf(_log_coefficients(counts) + counts @ log_weights(p))


def outcome_log_pmf(k: int, n: int, probs: np.ndarray) -> np.ndarray:
    """log_pmf_array over every row of ``compositions_array(k, n)``, with
    the coefficients read from the cached ``log_coefficients`` table."""
    counts = compositions_array(k, n)
    return _finite_to_inf(log_coefficients(k, n) + counts @ log_weights(probs))


def log_weights(probs: np.ndarray) -> np.ndarray:
    """Elementwise log of probabilities, with the finite stand-in _LOG_ZERO
    at zero entries so that count-weighted sums stay nan-free."""
    p = np.asarray(probs, dtype=float)
    return np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), _LOG_ZERO)


def _finite_to_inf(logp: np.ndarray) -> np.ndarray:
    return np.where(logp <= _LOG_ZERO / 2, -np.inf, logp)


def kl_divergence(p: SimplexPoint, q: SimplexPoint) -> float:
    """KL(p, q) in nats with the 0 log 0 = 0 convention; +inf when p puts
    mass where q has none."""
    if p.k != q.k:
        raise ValueError(f"dimension mismatch: {p.k} vs {q.k}")
    if p.probs == q.probs:
        return 0.0
    terms = []
    for a, b in zip(p.probs, q.probs):
        if a == 0.0:
            continue
        if b == 0.0:
            return float("inf")
        terms.append(a * math.log(a / b))
    return max(0.0, math.fsum(terms))


def kl_bernoulli(a: float, b: float) -> float:
    """Two-point KL divergence between Bernoulli(a) and Bernoulli(b)."""
    if not (0.0 <= a <= 1.0) or not (0.0 <= b <= 1.0):
        raise ValueError(f"arguments must lie in [0, 1], got {a}, {b}")
    if a == b:
        return 0.0
    s = 0.0
    if a > 0.0:
        if b == 0.0:
            return float("inf")
        s += a * (math.log(a) - math.log(b))  # a / b overflows for tiny b
    if a < 1.0:
        if b == 1.0:
            return float("inf")
        s += (1.0 - a) * math.log((1.0 - a) / (1.0 - b))
    return max(0.0, s)


def kl_to_many(p: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """KL(p, q) of one distribution p against many rows q, vectorized."""
    p = np.asarray(p, dtype=float)
    rows = np.asarray(rows, dtype=float)
    mask = p > 0.0
    pm = p[mask]
    with np.errstate(divide="ignore"):
        lq = np.log(rows[:, mask])
    return (pm * (np.log(pm) - lq)).sum(axis=1)


def kl_bernoulli_many(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Elementwise two-point KL of marginals a_j against rows[:, j]."""
    a = np.asarray(a, dtype=float)
    rows = np.asarray(rows, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(a > 0.0, a * (np.log(a) - np.log(rows)), 0.0)
        t2 = np.where(
            a < 1.0, (1.0 - a) * (np.log1p(-a) - np.log1p(-rows)), 0.0
        )
    return t1 + t2


def kahan_cumsum(values: np.ndarray, target: float) -> np.ndarray:
    """Running sums with Kahan compensation, up to and including the first
    one that reaches ``target`` (all of them if none does); the 1 - delta
    comparisons downstream must not flip on accumulated rounding."""
    out = []
    total = 0.0
    comp = 0.0
    for v in values:
        y = float(v) - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out.append(total)
        if total >= target:
            break
    return np.array(out, dtype=float)


@lru_cache(maxsize=8)
def _grid_points(k: int, resolution: int) -> np.ndarray:
    pts = compositions_array(k, resolution) / float(resolution)
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True)
class SimplexGrid:
    """The rational grid on the simplex at a given resolution: every count
    vector summing to ``resolution``, rescaled by 1/resolution."""

    k: int
    resolution: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")

    def __len__(self) -> int:
        return simplex_size(self.k, self.resolution)

    @property
    def points(self) -> np.ndarray:
        """Read-only (len, k) array of grid points."""
        return _grid_points(self.k, self.resolution)

    def __iter__(self) -> Iterator[SimplexPoint]:
        for row in self.points:
            yield SimplexPoint(tuple(row))
