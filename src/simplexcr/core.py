"""Simplex primitives: discrete and continuous simplex points, composition
enumeration, the multinomial log-pmf, KL divergences, and the library's
input rules, one writer each, which every entry that takes the input calls
before it builds anything.

All probability arithmetic runs in natural-log space. The one special
function it needs is log m! at whole m. The outcome tables' coefficients
(``log_coefficients``) take it from ``_log_factorials``: the log of the
standard library's exact factorial up to 11!, and past it cephes'
Stirling series with libm's ``log``. Both give the bits of
``scipy.special.gammaln``, which runs the same cephes code, without
importing scipy. The KL-ball radius (``regions._kl_ball_offset``) takes
its k + 1 terms from ``math.lgamma`` instead: a table per change of the
counts would cost O(n) per pulled arm in the level-set bandit, and its
different bits could move the bandit's ends by ulps. Exact big-rational
cross-checks live in the test suite only.
"""
from __future__ import annotations

import functools
import math
import operator
from collections import OrderedDict, namedtuple
from dataclasses import InitVar, dataclass

import numpy as np

#: tolerance on |sum(probs) - 1| accepted at SimplexPoint construction
SUM_TOL = 1e-12

#: two outcomes count as equiprobable when their log-pmfs are this close
LOG_TIE_TOL = 1e-9

#: most points of a scan grid, an outcome table or a Monte Carlo scan;
#: checked before any of them is built
MAX_GRID_POINTS = 5_000_000

# Bytes of read-only arrays kept between calls by compositions_array,
# log_coefficients and _grid_points together, in one least-recently-used
# order. Bytes, not a count: a count small enough to bound the memory of
# tables at the cap thrashes on a mix of many small shapes. At the
# MAX_GRID_POINTS cap an outcome table takes 8 k bytes a row and its log
# coefficients 8 more, so this budget holds one k <= 5 table at the cap
# together with its coefficients (240 MB). Beyond that, a shape's table
# and coefficients evict each other and are rebuilt on alternate calls.
_CACHE_BYTES = (5 + 1) * 8 * MAX_GRID_POINTS

# Values per block of exact_sum, rows per block of log_coefficients: a few MB.
_SUM_BLOCK = 1 << 16

# cephes' lgam, which scipy.special.gammaln runs, at 13 <= x <= 1e8: the
# Stirling series (x - 0.5) log x - x + log sqrt(2 pi), plus a correction
# polynomial in 1 / x^2 over x, of degree 4 below x = 1000 and 2 from there.
_LS2PI = 0.91893853320467274178
_STIRLING_BELOW_1000 = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_STIRLING_FROM_1000 = (
    7.9365079365079365079365e-4,
    -2.7777777777777777777778e-3,
    0.0833333333333333333333,
)

# Finite stand-in for log(0) in vectorized matmul paths. exp() of anything
# at this scale underflows to exactly 0.0, and 0 * _LOG_ZERO is 0.0 rather
# than the nan produced by 0 * (-inf).
_LOG_ZERO = -1e18


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:  # also refuses nan
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")


def _check_n(n: int, least: int = 1) -> None:
    if n < least:
        raise ValueError(f"n must be >= {least}")


def _check_same_k(a: str, ka: int, b: str, kb: int) -> None:
    if ka != kb:
        raise ValueError(f"{a} has {ka} categories, {b} has {kb}")


def _as_points(points, k: int) -> np.ndarray:
    """``points`` as a float array of shape (G, k); any other shape is refused."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != k:
        raise ValueError(
            f"phat has {k} categories, so points must have shape (G, {k}); got {points.shape}"
        )
    return points


@dataclass(frozen=True, order=True)
class EmpiricalDistribution:
    """Per-category counts observed in a sample; an element of the discrete
    simplex. Ordering is lexicographic on the count vector. Counts must be
    integers, Python or NumPy; a float count raises TypeError."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(operator.index(c) for c in self.counts)
        _check_k(len(counts))
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

    Construction rejects non-finite entries, and vectors whose sum is off by
    more than SUM_TOL unless ``normalize=True`` is passed; silent
    renormalization hides caller bugs.
    """

    probs: tuple[float, ...]
    normalize: InitVar[bool] = False

    def __post_init__(self, normalize: bool) -> None:
        probs = tuple(float(x) for x in self.probs)
        if any(x < 0.0 for x in probs):
            raise ValueError(f"probabilities must be nonnegative, got {probs}")
        if not all(math.isfinite(x) for x in probs):
            raise ValueError(f"probabilities must be finite, got {probs}")
        total = math.fsum(probs)
        if normalize:
            if total <= 0.0:
                raise ValueError("cannot normalize a zero vector")
            probs = tuple(x / total for x in probs)
            total = math.fsum(probs)
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
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
    _check_k(k)
    _check_n(n, 0)
    return math.comb(n + k - 1, k - 1)


class OverBudgetError(ValueError):
    """A request would allocate more than MAX_GRID_POINTS points; refused
    before allocating."""


_CacheInfo = namedtuple("CacheInfo", "hits misses currsize nbytes")


class _ByteCache:
    """Read-only arrays kept under the one _CACHE_BYTES budget, in one
    least-recently-used order across every function it decorates.

    Storing a new array evicts the least recently used others until the
    total ``nbytes`` fits the budget; the array just stored is always kept,
    even alone over the budget. A call that raises stores and evicts
    nothing, but counts as a miss, as under ``functools.lru_cache``."""

    def __init__(self) -> None:
        self._entries: OrderedDict = OrderedDict()  # (build, args) -> array
        self._nbytes = 0

    def __call__(self, build):
        """Decorate ``build(*args) -> read-only array`` with this cache,
        and with lru_cache's ``cache_info()`` (hits, misses, and the count
        and bytes of ``build``'s entries) and ``cache_clear()``."""
        entries = self._entries
        hits = misses = 0

        @functools.wraps(build)
        def cached(*args):
            nonlocal hits, misses
            key = (build, args)
            arr = entries.get(key)
            if arr is not None:
                hits += 1
                entries.move_to_end(key)
                return arr
            misses += 1
            arr = build(*args)
            entries[key] = arr
            self._nbytes += arr.nbytes
            while self._nbytes > _CACHE_BYTES and len(entries) > 1:
                self._nbytes -= entries.popitem(last=False)[1].nbytes
            return arr

        def own_keys() -> list:
            return [key for key in entries if key[0] is build]

        def cache_info() -> _CacheInfo:
            own = [entries[key] for key in own_keys()]
            return _CacheInfo(hits, misses, len(own), sum(a.nbytes for a in own))

        def cache_clear() -> None:
            nonlocal hits, misses
            hits = misses = 0
            for key in own_keys():
                self._nbytes -= entries.pop(key).nbytes

        cached.cache_info = cache_info
        cached.cache_clear = cache_clear
        return cached


_byte_cached = _ByteCache()


def _check_budget(k: int, n: int) -> None:
    """The budget rule: Delta_{k,n} of more than MAX_GRID_POINTS points, as
    an outcome table or a scan grid, raises OverBudgetError. It builds
    nothing, so a caller may check every request before the first build."""
    size = simplex_size(k, n)
    if size > MAX_GRID_POINTS:
        raise OverBudgetError(
            f"Delta_({k},{n}) has {size} points, more than {MAX_GRID_POINTS}; "
            "no outcome table or grid that large is built"
        )


@_byte_cached
def compositions_array(k: int, n: int) -> np.ndarray:
    """All count vectors of Delta_{k,n} as a read-only (size, k) float64
    array in lexicographic order: index order breaks probability ties, and a
    row's index is its ``composition_rank``. Every log-pmf product reads its
    whole counts, exact up to 2**53, as floats; code that emits counts
    converts its rows. Column by column, each partial row with rest units
    left is repeated rest + 1 times with values 0..rest.
    Every outcome table and scan grid passes through here, so this is the
    budget's one gate: ``_check_budget`` refuses more than MAX_GRID_POINTS
    rows before allocating. Kept in the byte-budgeted cache it shares with
    ``log_coefficients`` and the grid points (least recently used evicted
    first; a refused call keeps nothing); callers must not modify."""
    _check_budget(k, n)
    if n > 2**53:  # only k = 1 gets here, as the budget bounds n at k >= 2
        raise ValueError(f"n must be at most 2**53, got {n}: float64 counts would round")
    arr = np.empty((1, 0))
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


def _log_factorials(n: int) -> np.ndarray:
    """log m! for m = 0..n, bit for bit ``scipy.special.gammaln(m + 1)``.

    gammaln is cephes' lgam. At x = m + 1 <= 12, lgam takes the log of the
    exact product (x - 1)!, as here. From x = 13 it sums the Stirling
    series, as here, in cephes' order and in numpy's IEEE arithmetic. Its
    log x is libm's, so here it is ``math.log`` of the integer x (converted
    to float exactly), not ``np.log``, whose log differs from libm's in the
    last bit at some x. Past x = 1e8 lgam drops the correction polynomial
    and this port does not, so it holds for n < 1e8: callers pass k >= 2
    tables' n, and such a table's n + 1 <= MAX_GRID_POINTS rows bound it."""
    out = np.empty(n + 1)
    out[:12] = [math.log(math.factorial(m)) for m in range(min(n + 1, 12))]
    x = np.arange(13.0, n + 2.0)
    q = out[12:]  # computed in place, in the order of (x - 0.5) log x - x + LS2PI
    q[:] = np.fromiter(map(math.log, range(13, n + 2)), float, len(x))
    q *= x - 0.5
    q -= x
    q += _LS2PI
    p = np.multiply(x, x)
    np.divide(1.0, p, out=p)
    cut = 1000 - 13  # x[cut] = 1000
    for part, coefs in (
        (slice(cut), _STIRLING_BELOW_1000),
        (slice(cut, None), _STIRLING_FROM_1000),
    ):
        poly = np.full_like(p[part], coefs[0])
        for c in coefs[1:]:
            poly *= p[part]
            poly += c
        poly /= x[part]
        q[part] += poly
    return out


@_byte_cached
def log_coefficients(k: int, n: int) -> np.ndarray:
    """Log multinomial coefficients log(n! / prod c_j!) of the rows of
    ``compositions_array(k, n)``, in the same order, as a read-only array.
    At k = 1 the one coefficient is n! / n! = 1, and no table of log
    factorials is built, whatever n. The table's rows index the log
    factorials as integers a block at a time, each row summed on its own.
    Kept in the byte-budgeted cache it shares with ``compositions_array``
    (least recently used evicted first); callers must not modify."""
    counts = compositions_array(k, n)  # the budget gate, before the log factorials
    if k == 1:
        out = np.zeros(1)
    else:
        lg = _log_factorials(n)
        blocks = np.split(counts, range(_SUM_BLOCK, len(counts), _SUM_BLOCK))
        out = lg[n] - np.concatenate([lg[b.astype(np.intp)].sum(axis=1) for b in blocks])
    out.setflags(write=False)
    return out


def enumerate_simplex(k: int, n: int) -> list[EmpiricalDistribution]:
    """The rows of ``compositions_array(k, n)``, lexicographic, as empirical
    distributions. n = 0 gives the single all-zero count vector."""
    rows = compositions_array(k, n).astype(int).tolist()
    return [EmpiricalDistribution(tuple(r)) for r in rows]


def outcome_log_pmf(k: int, n: int, probs: np.ndarray) -> np.ndarray:
    """Multinomial log-pmf of every row of ``compositions_array(k, n)``
    under one p, with the coefficients read from the cached
    ``log_coefficients`` table. A row with a positive count on a
    zero-probability category carries _LOG_ZERO times that count, so its
    exp is exactly 0.0."""
    return log_coefficients(k, n) + compositions_array(k, n) @ log_weights(probs)


def log_weights(probs: np.ndarray) -> np.ndarray:
    """Elementwise log of probabilities, with the finite stand-in _LOG_ZERO
    at zero entries so that count-weighted sums stay nan-free."""
    p = np.asarray(probs, dtype=float)
    return np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), _LOG_ZERO)


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


def exact_sum(values) -> float:
    """The correctly rounded sum of nonnegative finite float64 values (half
    to even), equal to ``math.fsum(values)`` bit for bit.

    Each value is mant * 2**(e - 1075) exactly, with e the exponent field
    (1 for subnormals and zero) and mant its 53-bit significand. Block by
    block of _SUM_BLOCK values, so that the temporaries stay a block long,
    the high and low 26-bit halves of mant are summed per exponent by
    ``bincount``; every bin is an integer under 2**43, so float64 holds it
    exactly. The bins are added into one Python int, and int / int true
    division rounds once. Raises ValueError on a value that is negative,
    -0.0, nan or inf.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    total = 0
    for start in range(0, len(bits), _SUM_BLOCK):
        block = bits[start : start + _SUM_BLOCK]
        e = block >> 52  # exponent field; the sign bit makes it negative
        if not (e.min() >= 0 and e.max() < 0x7FF):
            raise ValueError("exact_sum takes nonnegative finite values")
        np.maximum(e, 1, out=e)
        mant = block - ((e - 1) << 52)  # the implicit bit of a normal stays set
        high = np.bincount(e, weights=mant >> 26)
        low = np.bincount(e, weights=mant & ((1 << 26) - 1))
        nz = np.flatnonzero(high + low)
        for i, h, lo in zip(nz.tolist(), high[nz].tolist(), low[nz].tolist()):
            total += ((int(h) << 26) + int(lo)) << i
    return total / (1 << 1075)


@_byte_cached
def _grid_points(k: int, resolution: int) -> np.ndarray:
    """``compositions_array(k, resolution) / resolution``, read-only, kept
    in the byte-budgeted cache it shares with the outcome tables."""
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
        _check_k(self.k)
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")

    def __len__(self) -> int:
        return simplex_size(self.k, self.resolution)

    @property
    def points(self) -> np.ndarray:
        """Read-only (len, k) array of grid points."""
        return _grid_points(self.k, self.resolution)
