"""Independent oracles for the test suite: the bars-and-stars outcome
enumeration, exact big-rational pmf sums, the p-value summed by
math.fsum, exhaustive subset search for minimal covering cardinality,
scalar KL divergences (full and two-point) with the method-of-types
rejection test built on them, a one-dimensional boundary-bisection
measure for k = 2 regions, a 64-step bisection for two-point KL interval
endpoints, a lexsort with a per-run re-sort for the probability ordering,
the level-set grid kernel with its KL outer-bound prune, and region
volumes summed one membership grid per outcome (the region side of the
counting identity, against which the library's collection-side count is
checked). These stay
deliberately separate from the library's arithmetic outcome table, its
log-space code paths, its exponent-binned exact sum, its KL-ball dual
solver, its run-key ordering and its phat-mass prune. The whole-array
Hoeffding and bisection kl-bernoulli LUCB endpoints are the references
for the bandit's per-arm formulas; ``kl_end_allowance`` is how far the
dual's two-point KL end may stray from the bisection's on rounding
alone."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterator

import numpy as np

from simplexcr import (
    EmpiricalDistribution,
    SimplexGrid,
    SimplexPoint,
    enumerate_simplex,
    member_of_covering,
)
from simplexcr.core import (
    LOG_TIE_TOL,
    composition_rank,
    compositions_array,
    kl_bernoulli_many,
    kl_to_many,
    log_coefficients,
    log_weights,
    outcome_log_pmf,
)
from simplexcr.functionals import _kl_ball_sup
from simplexcr.regions import membership_grid


def iter_compositions(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """Yield all count vectors of length k summing to n, lexicographically
    ascending. The bars-and-stars bijection keeps this allocation-light."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if k == 1:
        yield (n,)
        return
    for bars in combinations(range(n + k - 1), k - 1):
        prev = -1
        out = []
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(n + k - 2 - prev)
        yield tuple(out)


def exact_pmf(counts, probs: tuple[Fraction, ...]) -> Fraction:
    n = sum(counts)
    coef = math.factorial(n)
    for c in counts:
        coef //= math.factorial(c)
    val = Fraction(coef)
    for c, q in zip(counts, probs):
        if c:
            val *= Fraction(q) ** c
    return val


def exact_log_pmf(counts, probs: tuple[Fraction, ...]) -> float:
    val = exact_pmf(counts, probs)
    if val == 0:
        return float("-inf")
    return math.log(val.numerator) - math.log(val.denominator)


def exact_p_value(phat_counts, probs: tuple[Fraction, ...]) -> Fraction:
    k, n = len(phat_counts), sum(phat_counts)
    target = exact_pmf(phat_counts, probs)
    total = Fraction(0)
    for counts in iter_compositions(k, n):
        v = exact_pmf(counts, probs)
        if v <= target:
            total += v
    return total


def p_value_fsum(phat: EmpiricalDistribution, p: SimplexPoint) -> float:
    """The library's p_value as it was written with math.fsum over the
    included outcomes' probabilities, element by element."""
    if phat.k != p.k:
        raise ValueError(f"dimension mismatch: {phat.k} vs {p.k}")
    logp = outcome_log_pmf(p.k, phat.n, p.as_array())
    q = logp[composition_rank(phat.counts)]
    include = logp <= q + LOG_TIE_TOL
    if bool(include.all()):
        return 1.0
    return min(1.0, math.fsum(np.exp(logp[include])))


def random_rational_point(rng: np.random.Generator, k: int, denom: int = 50):
    """A strictly positive rational simplex point with small denominators."""
    while True:
        raw = rng.integers(1, denom, size=k)
        total = int(raw.sum())
        fracs = tuple(Fraction(int(a), total) for a in raw)
        if sum(fracs) == 1:
            return fracs


def point_from_fractions(fracs) -> SimplexPoint:
    return SimplexPoint(tuple(float(f) for f in fracs), normalize=True)


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


def outer_bound_reject(
    phat: EmpiricalDistribution, p: SimplexPoint, delta: float
) -> bool:
    """Sound rejection test: true only when the method-of-types bound
    (n+1)^(2k) exp(-n KL(phat, p)) is at most delta, which forces the exact
    p-value at or below delta. Evaluated in log space."""
    if phat.k != p.k:
        raise ValueError(f"dimension mismatch: {phat.k} vs {p.k}")
    n, k = phat.n, phat.k
    if n == 0:
        return False
    div = kl_divergence(phat.as_point(), p)
    if math.isinf(div):
        return True
    return 2.0 * k * math.log(n + 1) - n * div <= math.log(delta)


def min_covering_size_bruteforce(probs, target: float, chunk: int = 200_000) -> int:
    """Smallest subset cardinality whose mass reaches the target, found by
    exhausting all subsets level by level (vectorized in chunks)."""
    probs = np.asarray(probs, dtype=float)
    n = len(probs)
    for m in range(1, n + 1):
        it = combinations(range(n), m)
        while True:
            block = list(islice(it, chunk))
            if not block:
                break
            idx = np.array(block, dtype=np.int64)
            if (probs[idx].sum(axis=1) >= target).any():
                return m
    return n


def k2_region_measure_bisection(phat, delta: float, coarse: int = 4000) -> float:
    """Lebesgue measure of {p1 : (p1, 1-p1) in the level-set region of phat}."""
    return sum(end - start for start, end in k2_region_runs(phat, delta, coarse))


def k2_region_runs(phat, delta: float, coarse: int = 4000) -> list[tuple[float, float]]:
    """The runs [start, end] of p1 whose (p1, 1-p1) lies in the level-set
    region of phat, by coarse scanning for membership transitions and
    bisecting each one; a run shorter than 1/coarse can be missed. A run
    that reaches an end of [0, 1] has exactly 0.0 or 1.0 there."""

    def inside(x: float) -> bool:
        return member_of_covering(phat, SimplexPoint((x, 1.0 - x)), delta)

    xs = np.linspace(0.0, 1.0, coarse + 1)
    flags = [inside(float(x)) for x in xs]
    runs = []
    start = None
    for i, (x, flag) in enumerate(zip(xs, flags)):
        if flag and start is None:
            if i == 0:
                start = 0.0
            else:
                start = _bisect_edge(inside, xs[i - 1], x, want_inside_right=True)
        elif not flag and start is not None:
            end = _bisect_edge(inside, xs[i - 1], x, want_inside_right=False)
            runs.append((start, end))
            start = None
    if start is not None:
        runs.append((start, 1.0))
    return runs


def _bisect_edge(inside, lo: float, hi: float, want_inside_right: bool) -> float:
    # invariant: inside(hi) == want_inside_right != inside(lo)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if inside(mid) == want_inside_right:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def hoeffding_arm_bounds(los, spans, means, ns, delta_t):
    """Every arm's Hoeffding (lcb, ucb) at once, on payoff ranges [los, los
    + spans]."""
    radius = spans * np.sqrt(math.log(2.0 / delta_t) / (2.0 * ns))
    return np.maximum(means - radius, los), np.minimum(means + radius, los + spans)


def kl_bernoulli_arm_bounds(los, spans, means, ns, delta_t):
    """Every arm's two-point KL (lcb, ucb) at once, and the scaled means and
    levels behind them: the means scaled to [0, 1], both ends from
    kl_bernoulli_bounds_bisection, scaled back; a zero span's ends are its
    mean."""
    span = np.where(spans > 0.0, spans, 1.0)
    scaled = np.clip((means - los) / span, 0.0, 1.0)
    levels = math.log(2.0 / delta_t) / ns
    lo_s, hi_s = kl_bernoulli_bounds_bisection(scaled, levels)
    lcb = los + spans * lo_s
    ucb = los + spans * hi_s
    return (
        np.where(spans > 0.0, lcb, means),
        np.where(spans > 0.0, ucb, means),
        scaled,
        levels,
    )


def kl_bernoulli_bounds_bisection(mean_hats, levels):
    """Endpoints of {m : KL(mean_hat, m) <= level} by 64 array bisection
    steps per side, returning the feasible end of each bracket; an endpoint
    is 0 or 1 only when that edge itself is feasible."""
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


def _kl_rounding(mean_hat: float, m: float) -> float:
    """Scale of the absolute rounding error of KL(mean_hat, m) as computed
    by kl_bernoulli or core.kl_bernoulli_many: each term's logarithms
    carry about one ulp of their size."""
    s = 0.0
    if mean_hat > 0.0:
        s += mean_hat * (1.0 + abs(math.log(mean_hat)) + abs(math.log(m)))
    if mean_hat < 1.0:
        s += (1.0 - mean_hat) * (
            1.0 + abs(math.log1p(-mean_hat)) + abs(math.log1p(-m))
        )
    return 2.0**-52 * s


def _kl_slope(mean_hat: float, m: float) -> float:
    return abs(m - mean_hat) / (m * (1.0 - m))


def kl_end_allowance(
    mean_hat: float, level: float, edge: float, end: float, ref: float
) -> float:
    """How far apart rounding alone may set two ends toward ``edge`` of {m :
    KL(mean_hat, m) <= level}, the dual solver's ``end`` and the
    bisection's ``ref``, as the sum of two terms.

    The bisection's: four times the distance over which KL's rounding error
    can move the root, taken from whichever of the two ends lie strictly
    inside (0, 1) and off mean_hat (KL's slope is 0 at mean_hat; it and
    KL's logarithms are infinite at the edges). At small levels the root is
    ill-conditioned: KL's rounding error of about 1e-16 meets a slope of
    about sqrt(2 level / (m (1 - m))), so this term passes 1e-14 below
    level ~2.5e-5 and nears 1e-8 at level 1e-14.

    The dual's: the end is top + x - E at the dual offset x, with E = exp(w0
    log(x + a0) + w1 log(x + a1) - level) at most about 1 + x, and E's
    relative error is about 2^-52 times the size of its exponent's terms;
    four times that. At small levels x grows as sqrt(m (1 - m) / (2
    level)), so this term grows like the first.
    """
    inner = [m for m in (end, ref) if 0.0 < m < 1.0 and m != mean_hat]
    kl_term = 0.0
    if inner:
        slope = min(_kl_slope(mean_hat, m) for m in inner)
        kl_term = 4.0 * sum(_kl_rounding(mean_hat, m) for m in inner) / slope
    w = [1.0 - mean_hat, mean_hat]
    _, x = _kl_ball_sup([0.0, 1.0] if edge else [-0.0, -1.0], w, level)
    w_top = w[1] if edge else w[0]  # the weight of the category with a = 0
    logs = (1.0 - w_top) * math.log1p(x)
    if x > 0.0:
        logs += w_top * abs(math.log(x))
    return kl_term + 4.0 * 2.0**-52 * (1.0 + x) * (1.0 + level + logs)


def probability_ordering_lexsort(counts: np.ndarray, logp: np.ndarray) -> np.ndarray:
    """Indices sorting outcomes by probability descending; runs of sorted
    neighbours a >= b with a <= b + LOG_TIE_TOL are ordered
    lexicographically ascending on their count vectors."""
    k = counts.shape[1]
    keys = [counts[:, j] for j in range(k - 1, -1, -1)] + [-logp]
    order = np.lexsort(keys)
    sorted_logp = logp[order]
    # Exact float ties are already lex-ordered by the sort keys; re-sort any
    # run of near-ties that spans distinct float values.
    start = 0
    m = len(order)
    for i in range(1, m + 1):
        boundary = i == m
        if not boundary:
            a, b = sorted_logp[i - 1], sorted_logp[i]
            boundary = not a <= b + LOG_TIE_TOL  # -inf <= -inf + LOG_TIE_TOL
        if boundary:
            if i - start > 1:
                run = order[start:i]
                sub_keys = [counts[run, j] for j in range(k - 1, -1, -1)]
                order[start:i] = run[np.lexsort(sub_keys)]
            start = i
    return order


def levelset_membership_grid_kl_prune(
    phat: EmpiricalDistribution, delta: float, points: np.ndarray
) -> np.ndarray:
    """Level-set membership of every row of ``points``, as the library
    computed it before its phat-mass prune: the same rank-mass rule, with
    points pruned by the method-of-types KL outer bound instead.

    p is in the region iff the mass G of the outcomes ranked before phat
    under p is below 1 - delta. With D = log P_p(x) - log P_p(phat), x is
    ranked before phat when D > LOG_TIE_TOL, or when |D| <= LOG_TIE_TOL
    (the tie band) and x is lexicographically earlier: covering_collection's
    order. G is an ``np.bincount`` sum of exp(log P_p(x)) per point. Rows at
    or below the floor log(delta) - log(N) - 30 (N outcomes) are left out:
    together they weigh at most delta * exp(-30), and leaving mass out only
    lowers G, so the floor errs only toward inclusion. The sound KL outer
    bound (outer_bound_reject's test) prunes points first, and a point under
    which phat alone has mass above delta is accepted, as G excludes phat.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    points = np.asarray(points, dtype=float)
    n, k = phat.n, phat.k
    if points.shape[1] != k:
        raise ValueError("points do not match phat's dimension")
    counts = compositions_array(k, n)
    num = len(counts)
    idx = composition_rank(phat.counts)
    logcoef = log_coefficients(k, n)

    member = np.zeros(len(points), dtype=bool)
    if n >= 1:
        with np.errstate(invalid="ignore"):
            klvec = kl_to_many(phat.as_point().as_array(), points)
            keep = 2.0 * k * math.log(n + 1) - n * klvec > math.log(delta)
        cand = np.flatnonzero(keep)
    else:
        cand = np.arange(len(points))
    if len(cand) == 0:
        return member

    target = 1.0 - delta
    log_delta = math.log(delta)
    floor = log_delta - math.log(num) - 30.0
    w = log_weights(points[cand])
    counts_f = counts.astype(float)  # int64 matmuls bypass BLAS

    batch = max(16, 20_000_000 // (8 * num))  # independent of the library's blocks
    for a in range(0, len(cand), batch):
        cols = cand[a : a + batch]
        wb = w[a : a + batch]
        # Candidate columns are contiguous in grid order, so they are close
        # on the simplex and the per-batch row bound prunes hard: any row
        # whose best-case log-pmf over this batch is below the floor can
        # never be counted.
        row_bound = logcoef + counts_f @ wb.max(axis=0)
        kept = row_bound > floor
        kept[idx] = True
        new_idx = int(kept[:idx].sum())
        if len(wb) == 1:  # a one-point batch's row bound is its log-pmf
            lp = row_bound[kept][:, None]
        else:
            lp = logcoef[kept][:, None] + counts_f[kept] @ wb.T
        lex_earlier = np.arange(len(lp)) < new_idx  # rows stay in lex order
        q = lp[new_idx]
        quick = q > log_delta
        member[cols[quick]] = True
        rest = np.flatnonzero(~quick)
        if len(rest) == 0:
            continue
        lpr = lp[:, rest]
        hi = q[rest] + LOG_TIE_TOL
        lo = q[rest] - LOG_TIE_TOL
        sel = (lpr > hi) | ((lpr <= hi) & (lpr >= lo) & lex_earlier[:, None])
        sel &= lpr > floor
        srows, scols = np.nonzero(sel)
        mass = np.bincount(
            scols, weights=np.exp(lpr[srows, scols]), minlength=len(rest)
        )
        member[cols[rest]] = mass < target
    return member


def per_outcome_volumes(spec, M: int) -> dict:
    """Every outcome's region volume on the resolution-M grid, one
    membership_grid call per outcome: how average_volume computed them
    before it counted level-set volumes from the collection side."""
    points = SimplexGrid(spec.k, M).points
    outcomes = enumerate_simplex(spec.k, spec.n)
    return {phat: float(membership_grid(phat, spec, points).mean()) for phat in outcomes}
