"""Confidence-region constructions on the simplex.

The central object is the probability-ordered covering collection: the
shortest prefix of outcomes, sorted by probability under p, whose mass
reaches 1 - delta. Inverting that collection gives the minimal
average-volume confidence region; KL-based Sanov and per-marginal polytope
regions are provided as baselines, together with the exact p-value. Each
region has one membership path, membership_grid; the scalar
region_membership is its one-row case. Level-set membership over many
points is pruned by a bound on phat's own mass, written once in
phat_mass_survivors: the kernel, levelset_membership_grid, prunes its
points with it, and functionals.functional_interval prunes its whole scan
grid with it and walks only the survivors. A pruned point is a proven
non-member, so the prune cannot change an answer. kl_ball_radius restates
the same rule as a KL ball around phat that holds every member. The kernel
and covering_sizes_grid build their outcome-by-point matrices one block of
about _BLOCK_ENTRIES entries at a time, so their memory does not grow with
the number of points, and each block's matrix with _log_pmf_block, so a
one-row call and a many-row call agree bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    LOG_TIE_TOL,
    EmpiricalDistribution,
    SimplexPoint,
    composition_rank,
    compositions_array,
    exact_sum,
    kahan_cumsum,
    kl_bernoulli_many,
    kl_to_many,
    log_coefficients,
    log_weights,
    outcome_log_pmf,
    simplex_size,
)

KINDS = ("levelset", "sanov", "polytope")

# Entries in one block of an outcome-by-point matrix, 2.5 MB of float64.
# levelset_membership_grid and covering_sizes_grid both take
# max(1, _BLOCK_ENTRIES // N) points per block over N outcomes.
_BLOCK_ENTRIES = 312_500


@dataclass(frozen=True)
class RegionSpec:
    """Which region to build: error level, construction kind, and the
    sampling regime (n draws over k categories)."""

    delta: float
    kind: str
    n: int
    k: int

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n < 0:
            raise ValueError("n must be >= 0")


@dataclass(frozen=True)
class CoveringCollection:
    """Minimal prefix of the probability-descending outcome ordering whose
    cumulative mass reaches 1 - delta. Ties in probability are ordered
    lexicographically on counts, so the collection is deterministic. Held as
    row indices into ``compositions_array(k, n)``; ``members`` is built on
    first use, and ``phat in c`` looks up phat's ``composition_rank``."""

    rows: tuple[int, ...]
    n: int
    cumulative: tuple[float, ...]
    total_mass: float
    p: SimplexPoint
    delta: float

    def __post_init__(self) -> None:
        target = 1.0 - self.delta
        if self.total_mass < target:
            raise ValueError(
                f"collection mass {self.total_mass} below required {target}"
            )
        if len(self.rows) > 1 and self.cumulative[-2] >= target:
            raise ValueError("prefix is not minimal: last member is redundant")

    @cached_property
    def members(self) -> tuple[EmpiricalDistribution, ...]:
        rows = compositions_array(self.p.k, self.n)[list(self.rows)].tolist()
        return tuple(EmpiricalDistribution(tuple(r)) for r in rows)

    @cached_property
    def _row_set(self) -> frozenset[int]:
        return frozenset(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, phat: EmpiricalDistribution) -> bool:
        return (
            phat.k == self.p.k
            and phat.n == self.n
            and composition_rank(phat.counts) in self._row_set
        )


def _probability_ordering(logp: np.ndarray) -> np.ndarray:
    """Indices sorting outcomes by probability descending; outcomes whose
    log-probabilities agree within LOG_TIE_TOL, chained along the sorted
    values, are ordered lexicographically ascending, which for the rows of
    compositions_array is index order."""
    num = len(logp)
    order = np.argsort(-logp)
    s = logp[order]
    with np.errstate(invalid="ignore"):  # -inf - -inf; caught by ==
        tie = (s[:-1] - s[1:] <= LOG_TIE_TOL) | (s[:-1] == s[1:])
    run = np.zeros(num, dtype=np.int64)
    np.cumsum(~tie, out=run[1:])
    run *= num  # near-tie run id first, row index second: fits int64
    run += order
    run.sort()
    run %= num
    return run


def covering_collection(
    p: SimplexPoint, n: int, delta: float
) -> CoveringCollection:
    """Build the covering collection for p at error level delta: order the
    n-sample outcomes by probability under p and keep the shortest prefix
    with mass at least 1 - delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    logp = outcome_log_pmf(p.k, n, p.as_array())
    order = _probability_ordering(logp)
    cum = kahan_cumsum(np.exp(logp[order]), 1.0 - delta)
    return CoveringCollection(
        rows=tuple(order[: len(cum)].tolist()),
        n=n,
        cumulative=tuple(cum.tolist()),
        total_mass=float(cum[-1]),
        p=p,
        delta=delta,
    )


def member_of_covering(
    phat: EmpiricalDistribution, p: SimplexPoint, delta: float
) -> bool:
    """Decide phat in S(p) without materializing the sorted ordering: the
    one-row case of levelset_membership_grid, whose docstring states the
    rule."""
    return bool(levelset_membership_grid(phat, delta, p.as_array()[None, :])[0])


def p_value(phat: EmpiricalDistribution, p: SimplexPoint) -> float:
    """Exact p-value of phat under p: total probability of phat and every
    outcome no more probable than it (ties resolved within LOG_TIE_TOL).
    The sum of those outcomes' probabilities is correctly rounded, equal
    to math.fsum bit for bit, and computed by binning them on their float
    exponent (core.exact_sum).

    The rule p_value(phat, p) > delta differs from member_of_covering only
    when 1 - delta falls strictly inside phat's probability-tie class,
    where the prefix rule splits a tie class that the p-value keeps whole.
    """
    if phat.k != p.k:
        raise ValueError(f"dimension mismatch: {phat.k} vs {p.k}")
    logp = outcome_log_pmf(p.k, phat.n, p.as_array())
    q = logp[composition_rank(phat.counts)]
    include = logp <= q + LOG_TIE_TOL
    if bool(include.all()):
        return 1.0  # no outcome is more probable; the sum is exactly total mass
    return min(1.0, exact_sum(np.exp(logp[include])))


def sanov_threshold(k: int, n: int, delta: float) -> float:
    """KL radius of the Sanov-type region, from the sharpened concentration
    constant 2(k-1) exp(-nz/(k-1))."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if k == 1:
        return 0.0
    return (k - 1) * math.log(2.0 * (k - 1) / delta) / n


def polytope_threshold(k: int, n: int, delta: float) -> float:
    """Per-marginal KL radius after splitting delta/k across coordinates."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.log(2.0 * k / delta) / n


def region_membership(
    p: SimplexPoint, phat: EmpiricalDistribution, spec: RegionSpec
) -> bool:
    """Does the confidence region of ``phat`` (built per ``spec``) contain p?

    The one-row case of membership_grid, for every construction kind; the
    level-set answer is member_of_covering's.
    """
    if p.k != spec.k:
        raise ValueError("spec does not match the supplied phat and p")
    return bool(membership_grid(phat, spec, p.as_array()[None, :])[0])


# ---------------------------------------------------------------------------
# Vectorized membership over many candidate parameters. These back the
# scalar queries above, the volume estimates and the interval scans; scans
# are pure and safe to parallelize over.


def phat_mass_survivors(q: np.ndarray, num: int, delta: float) -> np.ndarray:
    """Which points survive the prune by phat's own mass, given q, phat's
    log-mass log P_p(phat) under each point p, and the number num of
    outcomes: those with log num + q + LOG_TIE_TOL > log(delta) - log 2. A
    point that does not survive is a proven non-member of phat's level-set
    region at level delta.

    In the membership rule of levelset_membership_grid, every outcome not
    ranked before phat has log-pmf at most q + LOG_TIE_TOL, so
    1 - G <= num exp(q + LOG_TIE_TOL), and the kernel's floor lowers G by
    at most delta * exp(-30). So if log num + q + LOG_TIE_TOL <= log(delta)
    - log 2, the floored G is at least 1 - delta/2 - delta * exp(-30)
    > 1 - delta and p is not a member. The margin of delta/2 dwarfs any
    rounding in q, so the answer does not depend on how q was summed.
    """
    return math.log(num) + q + LOG_TIE_TOL > math.log(delta) - math.log(2.0)


def kl_ball_radius(counts, delta: float) -> float:
    """The radius r of the KL ball n KL(phat || p) < r that holds phat's
    level-set region at level delta; ``counts`` are phat's. With C = n! /
    prod_j c_j!, H phat's entropy and N the number of outcomes, r = log C -
    n H + log N + LOG_TIE_TOL + log 2 - log delta. It restates
    phat_mass_survivors: q = log C + sum_j c_j log p_j = log C - n H - n
    KL(phat || p), so p survives the prune iff n KL(phat || p) < r, and
    every member survives. As log C <= n H, r <= 2k log(n + 1) - log delta,
    the method-of-types radius."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return _kl_ball_offset(counts) + math.log(2.0 / delta)


def _kl_ball_offset(counts) -> float:
    """The radius less its last term, log(2 / delta)."""
    c = [int(x) for x in counts]
    n = sum(c)
    log_c = math.lgamma(n + 1) - math.fsum(math.lgamma(x + 1) for x in c)
    n_entropy = math.fsum(x * math.log(n / x) for x in c if x > 0)
    log_num = math.log(simplex_size(len(c), n))
    return log_c - n_entropy + log_num + LOG_TIE_TOL


def _log_pmf_block(
    coef: np.ndarray, counts_f: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """coef + counts_f @ w.T: the log-pmf of every row of counts_f, float
    counts with log coefficients coef, under each point of a block whose
    log weights are the rows of w. numpy runs a one-column product as a
    matrix-vector product, which rounds differently from a matrix product,
    so a one-point block is computed with its point twice and keeps column
    0. A point's log-pmf then has the same bits whichever block it is in,
    provided the BLAS build's matrix product gives each entry the same bits
    for any number of columns from two up. The right operand is made
    contiguous, which runs up to 3x faster at a few columns over tens of
    thousands of rows, and only the kept columns get coef."""
    m = len(w)
    wt = np.repeat(w.T, 2, axis=1) if m == 1 else np.ascontiguousarray(w.T)
    lp = counts_f @ wt
    lp = lp[:, :m]
    lp += coef[:, None]
    return lp


def levelset_membership_grid(
    phat: EmpiricalDistribution, delta: float, points: np.ndarray
) -> np.ndarray:
    """Level-set membership of every row of ``points``: the one rank-mass
    kernel behind every level-set membership answer.

    p is in the region iff the mass G of the outcomes ranked before phat
    under p is below 1 - delta. With D = log P_p(x) - log P_p(phat), x is
    ranked before phat when D > LOG_TIE_TOL, or when |D| <= LOG_TIE_TOL
    (the tie band) and x is lexicographically earlier: covering_collection's
    order. G is an ``np.bincount`` sum of exp(log P_p(x)) per point. Rows at
    or below the floor log(delta) - log(N) - 30 (N outcomes) are left out:
    together they weigh at most delta * exp(-30), and leaving mass out only
    lowers G, so the floor errs only toward inclusion. A point under which
    phat alone has mass above delta is accepted, as G excludes phat.

    Points are pruned first by phat's own mass (phat_mass_survivors), which
    changes no answer.

    The survivors go through in blocks of max(1, _BLOCK_ENTRIES // N)
    points, so one block's log-pmf matrix and its masks, a few MB, are
    alive at a time. Every log-pmf comes from _log_pmf_block, whose bits do
    not depend on the block a point is in, so a one-row call and a
    many-row call give the same answer bit for bit.
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

    # phat's own log-pmf under every point, the q of phat_mass_survivors
    w = log_weights(points)
    q_all = logcoef[idx] + w @ np.asarray(phat.counts, dtype=float)
    cand = np.flatnonzero(phat_mass_survivors(q_all, num, delta))
    member = np.zeros(len(points), dtype=bool)
    if len(cand) == 0:
        return member

    target = 1.0 - delta
    log_delta = math.log(delta)
    floor = log_delta - math.log(num) - 30.0
    w = w[cand]
    counts_f = counts.astype(float)  # int64 matmuls bypass BLAS

    block = max(1, _BLOCK_ENTRIES // num)
    for a in range(0, len(cand), block):
        cols = cand[a : a + block]
        wb = w[a : a + block]
        # Candidate columns are contiguous in grid order, so they are close
        # on the simplex and the per-block row bound prunes hard: any row
        # whose best-case log-pmf over this block is below the floor can
        # never be counted.
        top = wb if len(wb) == 1 else wb.max(axis=0, keepdims=True)
        row_bound = _log_pmf_block(logcoef, counts_f, top)[:, 0]
        kept = row_bound > floor
        kept[idx] = True
        new_idx = int(kept[:idx].sum())
        if len(wb) == 1:  # a one-point block's row bound is its log-pmf
            lp = row_bound[kept][:, None]
        else:
            lp = _log_pmf_block(logcoef[kept], counts_f[kept], wb)
        lex_earlier = np.arange(len(lp)) < new_idx  # rows stay in lex order
        q = lp[new_idx]
        hi = q + LOG_TIE_TOL
        lo = q - LOG_TIE_TOL
        sel = (lp > hi) | ((lp <= hi) & (lp >= lo) & lex_earlier[:, None])
        sel &= lp > floor
        srows, scols = np.nonzero(sel)
        mass = np.bincount(
            scols, weights=np.exp(lp[srows, scols]), minlength=len(cols)
        )
        member[cols] = (q > log_delta) | (mass < target)
    return member


def sanov_membership_grid(
    phat: EmpiricalDistribution,
    delta: float,
    points: np.ndarray,
) -> np.ndarray:
    thr = sanov_threshold(phat.k, phat.n, delta)
    return kl_to_many(phat.as_point().as_array(), np.asarray(points, float)) <= thr


def polytope_membership_grid(
    phat: EmpiricalDistribution, delta: float, points: np.ndarray
) -> np.ndarray:
    thr = polytope_threshold(phat.k, phat.n, delta)
    divs = kl_bernoulli_many(phat.as_point().as_array(), np.asarray(points, float))
    return divs.max(axis=1) <= thr


def membership_grid(
    phat: EmpiricalDistribution, spec: RegionSpec, points: np.ndarray
) -> np.ndarray:
    """Membership of every row of ``points`` in the region of ``phat``
    built per ``spec``."""
    if phat.n != spec.n or phat.k != spec.k:
        raise ValueError("spec does not match the supplied phat")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != spec.k:
        raise ValueError(
            f"points must have shape (G, {spec.k}), got {points.shape}"
        )
    if spec.kind == "sanov":
        return sanov_membership_grid(phat, spec.delta, points)
    if spec.kind == "polytope":
        return polytope_membership_grid(phat, spec.delta, points)
    return levelset_membership_grid(phat, spec.delta, points)


def covering_sizes_grid(
    n: int, k: int, delta: float, points: np.ndarray
) -> np.ndarray:
    """Size of the covering collection at every row of ``points``; the
    integrand of the two-way volume counting identity."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    points = np.asarray(points, dtype=float)
    counts_f = compositions_array(k, n).astype(float)
    num = len(counts_f)
    logcoef = log_coefficients(k, n)
    target = 1.0 - delta
    out = np.empty(len(points), dtype=np.int64)
    block = max(1, _BLOCK_ENTRIES // num)
    for a in range(0, len(points), block):
        g = points[a : a + block]
        lp = _log_pmf_block(logcoef, counts_f, log_weights(g))
        pr = np.sort(np.exp(lp), axis=0)[::-1]
        cum = np.cumsum(pr, axis=0)
        out[a : a + len(g)] = np.minimum((cum < target).sum(axis=0) + 1, num)
    return out
