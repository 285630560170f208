"""Confidence-region constructions on the simplex.

The central object is the probability-ordered covering collection: the
shortest prefix of outcomes, sorted by probability under p, whose mass
reaches 1 - delta. Inverting that collection gives the minimal
average-volume confidence region; KL-based Sanov and per-marginal polytope
regions are provided as baselines, together with the exact p-value. Each
region has one membership path, membership_grid; the scalar
region_membership is its one-row case. Level-set membership over many
points is pruned by a bound on phat's own mass, written once, with phat's
log-mass, in phat_mass_survivors: the kernel, levelset_membership_grid,
prunes its points and its outcome rows by it (_phat_mass_row_cut), and
functionals.functional_interval prunes its whole scan grid with it and walks
only the survivors. Neither prune can change an answer. kl_ball_radius
restates the rule as a KL ball around phat that holds every member. The
kernel, covering_member_counts and covering_sizes_grid build their
outcome-by-point matrices one block of about _BLOCK_ENTRIES entries at a
time, so their memory does not grow with the number of points, and each
block's matrix with _log_pmf_block, so a one-row call and a many-row call
agree bit for bit.
"""
from __future__ import annotations

import bisect
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
    kl_bernoulli_many,
    kl_to_many,
    log_coefficients,
    log_weights,
    outcome_log_pmf,
    simplex_size,
)
from .core import _as_points, _check_delta, _check_k, _check_n, _check_same_k

KINDS = ("levelset", "sanov", "polytope")

# Entries in one block of an outcome-by-point matrix, 2.5 MB of float64.
# levelset_membership_grid, covering_member_counts and covering_sizes_grid
# take max(1, _BLOCK_ENTRIES // N) points per block over N outcomes.
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
        _check_delta(self.delta)
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        _check_k(self.k)
        _check_n(self.n, 0)
        if self.kind != "levelset" and self.n < 1:
            raise ValueError(f"n must be >= 1 for the {self.kind} region, got {self.n}")

    def _check_phat(self, phat: EmpiricalDistribution) -> None:
        """Refuse a phat from another sampling regime than this spec's."""
        if (phat.k, phat.n) != (self.k, self.n):
            raise ValueError(
                f"phat lies in Delta_({phat.k},{phat.n}), the spec in Delta_({self.k},{self.n})"
            )


@dataclass(frozen=True)
class CoveringCollection:
    """Minimal prefix of the probability-descending outcome ordering whose
    cumulative mass reaches 1 - delta. Ties in probability are ordered
    lexicographically on counts, so the collection is deterministic. Held as
    row indices into ``compositions_array(k, n)``; ``members`` is built on
    first use, and ``phat in c`` looks up phat's ``composition_rank``.
    ``probabilities`` are the members' probabilities under p; ``cumulative``
    their float running sums, except that its last two entries, the masses
    of the prefix less its last member (below 1 - delta) and of the whole
    prefix (``total_mass``, at least 1 - delta), are correctly rounded."""

    rows: tuple[int, ...]
    n: int
    probabilities: tuple[float, ...]
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
    """Indices sorting outcomes by probability descending, along axis 0, so
    each column of an (N, G) logp is ordered on its own; runs of sorted
    neighbours s_i <= s_(i+1) + LOG_TIE_TOL (the kernel's tie test; -inf
    ties -inf) are ordered lexicographically ascending, which for the rows
    of compositions_array is index order."""
    num = len(logp)
    order = np.argsort(-logp, axis=0)
    s = np.take_along_axis(logp, order, axis=0)
    tie = s[:-1] <= s[1:] + LOG_TIE_TOL
    run = np.zeros(logp.shape, dtype=np.int64)
    np.cumsum(~tie, axis=0, out=run[1:])
    run *= num  # near-tie run id first, row index second: fits int64
    run += order
    run.sort(axis=0)
    run %= num
    return run


def covering_collection(p: SimplexPoint, n: int, delta: float) -> CoveringCollection:
    """Build the covering collection for p at error level delta: order the
    n-sample outcomes by probability under p (the kernel's log-pmf) and keep
    the shortest prefix whose correctly rounded mass reaches 1 - delta,
    bisected on a float cumsum that exact_sum redoes in its _near_target band."""
    _check_delta(delta)
    coef, w = log_coefficients(p.k, n), log_weights(p.as_array())[None, :]
    logp = _log_pmf_block(coef, compositions_array(p.k, n).astype(float), w)[:, 0]
    order = _probability_ordering(logp)
    pr = np.exp(logp[order])
    cum = np.cumsum(pr)
    target = 1.0 - delta
    near = lambda i: _near_target(cum[i], len(cum), target)
    mass = lambda i: exact_sum(pr[: i + 1]) if near(i) else cum[i]
    size = bisect.bisect_left(range(len(cum) - 1), target, key=mass) + 1
    probabilities = pr[:size].tolist()  # fsum of a list: exact_sum's bits, cheaper
    cum = cum[:size]
    cum[-2:] = [math.fsum(probabilities[:i]) for i in range(max(size - 1, 1), size + 1)]
    return CoveringCollection(
        rows=tuple(order[:size].tolist()),
        n=n,
        probabilities=tuple(probabilities),
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
    _check_same_k("phat", phat.k, "p", p.k)
    return bool(levelset_membership_grid(phat, delta, p.as_array()[None, :])[0])


def p_value(phat: EmpiricalDistribution, p: SimplexPoint) -> float:
    """Exact p-value of phat under p: total probability of phat and every
    outcome no more probable than it (ties resolved within LOG_TIE_TOL).
    The sum of those outcomes' probabilities is correctly rounded, equal
    to math.fsum bit for bit, and computed by binning them on their float
    exponent (core.exact_sum).

    Off the region's boundary, the rule p_value(phat, p) > delta differs
    from member_of_covering only when 1 - delta falls strictly inside
    phat's probability-tie class, where the prefix rule splits a tie class
    that the p-value keeps whole. Within rounding of the boundary they can
    differ without a tie class too: the p-value sums the float pmfs of the
    outcomes not ranked before phat, member_of_covering those ranked before
    it, and the float pmfs of all outcomes do not sum to exactly 1.
    """
    _check_same_k("phat", phat.k, "p", p.k)
    logp = outcome_log_pmf(p.k, phat.n, p.as_array())
    q = logp[composition_rank(phat.counts)]
    include = logp <= q + LOG_TIE_TOL
    if bool(include.all()):
        return 1.0  # no outcome is more probable; the sum is exactly total mass
    return min(1.0, exact_sum(np.exp(logp[include])))


def sanov_threshold(k: int, n: int, delta: float) -> float:
    """KL radius of the Sanov-type region, from the sharpened concentration
    constant 2(k-1) exp(-nz/(k-1))."""
    _check_delta(delta)
    _check_n(n)
    if k == 1:
        return 0.0
    return (k - 1) * math.log(2.0 * (k - 1) / delta) / n


def polytope_threshold(k: int, n: int, delta: float) -> float:
    """Per-marginal KL radius after splitting delta/k across coordinates."""
    _check_delta(delta)
    _check_n(n)
    return math.log(2.0 * k / delta) / n


def region_membership(
    p: SimplexPoint, phat: EmpiricalDistribution, spec: RegionSpec
) -> bool:
    """Does the confidence region of ``phat`` (built per ``spec``) contain p?

    The one-row case of membership_grid, for every construction kind; the
    level-set answer is member_of_covering's.
    """
    _check_same_k("phat", phat.k, "p", p.k)
    return bool(membership_grid(phat, spec, p.as_array()[None, :])[0])


# ---------------------------------------------------------------------------
# Vectorized membership over many candidate parameters. These back the
# scalar queries above, the volume estimates and the interval scans; scans
# are pure and safe to parallelize over.


def phat_mass_survivors(
    phat: EmpiricalDistribution, w: np.ndarray, delta: float
) -> np.ndarray:
    """Which points survive the prune by phat's own mass, given w =
    log_weights(points): those where q = log P_p(phat), phat's multinomial
    log-coefficient plus w . counts, and the number N of outcomes give
    log N + q + LOG_TIE_TOL > log(delta) - log 2. A point that does not
    survive is a proven non-member of phat's level-set region at level delta.

    In the membership rule of levelset_membership_grid, every outcome not
    ranked before phat has log-pmf at most q + LOG_TIE_TOL, so
    1 - G <= N exp(q + LOG_TIE_TOL). So if log N + q + LOG_TIE_TOL
    <= log(delta) - log 2, G is at least 1 - delta/2 > 1 - delta and p is
    not a member. The margin of delta/2 dwarfs any rounding in q, so the
    answer does not depend on how q was summed.
    """
    k, n = phat.k, phat.n
    q = log_coefficients(k, n)[composition_rank(phat.counts)]
    q = q + w @ np.asarray(phat.counts, dtype=float)
    return math.log(simplex_size(k, n)) + q + LOG_TIE_TOL > math.log(delta) - math.log(2.0)


def _phat_mass_row_cut(num: int, delta: float) -> float:
    """The kernel's row cut, from the prune's bound. At a survivor, an
    outcome ranked before phat has log-pmf >= q - LOG_TIE_TOL > log(delta)
    - log 2 - log num - 2 LOG_TIE_TOL. So an outcome whose log-pmf is at
    most log(delta) - log num - 1 at every point of a block of survivors
    is ranked before phat at none of them. The margin, 1 - log 2 -
    2 LOG_TIE_TOL (about 0.31), dwarfs the rounding between the prune's q,
    the kernel's q and the block's best-case row bound."""
    return math.log(delta) - math.log(num) - 1.0


def kl_ball_radius(counts, delta: float) -> float:
    """The radius r of the KL ball n KL(phat || p) < r that holds phat's
    level-set region at level delta; ``counts`` are phat's. With C = n! /
    prod_j c_j!, H phat's entropy and N the number of outcomes, r = log C -
    n H + log N + LOG_TIE_TOL + log 2 - log delta. It restates
    phat_mass_survivors: q = log C + sum_j c_j log p_j = log C - n H - n
    KL(phat || p), so p survives the prune iff n KL(phat || p) < r, and
    every member survives. As log C <= n H, r <= 2k log(n + 1) - log delta,
    the method-of-types radius."""
    _check_delta(delta)
    return _kl_ball_offset(counts) + math.log(2.0 / delta)


def _near_target(mass: np.ndarray, m: int, target: float) -> np.ndarray:
    """Whether a float running sum ``mass`` of m or fewer nonnegative terms
    lies within 2 m u mass of target (u = 2^-53). Outside that band it
    compares with target as its exact sum S, correctly rounded, does: it
    errs by less than (m - 1) u mass (1 + 2 m u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 4.2), and the rest of the band covers
    the test's own rounding and keeps S < target (1 - u), which rounds below."""
    return np.abs(mass - target) <= (m * 2.0**-52) * mass


def _kl_ball_offset(counts) -> float:
    """The radius less its last term, log(2 / delta)."""
    c = [int(x) for x in counts]
    n = sum(c)
    log_c = math.lgamma(n + 1) - math.fsum(math.lgamma(x + 1) for x in c)
    n_entropy = math.fsum(x * math.log(n / x) for x in c if x > 0)
    log_num = math.log(simplex_size(len(c), n))
    return log_c - n_entropy + log_num + LOG_TIE_TOL


def _log_pmf_block(coef: np.ndarray, counts_f: np.ndarray, w: np.ndarray) -> np.ndarray:
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
    under p, correctly rounded, is below 1 - delta. With q = log P_p(phat),
    x is ranked before phat when log P_p(x) > q + LOG_TIE_TOL, or when x is
    lexicographically earlier and log P_p(x) + LOG_TIE_TOL >= q, as in
    covering_collection's order. G is summed by ``np.bincount`` in row order,
    and again by exact_sum where it lies in the _near_target band of 1 - delta.

    Points are pruned first by phat's own mass (phat_mass_survivors). The
    survivors go through in blocks of max(1, _BLOCK_ENTRIES // N) points
    (N outcomes), and a block keeps only the rows whose best-case log-pmf
    over it passes the row cut (_phat_mass_row_cut); neither step changes
    an answer. One block's log-pmf matrix and its masks, a few MB, are
    alive at a time. Every log-pmf comes from _log_pmf_block, whose bits do
    not depend on the block a point is in, so a one-row call and a
    many-row call give the same answer bit for bit.
    """
    _check_delta(delta)
    n, k = phat.n, phat.k
    points = _as_points(points, k)
    counts = compositions_array(k, n)
    num = len(counts)
    idx = composition_rank(phat.counts)
    logcoef = log_coefficients(k, n)

    w = log_weights(points)
    cand = np.flatnonzero(phat_mass_survivors(phat, w, delta))
    member = np.zeros(len(points), dtype=bool)
    if len(cand) == 0:
        return member

    target = 1.0 - delta
    cut = _phat_mass_row_cut(num, delta)
    w = w[cand]
    counts_f = counts.astype(float)  # int64 matmuls bypass BLAS

    block = max(1, _BLOCK_ENTRIES // num)
    for a in range(0, len(cand), block):
        cols = cand[a : a + block]
        wb = w[a : a + block]
        top = wb if len(wb) == 1 else wb.max(axis=0, keepdims=True)
        row_bound = _log_pmf_block(logcoef, counts_f, top)[:, 0]
        kept = row_bound > cut
        kept[idx] = True
        new_idx = int(kept[:idx].sum())
        if len(wb) == 1:  # a one-point block's row bound is its log-pmf
            lp = row_bound[kept][:, None]
        else:
            lp = _log_pmf_block(logcoef[kept], counts_f[kept], wb)
        q = lp[new_idx]
        sel = lp > q + LOG_TIE_TOL
        sel[:new_idx] |= lp[:new_idx] + LOG_TIE_TOL >= q  # rows stay in lex order
        srows, scols = np.nonzero(sel)
        terms = np.exp(lp[srows, scols])
        mass = np.bincount(scols, weights=terms, minlength=len(cols))
        member[cols] = mass < target
        for j in np.flatnonzero(_near_target(mass, len(lp), target)):
            member[cols[j]] = exact_sum(terms[scols == j]) < target
    return member


def sanov_membership_grid(
    phat: EmpiricalDistribution,
    delta: float,
    points: np.ndarray,
) -> np.ndarray:
    thr = sanov_threshold(phat.k, phat.n, delta)
    return kl_to_many(phat.as_point().as_array(), _as_points(points, phat.k)) <= thr


def polytope_membership_grid(
    phat: EmpiricalDistribution, delta: float, points: np.ndarray
) -> np.ndarray:
    thr = polytope_threshold(phat.k, phat.n, delta)
    divs = kl_bernoulli_many(phat.as_point().as_array(), _as_points(points, phat.k))
    return divs.max(axis=1) <= thr


def membership_grid(
    phat: EmpiricalDistribution, spec: RegionSpec, points: np.ndarray
) -> np.ndarray:
    """Membership of every row of ``points`` in the region of ``phat``
    built per ``spec``; each kind refuses points of another shape than (G, k)."""
    spec._check_phat(phat)
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
    _check_delta(delta)
    points = _as_points(points, k)
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


def covering_member_counts(
    n: int, k: int, delta: float, points: np.ndarray
) -> np.ndarray:
    """For every outcome, in the row order of compositions_array(k, n), the
    number of rows of ``points`` whose covering collection holds it.

    These counts over the number of points are the level-set region
    volumes, so their sum is one side of the two-way volume counting
    identity (volume.average_volume). The other side, the collection's size
    at each point, is covering_sizes_grid's, which keeps its own arithmetic
    (a float cumsum of sorted probabilities) so the check stays independent.

    Each point's outcomes are ordered as covering_collection orders them,
    and the outcome at sorted position i is held iff the correctly rounded
    mass before it is below 1 - delta: the float running sum decides
    outside its _near_target band, exact_sum of the prefix inside it. A
    count equals the number of points levelset_membership_grid puts in the
    outcome's region when no near-tie run of the ordering spans more than
    LOG_TIE_TOL: the kernel compares each outcome with phat alone, while
    the ordering chains sorted neighbours. The log-pmfs come from
    _log_pmf_block, in blocks of max(1, _BLOCK_ENTRIES // N) points over N
    outcomes."""
    _check_delta(delta)
    points = _as_points(points, k)
    counts_f = compositions_array(k, n).astype(float)
    logcoef = log_coefficients(k, n)
    held = np.zeros(len(counts_f), dtype=np.int64)
    block = max(1, _BLOCK_ENTRIES // len(counts_f))
    for a in range(0, len(points), block):
        w = log_weights(points[a : a + block])
        held += _held_in_block(_log_pmf_block(logcoef, counts_f, w), 1.0 - delta)
    return held


def _held_in_block(lp: np.ndarray, target: float) -> np.ndarray:
    """covering_member_counts over one block's (N, m) log-pmfs; the
    block's arrays die with the call."""
    num = len(lp)
    order = _probability_ordering(lp)
    pr = np.take_along_axis(lp, order, axis=0)
    del lp
    np.exp(pr, out=pr)
    before = np.zeros_like(pr)
    np.cumsum(pr[:-1], axis=0, out=before[1:])
    inside = before < target
    for i, j in zip(*np.nonzero(_near_target(before, num, target))):
        inside[i, j] = exact_sum(pr[:i, j]) < target
    return np.bincount(order[inside], minlength=num)
