import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import simplexcr
from simplexcr import (
    KINDS,
    EmpiricalDistribution,
    RegionSpec,
    SimplexGrid,
    SimplexPoint,
    covering_collection,
    enumerate_simplex,
    member_of_covering,
    p_value,
    region_membership,
    sanov_threshold,
)
from simplexcr.core import LOG_TIE_TOL, compositions_array, outcome_log_pmf
from simplexcr import regions
from simplexcr.regions import (
    covering_sizes_grid,
    levelset_membership_grid,
    membership_grid,
    polytope_membership_grid,
    polytope_threshold,
    sanov_membership_grid,
)

from oracles import (
    exact_p_value,
    kl_bernoulli,
    kl_divergence,
    levelset_membership_grid_kl_prune,
    min_covering_size_bruteforce,
    outer_bound_reject,
    p_value_fsum,
    point_from_fractions,
    probability_ordering_lexsort,
    random_rational_point,
)

UNIFORM3 = SimplexPoint.uniform(3)
P5 = SimplexPoint((0.3, 0.3, 0.2, 0.1, 0.1))


class TestRegionSpec:
    def test_validates_delta(self):
        with pytest.raises(ValueError):
            RegionSpec(0.0, "levelset", 5, 3)
        with pytest.raises(ValueError):
            RegionSpec(1.0, "levelset", 5, 3)

    def test_validates_kind(self):
        with pytest.raises(ValueError):
            RegionSpec(0.3, "wilson", 5, 3)

    def test_sanov_and_polytope_need_a_sample(self):
        for kind in ("sanov", "polytope"):
            with pytest.raises(ValueError, match=f"n must be >= 1 for the {kind} region"):
                RegionSpec(0.3, kind, 0, 2)
        assert RegionSpec(0.3, "levelset", 0, 2).n == 0


class TestCoveringCollection:
    def test_uniform_example(self):
        cc = covering_collection(UNIFORM3, 5, 0.7)
        assert {m.counts for m in cc.members} == {(1, 2, 2), (2, 1, 2), (2, 2, 1)}
        assert len(cc) == 3
        assert cc.total_mass >= 0.3
        assert cc.total_mass == pytest.approx(90 / 243, abs=1e-12)

    def test_deterministic_parameter(self):
        cc = covering_collection(SimplexPoint((1.0, 0.0, 0.0)), 5, 0.3)
        assert [m.counts for m in cc.members] == [(5, 0, 0)]
        assert cc.total_mass == 1.0

    def test_minimal_cardinality_concentrated_case(self):
        # exhaustive subset oracle over all of Delta_{3,6}
        p = SimplexPoint((0.7, 0.2, 0.1))
        cc = covering_collection(p, 6, 0.3)
        probs = np.exp(outcome_log_pmf(3, 6, p.as_array()))
        assert len(cc) == min_covering_size_bruteforce(probs, 0.7)

    def test_minimal_cardinality_random_sweep(self):
        rng = np.random.default_rng(23)
        for k, n in [(2, 4), (2, 6), (3, 4)]:
            for delta in (0.1, 0.3):
                for _ in range(10):
                    p = SimplexPoint(tuple(rng.dirichlet(np.ones(k))), normalize=True)
                    probs = np.exp(outcome_log_pmf(k, n, p.as_array()))
                    want = min_covering_size_bruteforce(probs, 1.0 - delta)
                    assert len(covering_collection(p, n, delta)) == want

    def test_mass_reaches_target_and_prefix_minimal(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            p = SimplexPoint(tuple(rng.dirichlet(np.ones(3))), normalize=True)
            delta = float(rng.uniform(0.05, 0.9))
            cc = covering_collection(p, 7, delta)
            assert cc.total_mass >= 1.0 - delta
            assert cc.total_mass == cc.cumulative[-1] == math.fsum(cc.probabilities)
            if len(cc) > 1:
                assert cc.cumulative[-2] < 1.0 - delta
                assert cc.cumulative[-2] == math.fsum(cc.probabilities[:-1])

    def test_delta_at_a_prefix_mass(self):
        """At 1 - delta equal to the correctly rounded mass M of a prefix,
        the collection is that prefix, the kernel accepts its last member
        and refuses the next outcome, whose G is M. Both sides compare the
        correctly rounded mass, which a float sum may put on either side."""
        rng = np.random.default_rng(31)
        for k, n in [(2, 40), (3, 15), (3, 24), (4, 10)]:
            p = SimplexPoint(tuple(rng.dirichlet(np.ones(k))), normalize=True)
            full = covering_collection(p, n, 1e-3)
            for i in range(1, len(full) - 1):
                mass = math.fsum(full.probabilities[:i])
                below = math.fsum(full.probabilities[: i - 1])
                if not 0.5 <= mass < 1.0 or below == mass:
                    continue
                delta = 1.0 - mass  # exact on [0.5, 1], and so is 1 - delta
                cc = covering_collection(p, n, delta)
                assert len(cc) == i and cc.total_mass == mass
                assert member_of_covering(full.members[i - 1], p, delta)
                assert not member_of_covering(full.members[i], p, delta)

    def test_probability_descending_with_lex_ties(self):
        cc = covering_collection(UNIFORM3, 5, 0.7)
        assert [m.counts for m in cc.members] == [(1, 2, 2), (2, 1, 2), (2, 2, 1)]

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            covering_collection(UNIFORM3, 5, 0.0)

    def test_contains_by_row_index(self):
        cc = covering_collection(P5, 12, 0.2)
        assert cc.members[0] in cc
        assert cc.members[-1] in cc
        assert EmpiricalDistribution((12, 0, 0, 0, 0)) not in cc
        assert EmpiricalDistribution((4, 4, 2, 1, 2)) not in cc  # n = 13
        assert EmpiricalDistribution((4, 4, 2, 2)) not in cc  # k = 4
        inside = {m.counts for m in cc.members}
        for phat in enumerate_simplex(5, 12):
            assert (phat in cc) == (phat.counts in inside)

    def test_members_built_only_when_read(self, monkeypatch):
        calls = []
        init = EmpiricalDistribution.__post_init__
        monkeypatch.setattr(
            EmpiricalDistribution,
            "__post_init__",
            lambda self: calls.append(1) or init(self),
        )
        cc = covering_collection(P5, 12, 0.2)
        assert EmpiricalDistribution((4, 4, 2, 1, 1)) in cc
        assert len(calls) == 1
        assert len(cc.members) == len(cc) == len(calls) - 1
        assert cc.members is cc.members

    def test_equal_builds_are_equal_and_hash_equal(self):
        a = covering_collection(P5, 12, 0.2)
        b = covering_collection(P5, 12, 0.2)
        a.members  # a cached members tuple does not enter == or hash
        assert a == b
        assert hash(a) == hash(b)
        assert a != covering_collection(P5, 12, 0.3)

    def test_members_order_pinned_k5(self):
        # a tie-rich case; the digest pins the members and their order
        cc = covering_collection(P5, 12, 0.2)
        got = [m.counts for m in cc.members]
        assert len(got) == 283
        assert got[0] == (4, 4, 2, 1, 1)
        assert got[-1] == (5, 1, 4, 0, 2)
        digest = hashlib.sha256(repr(got).encode()).hexdigest()
        assert digest == (
            "55eeadb543c04117bdf87decf17263e746f6b3448af4666941347c7c09c1b9c2"
        )
        counts = compositions_array(5, 12)
        logp = outcome_log_pmf(5, 12, P5.as_array())
        order = probability_ordering_lexsort(counts, logp)
        assert got == [tuple(r) for r in counts[order[: len(got)]].tolist()]

    @pytest.mark.parametrize("k, n", [(1, 0), (1, 9), (3, 0), (5, 0)])
    @pytest.mark.parametrize("delta", [0.5, 1e-9, 1e-300])
    def test_one_outcome(self, k, n, delta):
        """At k = 1 or n = 0 the one outcome has probability 1.0, so the
        collection is its row at any delta, also where 1 - delta rounds to
        1.0 and the one-entry prefix is bisected over an empty range; every
        point's collection holds it."""
        for p in (SimplexPoint.uniform(k), SimplexPoint((1.0,) + (0.0,) * (k - 1))):
            cc = covering_collection(p, n, delta)
            assert cc.rows == (0,)
            assert cc.probabilities == cc.cumulative == (1.0,)
            assert cc.total_mass == 1.0
        pts = np.random.default_rng(89).dirichlet(np.ones(k), size=7)
        assert regions.covering_member_counts(n, k, delta, pts).tolist() == [7]


class TestCoveringPrefix:
    def test_small_delta_bisects_the_band(self, monkeypatch):
        """At delta = 1e-13 the _near_target band of 1 - delta spans many
        prefixes at every point of a k = 3, n = 40 table (N = 861 outcomes).
        covering_member_counts still equals the kernel's count for every
        outcome, and each collection the one-row kernel's answers, while
        exact_sum runs only at bisection probes in the band: at most
        ceil(log2 N) + 1 times a point."""
        k, n, delta = 3, 40, 1e-13
        rng = np.random.default_rng(97)
        draws = rng.dirichlet(np.ones(k), size=20)
        points = [SimplexPoint(tuple(r), normalize=True) for r in draws]
        rows = np.array([p.probs for p in points])
        calls = []
        exact_sum = regions.exact_sum
        monkeypatch.setattr(regions, "exact_sum", lambda x: calls.append(1) or exact_sum(x))
        held = regions.covering_member_counts(n, k, delta, rows)
        num = len(compositions_array(k, n))
        assert 0 < len(calls) <= len(points) * (math.ceil(math.log2(num)) + 1)
        collections = [covering_collection(p, n, delta) for p in points]
        for phat, count in zip(enumerate_simplex(k, n), held.tolist()):
            assert count == levelset_membership_grid(phat, delta, rows).sum()
            for p, cc in zip(points, collections):
                assert (phat in cc) == member_of_covering(phat, p, delta)


class TestMemberOfCovering:
    def test_uniform_tie_class_member(self):
        assert member_of_covering(EmpiricalDistribution((1, 2, 2)), UNIFORM3, 0.7)
        assert member_of_covering(EmpiricalDistribution((2, 2, 1)), UNIFORM3, 0.7)

    def test_uniform_corner_not_member(self):
        assert not member_of_covering(EmpiricalDistribution((5, 0, 0)), UNIFORM3, 0.7)

    def test_sole_positive_outcome(self):
        p = SimplexPoint((1.0, 0.0, 0.0))
        for delta in (0.05, 0.5, 0.95):
            assert member_of_covering(EmpiricalDistribution((5, 0, 0)), p, delta)
            assert not member_of_covering(EmpiricalDistribution((4, 1, 0)), p, delta)

    def test_agrees_with_materialized_collection(self):
        rng = np.random.default_rng(31)
        outcomes = enumerate_simplex(3, 5)
        for _ in range(40):
            p = SimplexPoint(tuple(rng.dirichlet(np.ones(3))), normalize=True)
            delta = float(rng.uniform(0.05, 0.9))
            members = set(covering_collection(p, 5, delta).members)
            for phat in outcomes:
                assert member_of_covering(phat, p, delta) == (phat in members)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            member_of_covering(EmpiricalDistribution((1, 1)), UNIFORM3, 0.3)


class TestPValue:
    def test_deterministic_outcome(self):
        p = SimplexPoint((1.0, 0.0, 0.0))
        assert p_value(EmpiricalDistribution((5, 0, 0)), p) == 1.0

    def test_zero_probability_outcome(self):
        p = SimplexPoint((1.0, 0.0, 0.0))
        assert p_value(EmpiricalDistribution((0, 5, 0)), p) == 0.0

    def test_exhaustive_rational_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            fracs = random_rational_point(rng, 3, denom=20)
            p = point_from_fractions(fracs)
            for counts in [(1, 2, 2), (5, 0, 0), (0, 1, 4), (2, 2, 1)]:
                want = float(exact_p_value(counts, fracs))
                got = p_value(EmpiricalDistribution(counts), p)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    # the (k, n) shapes of the benchmark's exact-queries workload
    QUERY_SHAPES = (
        (3, 20), (4, 10), (5, 8), (3, 60), (4, 25), (5, 20),
        (3, 150), (4, 40), (3, 300), (5, 30), (3, 600), (5, 50),
    )

    @staticmethod
    def _points(rng, k):
        """A Dirichlet point, the uniform point and a point with a zero
        coordinate."""
        zero = list(rng.dirichlet(np.ones(k - 1)))
        zero.insert(int(rng.integers(k)), 0.0)
        return [
            SimplexPoint(tuple(rng.dirichlet(np.ones(k))), normalize=True),
            SimplexPoint.uniform(k),
            SimplexPoint(tuple(zero), normalize=True),
        ]

    @staticmethod
    def _assert_matches_fsum(phat, p):
        got, want = p_value(phat, p), p_value_fsum(phat, p)
        assert got == want and repr(got) == repr(want), (phat, p)
        return got

    def test_equals_fsum_form_bit_for_bit(self):
        """The exponent-binned sum gives the p-value of the math.fsum form,
        by == and by repr: every outcome at three small shapes, sampled
        outcomes at each exact-queries shape. An outcome with a count on a
        zero coordinate is impossible and gets exactly 0.0."""
        rng = np.random.default_rng(53)
        impossible = 0
        for k, n in ((2, 30), (3, 12), (4, 7)):
            for p in self._points(rng, k):
                for phat in enumerate_simplex(k, n):
                    self._assert_matches_fsum(phat, p)
        for k, n in self.QUERY_SHAPES:
            for p in self._points(rng, k):
                for source in (p.probs, rng.dirichlet(np.ones(k))):
                    phat = EmpiricalDistribution(tuple(rng.multinomial(n, source)))
                    got = self._assert_matches_fsum(phat, p)
                    if any(c and not q for c, q in zip(phat.counts, p.probs)):
                        assert repr(got) == "0.0"
                        impossible += 1
        assert impossible >= 6

    def test_most_probable_outcome_under_uniform(self):
        # every outcome ties or falls below the modal tie class, so the sum
        # covers the whole simplex
        assert p_value(EmpiricalDistribution((1, 2, 2)), UNIFORM3) == 1.0


class TestPvalueMembership:
    """The p-value rule keeps p iff p_value(phat, p) > delta."""

    def test_deterministic(self):
        p = SimplexPoint((1.0, 0.0, 0.0))
        assert p_value(EmpiricalDistribution((5, 0, 0)), p) > 0.3

    def test_exhaustive_comparison(self):
        fracs = (Fraction(1, 3),) * 3
        want = float(exact_p_value((5, 0, 0), fracs))
        got = p_value(EmpiricalDistribution((5, 0, 0)), UNIFORM3) > 0.3
        assert got == (want > 0.3)

    def test_disagreements_only_inside_tie_class(self):
        rng = np.random.default_rng(41)
        outcomes = enumerate_simplex(3, 5)
        delta = 0.7
        checked = disagreements = 0
        for _ in range(50):
            p = SimplexPoint(tuple(rng.dirichlet(np.ones(3))), normalize=True)
            logp = outcome_log_pmf(3, 5, p.as_array())
            for i, phat in enumerate(outcomes):
                a = member_of_covering(phat, p, delta)
                b = p_value(phat, p) > delta
                checked += 1
                if a != b:
                    disagreements += 1
                    q = logp[i]
                    strict = math.fsum(np.exp(logp[logp > q + LOG_TIE_TOL]))
                    tie_mass = math.fsum(
                        np.exp(logp[np.abs(logp - q) <= LOG_TIE_TOL])
                    )
                    assert strict < 1.0 - delta <= strict + tie_mass
        assert checked == 50 * 21
        assert disagreements < checked


class TestOuterBound:
    def test_never_rejects_at_truth(self):
        phat = EmpiricalDistribution((6, 6, 3))
        assert not outer_bound_reject(phat, phat.as_point(), 0.3)

    def test_extreme_parameter_rejected(self):
        p = SimplexPoint((1e-6, 1e-6, 1.0 - 2e-6))
        assert outer_bound_reject(EmpiricalDistribution((5, 5, 5)), p, 0.3)

    def test_soundness_sweep(self):
        rng = np.random.default_rng(43)
        outcomes = enumerate_simplex(3, 6)
        for _ in range(25):
            p = SimplexPoint(tuple(rng.dirichlet(np.ones(3))), normalize=True)
            for delta in (0.05, 0.3):
                for phat in outcomes:
                    if outer_bound_reject(phat, p, delta):
                        assert p_value(phat, p) <= delta

    def test_type_class_sandwich(self):
        rng = np.random.default_rng(47)
        counts = compositions_array(3, 8)
        n, k = 8, 3
        for _ in range(20):
            p = SimplexPoint(tuple(rng.dirichlet(np.ones(3))), normalize=True)
            logp = outcome_log_pmf(k, n, p.as_array())
            for row, lp in zip(counts, logp):
                div = kl_divergence(EmpiricalDistribution(tuple(row)).as_point(), p)
                assert lp <= -n * div + 1e-9
                assert lp >= -n * div - k * math.log(n + 1) - 1e-9


def test_import_loads_no_scipy():
    """The package and its CLI need only numpy: the log factorials come
    from the standard library, and importing scipy.special alone would
    more than double a fresh process's start."""
    src = os.path.dirname(os.path.dirname(simplexcr.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, simplexcr, simplexcr.cli; "
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestSanov:
    SPEC = RegionSpec(0.7, "sanov", 15, 3)

    def test_self_membership(self):
        phat = EmpiricalDistribution((6, 6, 3))
        assert region_membership(phat.as_point(), phat, self.SPEC)

    def test_refined_threshold_value(self):
        assert sanov_threshold(3, 15, 0.7) == pytest.approx(
            2.0 * math.log(4.0 / 0.7) / 15.0, abs=1e-15
        )

    def test_membership_uses_kl(self):
        phat = EmpiricalDistribution((6, 6, 3))
        thr = sanov_threshold(3, 15, 0.7)
        p = SimplexPoint((0.45, 0.35, 0.2))
        want = kl_divergence(phat.as_point(), p) <= thr
        assert region_membership(p, phat, self.SPEC) == want


class TestPolytope:
    def test_self_membership(self):
        phat = EmpiricalDistribution((6, 6, 3))
        spec = RegionSpec(0.7, "polytope", 15, 3)
        assert region_membership(phat.as_point(), phat, spec)

    def test_threshold_value(self):
        assert polytope_threshold(3, 15, 0.7) == pytest.approx(
            math.log(6.0 / 0.7) / 15.0, abs=1e-15
        )

    def test_single_coordinate_violation(self):
        phat = EmpiricalDistribution((6, 6, 3))
        p = SimplexPoint((0.99, 0.005, 0.005))
        assert not region_membership(p, phat, RegionSpec(0.7, "polytope", 15, 3))

    def test_conjunction_semantics(self):
        phat = EmpiricalDistribution((5, 5, 5))
        spec = RegionSpec(0.3, "polytope", 15, 3)
        ok = SimplexPoint((0.34, 0.33, 0.33))
        assert region_membership(ok, phat, spec)
        # move one marginal far out while keeping the rest reasonable
        bad = SimplexPoint((0.95, 0.03, 0.02))
        assert not region_membership(bad, phat, spec)


class TestRegionMembership:
    def test_levelset_blue_dot(self):
        spec = RegionSpec(0.7, "levelset", 5, 3)
        assert region_membership(UNIFORM3, EmpiricalDistribution((1, 2, 2)), spec)

    def test_sanov_self(self):
        spec = RegionSpec(0.5, "sanov", 15, 3)
        phat = EmpiricalDistribution((6, 6, 3))
        assert region_membership(phat.as_point(), phat, spec)

    def test_polytope_example_false(self):
        spec = RegionSpec(0.7, "polytope", 15, 3)
        phat = EmpiricalDistribution((6, 6, 3))
        assert not region_membership(SimplexPoint((0.99, 0.005, 0.005)), phat, spec)

    def test_spec_consistency_enforced(self):
        spec = RegionSpec(0.7, "levelset", 6, 3)
        with pytest.raises(ValueError):
            region_membership(UNIFORM3, EmpiricalDistribution((1, 2, 2)), spec)


class TestVectorizedPaths:
    def test_levelset_grid_matches_scalar(self):
        rng = np.random.default_rng(59)
        phat = EmpiricalDistribution((2, 5, 3))
        pts = rng.dirichlet(np.ones(3), size=150)
        for delta in (0.1, 0.5):
            got = levelset_membership_grid(phat, delta, pts)
            want = [member_of_covering(phat, SimplexPoint(tuple(r), normalize=True), delta) for r in pts]
            assert got.tolist() == want

    def test_levelset_grid_boundary_points(self):
        phat = EmpiricalDistribution((2, 5, 3))
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.2, 0.5, 0.3]])
        got = levelset_membership_grid(phat, 0.3, pts)
        want = [member_of_covering(phat, SimplexPoint(tuple(r)), 0.3) for r in pts]
        assert got.tolist() == want

    def test_levelset_grid_mass_blocks_match_oracle(self, monkeypatch):
        """At n = 200, on points near phat, the points cross many blocks of
        the kernel, one mass sum and one band test per block; the bits are
        those of the oracle kernel, which sums batches of 123 points at
        once."""
        calls = []
        near = regions._near_target
        monkeypatch.setattr(regions, "_near_target", lambda *a: calls.append(1) or near(*a))
        phat = EmpiricalDistribution((60, 80, 60))
        pts = np.random.default_rng(73).dirichlet(np.array(phat.counts, dtype=float), size=246)
        got = levelset_membership_grid(phat, 0.3, pts)
        assert len(calls) >= 6  # at least six blocks
        monkeypatch.setattr(regions, "_near_target", near)
        assert 0 < got.sum() < len(pts)
        assert np.array_equal(got, levelset_membership_grid_kl_prune(phat, 0.3, pts))

    def test_levelset_grid_holds_one_batch_matrix(self):
        """Over many blocks the kernel's traced peak stays within a few
        blocks of log-pmf entries: a block's matrix and masks are freed
        before the next block's are built."""
        phat = EmpiricalDistribution((3, 5, 7, 5))
        pts = np.random.default_rng(71).dirichlet(np.ones(4), size=10_000)
        block_bytes = 8 * regions._BLOCK_ENTRIES
        levelset_membership_grid(phat, 0.3, pts[:16])  # tables cached
        tracemalloc.start()
        try:
            got = levelset_membership_grid(phat, 0.3, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < got.sum() < len(pts)
        assert peak < 4 * block_bytes

    def test_levelset_grid_one_point_blocks_match_oracle_and_scalar(self):
        """At k = 5, n = 50 the outcomes outnumber a block's entries, so
        every block holds one point: a many-row call equals, bit for bit,
        the oracle kernel's 16-point batches and each point's one-row
        call."""
        phat = EmpiricalDistribution((8, 12, 10, 9, 11))
        assert len(compositions_array(5, 50)) > regions._BLOCK_ENTRIES
        rng = np.random.default_rng(79)
        pts = rng.dirichlet(np.array(phat.counts, dtype=float), size=24)
        got = levelset_membership_grid(phat, 0.3, pts)
        assert 0 < got.sum() < len(pts)
        assert np.array_equal(got, levelset_membership_grid_kl_prune(phat, 0.3, pts))
        want = [member_of_covering(phat, SimplexPoint(tuple(r)), 0.3) for r in pts]
        assert got.tolist() == want

    def test_sanov_polytope_grids_match_scalar(self):
        """Against the regions' rules written from the scalar KL oracles."""
        rng = np.random.default_rng(61)
        phat = EmpiricalDistribution((6, 6, 3))
        pts = rng.dirichlet(np.ones(3), size=100)
        sg = sanov_membership_grid(phat, 0.7, pts)
        pg = polytope_membership_grid(phat, 0.7, pts)
        sanov_thr = sanov_threshold(3, 15, 0.7)
        poly_thr = polytope_threshold(3, 15, 0.7)
        for i, row in enumerate(pts):
            p = SimplexPoint(tuple(row), normalize=True)
            assert sg[i] == (kl_divergence(phat.as_point(), p) <= sanov_thr)
            assert pg[i] == all(
                kl_bernoulli(c / 15, x) <= poly_thr
                for c, x in zip(phat.counts, p.probs)
            )

    @pytest.mark.parametrize("kind", KINDS)
    def test_membership_grid_refuses_points_of_wrong_width(self, kind):
        phat = EmpiricalDistribution((2, 5, 3))
        spec = RegionSpec(0.3, kind, 10, 3)
        for width in (1, 2, 4):
            pts = np.full((5, width), 1.0 / width)
            with pytest.raises(ValueError, match="shape"):
                membership_grid(phat, spec, pts)
        with pytest.raises(ValueError, match="shape"):
            membership_grid(phat, spec, np.full(3, 1.0 / 3))
        assert membership_grid(phat, spec, np.full((5, 3), 1.0 / 3)).shape == (5,)

    def test_covering_sizes_match_collections(self):
        rng = np.random.default_rng(67)
        pts = rng.dirichlet(np.ones(3), size=40)
        sizes = covering_sizes_grid(5, 3, 0.7, pts)
        for row, size in zip(pts, sizes):
            p = SimplexPoint(tuple(row), normalize=True)
            assert size == len(covering_collection(p, 5, 0.7))

    def test_covering_sizes_grid_holds_a_few_blocks(self):
        """Over a 45,451-point grid the traced peak stays within a few
        blocks of outcome-by-point entries, whatever the number of
        points."""
        pts = SimplexGrid(3, 300).points
        covering_sizes_grid(10, 3, 0.3, pts[:4])  # tables cached
        tracemalloc.start()
        try:
            sizes = covering_sizes_grid(10, 3, 0.3, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes.min() >= 1 and sizes.max() <= len(compositions_array(3, 10))
        assert peak < 8 * 8 * regions._BLOCK_ENTRIES

    def test_uniform_covering_size_is_three(self):
        sizes = covering_sizes_grid(5, 3, 0.7, np.array([[1 / 3, 1 / 3, 1 / 3]]))
        assert sizes.tolist() == [3]
