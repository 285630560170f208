"""Acceptance suite: one test per release criterion, each printing a PASS
line once its assertions hold. Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import math
import time

import numpy as np
import pytest

from simplexcr import (
    EmpiricalDistribution,
    LinearFunctional,
    RegionSpec,
    SimplexGrid,
    SimplexPoint,
    average_volume,
    benchmark_arms,
    covering_collection,
    covering_size_integral,
    empirical_bernstein_interval,
    enumerate_simplex,
    functional_interval,
    hoeffding_interval,
    kl_divergence,
    lucb_run,
    member_of_covering,
    outer_bound_reject,
    p_value,
    region_membership,
    simplex_size,
)
from simplexcr.core import (
    _grid_points,
    compositions_array,
    log_coefficients,
    log_pmf_array,
)
from simplexcr.regions import (
    levelset_membership_grid,
    polytope_membership_grid,
    sanov_membership_grid,
)

from oracles import min_covering_size_bruteforce

MEAN3 = LinearFunctional((0.0, 0.5, 1.0))


def _random_point(rng, k):
    return SimplexPoint(tuple(rng.dirichlet(np.ones(k))), normalize=True)


def test_criterion_1_exact_fig_scale_values():
    start = time.perf_counter()
    assert simplex_size(3, 5) == 21
    assert len(enumerate_simplex(3, 5)) == 21
    cc = covering_collection(SimplexPoint.uniform(3), 5, 0.7)
    assert {m.counts for m in cc.members} == {(1, 2, 2), (2, 1, 2), (2, 2, 1)}
    assert len(cc) == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: |discrete simplex(3,5)| = 21 and the uniform "
          f"covering collection is the expected 3-element tie class ({elapsed:.2f}s)")


def test_criterion_2_minimal_cardinality_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for k, n in [(2, 4), (2, 6), (3, 4)]:
        counts = compositions_array(k, n)
        for delta in (0.1, 0.3):
            for _ in range(50):
                p = _random_point(rng, k)
                probs = np.exp(log_pmf_array(counts, p.as_array()))
                want = min_covering_size_bruteforce(probs, 1.0 - delta)
                assert len(covering_collection(p, n, delta)) == want
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 2 PASS: covering-collection size matched the "
          f"exhaustive-subset minimum in all {checked} cases ({elapsed:.1f}s)")


def test_criterion_3_duality_zero_disagreements():
    delta = 0.7
    outcomes = enumerate_simplex(3, 5)
    grid = SimplexGrid(3, 19)  # 210 parameter points
    disagreements = 0
    for row in grid.points:
        p = SimplexPoint(tuple(row))
        members = set(covering_collection(p, 5, delta).members)
        for phat in outcomes:
            side_region = member_of_covering(phat, p, delta)
            side_collection = phat in members
            disagreements += side_region != side_collection
    assert disagreements == 0
    print(f"\nACCEPTANCE 3 PASS: region side and collection side agree on all "
          f"{len(outcomes)} x {len(grid)} (outcome, parameter) pairs")


def test_criterion_4_monte_carlo_coverage():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    n, k, draws = 10, 3, 20_000
    worst = 1.0
    for delta in (0.1, 0.3):
        for _ in range(30):
            p = _random_point(rng, k)
            cc = covering_collection(p, n, delta)
            codes = {
                sum(c * (n + 1) ** i for i, c in enumerate(m.counts))
                for m in cc.members
            }
            sample = rng.multinomial(n, p.as_array(), size=draws)
            sample_codes = sample @ (n + 1) ** np.arange(k)
            coverage = float(np.isin(sample_codes, list(codes)).mean())
            sigma = math.sqrt(max(coverage * (1 - coverage), 1e-12) / draws)
            assert coverage >= 1.0 - delta - 3.0 * sigma
            worst = min(worst, coverage - (1.0 - delta))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 4 PASS: empirical coverage never fell below target "
          f"minus 3 standard errors (worst slack {worst:+.4f}, {elapsed:.1f}s)")


def test_criterion_5_average_volume_optimality_and_counting_identity():
    results = []
    for k, n, delta in [(2, 4, 0.3), (2, 6, 0.1), (3, 5, 0.7)]:
        M = 300
        totals = {
            kind: average_volume(RegionSpec(delta, kind, n, k), M).total
            for kind in ("levelset", "sanov", "polytope")
        }
        tol = 3.0 / M
        assert totals["sanov"] - totals["levelset"] > tol
        assert totals["polytope"] - totals["levelset"] > tol
        integral = covering_size_integral(n, k, delta, M)
        assert abs(totals["levelset"] - integral) <= 2.0 * tol
        results.append((k, n, delta, totals["levelset"], integral))
    lines = "; ".join(
        f"(k={k},n={n},d={d}): total {t:.4f} vs integral {i:.4f}"
        for k, n, d, t, i in results
    )
    print(f"\nACCEPTANCE 5 PASS: level-set average volume is smallest with "
          f"margin beyond grid error, and both countings agree: {lines}")


def test_criterion_6_outer_bound_soundness_and_type_class_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    outcomes = enumerate_simplex(3, 6)
    rejects = 0
    for _ in range(100):
        p = _random_point(rng, 3)
        for phat in outcomes:
            pv = None
            for delta in (0.05, 0.3, 0.7):
                if outer_bound_reject(phat, p, delta):
                    pv = p_value(phat, p) if pv is None else pv
                    rejects += 1
                    assert pv <= delta
    n, k = 8, 3
    counts = compositions_array(k, n)
    for _ in range(20):
        p = _random_point(rng, 3)
        logp = log_pmf_array(counts, p.as_array())
        for row, lp in zip(counts, logp):
            div = kl_divergence(EmpiricalDistribution(tuple(row)).as_point(), p)
            assert lp <= -n * div + 1e-9
            assert lp >= -n * div - k * math.log(n + 1) - 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 6 PASS: {rejects} outer-bound rejections all had "
          f"p-value <= delta, and every outcome satisfied the type-class "
          f"sandwich ({elapsed:.1f}s)")


def test_criterion_7_interval_width_ordering_across_n():
    rows = []
    for n in (10, 20, 30, 40, 50):
        counts = (n // 10, n // 10, 8 * n // 10)
        phat = EmpiricalDistribution(counts)
        spec = RegionSpec(0.7, "levelset", n, 3)
        level = functional_interval(phat, MEAN3, 0.7, spec)
        mean_hat = MEAN3.apply(phat.as_point())
        hoeff = hoeffding_interval(mean_hat, n, 0.7)
        samples = [0.0] * counts[0] + [0.5] * counts[1] + [1.0] * counts[2]
        bern = empirical_bernstein_interval(samples, 0.7)
        assert level.width <= hoeff.width
        assert level.width <= bern.width
        rows.append((n, level.width, hoeff.width, bern.width))
    summary = "; ".join(
        f"n={n}: {lw:.3f} <= {hw:.3f}, {bw:.3f}" for n, lw, hw, bw in rows
    )
    print(f"\nACCEPTANCE 7 PASS: level-set interval is narrowest at every n "
          f"({summary})")


def test_criterion_8_region_nesting_on_fig_scale_grid():
    phat = EmpiricalDistribution((6, 6, 3))
    points = SimplexGrid(3, 200).points
    level = levelset_membership_grid(phat, 0.7, points)
    sanov = sanov_membership_grid(phat, 0.7, points)
    poly = polytope_membership_grid(phat, 0.7, points)
    assert level.any()
    assert not (level & ~sanov).any()
    assert not (level & ~poly).any()
    print(f"\nACCEPTANCE 8 PASS: all {int(level.sum())} level-set grid points "
          f"lie inside both the Sanov ({int(sanov.sum())}) and polytope "
          f"({int(poly.sum())}) regions")


def test_criterion_9_bandit_medians_and_identification():
    start = time.perf_counter()
    arms = benchmark_arms()
    medians = {}
    for method in ("levelset", "kl-bernoulli", "hoeffding"):
        times = []
        for trial in range(10):
            run = lucb_run(arms, 0.05, 0.0, method, seed=1000 + trial)
            assert run.completed
            times.append(run.stopping_time)
        medians[method] = float(np.median(times))
    assert medians["levelset"] <= medians["kl-bernoulli"]
    assert medians["levelset"] <= medians["hoeffding"]
    assert medians["kl-bernoulli"] <= medians["hoeffding"]

    correct = 0
    for seed in range(50):
        run = lucb_run(arms, 0.05, 0.0, "kl-bernoulli", seed=seed)
        correct += run.completed and run.identified_arm == 0
    assert correct >= 48  # 95% of 50
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 9 PASS: median stopping times {medians}; best arm "
          f"identified in {correct}/50 runs ({elapsed:.0f}s)")


def test_criterion_10_membership_performance_envelope():
    compositions_array.cache_clear()
    log_coefficients.cache_clear()
    _grid_points.cache_clear()
    phat = EmpiricalDistribution((12, 11, 10, 9, 8))
    p = SimplexPoint((0.25, 0.22, 0.2, 0.18, 0.15))
    spec = RegionSpec(0.05, "levelset", 50, 5)
    start = time.perf_counter()
    inside = region_membership(p, phat, spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 10 PASS: k=5, n=50 membership answered "
          f"({inside}) in {elapsed:.2f}s, under the 10s envelope")
