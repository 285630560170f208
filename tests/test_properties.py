"""Property tests of the paper's identities over generated inputs."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcr import (
    RegionSpec,
    SimplexPoint,
    covering_collection,
    enumerate_simplex,
    member_of_covering,
    region_membership,
)
from simplexcr.regions import levelset_membership_grid


@st.composite
def simplex_points(draw, k):
    """A seeded Dirichlet point, the uniform point, a point with one zero
    coordinate, or a point with two equal coordinates."""
    shape = draw(st.sampled_from(("dirichlet", "uniform", "zero", "equal")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "dirichlet":
        probs = rng.dirichlet(np.ones(k))
    elif shape == "uniform":
        return SimplexPoint.uniform(k)
    else:
        probs = list(rng.dirichlet(np.ones(k - 1)))
        if shape == "zero":
            probs.insert(draw(st.integers(0, k - 1)), 0.0)
        else:
            j = draw(st.integers(0, k - 2))
            probs[j] /= 2.0
            probs.insert(j, probs[j])
    return SimplexPoint(tuple(probs), normalize=True)


@st.composite
def levelset_cases(draw):
    k = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(0, 12))
    delta = draw(st.floats(0.02, 0.98))
    points = draw(st.lists(simplex_points(k), min_size=2, max_size=3))
    return k, n, delta, points


@settings(derandomize=True, max_examples=250, deadline=None)
@given(levelset_cases())
def test_scalar_grid_and_collection_agree(case):
    """Region/collection duality through every level-set membership entry
    point: the scalar query, region_membership, and one multi-row grid
    call all equal phat in covering_collection(p, n, delta)."""
    k, n, delta, points = case
    rows = np.array([p.probs for p in points])
    collections = [set(covering_collection(p, n, delta).members) for p in points]
    spec = RegionSpec(delta, "levelset", n, k)
    for phat in enumerate_simplex(k, n):
        grid = levelset_membership_grid(phat, delta, rows)
        for p, members, in_grid in zip(points, collections, grid):
            want = phat in members
            assert member_of_covering(phat, p, delta) == want
            assert region_membership(p, phat, spec) == want
            assert bool(in_grid) == want
