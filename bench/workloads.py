"""The benchmark's four workloads.

Each workload turns the workload seed into a fixed batch of closed-loop
calls into simplexcr. A call's answer is reduced to a small JSON value
right after it returns; the values feed the answer digest, the comparison
between passes, and the output checks, which run after every timed pass.

The checks test properties of the answers, not values recorded from one
version of the program: LUCB names the best arm, region/collection duality,
agreement of the grid and scalar membership paths, and the two-way volume
counting identity.

Library calls go through module attributes (``regions.p_value``, not a name
imported from ``regions``), so that the tracer's wrappers see them.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from simplexcr import bandit, cli, core, functionals, regions, volume
from simplexcr.core import EmpiricalDistribution, SimplexPoint
from simplexcr.functionals import LinearFunctional
from simplexcr.regions import RegionSpec


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pmf_log(counts, probs) -> float:
    """Multinomial log-probability, written out independently of core."""
    n = sum(counts)
    s = math.lgamma(n + 1)
    for c, x in zip(counts, probs):
        if c:
            if x == 0.0:
                return -math.inf
            s += c * math.log(x) - math.lgamma(c + 1)
    return s


def _counts(rng, n, probs) -> EmpiricalDistribution:
    return EmpiricalDistribution(tuple(int(c) for c in rng.multinomial(n, probs)))


def _point(rng, k) -> SimplexPoint:
    return SimplexPoint(tuple(rng.dirichlet(np.full(k, 2.0))), normalize=True)


def _probe(p: SimplexPoint, n: int) -> list[int]:
    """The least likely vertex outcome under p: a probe for a non-member."""
    probe = [0] * p.k
    probe[int(np.argmin(p.probs))] = n
    return probe


class Workload:
    """A fixed batch of calls. Subclasses define ``calls``, ``answer``,
    ``samples`` and ``check``."""

    def calls(self, pass_dir: str) -> list:
        """The closed-loop calls of one pass, as zero-argument callables."""
        raise NotImplementedError

    def answer(self, i: int, result):
        """Small JSON value standing for call i's result."""
        raise NotImplementedError

    def finish_pass(self, pass_dir: str, answers: list) -> None:
        """Complete the answers from files a pass wrote (outside timing)."""

    def samples(self, i: int, answer) -> int:
        """Statistical draws behind call i's answer."""
        raise NotImplementedError

    def check(self, i: int, answers: list, pass_dir: str) -> str | None:
        """None when call i's answer (``answers[i]``) passes its check, else
        the reason. Runs on the first pass's answers and files."""
        raise NotImplementedError

    def layer_extras(self, tracer, traced_passes: int) -> dict:
        return {}

    def warm_up(self) -> None:
        """Untimed work before the first pass, for a workload that runs too
        few passes for their median to leave out a cold first one."""


# ---------------------------------------------------------------------------
# lucb-levelset, lucb-kl


class Lucb(Workload):
    """LUCB on the five-arm benchmark at delta = 0.05 and tolerance 0.1,
    over LUCB seeds drawn from the workload seed. Both LUCB workloads draw
    the same seeds; lucb-kl runs more of them, as its runs are cheaper.

    A run's stopping time, and its wall time with it, varies from one LUCB
    seed to the next, so a pass sums many runs. The tolerance keeps each
    run short enough for that: at tolerance 0 a levelset run's wall time
    varies by a fifth with the seed and takes 5 to 11 s; at 0.1 it varies
    by about an eighth and takes 2 to 4 s, and the leading arm still
    reaches n of 270 to 430. A traced run uses half the seeds, as it runs
    the batch twice.
    """

    DELTA = 0.05
    TOLERANCE = 0.1
    RUNS = {"levelset": 10, "kl-bernoulli": 12}

    def __init__(self, method: str, seed: int, size: str, traced: bool):
        self.method = method
        self.arms = bandit.benchmark_arms()
        rng = np.random.default_rng(seed)
        runs = self.RUNS[method] // (2 if traced else 1) if size == "full" else 1
        self.seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=runs)]
        # At smoke size a larger tolerance ends each run after a few hundred pulls.
        self.tolerance = self.TOLERANCE if size == "full" else 0.2

    def warm_up(self):
        bandit.lucb_run(self.arms, self.DELTA, 0.2, self.method, seed=0)

    def calls(self, pass_dir):
        return [
            lambda s=s: bandit.lucb_run(
                self.arms, self.DELTA, self.tolerance, self.method, seed=s
            )
            for s in self.seeds
        ]

    def answer(self, i, result):
        return dataclasses.asdict(result)

    def samples(self, i, answer):
        return answer["stopping_time"]

    def check(self, i, answers, pass_dir):
        answer = answers[i]
        if not answer["completed"]:
            return "run hit the sample cap"
        if answer["identified_arm"] != 0:
            return f"identified arm {answer['identified_arm']}, the best arm is 0"
        return None

    def layer_extras(self, tracer, traced_passes):
        # One exact refinement calls functional_interval once per arm. A
        # levelset run stops only after a refinement that succeeds, so every
        # refinement beyond one per run failed.
        calls = tracer.site_calls.get(("functionals.functional_interval", "bandit"), 0)
        refinements = calls / len(self.arms)
        failed = max(0.0, refinements - len(self.seeds) * traced_passes)
        return {
            "bandit.screen.calls": tracer.site_calls.get(
                ("regions.chi2_membership_grid", "bandit"), 0
            ) / traced_passes,
            "bandit.refine.calls": calls / traced_passes,
            "bandit.refine.fail_ratio": failed / refinements if refinements else 0.0,
        }


# ---------------------------------------------------------------------------
# exact-queries

# (k, n) shapes and how many queries each gets. There are more shapes than
# the 8 slots of the compositions_array cache, and the counts fall with the
# shape's size, so small shapes are frequent and the largest are rare. Only
# the 6 queries on the two largest shapes are slower than the top 1%, so the
# 99th percentile falls among the many k = 3, n = 300 and k = 5, n = 30
# queries of similar cost rather than at the edge of a gap.
_SHAPES_FULL = (
    ((3, 20), 210), ((4, 10), 170), ((5, 8), 150), ((3, 60), 125),
    ((4, 25), 100), ((5, 20), 80), ((3, 150), 70), ((4, 40), 50),
    ((3, 300), 27), ((5, 30), 12), ((3, 600), 3), ((5, 50), 3),
)
_SHAPES_SMOKE = (((3, 10), 12), ((4, 6), 12), ((5, 4), 12))

# Query kinds in a fixed cycle: region_membership takes a quarter of the
# queries, split over its three constructions.
_KINDS = (
    "p_value", "member_of_covering", "covering_collection", "levelset",
    "p_value", "member_of_covering", "covering_collection", "sanov",
    "p_value", "member_of_covering", "covering_collection", "polytope",
)
_DELTAS = (0.05, 0.1, 0.3, 0.5, 0.7)


@dataclasses.dataclass(frozen=True)
class Query:
    kind: str
    n: int
    delta: float
    p: SimplexPoint
    phat: EmpiricalDistribution


class ExactQueries(Workload):
    """About 1,000 scalar queries over 12 (k, n) shapes.

    How many queries each shape and each (kind, delta) pair gets is fixed,
    so that a pass costs about the same on every seed. The seed draws each
    query's p and outcome and the order in which the queries arrive.
    """

    def __init__(self, seed: int, size: str):
        rng = np.random.default_rng(seed)
        shapes = _SHAPES_FULL if size == "full" else _SHAPES_SMOKE
        queries = []
        for (k, n), count in shapes:
            for i in range(count):
                p = _point(rng, k)
                # Half the outcomes come from p itself, so both answers occur.
                source = p.probs if rng.random() < 0.5 else _point(rng, k).probs
                queries.append(Query(
                    _KINDS[i % len(_KINDS)], n, _DELTAS[i % len(_DELTAS)],
                    p, _counts(rng, n, source),
                ))
        self.queries = [queries[j] for j in rng.permutation(len(queries))]

    def calls(self, pass_dir):
        return [self._call(q) for q in self.queries]

    @staticmethod
    def _call(q: Query):
        if q.kind == "p_value":
            return lambda: regions.p_value(q.phat, q.p)
        if q.kind == "member_of_covering":
            return lambda: regions.member_of_covering(q.phat, q.p, q.delta)
        if q.kind == "covering_collection":
            return lambda: regions.covering_collection(q.p, q.n, q.delta)
        spec = RegionSpec(q.delta, q.kind, q.n, q.p.k)
        return lambda: regions.region_membership(q.p, q.phat, spec)

    def answer(self, i, result):
        q = self.queries[i]
        if q.kind == "p_value":
            return repr(result)
        if q.kind != "covering_collection":
            return bool(result)
        members = np.array([m.counts for m in result.members], dtype=np.int64)
        probe = _probe(q.p, q.n)
        return {
            "size": len(result),
            "mass": repr(result.total_mass),
            "members_sha": _sha(members.tobytes()),
            "distinct": len(set(result.members)) == len(result),
            "first": list(result.members[0].counts),
            "last": list(result.members[-1].counts),
            "probe": probe,
            "probe_in": EmpiricalDistribution(tuple(probe)) in result,
        }

    def samples(self, i, answer):
        return self.queries[i].n

    def check(self, i, answers, pass_dir):
        answer = answers[i]
        q = self.queries[i]
        if q.kind == "p_value":
            pv = float(answer)
            own = math.exp(_pmf_log(q.phat.counts, q.p.probs))
            if not (0.0 < pv <= 1.0) or pv < own * (1.0 - 1e-9):
                return f"p-value {pv} outside (own mass {own}, 1]"
            return None
        if q.kind in ("member_of_covering", "levelset"):
            dual = q.phat in regions.covering_collection(q.p, q.n, q.delta)
            if answer != dual:
                return f"answer {answer} but phat in covering_collection(p) is {dual}"
            return None
        if q.kind in ("sanov", "polytope"):
            grid = regions.membership_grid(
                q.phat, RegionSpec(q.delta, q.kind, q.n, q.p.k), q.p.as_array()[None, :]
            )
            if answer != bool(grid[0]):
                return f"scalar answer {answer} disagrees with the grid path"
            return None
        return _check_collection(answer, q.p, q.n, q.delta)


def _check_collection(ans: dict, p: SimplexPoint, n: int, delta: float) -> str | None:
    """Duality between a covering collection and the scalar membership path."""
    if not ans["distinct"] or float(ans["mass"]) < 1.0 - delta:
        return "collection repeats a member or holds too little mass"
    for key in ("first", "last"):
        phat = EmpiricalDistribution(tuple(ans[key]))
        if not regions.member_of_covering(phat, p, delta):
            return f"{key} member {ans[key]} is not a member by member_of_covering"
    probe = EmpiricalDistribution(tuple(ans["probe"]))
    if regions.member_of_covering(probe, p, delta) != ans["probe_in"]:
        return f"probe {ans['probe']} disagrees between the two paths"
    return None


# ---------------------------------------------------------------------------
# grid-scans

_MEAN3 = LinearFunctional((0.0, 0.5, 1.0))
_MEAN4 = LinearFunctional((0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0))


class GridScans(Workload):
    """CLI jobs run in-process through ``cli.main`` into a directory, plus
    the dual volume integral and k = 4 Monte Carlo intervals."""

    def __init__(self, seed: int, size: str):
        rng = np.random.default_rng(seed)
        full = size == "full"
        self.region_n = 15 if full else 6
        self.region_grid = 200 if full else 40
        self.region_delta = 0.7
        self.region_phat = _counts(rng, self.region_n, _point(rng, 3).probs)
        self.n_list = (10, 20, 30, 40) if full else (10, 20)
        self.widths_delta = 0.7
        self.volume_n, self.volume_grid, self.volume_delta = (5, 300, 0.7) if full else (3, 60, 0.7)
        self.covering_n, self.covering_delta = (50, 0.3) if full else (8, 0.3)
        self.covering_p = _point(rng, 5)
        self.mc_n, self.mc_delta = 20, 0.3
        self.mc_draws = 10000 if full else 2000
        self.mc = [(_counts(rng, self.mc_n, _point(rng, 4).probs), int(rng.integers(2**31 - 1)))
                   for _ in range(2)]
        self.check_rng_seed = int(rng.integers(2**31 - 1))
        self.labels = []

    def calls(self, pass_dir):
        out = lambda name: os.path.join(pass_dir, name)  # noqa: E731
        phat = ",".join(str(c) for c in self.region_phat.counts)
        jobs = [
            ("region-all", ["region", "--phat", phat, "--delta", str(self.region_delta),
                            "--grid", str(self.region_grid), "--construction", "all",
                            "--out", out("fig.json")]),
            ("region-boundary", ["region", "--phat", phat, "--delta", str(self.region_delta),
                                 "--grid", str(self.region_grid), "--mode", "boundary",
                                 "--out", out("edge.json")]),
            ("widths", ["widths", "--n-list", ",".join(map(str, self.n_list)),
                        "--delta", str(self.widths_delta), "--out", out("widths.csv")]),
            ("volume", ["volume", "--k", "3", "--n", str(self.volume_n),
                        "--delta", str(self.volume_delta), "--grid", str(self.volume_grid),
                        "--out", out("volume.json")]),
            ("covering", ["covering", "--p", ",".join(repr(x) for x in self.covering_p.probs),
                          "--n", str(self.covering_n), "--delta", str(self.covering_delta),
                          "--format", "json", "--out", out("covering.json")]),
        ]
        calls = [lambda argv=argv: cli.main(argv) for _, argv in jobs]
        self.labels = [label for label, _ in jobs]
        calls.append(lambda: volume.covering_size_integral(
            self.volume_n, 3, self.volume_delta, self.volume_grid))
        self.labels.append("covering-size-integral")
        for phat, seed in self.mc:
            spec = RegionSpec(self.mc_delta, "levelset", self.mc_n, 4)
            calls.append(lambda phat=phat, spec=spec, seed=seed: functionals.functional_interval(
                phat, _MEAN4, self.mc_delta, spec, mc_draws=self.mc_draws, seed=seed))
            self.labels.append("mc-interval")
        return calls

    _FILES = {
        "region-all": ("fig_levelset.json", "fig_sanov.json", "fig_polytope.json"),
        "region-boundary": ("edge.json",),
        "widths": ("widths.csv",),
        "volume": ("volume.json",),
        "covering": ("covering.json",),
    }

    def answer(self, i, result):
        label = self.labels[i]
        if label == "covering-size-integral":
            return repr(result)
        if label == "mc-interval":
            return [repr(result.lower), repr(result.upper), repr(result.scan_coverage)]
        return {"exit": result}

    def finish_pass(self, pass_dir, answers):
        for i, label in enumerate(self.labels):
            if label in self._FILES and isinstance(answers[i], dict) and "exit" in answers[i]:
                answers[i]["files"] = {
                    name: _file_sha(os.path.join(pass_dir, name)) for name in self._FILES[label]
                }

    def samples(self, i, answer):
        label = self.labels[i]
        if label == "widths":
            return sum(self.n_list)
        if label in ("region-all", "region-boundary"):
            return self.region_n
        if label in ("volume", "covering-size-integral"):
            return self.volume_n
        if label == "covering":
            return self.covering_n
        return self.mc_n

    def check(self, i, answers, pass_dir):
        answer = answers[i]
        label = self.labels[i]
        if isinstance(answer, dict):
            if answer["exit"] != 0:
                return f"exit code {answer['exit']}"
            return getattr(self, "_check_" + label.replace("-", "_"))(answers, pass_dir)
        if label == "covering-size-integral":
            return self._check_volume(answers, pass_dir)
        lower, upper, coverage = (float(x) for x in answer)
        phat = self.mc[i - self.labels.index("mc-interval")][0]
        mean = _MEAN4.apply(phat.as_point())
        if not (0.0 <= lower <= mean <= upper <= 1.0 and 0.0 < coverage <= 1.0):
            return f"interval [{lower}, {upper}] (coverage {coverage}) misses the MLE mean {mean}"
        return None

    def _check_region_all(self, answers, pass_dir):
        # A sample of grid points must get the same answer from the scalar path.
        rng = np.random.default_rng(self.check_rng_seed)
        for kind in regions.KINDS:
            with open(os.path.join(pass_dir, f"fig_{kind}.json"), encoding="utf-8") as fh:
                dump = json.load(fh)
            points = np.asarray(dump["points"])
            member = np.asarray(dump["member"], dtype=bool)
            if len(points) != core.simplex_size(3, self.region_grid) or len(member) != len(points):
                return f"{kind} dump has {len(points)} points"
            spec = RegionSpec(self.region_delta, kind, self.region_n, 3)
            for side in (np.flatnonzero(member), np.flatnonzero(~member)):
                for j in rng.choice(side, size=min(4, len(side)), replace=False):
                    scalar = regions.region_membership(
                        SimplexPoint(tuple(points[j])), self.region_phat, spec)
                    if scalar != bool(member[j]):
                        return f"{kind} grid point {points[j].tolist()}: grid {member[j]}, scalar {scalar}"
        return None

    def _check_region_boundary(self, answers, pass_dir):
        with open(os.path.join(pass_dir, "edge.json"), encoding="utf-8") as fh:
            boundary = json.load(fh)["boundary"]
        if not boundary:
            return "empty boundary"
        spec = RegionSpec(self.region_delta, "levelset", self.region_n, 3)
        for row in boundary[:: max(1, len(boundary) // 4)]:
            if not regions.region_membership(SimplexPoint(tuple(row)), self.region_phat, spec):
                return f"boundary point {row} is not a member by the scalar path"
        return None

    def _check_widths(self, answers, pass_dir):
        with open(os.path.join(pass_dir, "widths.csv"), encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["method"] != "warning"]
        if len(rows) != 5 * len(self.n_list):
            return f"{len(rows)} width rows for {len(self.n_list)} sample sizes"
        for r in rows:
            n = int(r["n"])
            base = int(round(n / 10.0))
            mean = _MEAN3.apply(EmpiricalDistribution((base, base, n - 2 * base)).as_point())
            if not float(r["lower"]) <= mean <= float(r["upper"]):
                return f"{r['method']} interval at n={n} misses the sample mean {mean}"
        return None

    def _check_volume(self, answers, pass_dir):
        # Two-way counting identity, within the 3/M grid budget of volume.py.
        with open(os.path.join(pass_dir, "volume.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        integral = float(answers[self.labels.index("covering-size-integral")])
        budget = 3.0 / self.volume_grid
        if len(report["per_phat"]) != core.simplex_size(3, self.volume_n):
            return "volume report misses outcomes"
        if abs(report["total"] - integral) > budget:
            return f"summed volume {report['total']} vs covering-size integral {integral}"
        return None

    def _check_covering(self, answers, pass_dir):
        with open(os.path.join(pass_dir, "covering.json"), encoding="utf-8") as fh:
            dump = json.load(fh)
        members = [tuple(m) for m in dump["members"]]
        if any(sum(m) != self.covering_n for m in members):
            return "a member does not sum to n"
        probe = _probe(self.covering_p, self.covering_n)
        ans = {
            "distinct": len(set(members)) == len(members),
            "mass": dump["total_mass"],
            "first": members[0],
            "last": members[-1],
            "probe": probe,
            "probe_in": tuple(probe) in set(members),
        }
        return _check_collection(ans, self.covering_p, self.covering_n, self.covering_delta)


def _file_sha(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return _sha(fh.read())
    except FileNotFoundError:
        return None


def build(name: str, seed: int, size: str, traced: bool) -> Workload:
    if name == "lucb-levelset":
        return Lucb("levelset", seed, size, traced)
    if name == "lucb-kl":
        return Lucb("kl-bernoulli", seed, size, traced)
    if name == "exact-queries":
        return ExactQueries(seed, size)
    if name == "grid-scans":
        return GridScans(seed, size)
    raise ValueError(f"unknown workload {name!r}")
