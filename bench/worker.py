"""One benchmark worker: a fresh interpreter that imports simplexcr, builds
one workload's inputs, prints READY, runs timed passes for the requested
time, checks the first pass's answers, and prints its findings as one JSON
line. ``run.py`` starts it; it is not meant to be run by hand.

A pass runs every call of the workload's batch as a closed loop: the next
call starts only after the previous one returns. A pass's wall time is the
sum of its calls' latencies; the bookkeeping between calls (reducing a
result to its answer) is left out.

Between calls, after every ``REF_EVERY_S`` of call time and at the start of
each pass, the worker times one run of ``reference_kernel``, fixed work that
does not touch simplexcr. On a shared host the speed of the same work
drifts by a fifth or more over minutes; the reference samples that speed
beside the calls, and ``run.py`` states the workload's times in multiples
of it.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time

import numpy as np
import scipy

import simplexcr
from simplexcr import core

import spans
import workloads

# Per-layer metrics that are a function's calls and self time per pass.
TIMED_LAYERS = (
    "core.compositions_array",
    "core.log_pmf_array",
    "core.kahan_cumsum",
    "core.kl_to_many",
    "regions.levelset_membership_grid",
    "regions.chi2_membership_grid",
    "regions.covering_collection",
    "regions.member_of_covering",
    "regions.p_value",
    "regions.covering_sizes_grid",
    "functionals.functional_interval",
    "functionals.kl_bernoulli_bounds_vec",
    "volume.average_volume",
    "volume.covering_size_integral",
    "bandit.lucb_run",
    "cli.main",
)


def blas_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = fn()
                return facts
    return facts


REF_EVERY_S = 0.5
_REF_LARGE = np.random.default_rng(0).random(50_000)
_REF_SMALL = np.arange(5.0)


def reference_kernel() -> float:
    """Seconds taken by one run of a fixed mix of interpreter loops, small
    NumPy calls and sorts of a larger array, the kinds of work simplexcr
    does, about 12 ms on an idle 2-vCPU host."""
    start = time.perf_counter()
    acc = 0.0
    tally = {}
    for i in range(20_000):
        acc += math.lgamma(i * 0.5 + 1.0)
        tally[i % 31] = tally.get(i % 31, 0) + 1
    for _ in range(1_500):
        acc += float(np.log(_REF_SMALL + 1.0) @ _REF_SMALL)
    for _ in range(5):
        acc += float(np.cumsum(np.sort(_REF_LARGE))[-1])
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc) or len(tally) != 31:
        raise RuntimeError("reference kernel computed a wrong result")
    return elapsed


def run_pass(wl, pass_dir: str) -> dict:
    os.makedirs(pass_dir, exist_ok=True)
    calls = wl.calls(pass_dir)
    latencies, answers, errors = [], [], {}
    refs = [reference_kernel()]
    since_ref = 0.0
    clock = time.perf_counter
    for i, call in enumerate(calls):
        start = clock()
        try:
            result = call()
        except Exception as exc:  # a failed call is counted, not fatal
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
        since_ref += latencies[-1]
        while since_ref >= REF_EVERY_S:
            refs.append(reference_kernel())
            since_ref -= REF_EVERY_S
        if i not in errors:
            try:
                answers.append(wl.answer(i, result))
                continue
            except Exception as exc:
                errors[i] = f"unexpected result: {type(exc).__name__}: {exc}"
        answers.append({"error": errors[i]})
    wl.finish_pass(pass_dir, answers)
    samples = [wl.samples(i, a) if i not in errors else 0 for i, a in enumerate(answers)]
    return {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "ref_s": refs,
        "samples": samples,
        "answers": answers,
        "errors": errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = workloads.build(args.workload, args.seed, args.size, bool(args.trace))
    print("READY", flush=True)
    if args.setup_only:
        return 0
    wl.warm_up()

    lru = core.compositions_array
    tracer = spans.Tracer()
    cache_hits = cache_misses = 0
    passes = []
    modes = (False, True) if args.trace else (False,)
    # Whole cycles of passes only, and no cycle that would end past the
    # requested time; the first cycle always runs.
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (1 + len(modes) / len(passes)) <= args.seconds:
        for traced in modes:
            pass_dir = os.path.join(args.tmp, f"pass{len(passes)}")
            if traced:
                before = lru.cache_info()
                restore = spans.install(tracer)
                try:
                    record = run_pass(wl, pass_dir)
                finally:
                    restore()
                after = lru.cache_info()
                cache_hits += after.hits - before.hits
                cache_misses += after.misses - before.misses
            else:
                record = run_pass(wl, pass_dir)
            record["traced"] = traced
            passes.append(record)
            if len(passes) > 1:
                shutil.rmtree(pass_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks run outside the timed passes, on the first pass's answers; every
    # later pass must repeat the first pass's answers exactly.
    first = passes[0]
    failures = {}
    for i in range(len(first["answers"])):
        if i in first["errors"]:
            failures[i] = first["errors"][i]
            continue
        try:
            reason = wl.check(i, first["answers"], os.path.join(args.tmp, "pass0"))
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures[i] = reason
    failed = len(failures) * len(passes)
    for record in passes[1:]:
        for i, answer in enumerate(record["answers"]):
            if i not in failures and answer != first["answers"][i]:
                failed += 1
                failures.setdefault(f"repeat-{i}", "answer differs from the first pass")

    result = {
        "simplexcr_file": simplexcr.__file__,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "blas": blas_facts(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "digest": hashlib.sha256(
            json.dumps(first["answers"], sort_keys=True).encode()
        ).hexdigest(),
        "attempted": sum(len(r["answers"]) for r in passes),
        "failed": failed,
        "failures": [f"call {k}: {v}" for k, v in list(failures.items())[:10]],
        "peak_rss_mb": peak_rss_mb,
        "passes": [
            {key: r[key] for key in ("traced", "wall_s", "latencies_s", "ref_s", "samples")}
            for r in passes
        ],
    }
    if args.trace:
        result["layers"] = layer_metrics(wl, tracer, passes, cache_hits, cache_misses)
        result["profile"] = {
            name: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s}
            for name, s in sorted(tracer.stats.items())
            if s.calls
        }
    print(json.dumps(result))
    return 0


def layer_metrics(wl, tracer, passes, cache_hits, cache_misses) -> dict:
    traced = [r for r in passes if r["traced"]]
    untraced = [r for r in passes if not r["traced"]]
    count = len(traced)
    empty = spans.Stat()
    metrics = {}
    for name in TIMED_LAYERS:
        stat = tracer.stats.get(name, empty)
        metrics[f"{name}.calls"] = stat.calls / count
        metrics[f"{name}.self_s"] = stat.self_s / count
    lookups = cache_hits + cache_misses
    metrics["core.compositions_array.miss_ratio"] = cache_misses / lookups if lookups else 0.0
    grid = tracer.stats.get("regions.levelset_membership_grid", empty)
    metrics["regions.levelset_membership_grid.points"] = grid.points / count
    outer = tracer.stats.get("regions.outer_bound_reject", empty)
    metrics["regions.outer_bound_reject.calls"] = outer.calls / count
    metrics["regions.outer_bound_reject.reject_ratio"] = (
        outer.true_results / outer.calls if outer.calls else 0.0
    )
    metrics.update({
        "bandit.screen.calls": 0.0,
        "bandit.refine.calls": 0.0,
        "bandit.refine.fail_ratio": 0.0,
    })
    metrics.update(wl.layer_extras(tracer, count))
    traced_wall = float(np.median([r["wall_s"] for r in traced]))
    untraced_wall = float(np.median([r["wall_s"] for r in untraced]))
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics["trace.top_level_share"] = tracer.top_level_s / sum(r["wall_s"] for r in traced)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
