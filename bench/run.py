"""simplexcr benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a source checkout. Each run starts fresh worker
processes (``worker.py``) that import simplexcr from ``src/``. Set-up time is
measured from spawning a worker until its inputs are ready, over
``SETUP_SPAWNS`` spawns; one of them then runs the workload's timed passes.
With ``--trace 1`` the worker alternates untraced and traced passes and the
run reports per-layer metrics instead of end-to-end ones.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's report: answer digest, error rate, machine facts, sample counts,
the timed metrics in seconds and, when traced, the profile of every wrapped
function. The result states times in ``ref``, multiples of the time of the
reference kernel that the worker runs between calls (see ``worker.py`` and
``README.md``).

``--smoke`` runs every workload at a tiny size, traced and untraced, and
checks that every metric named in BENCHMARK.json comes out with its unit
and that no call failed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")

SETUP_SPAWNS = 3
# A run must end within 180 s; leave room for the parent's own work.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: the load is one closed-loop client, and a second BLAS
    # thread would wait on whatever else the shared host runs on the other
    # core, which measures the scheduler rather than the program.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return its set-up time (spawn until READY) and the
    rest of its standard output once it has exited."""
    start = time.perf_counter()
    # Unbuffered, so that reading the READY line reads nothing past it.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), *args],
        stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, bufsize=0,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - start
        if line.strip() != b"READY":
            raise BenchError(f"worker did not get ready (got {line.strip()!r})")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return setup_s, out.decode()
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the run deadline") from None
    finally:
        _stop(proc)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int,
                 size: str = "full", setup_spawns: int = SETUP_SPAWNS) -> tuple[dict, dict]:
    """One benchmark run. Returns (report, result)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    load_avg = os.getloadavg()
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        common = ["--workload", workload, "--seed", str(seed), "--size", size,
                  "--trace", str(trace), "--seconds", str(seconds), "--tmp", tmp]
        # Set-up-only spawns before and after the measuring worker, so that
        # the median samples the machine at different moments of the run.
        before = (setup_spawns - 1) // 2
        setups = [spawn(common + ["--setup-only"], deadline)[0] for _ in range(before)]
        setup_s, out = spawn(common, deadline)
        setups.append(setup_s)
        setups += [spawn(common + ["--setup-only"], deadline)[0]
                    for _ in range(setup_spawns - 1 - before)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(tmp_root):
            os.rmdir(tmp_root)
    found = json.loads(out.strip().splitlines()[-1])
    if not os.path.realpath(found["simplexcr_file"]).startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"worker imported simplexcr from {found['simplexcr_file']}, not {SRC}")

    passes = [p for p in found["passes"] if not p["traced"]]
    # One latency per call of the batch, its median over the passes, so that
    # the percentiles rank the same calls however many passes fitted and a
    # burst of load on the host moves only the passes it hit.
    latencies = [statistics.median(call) for call in zip(*(p["latencies_s"] for p in passes))]
    wall_s = sum(latencies)
    samples = sum(passes[0]["samples"])
    # The unit of the timed metrics: the mean time of the reference kernel,
    # run between the calls of the same passes (see worker.py).
    ref_s = statistics.fmean(r for p in passes for r in p["ref_s"])
    if trace:
        values = found["layers"]
        kind = "per_layer"
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_ref": wall_s / ref_s,
            "peak_rss_mb": found["peak_rss_mb"],
            "samples_per_ref": samples * ref_s / wall_s,
            "stop_samples_p50": statistics.median(passes[0]["samples"]),
            "query_p50_ref": percentile(latencies, 50) / ref_s,
        }
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    attempted, failed = found["attempted"], found["failed"]
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "digest": found["digest"],
        "error_rate": failed / attempted,
        "failures": found["failures"],
        "passes": len(passes),
        "traced_passes": len(found["passes"]) - len(passes),
        "calls_per_pass": len(latencies),
        # The same times in seconds, as measured.
        "wall_s": wall_s,
        "samples_per_s": samples / wall_s,
        "call_p50_ms": 1e3 * percentile(latencies, 50),
        "call_p99_ms": 1e3 * percentile(latencies, 99),
        "ref_ms": 1e3 * ref_s,
        "ref_runs": sum(len(p["ref_s"]) for p in passes),
        "setup_samples_s": setups,
        "machine": dict(found["machine"], load_avg_start=load_avg),
    }
    if trace:
        report["profile"] = found["profile"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report, result


def smoke(spec: dict) -> int:
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            try:
                report, result = run_workload(spec, workload, 1, 0, trace, "smoke", setup_spawns=1)
            except BenchError as exc:
                print(f"smoke {workload} trace={trace}: FAIL {exc}")
                ok = False
                continue
            bad = [name for name, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
            if bad or report["error_rate"] != 0 or not result["correct"]:
                print(f"smoke {workload} trace={trace}: FAIL error_rate "
                      f"{report['error_rate']} {report['failures']} bad values {bad}")
                ok = False
            else:
                print(f"smoke {workload} trace={trace}: ok, {len(result['metrics'])} metrics, "
                      f"{result['attempted']} calls, digest {report['digest'][:12]}")
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "simplexcr", "__init__.py")):
        print(f"error: no simplexcr sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    # Turn SIGTERM into an exception so that workers are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.smoke:
        return smoke(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.seed is None or args.seconds is None:
        parser.error(f"need --workload (one of {names}), --seed and --seconds")
    try:
        report, result = run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
