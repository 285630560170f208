"""The benchmark's smoke run: every workload at a tiny size, untraced and
traced, with every metric of BENCHMARK.json checked for its unit and every
call's answer checked."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke ok" in proc.stdout.splitlines()
