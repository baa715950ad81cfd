"""The benchmark's self-check, run as part of the suite: it fails when a
library change breaks a name the benchmark's tracer wraps or an output
its goldens pin."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--selfcheck"], cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
