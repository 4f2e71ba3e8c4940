"""The benchmark's own smoke check passes against this source tree.

A signature change that breaks the tracer's bindings, or a metric that
the benchmark declares but no longer reports, fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    out = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
