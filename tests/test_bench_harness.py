"""The benchmark harness in bench/ still runs against the current package.

`bench/run.py --self-test` installs the span tracer (`bench/tracer.py`) on a
tiny sweep and checks its output with `bench/checks.py`; a renamed or
removed `pwesim` name that either relies on makes it fail here rather than
only as failed operations in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_test_passes():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
