"""The benchmark harness still runs against the current package API.

Runs ``perfbench/selftest.py`` (every workload at tiny size, untraced and
traced, with its output checks) as a subprocess from the repository root.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
