"""Self-test: run every workload at tiny size, untraced and traced.

    python3 perfbench/selftest.py

Asserts that each run exits 0, passes its output checks, and prints every
metric that BENCHMARK.json names for that mode, each with its declared
unit and a finite value, and nothing else.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

from run import HERE, ROOT


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stderr)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == wanted[trace], (workload, trace, set(printed) ^ set(wanted[trace]))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
            print(f"ok {workload} trace {trace}: {len(printed)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
