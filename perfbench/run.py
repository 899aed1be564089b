"""densecrop benchmark: one workload per run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_crop_lu --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures end-to-end metrics untraced (only a
clock read per training iteration); with ``--trace 1`` it alternates
untraced and traced units and prints the per-layer metrics, including the
tracing overhead. Times are scaled to a reference host speed (see
``REFERENCE_S``). Every unit's
output is checked against ``expected.json``. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the full
result, with the environment and the per-function table, is also written
to ``perfbench/results/``. ``--tiny`` shrinks every workload for the
self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment() -> dict:
    try:
        # The ceiling keeps git from searching directories above the checkout.
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "git_revision": rev,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# The host this benchmark was tuned on (see README.md) switches between
# two speeds about 1.4x apart for minutes at a time, which moves every
# timing of a run together. Timings are therefore scaled to one host
# speed: REFERENCE_S is about the median time reference_loop() takes there
# at the faster speed, and each unit's times are divided by the slowdown
# the loop shows right before and right after the unit.
REFERENCE_S = 0.0075


def reference_loop() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def slowdown() -> float:
    """Host slowdown now relative to REFERENCE_S, from the median of nine loops."""
    times = []
    for _ in range(9):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_S


def timed_setup(workload) -> float:
    """Setup wall time scaled to the reference host speed."""
    before = slowdown()
    start = time.perf_counter()
    workload.setup()
    wall = time.perf_counter() - start
    return wall / ((before + slowdown()) / 2.0)


def measure(workload, k: int):
    """One unit with the host slowdown around it; an exception fails all of
    the unit's attempts instead of the run."""
    before = slowdown()
    start = time.perf_counter()
    try:
        unit = workload.unit(k)
    except Exception:
        traceback.print_exc()
        from workloads import Unit

        attempts = workload.attempts_per_unit
        unit = Unit(None, time.perf_counter() - start, 0, [], attempts, attempts)
    unit.slowdown = (before + slowdown()) / 2.0
    return unit


def past_end(start: float, seconds: float, units: list) -> bool:
    """True when one more unit would most likely end more than half a unit
    past ``seconds``, so a run measures for about ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / len(units) / 2 > seconds


def run_untraced(workload, seconds: float) -> tuple[dict, list]:
    setups = [timed_setup(workload) for _ in range(workload.setup_repeats)]
    units = []
    start = time.perf_counter()
    while not units or not past_end(start, seconds, units):
        units.append(measure(workload, len(units)))
    latencies = [x / u.slowdown for u in units for x in u.latencies_s] or [0.0]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "throughput": (sum(u.items for u in units) / sum(u.wall_s / u.slowdown for u in units), "1/s"),
        "latency_ms_p50": (1e3 * float(numpy.percentile(latencies, 50)), "ms"),
        "latency_ms_p95": (1e3 * float(numpy.percentile(latencies, 95)), "ms"),
    }
    return metrics, units


def run_traced(workload, seconds: float) -> tuple[dict, list, list]:
    from layers import Combined, function_table, per_layer_metrics, probes
    from tracer import Tracer

    tracer = Tracer(probes())
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    # Untraced and traced units alternate, each on its own input, so no
    # unit can profit from data a previous unit left in a cache.
    units = []
    tracer.set_phase("measure")
    start = time.perf_counter()
    while len(units) < 2 or not past_end(start, seconds, units):
        if len(units) % 2:
            tracer.install()
        try:
            units.append(measure(workload, len(units)))
        finally:
            tracer.uninstall()
    tracer.set_phase("post")
    tracer.install()
    try:
        quality = workload.post()
    finally:
        tracer.uninstall()
    untraced, traced = units[0::2], units[1::2]
    wall = lambda us: statistics.median(u.wall_s / u.slowdown for u in us)  # noqa: E731
    per_item = lambda us: statistics.median(u.wall_s / u.slowdown / max(u.items, 1) for u in us)  # noqa: E731
    overhead = {
        "seconds": wall(traced) - wall(untraced),
        "percent": 100.0 * (per_item(traced) / per_item(untraced) - 1.0),
    }
    combined = Combined(tracer, len(traced))
    metrics = per_layer_metrics(combined, quality, overhead)
    metrics["host.slowdown"] = (statistics.median(u.slowdown for u in units), "ratio")
    return metrics, units, function_table(combined)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, expected)
    env = environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}", file=sys.stderr)

    table = None
    if args.trace:
        metrics, units, table = run_traced(workload, args.seconds)
    else:
        metrics, units = run_untraced(workload, args.seconds)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    for u in units:
        if u.failed:
            print(
                f"check failed: {args.workload} input {u.input_seed}: {u.failed} of {u.attempted}",
                file=sys.stderr,
            )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": env,
        "units": [
            {
                "input_seed": u.input_seed,
                "wall_s": u.wall_s,
                "slowdown": u.slowdown,
                "items": u.items,
                "failed": u.failed,
                **u.extra,
            }
            for u in units
        ],
        "functions": table,
        **result,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}{'_tiny' if args.tiny else ''}_seed{args.seed}_trace{args.trace}.json"
    with open(out_dir / name, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
