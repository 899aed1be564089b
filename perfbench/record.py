"""Record the reference outputs that every benchmark run checks against.

    python3 perfbench/record.py

Runs each workload's measured unit once on every input set of the pool,
at full and at tiny size, and writes the fingerprints to
``perfbench/expected.json``: the teacher weight sha256 for
train_crop_lu, the fused-detection sha256 for infer_toy, and the AP
report plus error counts for eval_dense. Record again only when a change
is meant to alter those outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import HERE, ROOT


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    path = HERE / "expected.json"
    expected = {"pool": workloads.POOL}
    for name, cls in workloads.WORKLOADS.items():
        for size in ("full", "tiny"):
            table = expected.setdefault(name, {}).setdefault(size, {})
            if name == "eval_dense":
                # One dump per input set, made in setup.
                for seed in range(1, workloads.POOL + 1):
                    w = cls(seed, size == "tiny", None)
                    w.setup()
                    unit = w.unit(0)
                    table[str(unit.input_seed)] = unit.fingerprint
            else:
                w = cls(1, size == "tiny", None)
                w.setup()
                for k in range(workloads.POOL):
                    unit = w.unit(k)
                    table[str(unit.input_seed)] = unit.fingerprint
            print(f"{name} {size}: {len(table)} input sets", file=sys.stderr, flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
