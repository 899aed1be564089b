"""Per-function call counts and times for the densecrop layers.

The tracer wraps every public function of each layer module at each
module attribute its callers look it up through: ``label_density_crops``
is imported by name into ``teacher``, ``detect`` and ``infer``, so each of
those attributes gets a wrapper of its own. Public methods of the detector
backends are wrapped on their classes, and ``Box.__post_init__`` is wrapped
to count box constructions. Nothing under ``src/`` changes; ``uninstall``
puts every original back.

Timed wrappers keep a call stack, so a function's self time is its total
time minus the total time of the wrapped calls nested in it. Leaf
functions that run hundreds of thousands of times per run only count
calls: timing them would cost more than they do.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("teacher", "detect", "croplab", "geometry", "dataset", "infer", "metrics", "seeding")
BACKEND_CLASSES = ("ToyDetector", "OracleBackend")
COUNT_ONLY = frozenset(
    {
        "detect.extract_features",
        "detect.feature_dim",
        "geometry.Box.__post_init__",
        "geometry.iou",
        "geometry.project_into_crop",
        "geometry.reproject",
        "geometry.scale_box",
        "seeding.rng_for",
        "seeding.stable_int",
    }
)
# Calls whose start and end times are kept, to split time into training
# iterations and inference stages.
TIMELINE = frozenset(
    {
        "teacher.train",
        "teacher.burn_in",
        "teacher.ema_update",
        "infer.detect_multistage",
        "infer.select_crops",
        "geometry.nms",
    }
)


class Tracer:
    """Wraps the layer functions and accumulates statistics per phase.

    ``stats[(phase, key)]`` is ``[calls, total_s, self_s]``;
    ``site_calls[(phase, key, site)]`` counts calls per lookup site;
    ``timeline`` holds ``(phase, key, start, end, first_arg)`` for the
    keys in ``TIMELINE``; ``probe_sums[(phase, name)]`` holds the sums the
    probes add. A probe is ``probe(tracer, args, result, parent_key)``.
    Each wrapper counts into a cell of its own, which ``set_phase`` and
    ``flush`` fold into these tables, so a call does no dictionary work.
    """

    def __init__(self, probes: dict | None = None):
        self.phase = "setup"
        self.probes = probes or {}
        self.stats: dict = {}
        self.site_calls: Counter = Counter()
        self.timeline: list = []
        self.probe_sums: Counter = Counter()
        self._stack: list = []
        self._patched: list = []
        self._cells: list = []

    def add(self, name: str, value: float) -> None:
        self.probe_sums[(self.phase, name)] += value

    def set_phase(self, phase: str) -> None:
        self.flush()
        self.phase = phase

    def flush(self) -> None:
        for key, site, cell in self._cells:
            if not cell[0]:
                continue
            self.site_calls[(self.phase, key, site)] += cell[0]
            if len(cell) == 3:
                stat = self.stats.setdefault((self.phase, key), [0, 0.0, 0.0])
                for i, value in enumerate(cell):
                    stat[i] += value
            cell[:] = [0] * len(cell)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        sites = {
            name: module
            for name, module in sys.modules.items()
            if module is not None and (name == "densecrop" or name.startswith("densecrop.") or name == "benchmarks")
        }
        for layer in LAYERS:
            module = sys.modules[f"densecrop.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                key = f"{layer}.{name}"
                for site_name, site in sites.items():
                    for attr, value in list(vars(site).items()):
                        if value is obj:
                            self._patch(site, attr, obj, key, site_name)
        detect = sys.modules["densecrop.detect"]
        # Classes and methods are looked up by name, so a later commit that
        # drops one loses that figure instead of breaking the traced run.
        for cls_name in BACKEND_CLASSES:
            cls = getattr(detect, cls_name, None)
            for name, obj in list(vars(cls).items()) if cls is not None else []:
                if not name.startswith("_") and inspect.isfunction(obj):
                    self._patch(cls, name, obj, f"detect.{cls_name}.{name}", cls_name)
        box = sys.modules["densecrop.geometry"].Box
        if inspect.isfunction(vars(box).get("__post_init__")):
            self._patch(box, "__post_init__", box.__post_init__, "geometry.Box.__post_init__", "Box")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self.flush()

    def _patch(self, owner, attr, original, key, site) -> None:
        cell = [0] if key in COUNT_ONLY else [0, 0.0, 0.0]
        self._cells.append((key, site, cell))
        make = self._counted if len(cell) == 1 else self._timed
        setattr(owner, attr, make(original, key, cell))
        self._patched.append((owner, attr, original))

    # -- wrappers ------------------------------------------------------

    @staticmethod
    def _counted(fn, key, cell):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, fn, key, cell):
        stack = self._stack
        probe = self.probes.get(key)
        timeline = self.timeline if key in TIMELINE else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - frame[1]
                if timeline is not None:
                    timeline.append((self.phase, key, start, end, args[0] if args else None))
            if probe is not None:
                probe(self, args, result, parent)
            return result

        return wrapper
