"""The benchmark workloads, driven through densecrop's public API.

Each workload has a ``setup`` (timed as ``setup_s``), a measured ``unit``
that the harness repeats for the run length, and a ``post`` step that the
traced run uses to report the AP of what the workload produced. Calls go
through module attributes (``teacher.train``, never a name imported from
it) so that the tracer's wrappers see them.

Inputs come from the workload seed. ``--seed n`` selects input set
``(n - 1) mod POOL`` of a fixed pool; ``expected.json`` holds the
reference output of every input set, so every run checks its outputs
exactly, whatever its seed. ``record.py`` rewrites that file.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

import benchmarks as pinned  # the pinned desk-scale configs in tests/benchmarks.py
from densecrop import dataset, infer, metrics, teacher

POOL = 16
TRAIN_SEED_BASE = 1  # train scene sets use scene seeds 1..16
TEST_SEED_BASE = 1000  # test splits use scene seeds 1000..1015, disjoint from training
TEACHER_SEED = 1  # the teacher that infer_toy and eval_dense serve is pinned

# The pinned crop_lu schedule takes 1000 iterations (about 70 s on a
# 2-core Xeon), more than one run may last. The benchmark compresses it
# by COMPRESSION: a tenth of the iterations in the same proportions (30 %
# burn-in, 25 % pseudo-labels only, 45 % with crop discovery), with the
# learning rate and the EMA step scaled up by the same factor, so the
# teacher becomes confident enough for crop discovery to find crops.
COMPRESSION = 10
TINY_COMPRESSION = 50
TEST_IMAGES = 400
TINY_TEST_IMAGES = 40
# The served teacher: the compressed burn-in plus a few teacher-student
# iterations, enough to reach every training phase once.
TEACHER_SSOD_ITERS = 3
TEACHER_CROP_ITERS = 4

INFERENCE = infer.InferenceConfig(
    crop_mode="predicted",
    crop_score_threshold=0.25,
    crop_params=pinned.CROP_PARAMS,
    upscale=pinned.UPSCALE,
    fusion_iou=0.5,
    multistage=True,
)
INFERENCE_SEED = 99


def input_seed(base: int, seed: int, k: int = 0) -> int:
    return base + (seed - 1 + k) % POOL


def compressed_config(seed: int, compression: int) -> teacher.TrainerConfig:
    base = pinned.trainer_config("crop_lu", seed)
    return replace(
        base,
        max_iters=pinned.MAX_ITERS // compression,
        burn_in_iters=pinned.BURN_IN_ITERS // compression,
        crop_start_iter=pinned.CROP_START_ITER // compression,
        lr_decay_iter=base.lr_decay_iter // compression,
        learning_rate=base.learning_rate * compression,
        alpha=1.0 - (1.0 - base.alpha) * compression,
    )


def train_inputs(scene_seed: int):
    samples = dataset.generate_synthetic_dataset(pinned.scene_config(scene_seed, pinned.TRAIN_IMAGES))
    by_id = {s.record.image_id: s for s in samples}
    split = dataset.split_dataset(list(by_id), pinned.LABELED_FRACTION, scene_seed)
    return by_id, split, pinned.make_backend(scene_seed)


def served_teacher(compression: int):
    config = compressed_config(TEACHER_SEED, compression)
    crop_start = config.burn_in_iters + TEACHER_SSOD_ITERS
    config = replace(config, crop_start_iter=crop_start, max_iters=crop_start + TEACHER_CROP_ITERS - 1)
    by_id, split, backend = train_inputs(TEACHER_SEED)
    return backend, teacher.train(config, by_id, split, backend).teacher


def test_split(scene_seed: int, images: int):
    samples = dataset.generate_synthetic_dataset(pinned.scene_config(scene_seed, images))
    gts = {s.record.image_id: list(s.record.annotations) for s in samples}
    return samples, gts


def run_inference(samples, backend, weights):
    # run_inference defaults to workers=1: one image at a time, in order.
    return infer.run_inference(samples, backend, weights, INFERENCE, seed=INFERENCE_SEED)


def weights_digest(weights) -> str:
    return hashlib.sha256(np.ascontiguousarray(weights.values).tobytes()).hexdigest()


def detections_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.image_id}\n".encode())
        for d in r.detections:
            h.update(repr((d.class_id, d.score, d.box.as_tuple())).encode())
    return h.hexdigest()


def flat_dets(results) -> list:
    return [(r.image_id, d) for r in results for d in r.detections]


def eval_fingerprint(report, profile) -> dict:
    return {
        "ap": [report.ap, report.ap50, report.ap75, report.ap_small, report.ap_medium, report.ap_large],
        "per_class": [[c, v] for c, v in sorted(report.per_class.items())],
        "errors": dict(profile.counts),
        "true_positives": profile.true_positives,
        "false_positives": profile.false_positives,
    }


def same_fingerprint(got, want, tol: float = 1e-9) -> bool:
    """Exact for strings, counts and None; AP floats within ``tol``."""
    if isinstance(want, float) or isinstance(got, float):
        return isinstance(got, (int, float)) and isinstance(want, (int, float)) and abs(got - want) <= tol
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            same_fingerprint(got[k], want[k], tol) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            same_fingerprint(g, w, tol) for g, w in zip(got, want)
        )
    return got == want


def quality(gts, dets) -> dict:
    """AP of a detection set; the error profile runs too, as in a user's
    evaluation, so that a traced post step measures both."""
    report = metrics.evaluate_ap(gts, dets)
    metrics.profile_errors(gts, dets)
    return {"ap": report.ap, "ap_small": report.ap_small}


@dataclass
class Unit:
    """One measured unit: its wall time, its items and their latencies,
    and the check of its output against the recorded reference."""

    input_seed: int
    wall_s: float
    items: int
    latencies_s: list
    attempted: int
    failed: int
    fingerprint: object = None
    extra: dict = field(default_factory=dict)
    slowdown: float = 1.0  # host slowdown around the unit, set by the harness


class Workload:
    name = ""
    setup_repeats = 3
    attempts_per_unit = 1

    def __init__(self, seed: int, tiny: bool, expected: dict | None):
        self.seed = seed
        self.compression = TINY_COMPRESSION if tiny else COMPRESSION
        self.test_images = TINY_TEST_IMAGES if tiny else TEST_IMAGES
        # None while recording: there is no reference to check against yet.
        self.expected = None if expected is None else expected[self.name]["tiny" if tiny else "full"]

    def check(self, scene_seed: int, fingerprint) -> bool:
        if self.expected is None:
            return True
        want = self.expected.get(str(scene_seed))
        return want is not None and same_fingerprint(fingerprint, want)


class TrainCropLU(Workload):
    """One ``teacher.train`` call per unit, crop_lu mode, on a 30-image
    scene set; each unit takes the next scene set of the pool."""

    name = "train_crop_lu"
    setup_repeats = 5

    def setup(self):
        self.inputs = train_inputs(input_seed(TRAIN_SEED_BASE, self.seed))
        self.test = test_split(pinned.TEST_SEED, pinned.TEST_IMAGES)
        self.last = None

    def unit(self, k: int) -> Unit:
        scene_seed = input_seed(TRAIN_SEED_BASE, self.seed, k)
        by_id, split, backend = self.inputs if k == 0 else train_inputs(scene_seed)
        config = compressed_config(scene_seed, self.compression)
        ends: list = []
        ema = teacher.ema_update

        def timed_ema(*args, **kwargs):
            out = ema(*args, **kwargs)
            ends.append(time.perf_counter())
            return out

        teacher.ema_update = timed_ema
        try:
            start = time.perf_counter()
            state = teacher.train(config, by_id, split, backend)
            wall = time.perf_counter() - start
        finally:
            teacher.ema_update = ema
        self.last = (backend, state.teacher)
        fingerprint = weights_digest(state.teacher)
        ok = self.check(scene_seed, fingerprint)
        return Unit(
            input_seed=scene_seed,
            wall_s=wall,
            items=config.max_iters,
            latencies_s=list(np.diff(ends)),
            attempted=1,
            failed=0 if ok else 1,
            fingerprint=fingerprint,
            extra={"crops_cached": state.history[-1].crops_cached},
        )

    def post(self) -> dict:
        backend, weights = self.last
        samples, gts = self.test
        return quality(gts, flat_dets(run_inference(samples, backend, weights)))


class InferToy(Workload):
    """``infer.run_inference`` over a fresh test split per unit, so every
    image is seen once, with a teacher trained in setup."""

    name = "infer_toy"

    @property
    def attempts_per_unit(self) -> int:
        return self.test_images

    def setup(self):
        self.backend, self.weights = served_teacher(self.compression)
        self.first = test_split(input_seed(TEST_SEED_BASE, self.seed), self.test_images)
        self.last = None

    def unit(self, k: int) -> Unit:
        scene_seed = input_seed(TEST_SEED_BASE, self.seed, k)
        samples, gts = self.first if k == 0 else test_split(scene_seed, self.test_images)
        start = time.perf_counter()
        results = run_inference(samples, self.backend, self.weights)
        wall = time.perf_counter() - start
        self.last = (gts, results)
        errors = sum(1 for r in results if r.error is not None)
        fingerprint = detections_digest(results)
        failed = errors if self.check(scene_seed, fingerprint) else len(results)
        return Unit(
            input_seed=scene_seed,
            wall_s=wall,
            items=len(results),
            latencies_s=[r.seconds for r in results],
            attempted=len(results),
            failed=failed,
            fingerprint=fingerprint,
        )

    def post(self) -> dict:
        gts, results = self.last
        return quality(gts, flat_dets(results))


class EvalDense(Workload):
    """``metrics.evaluate_ap`` then ``metrics.profile_errors`` on a dense
    detection dump that setup makes with the infer_toy pipeline."""

    name = "eval_dense"

    def setup(self):
        backend, weights = served_teacher(self.compression)
        self.scene_seed = input_seed(TEST_SEED_BASE, self.seed)
        samples, self.gts = test_split(self.scene_seed, self.test_images)
        self.dets = flat_dets(run_inference(samples, backend, weights))
        self.report = None

    def unit(self, k: int) -> Unit:
        start = time.perf_counter()
        report = metrics.evaluate_ap(self.gts, self.dets)
        profile = metrics.profile_errors(self.gts, self.dets)
        wall = time.perf_counter() - start
        self.report = report
        fingerprint = eval_fingerprint(report, profile)
        ok = self.check(self.scene_seed, fingerprint)
        return Unit(
            input_seed=self.scene_seed,
            wall_s=wall,
            items=len(self.dets),
            latencies_s=[wall],
            attempted=1,
            failed=0 if ok else 1,
            fingerprint=fingerprint,
        )

    def post(self) -> dict:
        return {"ap": self.report.ap, "ap_small": self.report.ap_small}


WORKLOADS = {w.name: w for w in (TrainCropLU, InferToy, EvalDense)}
