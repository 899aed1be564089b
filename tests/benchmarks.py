"""Frozen desk-scale benchmark used by the acceptance suite.

The scene generator, crop parameters, detector, and trainer settings below
were calibrated once and are pinned: the toolkit is deterministic, so the
acceptance results are reproducible bit for bit. Scenes hold clusters of
small objects (8-16 px) next to scattered objects spanning medium and
large sizes, with feature noise that shrinks as objects get bigger, which
is what makes zoomed-in crops genuinely easier to classify.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from densecrop.croplab import CropParams
from densecrop.dataset import (
    SceneSample,
    SyntheticConfig,
    UpscalePolicy,
    generate_synthetic_dataset,
    split_dataset,
)
from densecrop.croplab import label_density_crops
from densecrop.detect import OracleBackend, OracleNoiseModel, ToyDetector, ToyDetectorConfig
from densecrop.infer import InferenceConfig, run_inference
from densecrop.metrics import evaluate_ap, recall_by_size
from densecrop.teacher import TrainerConfig, train

BENCH_SEEDS = (1, 2, 4)
TEST_SEED = 777
TRAIN_IMAGES = 30
TEST_IMAGES = 24
NUM_CLASSES = 5
LABELED_FRACTION = 0.1
MAX_ITERS = 1000
BURN_IN_ITERS = 300
CROP_START_ITER = 550
NEVER = 10**9

CROP_PARAMS = CropParams(merge_steps=2, sigma=14.0, theta=0.05, pi=0.4, min_cluster=3)
UPSCALE = UpscalePolicy("factor", factor=4.0)

MODES = ("supervised", "ssod", "crop_l", "crop_lu")


def scene_config(seed: int, num_images: int) -> SyntheticConfig:
    return SyntheticConfig(
        num_images=num_images,
        width=512.0,
        height=512.0,
        num_classes=NUM_CLASSES,
        clusters_per_image=(1, 3),
        objects_per_cluster=(4, 8),
        cluster_spread=26.0,
        small_size=(8.0, 16.0),
        scattered_per_image=(3, 6),
        large_size=(16.0, 90.0),
        payload_noise=0.25,
        seed=seed,
    )


def make_backend(seed: int) -> ToyDetector:
    return ToyDetector(
        ToyDetectorConfig(
            num_base_classes=NUM_CLASSES,
            proposal_jitter=1.0,
            payload_obs_scale=6.0,
            strong_noise_std=0.2,
            strong_cutout=2,
            proposal_crop_params=CROP_PARAMS,
            seed=seed,
        )
    )


def trainer_config(mode: str, seed: int) -> TrainerConfig:
    base = dict(
        learning_rate=0.01,
        lambda_unsup=2.0,
        tau=0.75,
        alpha=0.998,
        data_ratio=4.0,
        labeled_batch=2,
        crop_params=CROP_PARAMS,
        upscale=UPSCALE,
        lr_decay_iter=int(MAX_ITERS * 0.75),
        seed=seed,
    )
    if mode == "supervised":
        return TrainerConfig(
            burn_in_iters=MAX_ITERS, max_iters=MAX_ITERS, crop_start_iter=NEVER, **base
        )
    if mode == "ssod":
        return TrainerConfig(
            burn_in_iters=BURN_IN_ITERS, max_iters=MAX_ITERS, crop_start_iter=NEVER, **base
        )
    if mode == "crop_l":
        return TrainerConfig(
            burn_in_iters=BURN_IN_ITERS,
            max_iters=MAX_ITERS,
            crop_start_iter=NEVER,
            crops_on_labeled=True,
            **base,
        )
    if mode == "crop_lu":
        return TrainerConfig(
            burn_in_iters=BURN_IN_ITERS,
            max_iters=MAX_ITERS,
            crop_start_iter=CROP_START_ITER,
            crops_on_labeled=True,
            **base,
        )
    raise ValueError(f"unknown mode {mode!r}")


def train_variant(seed: int, mode: str):
    samples = generate_synthetic_dataset(scene_config(seed, TRAIN_IMAGES))
    by_id = {s.record.image_id: s for s in samples}
    split = split_dataset(list(by_id), LABELED_FRACTION, seed)
    backend = make_backend(seed)
    state = train(trainer_config(mode, seed), by_id, split, backend)
    return backend, state


def test_split_samples() -> list[SceneSample]:
    return generate_synthetic_dataset(scene_config(TEST_SEED, TEST_IMAGES))


def teacher_ap(backend, state, mode: str, test_samples) -> float:
    inference = InferenceConfig(
        crop_mode="predicted",
        crop_score_threshold=0.25,
        crop_params=CROP_PARAMS,
        upscale=UPSCALE,
        fusion_iou=0.5,
        multistage=mode in ("crop_l", "crop_lu"),
    )
    results = run_inference(test_samples, backend, state.teacher, inference, seed=99)
    gts = {s.record.image_id: list(s.record.annotations) for s in test_samples}
    dets = [(r.image_id, d) for r in results for d in r.detections]
    report = evaluate_ap(gts, dets)
    assert report.ap is not None
    return report.ap


# ---------------------------------------------------------------------------
# Size-dependent-miss oracle benchmark (inference trend)
# ---------------------------------------------------------------------------

ORACLE_NOISE = OracleNoiseModel(
    miss_curve=((0.0, 0.95), (32.0**2, 0.1), (96.0**2, 0.02)),
    jitter_std=1.0,
    score_mean=0.85,
    score_std=0.08,
    fp_rate=1.0,
    seed=4,
)


def oracle_benchmark_samples(num_scenes: int = 100, seed: int = 2024):
    """Scenes whose records also carry ground-truth density-crop boxes."""
    samples = generate_synthetic_dataset(scene_config(seed, num_scenes))
    out = []
    for sample in samples:
        boxes, classes = sample.record.boxes, sample.record.classes
        crops, _ = label_density_crops(boxes, [sample.record.size], CROP_PARAMS, [len(boxes)])
        record = replace(
            sample.record,
            boxes=np.concatenate([boxes, crops]),
            classes=np.concatenate([classes, np.full(len(crops), NUM_CLASSES)]),
        )
        out.append(SceneSample(record=record, scene=sample.scene))
    return out


def oracle_inference_metrics(samples, multistage: bool):
    backend = OracleBackend(num_base_classes=NUM_CLASSES, noise=ORACLE_NOISE)
    inference = InferenceConfig(
        crop_mode="predicted",
        crop_score_threshold=0.5,
        crop_params=CROP_PARAMS,
        max_crops_per_image=8,
        upscale=UPSCALE,
        fusion_iou=0.5,
        multistage=multistage,
    )
    results = run_inference(samples, backend, None, inference, seed=1)
    gts = {
        s.record.image_id: [a for a in s.record.annotations if a.class_id != NUM_CLASSES]
        for s in samples
    }
    dets = [(r.image_id, d) for r in results for d in r.detections]
    recall = recall_by_size(gts, dets)
    report = evaluate_ap(gts, dets)
    return recall, report
