"""Multi-stage inference: detect, zoom into density crops, detect again,
reproject, and fuse.

Stage one runs the backend on the full image. Density crops are then
selected either from the backend's own crop-class predictions (fast) or by
re-running crop labeling on the confident base-class detections (more
accurate, slower). Stage two re-detects on each upscaled crop; those
detections are mapped back to image coordinates, concatenated with the
stage-one base-class detections, and deduplicated with NMS.

Both stages stay on the backend's ``detect_arrays`` rows: crop selection,
reprojection, clipping, the box-invariant check and NMS all run on (N, 4)
arrays, and :class:`Detection` objects are built once, for the rows NMS
keeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .croplab import CropParams, label_density_crops
from .dataset import SceneSample, UpscalePolicy, make_crop_children
from .detect import DetectorBackend, WeightVector
from .errors import ConfigError, InvariantViolation
from .geometry import (
    Detection,
    check_boxes,
    clip,
    detections_from_arrays,
    nms_keep,
    reproject_rows,
)
from .seeding import stable_int

__all__ = [
    "InferenceConfig",
    "select_crops",
    "detect_multistage",
    "ImageInferenceResult",
    "run_inference",
]

PREDICTED = "predicted"
RELABELED = "relabeled"


@dataclass(frozen=True)
class InferenceConfig:
    """Crop selection mode plus fusion knobs.

    ``predicted`` mode keeps crop-class detections above
    ``crop_score_threshold``; ``relabeled`` mode runs the crop-labeling
    algorithm over confident base-class detections. Crops are capped at
    ``max_crops_per_image`` either way. ``multistage=False`` skips crops
    entirely and just NMS-filters stage one.
    """

    crop_mode: str = PREDICTED
    crop_score_threshold: float = 0.5
    crop_params: CropParams = field(default_factory=CropParams)
    max_crops_per_image: int = 8
    upscale: UpscalePolicy = field(default_factory=UpscalePolicy)
    fusion_iou: float = 0.5
    multistage: bool = True

    def __post_init__(self) -> None:
        if self.crop_mode not in (PREDICTED, RELABELED):
            raise ConfigError(f"unknown crop_mode {self.crop_mode!r}")
        if not (0.0 <= self.crop_score_threshold <= 1.0):
            raise ConfigError("crop_score_threshold must be in [0, 1]")
        if self.max_crops_per_image < 0:
            raise ConfigError("max_crops_per_image must be >= 0")
        if not (0.0 < self.fusion_iou <= 1.0):
            raise ConfigError("fusion_iou must be in (0, 1]")


def select_crops(
    first_pass: tuple[np.ndarray, np.ndarray, np.ndarray],
    config: InferenceConfig,
    image_size: tuple[float, float],
    crop_class_id: int,
) -> np.ndarray:
    """Pick the crop regions to zoom into from stage-one detections, given
    as the (boxes, classes, scores) arrays of ``detect_arrays``; returns
    (K, 4) crop rows.

    ``predicted`` mode takes crop-class rows above the threshold by
    descending score, ties in row order.
    """
    boxes, classes, scores = first_pass
    if config.crop_mode == PREDICTED:
        rows = np.flatnonzero((classes == crop_class_id) & (scores > config.crop_score_threshold))
        return boxes[rows[np.argsort(-scores[rows], kind="stable")][: config.max_crops_per_image]]
    confident = (classes != crop_class_id) & (scores > config.crop_score_threshold)
    crops = label_density_crops(boxes[confident], image_size, config.crop_params)
    return crops[: config.max_crops_per_image]


def detect_multistage(
    sample: SceneSample,
    backend: DetectorBackend,
    weights: WeightVector | None,
    config: InferenceConfig,
    seed: int = 0,
) -> list[Detection]:
    """Fused detections for one image, in deterministic order.

    Crop-class predictions never appear in the output: stage-one crop
    detections are consumed by crop selection and stage-two ones are
    dropped (no recursive zooming). Stage-two rows are reprojected and
    clipped to the image, and every fused row must be a valid box, else
    :class:`InvariantViolation` is raised. All output boxes lie within
    the image.
    """
    record = sample.record
    crop_class = backend.crop_class_id
    first = backend.detect_arrays(weights, sample, "none", seed=seed)
    base = first[1] != crop_class
    blocks = [tuple(column[base] for column in first)]
    check_boxes(blocks[0][0])
    if config.multistage and config.max_crops_per_image > 0:
        bounds = np.array([record.width, record.height] * 2, dtype=np.float64)
        for index, crop in enumerate(select_crops(first, config, record.size, crop_class)):
            # One child per call, so every stage-two child is named
            # ``:crop0``; the toy detector seeds its proposals by image id.
            child = make_crop_children(sample, crop[None], config.upscale)[0]
            boxes, classes, scores = backend.detect_arrays(
                weights, child, "none", seed=stable_int(seed) ^ stable_int(f"stage2-{index}")
            )
            base = classes != crop_class
            prov = child.record.provenance
            clipped = clip(reproject_rows(boxes[base], prov.crop_box, prov.upscale_size), 0.0, bounds)
            check_boxes(clipped)
            blocks.append((clipped, classes[base], scores[base]))
    boxes, classes, scores = (np.concatenate(column) for column in zip(*blocks))
    kept = nms_keep(boxes, classes, scores, config.fusion_iou)
    return detections_from_arrays(boxes[kept], classes[kept], scores[kept])


@dataclass
class ImageInferenceResult:
    image_id: int | str
    detections: list[Detection]
    seconds: float
    error: str | None = None


def run_inference(
    samples: list[SceneSample],
    backend: DetectorBackend,
    weights: WeightVector | None,
    config: InferenceConfig,
    seed: int = 0,
) -> list[ImageInferenceResult]:
    """Per-image inference over a dataset, one image at a time in input
    order.

    Each image's seed derives from ``seed`` and its id alone. A backend
    failure becomes an error record for that image rather than aborting
    the run; an :class:`InvariantViolation` is a programming error, not a
    failure of the image, and propagates.
    """
    results = []
    for sample in samples:
        image_id = sample.record.image_id
        start = time.perf_counter()
        error = None
        try:
            dets = detect_multistage(
                sample, backend, weights, config,
                seed=stable_int(seed) ^ stable_int(image_id),
            )
        except InvariantViolation:
            raise
        except Exception as exc:  # error record, not a crash
            dets, error = [], f"{type(exc).__name__}: {exc}"
        results.append(
            ImageInferenceResult(image_id, dets, time.perf_counter() - start, error)
        )
    return results
