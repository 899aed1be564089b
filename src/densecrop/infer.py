"""Multi-stage inference: detect, zoom into density crops, detect again,
reproject, and fuse.

Stage one runs the backend on the full image. Density crops are then
selected either from the backend's own crop-class predictions (fast) or by
re-running crop labeling on the confident base-class detections (more
accurate, slower). Stage two re-detects on each upscaled crop; those
detections are mapped back to image coordinates, concatenated with the
stage-one base-class detections, and deduplicated with NMS.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .croplab import CropParams, label_density_crops
from .dataset import SceneSample, UpscalePolicy, make_crop_children
from .detect import DetectorBackend, WeightVector
from .errors import ConfigError, InvariantViolation
from .geometry import Box, Detection, nms, reproject
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
    first_pass: list[Detection],
    config: InferenceConfig,
    image_size: tuple[float, float],
    crop_class_id: int,
) -> list[Box]:
    """Pick the crop regions to zoom into from stage-one detections."""
    if config.crop_mode == PREDICTED:
        candidates = [
            d for d in first_pass
            if d.class_id == crop_class_id and d.score > config.crop_score_threshold
        ]
        candidates.sort(key=lambda d: -d.score)
        return [d.box for d in candidates[: config.max_crops_per_image]]
    confident = [
        d.box for d in first_pass
        if d.class_id != crop_class_id and d.score > config.crop_score_threshold
    ]
    crops = label_density_crops(confident, image_size, config.crop_params)
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
    dropped (no recursive zooming). All output boxes lie within the image.
    """
    record = sample.record
    crop_class = backend.crop_class_id
    stage1 = backend.detect(weights, sample, "none", seed=seed)
    base = [d for d in stage1 if d.class_id != crop_class]
    if not config.multistage or config.max_crops_per_image == 0:
        return nms(base, config.fusion_iou)

    crops = select_crops(stage1, config, record.size, crop_class)
    fused = list(base)
    for index, crop in enumerate(crops):
        out_size = config.upscale.output_size(crop)
        child = make_crop_children(sample, [crop], config.upscale)[0]
        stage2 = backend.detect(
            weights, child, "none", seed=stable_int(seed) ^ stable_int(f"stage2-{index}")
        )
        for det in stage2:
            if det.class_id == crop_class:
                continue
            mapped = reproject(det.box, crop, out_size)
            clipped = Box(
                min(max(mapped.x1, 0.0), record.width),
                min(max(mapped.y1, 0.0), record.height),
                min(max(mapped.x2, 0.0), record.width),
                min(max(mapped.y2, 0.0), record.height),
            )
            fused.append(Detection(box=clipped, class_id=det.class_id, score=det.score))
    return nms(fused, config.fusion_iou)


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
