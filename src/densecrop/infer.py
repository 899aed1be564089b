"""Multi-stage inference: detect, zoom into density crops, detect again,
reproject, and fuse.

Stage one runs the backend on the full image. Density crops are then
selected either from the backend's own crop-class predictions (fast) or by
re-running crop labeling on the confident base-class detections (more
accurate, slower). Stage two re-detects on each upscaled crop; those
detections are mapped back to image coordinates, concatenated with the
stage-one base-class detections, and deduplicated with NMS.

Both stages run a chunk of images at a time: one backend ``detect_batch``
for the chunk's full images, then one for the upscaled children of every
crop selected in them. Crop selection and NMS run per image; the
reprojection, clipping and box-invariant check of stage two run once over
the chunk's rows. Results stay (N, 4), (N,) and (N,) arrays: no
:class:`Detection` is built unless ``.detections`` is read. An image's
detections do not depend on the chunk it ran in, so one image's
detections are those of a run over a list of one.
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

__all__ = [
    "InferenceConfig",
    "select_crops",
    "ImageInferenceResult",
    "run_inference",
]

PREDICTED = "predicted"
RELABELED = "relabeled"
# Images per batched pass: each stage builds and decodes a chunk's views
# at once. Larger chunks cut per-call overhead but hold more pair arrays.
CHUNK_SIZE = 32


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
    as one (boxes, classes, scores) triple of ``detect_batch``; returns
    (K, 4) crop rows.

    ``predicted`` mode takes crop-class rows above the threshold by
    descending score, ties in row order.
    """
    boxes, classes, scores = first_pass
    if config.crop_mode == PREDICTED:
        rows = np.flatnonzero((classes == crop_class_id) & (scores > config.crop_score_threshold))
        return boxes[rows[np.argsort(-scores[rows], kind="stable")][: config.max_crops_per_image]]
    confident = (classes != crop_class_id) & (scores > config.crop_score_threshold)
    (crops,) = label_density_crops(
        boxes[confident], [image_size], config.crop_params, [np.count_nonzero(confident)]
    )
    return crops[: config.max_crops_per_image]


def _fuse(blocks: list[tuple], fusion_iou: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    boxes, classes, scores = (np.concatenate(column) for column in zip(*blocks))
    kept = nms_keep(boxes, classes, scores, fusion_iou)
    return boxes[kept], classes[kept], scores[kept]


def _detect_chunk(
    samples: list[SceneSample],
    backend: DetectorBackend,
    weights: WeightVector | None,
    config: InferenceConfig,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Fused (boxes, classes, scores) of each sample of a chunk: one
    stage-one ``detect_batch`` over the samples, crop selection per sample,
    one stage-two ``detect_batch`` over every selected crop's child, whose
    rows are reprojected, clipped and checked at once, and NMS per sample."""
    crop_class = backend.crop_class_id
    firsts = backend.detect_batch(weights, samples)
    blocks = [[tuple(column[first[1] != crop_class] for column in first)] for first in firsts]
    check_boxes(np.concatenate([block[0][0] for block in blocks]))
    crops, owners = [], []
    if config.multistage and config.max_crops_per_image > 0:
        for k, (sample, first) in enumerate(zip(samples, firsts)):
            for crop in select_crops(first, config, sample.record.size, crop_class):
                crops.append(crop[None])
                owners.append(k)
    # Each crop is a one-row group of its parent, so every stage-two child
    # is named ``:crop0``; the toy detector seeds its proposals by image id.
    children = make_crop_children([samples[k] for k in owners], crops, config.upscale)
    if children:
        second = backend.detect_batch(weights, children)
        boxes, classes, scores = (np.concatenate(column) for column in zip(*second))
        base = classes != crop_class
        child = np.repeat(np.arange(len(children)), [len(s) for _, _, s in second])[base]
        owner = np.array(owners)[child]
        sizes = np.array([c.record.size for c in children], dtype=np.float64)[child]
        bounds = np.array([[*s.record.size] * 2 for s in samples], dtype=np.float64)[owner]
        rows = clip(reproject_rows(boxes[base], np.concatenate(crops)[child], sizes), 0.0, bounds)
        check_boxes(rows)
        # Rows come in (owner, crop) order, so each owner's rows are one run.
        at = np.cumsum(np.bincount(owner, minlength=len(samples)))[:-1]
        columns = (np.split(column, at) for column in (rows, classes[base], scores[base]))
        for block, *own in zip(blocks, *columns):
            block.append(tuple(own))
    return [_fuse(own, config.fusion_iou) for own in blocks]


@dataclass(eq=False)
class ImageInferenceResult:
    """One image's fused (N, 4) float64 ``boxes``, (N,) int64 ``classes`` and
    (N,) float64 ``scores``, no rows with an error; ``seconds`` is its share
    of its chunk's wall time. Arrays define no ``==``: compare by identity."""

    image_id: int | str
    boxes: np.ndarray
    classes: np.ndarray
    scores: np.ndarray
    seconds: float
    error: str | None = None

    @property
    def detections(self) -> list[Detection]:
        """The rows as :class:`Detection` objects, built on each read."""
        return detections_from_arrays(self.boxes, self.classes, self.scores)


def _attempt(
    samples: list[SceneSample],
    backend: DetectorBackend,
    weights: WeightVector | None,
    config: InferenceConfig,
) -> list[tuple[tuple, str | None]]:
    """((boxes, classes, scores), error) of each sample of a chunk; a
    failure anywhere in the chunk is every sample's error, with zero rows."""
    try:
        return [(fused, None) for fused in _detect_chunk(samples, backend, weights, config)]
    except InvariantViolation:
        raise
    except Exception as exc:  # error record, not a crash
        empty = (np.zeros((0, 4)), np.zeros(0, dtype=np.int64), np.zeros(0))
        return [(empty, f"{type(exc).__name__}: {exc}")] * len(samples)


def run_inference(
    samples: list[SceneSample],
    backend: DetectorBackend,
    weights: WeightVector | None,
    config: InferenceConfig,
    seed: int = 0,
) -> list[ImageInferenceResult]:
    """Per-image inference over a dataset, in input order, one chunk of
    :data:`CHUNK_SIZE` images at a time; ``seed`` is accepted and unused.

    Each image's fused detections come in a deterministic order and do not
    depend on the images run beside it. Crop-class predictions never
    appear in them: stage-one crop detections are consumed by crop
    selection and stage-two ones are dropped (no recursive zooming).
    Stage-two rows are reprojected and clipped to the image, so every
    output box lies within it, and every fused row must be a valid box,
    else :class:`InvariantViolation` is raised.

    A backend failure becomes an error record rather than aborting the
    run: a chunk that fails is run again image by image, so only the
    failing images get one. An :class:`InvariantViolation` is a
    programming error, not a failure of the image, and propagates. Each
    image's ``seconds`` is its share of its chunk's wall time, the retry
    included.
    """
    results = []
    for start in range(0, len(samples), CHUNK_SIZE):
        chunk = samples[start : start + CHUNK_SIZE]
        began = time.perf_counter()
        outcomes = _attempt(chunk, backend, weights, config)
        if len(chunk) > 1 and any(error for _, error in outcomes):
            outcomes = [_attempt([sample], backend, weights, config)[0] for sample in chunk]
        share = (time.perf_counter() - began) / len(chunk)
        results += [
            ImageInferenceResult(sample.record.image_id, *fused, share, error)
            for sample, (fused, error) in zip(chunk, outcomes)
        ]
    return results
