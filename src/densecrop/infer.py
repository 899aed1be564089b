"""Multi-stage inference: detect, zoom into density crops, detect again,
reproject, and fuse.

Stage one runs the backend on the full image. Density crops are then
selected either from the backend's own crop-class predictions (fast) or by
re-running crop labeling on the confident base-class detections (more
accurate, slower). Stage two re-detects on each upscaled crop; those
detections are mapped back to image coordinates, concatenated with the
stage-one base-class detections, and deduplicated with NMS.

Both stages run a chunk of images at a time. A chunk is closed by a
budget of objects, :data:`~densecrop.geometry.CHUNK_OBJECTS`, counted before
any view is built: every kernel of a chunk holds memory in proportion to
its rows and the pairs of them that meet, so a dense image costs its
objects, not their square, and shares its chunk. The chunk stays
one ragged stack of rows from stage one to the fused rows: a ``take`` of
the chunk's images from the input :class:`~densecrop.dataset.SceneStack`,
one backend ``detect_batch`` on it, crop selection over the stacked rows,
one :func:`~densecrop.dataset.make_crop_children` zoom into the stack of
the selected crops' children, one ``detect_batch`` on that, one
reprojection and clipping of the stage-two rows, and one NMS over the
chunk, which checks the box invariant of every fused row, and whose kept
rows are split per image at the end. Results stay (N, 4), (N,) and (N,)
arrays, and crop children stay rows of their stack: no
:class:`Detection`, :class:`~densecrop.geometry.Box` or record is built.
An image's detections do not depend on the chunk it ran in, so one
image's detections are those of a run over a stack of one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .croplab import CropParams, label_density_crops
from .dataset import SceneStack, UpscalePolicy, make_crop_children
from .detect import DetectorBackend, WeightVector, empty_detections
from .errors import ConfigError, InvariantViolation
from .geometry import (
    Detection,
    chunk_bounds,
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
    counts,
    config: InferenceConfig,
    image_sizes: np.ndarray,
    crop_class_id: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pick the crop regions to zoom into from the stage-one detections of
    a ragged stack of images, given as one (boxes, classes, scores) triple
    of rows, image by image, ``counts[i]`` rows in image ``i`` of
    (width, height) ``image_sizes[i]``; returns the (K, 4) crop rows,
    image by image, and each image's crop count, at most
    ``max_crops_per_image``.

    ``predicted`` mode takes each image's crop-class rows above the
    threshold by descending score, ties in row order. ``relabeled`` mode
    labels the confident base-class rows of every image in one
    :func:`label_density_crops` call over the stack. Either way each image
    keeps its first ``max_crops_per_image`` crops.
    """
    boxes, classes, scores = first_pass
    image = np.repeat(np.arange(len(counts)), counts)
    if config.crop_mode == PREDICTED:
        rows = np.flatnonzero((classes == crop_class_id) & (scores > config.crop_score_threshold))
        rows = rows[np.lexsort((-scores[rows], image[rows]))]
        crops, per_image = boxes[rows], np.bincount(image[rows], minlength=len(counts))
    else:
        confident = (classes != crop_class_id) & (scores > config.crop_score_threshold)
        crops, per_image = label_density_crops(
            boxes[confident],
            image_sizes,
            config.crop_params,
            np.bincount(image[confident], minlength=len(counts)),
        )
    cap = config.max_crops_per_image
    rank = np.arange(len(crops)) - np.repeat(np.cumsum(per_image) - per_image, per_image)
    return crops[rank < cap], np.minimum(per_image, cap)


def _detect_chunk(
    scenes: SceneStack,
    backend: DetectorBackend,
    weights: WeightVector | None,
    config: InferenceConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fused (boxes, classes, scores) rows of a chunk, scene after scene,
    and each scene's row count, kept as one stack of rows from stage one
    to the fused rows: one stage-one ``detect_batch`` over the scenes,
    crop selection on the stacked rows, one zoom into every selected
    crop's child and one stage-two ``detect_batch`` over them, whose rows
    are reprojected and clipped at once, and one :func:`nms_keep` over the
    chunk, which checks every fused row. Each scene's rows enter the
    fusion as its stage-one base-class rows, then its stage-two rows in
    crop order."""
    crop_class = backend.crop_class_id
    boxes, classes, scores, counts = backend.detect_batch(weights, scenes)
    image = np.repeat(np.arange(len(scenes)), counts)
    base = classes != crop_class
    blocks = [(boxes[base], classes[base], scores[base], image[base])]
    if config.multistage and config.max_crops_per_image > 0:
        crops, per_image = select_crops(
            (boxes, classes, scores), counts, config, scenes.sizes, crop_class
        )
        owners = np.repeat(np.arange(len(scenes)), per_image)
        # Each crop is a one-row group of its own copy of the parent, so
        # every stage-two child is named ``:crop0``; the toy detector seeds
        # its proposals by image id.
        one_each = np.ones_like(owners)
        children = make_crop_children(scenes.take(owners), crops, one_each, config.upscale)
        if len(children):
            boxes, classes, scores, counts = backend.detect_batch(weights, children)
            base = classes != crop_class
            child = np.repeat(np.arange(len(children)), counts)[base]
            owner = owners[child]
            rows = reproject_rows(boxes[base], crops[child], children.sizes[child])
            rows = clip(rows, 0.0, np.tile(scenes.sizes, 2)[owner])
            blocks.append((rows, classes[base], scores[base], owner))
    boxes, classes, scores, image = (np.concatenate(column) for column in zip(*blocks))
    # A stable sort by image puts each image's stage-one rows first.
    order = np.argsort(image, kind="stable")
    fused = np.bincount(image, minlength=len(scenes))
    kept = order[nms_keep(boxes[order], classes[order], scores[order], config.fusion_iou, fused)]
    return boxes[kept], classes[kept], scores[kept], np.bincount(image[kept], minlength=len(scenes))


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
    scenes: SceneStack,
    backend: DetectorBackend,
    weights: WeightVector | None,
    config: InferenceConfig,
) -> tuple[tuple, str | None]:
    """The fused rows and row counts of a chunk, and its error; a failure
    anywhere in the chunk is every scene's error, with zero rows."""
    try:
        return _detect_chunk(scenes, backend, weights, config), None
    except InvariantViolation:
        raise
    except Exception as exc:  # error record, not a crash
        return empty_detections(len(scenes)), f"{type(exc).__name__}: {exc}"


def run_inference(
    scenes: SceneStack,
    backend: DetectorBackend,
    weights: WeightVector | None,
    config: InferenceConfig,
    seed: int = 0,
) -> list[ImageInferenceResult]:
    """Per-image inference over a stack of scenes, in stack order, one chunk
    of images at a time (:func:`~densecrop.geometry.chunk_bounds`), each
    chunk a ``take`` of the input stack; ``seed`` is accepted and unused.

    Each image's fused detections come in a deterministic order and do not
    depend on the images run beside it. Crop-class predictions never
    appear in them: stage-one crop detections are consumed by crop
    selection and stage-two ones are dropped (no recursive zooming).
    Stage-two rows are reprojected and clipped to the image, so every
    output box lies within it, and every fused row must be a valid box,
    else :class:`InvariantViolation` is raised.

    A backend failure becomes an error record rather than aborting the
    run: a chunk that fails is run again image by image, on the one-scene
    stacks that iterating it yields, so only the failing images get one. An
    :class:`InvariantViolation` is a programming error, not a failure of
    the image, and propagates. Each image's ``seconds`` is its share of its
    chunk's wall time, the take and the retry included.
    """
    results = []
    for start, stop in chunk_bounds(scenes.object_counts.tolist()):
        began = time.perf_counter()
        chunk = scenes.take(np.arange(start, stop))
        fused, error = _attempt(chunk, backend, weights, config)
        runs = [(chunk, fused, error)]
        if error and len(chunk) > 1:
            runs = [(one, *_attempt(one, backend, weights, config)) for one in chunk]
        share = (time.perf_counter() - began) / len(chunk)
        for run, (*fused, counts), error in runs:
            per_image = (np.split(column, np.cumsum(counts)[:-1]) for column in fused)
            for image_id, *rows in zip(run.image_ids, *per_image):
                results.append(ImageInferenceResult(image_id, *rows, share, error))
    return results
