"""Detection backends.

Two backends implement the same contract. ``OracleBackend`` derives
detections directly from scene ground truth through a configurable noise
model (size-dependent misses, localization jitter, background false
positives); it needs no training and drives the inference-pipeline tests.
``ToyDetector`` is a small trainable linear model over hand-built scene
features with analytic gradients. Its one view type is the
:class:`ViewStack`: it builds the views of many images in one pass as one
stack, the mean-teacher trainer hands it each iteration's views as one
stack, and multistage inference asks it for a chunk of images at a time
through ``detect_batch``. Both backends read their images from a
:class:`~densecrop.dataset.SceneStack`, and the toy detector's kernels
(:func:`extract_features`, :func:`toy_forward`,
:meth:`ToyDetector.augment`) take a ragged stack and its per-view row
counts, and nothing else: a single view is a stack of one.

The contract is that one method: un-augmented detections of a stack of
scenes as rows with per-scene counts, deterministic given (weights,
scenes). Both backends can emit the reserved density-crop class (id
``num_base_classes``) in addition to the base classes.
"""

from __future__ import annotations

import abc
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .croplab import CropParams, label_density_crops
from .dataset import SceneStack
from .errors import ConfigError, DataError, InvariantViolation
from .geometry import (
    Box,
    Detection,
    box_areas,
    clip,
    group_pairs,
    meeting_pairs_across,
    overlap_ious,
)
from .seeding import normals_for, rng_for, rngs_for, stable_int

__all__ = [
    "WeightLayout",
    "WeightVector",
    "OracleNoiseModel",
    "oracle_detect",
    "extract_features",
    "feature_dim",
    "toy_forward",
    "ViewStack",
    "SupervisedBatch",
    "UnsupervisedBatch",
    "LossResult",
    "loss_sup",
    "loss_unsup",
    "assign_targets",
    "DetectorBackend",
    "empty_detections",
    "OracleBackend",
    "ToyDetector",
    "ToyDetectorConfig",
    "write_detections",
    "read_detections",
]

# Feature vector layout (K = number of base classes):
#   0       normalized log proposal area
#   1       log aspect ratio, clamped to [1/8, 8]
#   2..3    normalized center (cx/W, cy/H)
#   4       max IoU with any scene object
#   5       fraction of proposal area covered by objects (capped at 1)
#   6       log-scaled count of object centers inside the proposal
#   7       mean covered fraction of intersecting objects
#   8..8+K  class payload block (overlap-weighted object payload average)
_GEOM_FEATURES = 8
_ASPECT_CAP = 8.0
_CENTER_COUNT_CAP = 32.0
_MIN_SIDE = 1e-3
# The stable_int words of the constant seeding tags.
_PAYLOAD_OBS = stable_int("payload-obs")
_PROPOSALS = stable_int("proposals")
# A (proposal, class) pair scoring above EMIT_FLOOR is a detection; a
# proposal the teacher scores background above BG_TAU is a confident
# background target for the student.
EMIT_FLOOR = 0.15
BG_TAU = 0.9


def feature_dim(num_base_classes: int) -> int:
    return _GEOM_FEATURES + num_base_classes


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightLayout:
    """Shape of the flat weight vector: classifier block then regressor block.

    The classifier has ``num_outputs`` rows (base classes, density-crop
    class, background) and the regressor 4 rows (corner offsets); both act
    on the feature vector plus a bias input.
    """

    feature_dim: int
    num_outputs: int

    @property
    def columns(self) -> int:
        return self.feature_dim + 1

    @property
    def cls_size(self) -> int:
        return self.num_outputs * self.columns

    @property
    def reg_size(self) -> int:
        return 4 * self.columns

    @property
    def total(self) -> int:
        return self.cls_size + self.reg_size


@dataclass(frozen=True)
class WeightVector:
    """Flat parameter vector with a named layout.

    ``values`` is a read-only copy of the array the vector was built from,
    so weights only ever change by building a new vector.
    """

    layout: WeightLayout
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.values.shape != (self.layout.total,):
            raise InvariantViolation(
                f"weight vector has {self.values.shape} values, layout wants ({self.layout.total},)"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvariantViolation("weight vector contains non-finite entries")

    def cls_matrix(self) -> np.ndarray:
        return self.values[: self.layout.cls_size].reshape(self.layout.num_outputs, self.layout.columns)

    def reg_matrix(self) -> np.ndarray:
        return self.values[self.layout.cls_size :].reshape(4, self.layout.columns)

    def replace_values(self, values: np.ndarray) -> "WeightVector":
        return WeightVector(layout=self.layout, values=values)


# ---------------------------------------------------------------------------
# Oracle backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleNoiseModel:
    """Noise model turning ground truth into imperfect detections.

    ``miss_curve`` is a step function over object pixel area given as
    (area, probability) breakpoints starting at area 0 with non-increasing
    probabilities, evaluated at the area of each annotation in the image
    it is given. On an upscaled crop child that area is the upscaled one,
    which is how zooming in rescues small objects.
    """

    miss_curve: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    jitter_std: float = 0.0
    score_mean: float = 0.9
    score_std: float = 0.05
    fp_rate: float = 0.0
    fp_score_range: tuple[float, float] = (0.1, 0.5)
    emit_crops: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.miss_curve or self.miss_curve[0][0] != 0.0:
            raise ConfigError("miss_curve must start with a breakpoint at area 0")
        prev_area, prev_prob = -1.0, 1.0
        for area, prob in self.miss_curve:
            if area <= prev_area:
                raise ConfigError("miss_curve areas must be strictly increasing")
            if not (0.0 <= prob <= 1.0):
                raise ConfigError(f"miss probability {prob} outside [0, 1]")
            if prob > prev_prob and prev_area >= 0.0:
                raise ConfigError("miss_curve must be non-increasing in area")
            prev_area, prev_prob = area, prob
        for name in ("jitter_std", "score_mean", "score_std", "fp_rate"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if value < 0 and name != "score_mean":
                raise ConfigError(f"{name} must be >= 0, got {value}")
        lo, hi = self.fp_score_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ConfigError(
                f"fp_score_range {self.fp_score_range} must satisfy 0 <= lo <= hi <= 1"
            )

    def miss_probability(self, area: float) -> float:
        prob = self.miss_curve[0][1]
        for bp_area, bp_prob in self.miss_curve:
            if area >= bp_area:
                prob = bp_prob
            else:
                break
        return prob


def _uniform(low, high, u: np.ndarray) -> np.ndarray:
    """``Generator.uniform(low, high)`` values from its ``random()`` draws
    ``u``: numpy computes ``low + (high - low) * random()``."""
    return low + (high - low) * u


def _safe_box(boxes: np.ndarray, width, height) -> np.ndarray:
    """(x1, y1, x2, y2) rows clipped to the image, with degenerate sides
    padded to ``_MIN_SIDE`` around their clipped centre, so every row is a
    valid :class:`Box`. The image size is one scalar pair or one per row."""
    half = _MIN_SIDE / 2.0
    out = np.empty_like(boxes)
    for lo, hi, size in ((0, 2, width), (1, 3, height)):
        a, b = clip(boxes[:, lo], 0.0, size), clip(boxes[:, hi], 0.0, size)
        centre = clip((a + b) / 2.0, half, size - half)
        thin = b - a < _MIN_SIDE
        out[:, lo] = np.where(thin, centre - half, a)
        out[:, hi] = np.where(thin, centre + half, b)
    return out


def oracle_detect(
    scenes: SceneStack, noise: OracleNoiseModel, num_base_classes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Noisy detections for the annotation rows of a stack of scenes, as
    (N, 4) float64 box rows, (N,) int64 class ids and (N,) float64 scores,
    scene after scene, and each scene's (M,) int64 row count.

    Each annotation survives with probability 1 - miss(area), gets a
    jittered box and a sampled score; background false positives of a
    random base class are appended at a Poisson rate. Every box is clipped
    to its image. Each scene draws from its own generator,
    ``rng_for(noise seed, "oracle", image id)``, all derived in one
    :func:`rngs_for` call from the scenes' id words.
    """
    rngs = rngs_for((noise.seed, "oracle"), scenes.id_words.reshape(-1, 1))
    ends = np.cumsum(scenes.counts).tolist()
    rows, classes_of = scenes.boxes.tolist(), scenes.classes.tolist()
    found: list[tuple] = []  # (x1, y1, x2, y2, class, score) before clipping
    done = []  # rows found after each scene
    for rng, (width, height), start, end in zip(rngs, scenes.sizes.tolist(), [0] + ends, ends):
        for (x1, y1, x2, y2), class_id in zip(rows[start:end], classes_of[start:end]):
            if class_id == num_base_classes and not noise.emit_crops:
                continue
            if rng.random() < noise.miss_probability((x2 - x1) * (y2 - y1)):
                continue
            jit = rng.normal(0.0, noise.jitter_std, 4) if noise.jitter_std > 0 else np.zeros(4)
            score = float(np.clip(rng.normal(noise.score_mean, noise.score_std), 0.05, 1.0))
            found.append((x1 + jit[0], y1 + jit[1], x2 + jit[2], y2 + jit[3], class_id, score))
        if noise.fp_rate > 0:
            for _ in range(int(rng.poisson(noise.fp_rate))):
                w = float(rng.uniform(4.0, max(8.0, width / 4.0)))
                h = float(rng.uniform(4.0, max(8.0, height / 4.0)))
                x = float(rng.uniform(0.0, max(width - w, _MIN_SIDE)))
                y = float(rng.uniform(0.0, max(height - h, _MIN_SIDE)))
                score = float(rng.uniform(*noise.fp_score_range))
                found.append((x, y, x + w, y + h, int(rng.integers(0, num_base_classes)), score))
        done.append(len(found))
    found = np.array(found, dtype=np.float64).reshape(-1, 6)
    counts = np.diff(np.array(done, dtype=np.int64), prepend=0)
    size = np.repeat(scenes.sizes, counts, axis=0)
    boxes = _safe_box(found[:, :4], size[:, 0], size[:, 1])
    return boxes, found[:, 4].astype(np.int64), np.ascontiguousarray(found[:, 5]), counts


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------


# numpy sums floats pairwise: fewer than 8 values one after another, up
# to _PAIRWISE_BLOCK values through 8 accumulators, and longer runs as two
# halves split near the middle.
_PAIRWISE_BLOCK = 128


def _pairwise_sum(values: np.ndarray) -> np.ndarray:
    """``np.sum`` of each row of an (R, n, ...) block along axis 1, bit for
    bit: 0.0 plus numpy's pairwise sum of the row's n entries."""
    n = values.shape[1]
    if n > _PAIRWISE_BLOCK:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:, :half]) + _pairwise_sum(values[:, half:])
    total = np.zeros((len(values),) + values.shape[2:])
    blocked = n - n % 8 if n >= 8 else 0
    if blocked:
        acc = values[:, :8].copy()
        for i in range(8, blocked, 8):
            acc += values[:, i : i + 8]
        total += ((acc[:, 0] + acc[:, 1]) + (acc[:, 2] + acc[:, 3])) + (
            (acc[:, 4] + acc[:, 5]) + (acc[:, 6] + acc[:, 7])
        )
    for i in range(blocked, n):
        total += values[:, i]
    return total


def _run_means(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.mean`` of each run of ``values`` rows, bit for bit. The runs lie
    one after another, ``counts[r] > 0`` rows in run ``r``; runs of one
    length are summed as one block."""
    means = np.empty((len(counts),) + values.shape[1:])
    starts = np.cumsum(counts) - counts
    for n in sorted(set(counts.tolist())):
        runs = np.flatnonzero(counts == n)
        means[runs] = _pairwise_sum(values[starts[runs, None] + np.arange(n)]) / n
    return means


def _object_features(phi, scenes: SceneStack, props, area, row_scene, k: int) -> np.ndarray:
    """Fill columns 4 to 7 and the payload block of the feature rows
    ``phi`` from the own-scene objects of each proposal, given as (4, N)
    x1, y1, x2, y2 rows ``props`` with areas ``area``, and return each
    row's payload-noise reference area: the mean area of the objects it
    covers, or its own area if it covers none.

    Only the pairs whose boxes meet
    (:func:`~densecrop.geometry.meeting_pairs_across`) get the per-pair
    work. A pair that does not overlap would add only zeros (+0.0, or -0.0
    to a payload sum), which never change a sum that starts at +0.0, so
    summing each row's covered pairs in object order gives the bits of
    summing all its pairs.
    """
    n = len(row_scene)
    x1, y1, x2, y2 = props
    ox1, oy1, ox2, oy2 = scenes.object_boxes.T
    item, obj, iw, ih = meeting_pairs_across(
        props.T, row_scene, scenes.object_boxes, scenes.object_counts
    )
    cx, cy = (ox1[obj] + ox2[obj]) / 2.0, (oy1[obj] + oy2[obj]) / 2.0
    inside = (x1[item] <= cx) & (cx < x2[item]) & (y1[item] <= cy) & (cy < y2[item])
    centers_inside = np.minimum(np.bincount(item[inside], minlength=n), _CENTER_COUNT_CAP)
    inter = iw * ih
    hit = np.flatnonzero(inter > 0.0)
    item, obj, inter = item[hit], obj[hit], inter[hit]
    n_covered = np.bincount(item, minlength=n)
    obj_area = (ox2[obj] - ox1[obj]) * (oy2[obj] - oy1[obj])
    frac = inter / obj_area
    best_iou = np.zeros(n)
    # iou_matrix's formula
    np.maximum.at(best_iou, item, inter / (area[item] + obj_area - inter))

    # The covered pairs come row by row, each row's in object order, and
    # bincount adds each bin's weights one after another from 0.0.
    def row_sums(weights):
        return np.bincount(item, weights, n)

    frac_sum = row_sums(frac)
    phi[:, 4] = best_iou
    phi[:, 5] = np.minimum(row_sums(inter) / area, 1.0)
    phi[:, 6] = np.log1p(centers_inside) / np.log1p(_CENTER_COUNT_CAP)
    payloads = scenes.object_payloads[:, :k].reshape(-1, k)
    for c in range(k):
        phi[:, _GEOM_FEATURES + c] = row_sums(frac * payloads[obj, c]) / np.maximum(frac_sum, 1.0)

    # np.mean of each row's covered fractions and object areas. numpy sums
    # fewer than 8 values one after another from 0.0, so those rows' means
    # are their sums over their counts; rows covering 8 or more take them
    # from their own covered pairs.
    means = np.zeros((n, 2))
    some = n_covered > 0
    means[some] = np.column_stack([frac_sum, row_sums(obj_area)])[some] / n_covered[some, None]
    long = n_covered >= 8
    means[long] = _run_means(np.column_stack([frac, obj_area])[long[item]], n_covered[long])
    phi[:, 7] = means[:, 0]
    return np.where(some, means[:, 1], area)


def extract_features(
    scenes: SceneStack,
    boxes: np.ndarray,
    num_base_classes: int,
    payload_obs_scale: float,
    counts,
) -> np.ndarray:
    """Deterministic feature matrix, one row per (x1, y1, x2, y2) proposal
    row of ``boxes``.

    ``boxes`` holds the proposals of the stack ``scenes``, ``counts[k]``
    rows of scene ``k``, scene after scene; a single scene is a stack of
    one. Each row depends on its proposal and its own scene alone.

    The payload block is the overlap-weighted average of the payloads of
    intersecting objects, observed through additive noise whose scale
    shrinks with object area, so upscaled crops yield cleaner features than
    the same region at native resolution. Each proposal's noise is what a
    generator seeded by its scene and its coordinates in 1/16 pixels would
    draw; one :func:`normals_for` call draws every row's noise.

    Each row is paired with its own scene's objects only, a block of rows
    at a time, and only the pairs that meet or hold an object's centre are
    kept (about one in ten on toy scenes): no array is sized by proposals
    times objects. Every sum over a row's objects runs in object order, and
    a row covering 8 or more objects takes its means by numpy's pairwise
    summation (:func:`_run_means`) over its covered pairs.
    """
    k = num_base_classes
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (len(scenes),) or (counts < 0).any() or counts.sum() != len(boxes):
        raise InvariantViolation(
            f"feature counts must give each of {len(scenes)} scenes its rows, none negative, "
            f"{len(boxes)} in all; got {counts.size} counts summing to {counts.sum()}"
        )
    row_scene = np.repeat(np.arange(len(counts)), counts)
    props = np.ascontiguousarray(boxes.T)
    x1, y1, x2, y2 = props
    size = scenes.sizes
    width, height = size[row_scene, 0], size[row_scene, 1]
    area = box_areas(boxes)
    phi = np.zeros((len(boxes), feature_dim(k)))
    phi[:, 0] = np.log(np.maximum(area, _MIN_SIDE)) / np.log(size[:, 0] * size[:, 1])[row_scene]
    aspect = clip((x2 - x1) / (y2 - y1), 1.0 / _ASPECT_CAP, _ASPECT_CAP)
    phi[:, 1] = np.log(aspect) / np.log(_ASPECT_CAP)
    phi[:, 2] = (x1 + x2) / 2.0 / width
    phi[:, 3] = (y1 + y2) / 2.0 / height
    ref_area = _object_features(phi, scenes, props, area, row_scene, k)
    if payload_obs_scale > 0:
        sigma = payload_obs_scale / np.sqrt(np.maximum(ref_area, 1.0))
        # rint rounds half to even, as round() does; the mask is stable_int's.
        q = np.rint(boxes * 16.0).astype(np.int64) & 0xFFFFFFFF
        rows = np.column_stack([scenes.seeds[row_scene], np.full(len(q), _PAYLOAD_OBS), q])
        # Generator.normal(0.0, s, K) draws 0.0 + s * z.
        phi[:, _GEOM_FEATURES:] += 0.0 + sigma[:, None] * normals_for((), rows, k)
    return phi


# ---------------------------------------------------------------------------
# Linear model: forward pass and losses
# ---------------------------------------------------------------------------


def _with_bias(features: np.ndarray) -> np.ndarray:
    return np.concatenate([features, np.ones((features.shape[0], 1))], axis=1)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def toy_forward(
    weights: WeightVector, features: np.ndarray, counts
) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities (softmax of linear logits) and linear box offsets.

    The feature rows are a stack of blocks of ``counts`` rows each, and
    the two matmuls run once per block: with OpenBLAS a matmul over stacked
    rows can differ in the last bits from the per-block products. The
    softmax is row by row, so it runs once on the stack.
    """
    if features.shape[-1] != weights.layout.feature_dim:
        raise InvariantViolation(
            f"feature length {features.shape[-1]} does not match layout {weights.layout.feature_dim}"
        )
    phi = _with_bias(np.asarray(features, dtype=np.float64))
    cls, reg = weights.cls_matrix().T, weights.reg_matrix().T
    ends = np.cumsum(counts).tolist()
    blocks = [phi[start:end] for start, end in zip([0] + ends[:-1], ends)]
    logits = np.concatenate([b @ cls for b in blocks])
    return _softmax(logits), np.concatenate([b @ reg for b in blocks])


@dataclass(frozen=True)
class SupervisedBatch:
    """Per-proposal features with class and corner-offset targets."""

    features: np.ndarray
    classes: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class UnsupervisedBatch:
    """Per-proposal features with pseudo-label class targets only."""

    features: np.ndarray
    classes: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class LossResult:
    value: float
    gradient: np.ndarray
    cls_term: float
    reg_term: float


def _cls_loss_and_grad(
    weights: WeightVector, phi: np.ndarray, classes: np.ndarray
) -> tuple[float, np.ndarray]:
    logits = phi @ weights.cls_matrix().T
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(len(classes))
    loss = float(np.sum(log_z - shifted[rows, classes]))
    probs = _softmax(logits)
    dlogits = probs
    dlogits[rows, classes] -= 1.0
    return loss, dlogits.T @ phi


def loss_sup(weights: WeightVector, batch: SupervisedBatch) -> LossResult:
    """Cross-entropy plus smooth-L1 offset loss, summed over the batch.

    The gradient shares the weight vector's flat layout.
    """
    if len(batch) == 0:
        raise InvariantViolation("loss_sup requires a non-empty batch")
    phi = _with_bias(np.asarray(batch.features, dtype=np.float64))
    cls_loss, d_cls = _cls_loss_and_grad(weights, phi, batch.classes)

    pred = phi @ weights.reg_matrix().T
    err = pred - np.asarray(batch.offsets, dtype=np.float64)
    abs_err = np.abs(err)
    small = abs_err < 1.0
    reg_loss = float(np.sum(np.where(small, 0.5 * err * err, abs_err - 0.5)))
    d_err = np.where(small, err, np.sign(err))
    d_reg = d_err.T @ phi

    gradient = np.concatenate([d_cls.ravel(), d_reg.ravel()])
    return LossResult(
        value=cls_loss + reg_loss, gradient=gradient, cls_term=cls_loss, reg_term=reg_loss
    )


def loss_unsup(weights: WeightVector, batch: UnsupervisedBatch) -> LossResult:
    """Classification-only loss for pseudo-labeled proposals.

    Confidence thresholding says nothing about box quality, so the
    regressor block of the gradient is exactly zero.
    """
    if len(batch) == 0:
        raise InvariantViolation("loss_unsup requires a non-empty batch")
    phi = _with_bias(np.asarray(batch.features, dtype=np.float64))
    cls_loss, d_cls = _cls_loss_and_grad(weights, phi, batch.classes)
    gradient = np.concatenate([d_cls.ravel(), np.zeros(weights.layout.reg_size)])
    return LossResult(value=cls_loss, gradient=gradient, cls_term=cls_loss, reg_term=0.0)


def assign_targets(
    boxes: np.ndarray,
    box_view: np.ndarray,
    gt_boxes: np.ndarray,
    gt_view: np.ndarray,
    gt_classes: np.ndarray,
    fg_iou: float,
    background_class: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Match each (x1, y1, x2, y2) row of ``boxes`` to its best-IoU row of
    ``gt_boxes`` within its own view of a ragged stack. ``box_view`` and
    ``gt_view`` give each row's view index; both must be non-decreasing.

    Among equal best IoUs the first ground-truth row wins. Proposals that
    overlap their match and reach ``fg_iou`` take its class and corner
    offsets (match minus proposal); the rest become background with zero
    offsets.

    A proposal is foreground only at an IoU above 0, so only the same-view
    pairs whose boxes overlap count:
    :func:`~densecrop.geometry.meeting_pairs_across` forms them, a block at
    a time, and :func:`~densecrop.geometry.overlap_ious` gives their IoUs.
    They come box by box, each box's in ground-truth order, so each box's
    best IoU is a ``maximum.reduceat`` over its pairs and the first
    ground-truth row reaching it a ``minimum.reduceat`` over their indices.
    Memory follows the rows and the pairs that meet, never the pairs of a
    view.
    """
    classes = np.full(len(boxes), background_class, dtype=np.int64)
    offsets = np.zeros((len(boxes), 4))
    views = int(box_view[-1]) + 1 if len(boxes) else 0
    per_view = np.diff(np.searchsorted(gt_view, np.arange(views + 1)))
    item, gt, iw, ih = meeting_pairs_across(boxes, box_view, gt_boxes, per_view)
    ious = overlap_ious(iw, ih, box_areas(boxes)[item], box_areas(gt_boxes)[gt])
    hit = np.flatnonzero(ious > 0.0)
    if len(hit) == 0:
        return classes, offsets
    item, gt, ious = item[hit], gt[hit], ious[hit]
    first_pair = np.flatnonzero(np.diff(item, prepend=-1))
    rows, counts = item[first_pair], np.diff(first_pair, append=len(item))
    best_iou = np.maximum.reduceat(ious, first_pair)
    at_best = np.where(ious == np.repeat(best_iou, counts), gt, len(gt_boxes))
    best = np.minimum.reduceat(at_best, first_pair)
    fg = best_iou >= fg_iou
    classes[rows[fg]] = gt_classes[best[fg]]
    offsets[rows[fg]] = gt_boxes[best[fg]] - boxes[rows[fg]]
    return classes, offsets


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class DetectorBackend(abc.ABC):
    """Contract every detection backend satisfies: one method,
    :meth:`detect_batch`.

    It returns the un-augmented detections of a
    :class:`~densecrop.dataset.SceneStack` as rows, scene after scene:
    (N, 4) float64 boxes, (N,) int64 class ids, (N,) float64 scores, and
    each scene's (M,) int64 row count. It must be deterministic given
    (weights, scenes), a scene's rows must not depend on the scenes beside
    it, and it may emit the reserved density-crop class id
    ``num_base_classes`` alongside base classes 0..num_base_classes-1.
    Multistage inference calls it once per stage for a chunk of images.
    """

    num_base_classes: int

    @property
    def crop_class_id(self) -> int:
        return self.num_base_classes

    @abc.abstractmethod
    def detect_batch(
        self, weights: WeightVector | None, scenes: SceneStack
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError


def empty_detections(scenes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """No detection rows for a stack of ``scenes`` scenes, in the form of
    :meth:`DetectorBackend.detect_batch`."""
    return np.zeros((0, 4)), np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(scenes, np.int64)


class OracleBackend(DetectorBackend):
    """Weight-free backend that replays ground truth through a noise model."""

    def __init__(self, num_base_classes: int, noise: OracleNoiseModel):
        self.num_base_classes = num_base_classes
        self.noise = noise

    def detect_batch(
        self, weights: WeightVector | None, scenes: SceneStack
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:func:`oracle_detect` of the scenes; ``weights`` is ignored."""
        return oracle_detect(scenes, self.noise, self.num_base_classes)


@dataclass(frozen=True, eq=False)
class ViewStack:
    """What the toy detector derives from each of several scenes alone,
    its rows stacked in scene order: a ragged batch of views.

    ``image_ids`` and (S, 2) ``sizes`` are each view's image id and
    (width, height). ``proposals`` (N, 4) and ``phi`` (N, D) hold the
    views' read-only (x1, y1, x2, y2) proposal rows and un-augmented
    feature rows, and ``counts`` each view's row count. Built with
    targets, ``gt_classes`` and ``gt_offsets`` hold each proposal's
    ground-truth class and corner-offset targets. ``row_view`` (each row's
    view index) and ``width`` and ``height`` (each row's image size, so a
    crop child and its parent can share one stack) are derived on first
    read.
    Augmentation works on copies of ``phi``, so one view serves every
    visit to its image.

    A single view is a stack of one: :meth:`take` gathers views by index,
    as :meth:`~densecrop.dataset.SceneStack.take` gathers scenes, and :meth:`of` concatenates
    stacks.
    """

    image_ids: tuple
    sizes: np.ndarray
    proposals: np.ndarray
    phi: np.ndarray
    counts: np.ndarray
    gt_classes: np.ndarray | None = None
    gt_offsets: np.ndarray | None = None

    @cached_property
    def row_view(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.image_ids)), self.counts)

    @cached_property
    def width(self) -> np.ndarray:
        return self.sizes[self.row_view, 0]

    @cached_property
    def height(self) -> np.ndarray:
        return self.sizes[self.row_view, 1]

    def take(self, index) -> "ViewStack":
        """The stack of views ``index``, in that order; repeats allowed."""
        index = np.asarray(index, dtype=np.intp).reshape(-1)
        rows = group_pairs(self.counts, index)[1]
        targets = self.gt_classes is not None
        return ViewStack(
            tuple(self.image_ids[i] for i in index.tolist()),
            self.sizes[index],
            self.proposals[rows],
            self.phi[rows],
            self.counts[index],
            self.gt_classes[rows] if targets else None,
            self.gt_offsets[rows] if targets else None,
        )

    @classmethod
    def of(cls, stacks: list["ViewStack"]) -> "ViewStack":
        targets = all(s.gt_classes is not None for s in stacks)
        return cls(
            image_ids=tuple(image_id for s in stacks for image_id in s.image_ids),
            sizes=np.concatenate([s.sizes for s in stacks]),
            proposals=np.concatenate([s.proposals for s in stacks]),
            phi=np.concatenate([s.phi for s in stacks]),
            counts=np.concatenate([s.counts for s in stacks]),
            gt_classes=np.concatenate([s.gt_classes for s in stacks]) if targets else None,
            gt_offsets=np.concatenate([s.gt_offsets for s in stacks]) if targets else None,
        )


@dataclass(frozen=True)
class ToyDetectorConfig:
    """Hyperparameters of the trainable linear detector."""

    num_base_classes: int
    proposal_jitter: float = 1.5
    background_proposals: int = 8
    fg_iou: float = 0.5
    payload_obs_scale: float = 4.0
    weak_flip_prob: float = 0.5
    strong_noise_std: float = 0.15
    strong_cutout: int = 3
    init_scale: float = 0.01
    proposal_crop_params: CropParams | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        # A negative scale fails deep inside a run, and a NaN threshold or
        # probability silently turns its step off.
        for name in ("proposal_jitter", "payload_obs_scale", "strong_noise_std", "init_scale"):
            if not (0 <= getattr(self, name) < math.inf):
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("fg_iou", "weak_flip_prob"):
            if not (0 <= getattr(self, name) <= 1):
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        for name in ("background_proposals", "strong_cutout"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


class ToyDetector(DetectorBackend):
    """Linear softmax classifier plus linear box regressor over scene features.

    Proposals stand in for a region-proposal network: jittered scene object
    boxes, cluster-shaped candidates around groups of overlapping objects
    (so the density-crop class has something to be predicted on), and
    uniform background samples, all fixed per image. Weak augmentation
    flips the horizontal center feature; strong augmentation adds feature
    noise and zeroes a random contiguous block.

    Proposals and base features are pure functions of the image:
    :meth:`views` computes them once for a
    :class:`~densecrop.dataset.SceneStack` as one :class:`ViewStack`, in
    one pass over its rows, with each proposal's targets for labeled
    scenes. The numeric methods take a
    stack, and a single view is a stack of one: :meth:`decode` returns
    every proposal's regressed box and class probabilities,
    :meth:`supervised_batch` and :meth:`unsupervised_batch` build training
    batches, and each runs the softmax, the box clipping and the target
    assignment once on the stack; only the matmuls and each view's random
    draws stay per view.
    :meth:`emitted` picks the (proposal, class) pairs that count as
    detections, and :meth:`detect_batch` returns those of each scene's
    un-augmented view as rows; training augments through
    :meth:`decode`. :meth:`augment` never derives a generator: callers
    hand it one per view, so a training iteration derives all of them in
    one ``rngs_for`` call.
    """

    def __init__(self, config: ToyDetectorConfig):
        self.config = config
        self.num_base_classes = config.num_base_classes
        self._proposal_crop_params = config.proposal_crop_params or CropParams()
        # classifier outputs: base classes, density-crop class, background
        self.layout = WeightLayout(
            feature_dim=feature_dim(config.num_base_classes),
            num_outputs=config.num_base_classes + 2,
        )

    @property
    def background_class(self) -> int:
        return self.num_base_classes + 1

    def init_weights(self, seed: int) -> WeightVector:
        rng = rng_for(seed, "init")
        return WeightVector(
            layout=self.layout,
            values=rng.normal(0.0, self.config.init_scale, self.layout.total),
        )

    def proposals(self, scenes: SceneStack) -> tuple[np.ndarray, np.ndarray]:
        """Fixed per-image proposal sets, stacked in scene order: (N, 4)
        rows (objects, clusters, background for each image) and each
        scene's row count.

        Cluster candidates are the density crops of each image's objects,
        labeled for every scene that is not a crop child in one
        :func:`~densecrop.croplab.label_density_crops` call over the stack
        of their object rows. They are skipped on crop children: the image
        already is a zoomed cluster, and a second level of crop proposals
        would only train the classifier to call dense children background.

        Each image draws its jitter and background from its own generator,
        ``rng_for(seed, "proposals", image_id)``; one :func:`rngs_for` call
        derives them all from the id words, and the background boxes and
        the clipping run once over the stacked rows.
        """
        rngs = rngs_for((self.config.seed, _PROPOSALS), scenes.id_words.reshape(-1, 1))
        parent = ~scenes.crop
        crop_counts = np.zeros(len(scenes), dtype=np.int64)
        crops, crop_counts[parent] = label_density_crops(
            scenes.object_boxes[np.repeat(parent, scenes.object_counts)],
            scenes.sizes[parent],
            self._proposal_crop_params,
            scenes.object_counts[parent],
        )
        per_image = self.config.background_proposals
        objects = np.split(scenes.object_boxes, np.cumsum(scenes.object_counts)[:-1])
        crops = np.split(crops, np.cumsum(crop_counts)[:-1])
        jittered, u = [], np.empty((len(scenes), per_image, 4))
        for k, (rng, own, found) in enumerate(zip(rngs, objects, crops)):
            # A crop child's block of crop rows is empty.
            candidates = np.concatenate([own, found])
            jitter = rng.normal(0.0, self.config.proposal_jitter, (len(candidates), 4))
            jittered.append(candidates + jitter)
            # Each background box takes its (w, h, x, y) uniforms in turn,
            # as one row of a single random() block.
            u[k] = rng.random((per_image, 4))
        width, height = scenes.sizes[:, :1], scenes.sizes[:, 1:]
        short = np.minimum(width, height)
        w = _uniform(short / 24.0, short / 3.0, u[..., 0])
        h = _uniform(short / 24.0, short / 3.0, u[..., 1])
        x = _uniform(0.0, np.maximum(width - w, _MIN_SIDE), u[..., 2])
        y = _uniform(0.0, np.maximum(height - h, _MIN_SIDE), u[..., 3])
        background = np.stack([x, y, x + w, y + h], axis=-1)
        raw = [block for pair in zip(jittered, background) for block in pair]
        counts = scenes.object_counts + crop_counts + per_image
        row_size = np.repeat(scenes.sizes, counts, axis=0)
        boxes = _safe_box(np.concatenate(raw or [np.zeros((0, 4))]), row_size[:, 0], row_size[:, 1])
        return boxes, counts

    def features(self, scenes: SceneStack, proposals: np.ndarray, counts) -> np.ndarray:
        """Un-augmented feature matrix, one row per proposal row of a stack
        of scenes, as in :func:`extract_features`."""
        return extract_features(
            scenes, proposals, self.num_base_classes, self.config.payload_obs_scale, counts
        )

    def augment(self, phi: np.ndarray, augmentation: str, rngs, counts) -> np.ndarray:
        """Augmented features; ``phi`` itself is never written.

        ``phi`` holds a stack of views of ``counts`` rows each; ``rngs``
        holds one generator per view, and each view draws from its own:
        one ``random()`` for the weak flip, a ``normal`` block of its shape
        and one ``integers`` for the strong noise and cutout. ``"none"``
        returns ``phi`` unchanged and draws nothing; the other tags return
        a new array whenever they change anything.
        """
        if augmentation not in ("none", "weak", "strong"):
            raise InvariantViolation(f"unknown augmentation tag {augmentation!r}")
        if augmentation == "none" or len(phi) == 0:
            return phi
        if len(rngs) != len(counts):
            raise InvariantViolation(f"{len(rngs)} generators for {len(counts)} views")
        if augmentation == "weak":
            flip = np.repeat([rng.random() < self.config.weak_flip_prob for rng in rngs], counts)
            if flip.any():
                phi = phi.copy()
                phi[flip, 2] = 1.0 - phi[flip, 2]
            return phi
        dim = self.layout.feature_dim
        std = self.config.strong_noise_std
        phi = phi + np.concatenate([rng.normal(0.0, std, (n, dim)) for rng, n in zip(rngs, counts)])
        if self.config.strong_cutout > 0:
            start = np.repeat([rng.integers(0, dim) for rng in rngs], counts)[:, None]
            cols = np.arange(dim)
            phi[(cols >= start) & (cols < start + self.config.strong_cutout)] = 0.0
        return phi

    def views(self, scenes: SceneStack, targets: bool = False) -> ViewStack:
        """Proposals and base features of each scene, computed once, as
        one stack.

        The scenes' proposals are built, featurized and (with ``targets``)
        assigned in one pass over their stacked rows; a view's rows do not
        depend on the scenes built with it. With ``targets`` the stack
        also carries each proposal's ground-truth class and offsets against
        its scene's annotation rows, which :meth:`supervised_batch` needs.
        """
        proposals, counts = self.proposals(scenes)
        phi = self.features(scenes, proposals, counts)
        proposals.flags.writeable = phi.flags.writeable = counts.flags.writeable = False
        classes = offsets = None
        if targets:
            scene = np.arange(len(scenes))
            classes, offsets = assign_targets(
                proposals,
                np.repeat(scene, counts),
                scenes.boxes,
                np.repeat(scene, scenes.counts),
                scenes.classes,
                self.config.fg_iou,
                self.background_class,
            )
            classes.flags.writeable = offsets.flags.writeable = False
        return ViewStack(scenes.image_ids, scenes.sizes, proposals, phi, counts, classes, offsets)

    def detect_batch(
        self, weights: WeightVector | None, scenes: SceneStack
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The scenes' detections as box rows, class ids, scores and each
        scene's row count: the :meth:`emitted` (proposal, class) pairs of
        one un-augmented :meth:`decode` of the scenes' :meth:`views`,
        proposal by proposal and class by class. A view's detections do not
        depend on the views beside it."""
        if not len(scenes):
            return empty_detections(0)
        stack = self.views(scenes)
        boxes, probs = self.decode(weights, stack, "none", ())
        rows, classes = self.emitted(probs)
        counts = np.bincount(stack.row_view[rows], minlength=len(scenes))
        return boxes[rows], classes, probs[rows, classes], counts

    def decode(
        self, weights: WeightVector | None, stack: ViewStack, augmentation: str, rngs
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every proposal's regressed box, clipped to its image as (N, 4)
        rows, and its (N, num_outputs) class probabilities, each view of
        ``stack`` augmented with its own generator of ``rngs`` as in
        :meth:`augment`."""
        if weights is None:
            raise InvariantViolation("ToyDetector needs weights to decode")
        phi = self.augment(stack.phi, augmentation, rngs, stack.counts)
        probs, offsets = toy_forward(weights, phi, stack.counts)
        return _safe_box(stack.proposals + offsets, stack.width, stack.height), probs

    def emitted(self, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(proposal, class) index pairs that count as detections: base and
        density-crop classes scoring above :data:`EMIT_FLOOR`, in row-major
        order."""
        return np.nonzero(probs[:, : self.background_class] > EMIT_FLOOR)

    def supervised_batch(self, stack: ViewStack, augmentation: str, rngs) -> SupervisedBatch:
        """Training batch of a stack of views against their scenes' own
        annotations; every view must have been built with targets. Each
        view is augmented with its own generator of ``rngs`` as in
        :meth:`augment`."""
        if stack.gt_classes is None:
            raise InvariantViolation("supervised_batch needs views built with targets")
        return SupervisedBatch(
            features=self.augment(stack.phi, augmentation, rngs, stack.counts),
            classes=stack.gt_classes,
            offsets=stack.gt_offsets,
        )

    def unsupervised_batch(
        self,
        stack: ViewStack,
        pseudo_boxes: np.ndarray,
        pseudo_classes: np.ndarray,
        pseudo_view: np.ndarray,
        rngs,
        teacher_probs: np.ndarray | None = None,
    ) -> UnsupervisedBatch:
        """Training batch of a stack of views against teacher pseudo-labels
        (classes only), given as (P, 4) box rows, their (P,) classes and
        the (P,) non-decreasing index of the view each belongs to.

        Each view is strongly augmented with its own generator of ``rngs``.
        A proposal enters the batch when it matches a pseudo-label of its
        own view (taking that class) or, if the teacher's per-row
        probabilities on the weak views are given, when the teacher is
        confidently background on it (probability above :data:`BG_TAU`).
        Everything else is excluded: confidence thresholding says nothing
        about the proposals the teacher is unsure of, so an object the
        teacher missed contributes no gradient rather than a background
        target. Kept rows stay in stack order.
        """
        phi = self.augment(stack.phi, "strong", rngs, stack.counts)
        classes, _ = assign_targets(
            stack.proposals,
            stack.row_view,
            pseudo_boxes,
            pseudo_view,
            pseudo_classes,
            self.config.fg_iou,
            self.background_class,
        )
        keep = classes != self.background_class
        if teacher_probs is not None:
            keep = keep | (teacher_probs[:, self.background_class] > BG_TAU)
        return UnsupervisedBatch(features=phi[keep], classes=classes[keep])


# ---------------------------------------------------------------------------
# Detection dump format
# ---------------------------------------------------------------------------

_DUMP_HEADER = "# image_id\tclass_id\tscore\tx1\ty1\tx2\ty2"


def write_detections(
    rows: list[tuple[int | str, np.ndarray, np.ndarray, np.ndarray]], path: str | os.PathLike
) -> None:
    """One tab-separated record per row of each image's (image_id, (N, 4)
    boxes, (N,) classes, (N,) scores); floats keep full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_DUMP_HEADER + "\n")
        for image_id, *columns in rows:
            for (x1, y1, x2, y2), class_id, score in zip(*(c.tolist() for c in columns)):
                fh.write(f"{image_id}\t{class_id}\t{score!r}\t{x1!r}\t{y1!r}\t{x2!r}\t{y2!r}\n")


def _image_id(raw: str) -> int | str:
    """An int where ``raw`` is exactly how ``str`` writes one, else the text."""
    try:
        value = int(raw)
    except ValueError:
        return raw
    return value if str(value) == raw else raw


def read_detections(path: str | os.PathLike) -> list[tuple[int | str, Detection]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read detection file {path}: {exc}") from exc
    out: list[tuple[int | str, Detection]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 7:
            raise DataError(f"{path}:{lineno}: expected 7 fields, got {len(parts)}")
        try:
            image_id = _image_id(parts[0])
            det = Detection(
                box=Box(float(parts[3]), float(parts[4]), float(parts[5]), float(parts[6])),
                class_id=int(parts[1]),
                score=float(parts[2]),
            )
        except (ValueError, InvariantViolation) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        out.append((image_id, det))
    return out
