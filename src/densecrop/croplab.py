"""Density-crop discovery over clusters of overlapping boxes.

Boxes are first expanded by a few pixels so that near-adjacent objects
overlap, then an IoU-thresholded connection graph is built and each
connected cluster is merged into one enclosing "density crop". Merging is
repeated for a configurable number of rounds so that crops whose enclosing
boxes overlap get fused instead of producing redundant near-duplicates,
and crops covering too much of the image are filtered out.

Boxes and crops are (N, 4) float64 (x1, y1, x2, y2) rows throughout, and
no :class:`~densecrop.geometry.Box` is built here. Every call labels a
ragged stack of images: their rows concatenated in image order, each
image's row count and each image's (width, height); a single image is a
stack of one. A link needs an IoU above ``theta > 0``, so only pairs of
rows of one image whose boxes meet are ever formed
(:func:`~densecrop.geometry.meeting_pairs`): a stack costs about its
rows and the pairs of them that meet in x, never the square of its total
or of one image's rows. The graph is one flat array of those pairs,
clusters come from label propagation over it, and each image's crops
come out exactly as if it were labeled alone. Crop order is part of the
output, since it names crop children and seeds their scenes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantViolation
from .geometry import box_areas, check_boxes, meeting_pairs, overlap_ious

__all__ = [
    "CropParams",
    "merge_round",
    "label_density_crops",
]


@dataclass(frozen=True)
class CropParams:
    """Knobs for density-crop discovery.

    merge_steps: number of merge rounds over the evolving crop set.
    sigma: per-side box expansion in pixels before overlap is measured.
    theta: IoU above which two boxes count as connected.
    pi: maximum crop area as a fraction of the image area.
    min_cluster: smallest number of boxes that counts as a cluster.
    """

    merge_steps: int = 3
    sigma: float = 15.0
    theta: float = 0.1
    pi: float = 0.3
    min_cluster: int = 2

    def __post_init__(self) -> None:
        if not self.merge_steps >= 1:
            raise ConfigError(f"merge_steps must be >= 1, got {self.merge_steps}")
        # A NaN or infinite sigma expands every box to nothing or everything
        # and would silently turn crop discovery off.
        if not (0 <= self.sigma < math.inf):
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not (0.0 < self.theta < 1.0):
            raise ConfigError(f"theta must be in (0, 1), got {self.theta}")
        if not (0.0 < self.pi <= 1.0):
            raise ConfigError(f"pi must be in (0, 1], got {self.pi}")
        if not self.min_cluster >= 2:
            raise ConfigError(f"min_cluster must be >= 2, got {self.min_cluster}")


def _stack(boxes, image_size, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, 4) rows, (M, 2) image sizes and (M,) row counts of a call."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    sizes = np.asarray(image_size, dtype=np.float64).reshape(-1, 2)
    counts = np.asarray(counts, dtype=np.int64).reshape(-1)
    if len(sizes) != len(counts) or counts.sum() != len(boxes) or (counts < 0).any():
        raise InvariantViolation(
            f"{len(boxes)} rows do not split into counts {counts.tolist()} "
            f"over {len(sizes)} image sizes"
        )
    return boxes, sizes, counts


def _component_labels(degree: np.ndarray, link_j: np.ndarray) -> np.ndarray:
    """The lowest row of each row's connected component, by label
    propagation; a row without links is its own. Row ``i`` has
    ``degree[i]`` links, to the rows of its block of ``link_j``, the blocks
    in row order, and every link is given both ways.

    A label is always a row of the component at or below its row. Each
    pass takes a row's lowest label among itself and its neighbours, then
    the label of that row (pointer jumping), so a chain of labels shortens
    faster than by one link a pass.
    """
    members = np.flatnonzero(degree)
    labels = np.arange(len(degree))
    if len(members):
        blocks = (np.cumsum(degree) - degree)[members]
        while True:
            lowest = labels[np.minimum(labels[members], np.minimum.reduceat(labels[link_j], blocks))]
            if (lowest == labels[members]).all():
                break
            labels[members] = lowest
    return labels


def merge_round(
    rows: np.ndarray,
    image_size,
    params: CropParams,
    *,
    carry_unmerged: bool,
    counts,
) -> tuple[np.ndarray, np.ndarray]:
    """One build/merge/filter pass over the current (N, 4) box rows of a
    stack of images, given as in :func:`label_density_crops`; returns the
    new rows and each image's new row count.

    Two rows of one image are connected when their IoU, by
    :func:`~densecrop.geometry.overlap_ious`, strictly exceeds ``theta``;
    only rows whose boxes meet can be, so the pairs come from
    :func:`~densecrop.geometry.meeting_pairs` and the rows must be valid
    boxes. Each connected component with at least one connection
    collapses into its enclosing box. Within an image, components come out
    in the order of a greedy discovery: the component holding the
    most-connected row first, ties to the lowest such row.

    In the first round (``carry_unmerged=False``) rows that joined no
    cluster are dropped and clusters below ``min_cluster`` members are
    discarded; in later rounds every input is already a crop, so each
    image's unmerged rows pass through unchanged, in input order, after its
    merged ones. Rows larger than ``pi`` of their image's area are
    filtered out.
    """
    rows, sizes, n = _stack(rows, image_size, counts)
    total = len(rows)
    image = np.repeat(np.arange(len(n)), n)
    local = np.arange(total) - (np.cumsum(n) - n)[image]
    per_row = n[image]
    pair_i, pair_j, iw, ih = meeting_pairs(rows, image)
    areas = box_areas(rows)
    linked = overlap_ious(iw, ih, areas[pair_i], areas[pair_j]) > params.theta
    # Each link both ways, by (i, j).
    link_i = np.concatenate([pair_i[linked], pair_j[linked]])
    link_j = np.concatenate([pair_j[linked], pair_i[linked]])
    order = np.argsort(link_i * total + link_j)
    link_i, link_j = link_i[order], link_j[order]
    degree = np.bincount(link_i, minlength=total)
    # A row's links are one block of link_j, since link_i is sorted.
    labels = _component_labels(degree, link_j)
    members = np.flatnonzero(degree)
    # Group each component's members, then reduce per component: its image,
    # member count, enclosing box and rank. Within an image, components go
    # by descending rank: the most-connected row first, ties to the lowest.
    members = members[np.argsort(labels[members], kind="stable")]
    group = np.flatnonzero(np.diff(labels[members], prepend=-1))
    crop_image = image[members[group]]
    size = np.diff(np.append(group, len(members)))
    rank = np.maximum.reduceat((degree * per_row - local)[members], group)
    lows = np.minimum.reduceat(rows[members, :2], group)
    crops = np.concatenate([lows, np.maximum.reduceat(rows[members, 2:], group)], axis=1)
    order = np.lexsort((-rank, crop_image))
    crops, crop_image, size = crops[order], crop_image[order], size[order]
    if carry_unmerged:
        # Each image's merged crops, then its unmerged rows in input order.
        alone = degree == 0
        out_image = np.concatenate([crop_image, image[alone]])
        order = np.argsort(out_image, kind="stable")
        out, out_image = np.concatenate([crops, rows[alone]])[order], out_image[order]
    else:
        kept = size >= params.min_cluster
        out, out_image = crops[kept], crop_image[kept]
    small = box_areas(out) <= (params.pi * sizes[:, 0] * sizes[:, 1])[out_image]
    return out[small], np.bincount(out_image[small], minlength=len(n))


def label_density_crops(
    boxes: np.ndarray, image_size, params: CropParams, counts
) -> tuple[np.ndarray, np.ndarray]:
    """Discover the density crops of each image of a stack from its (N, 4)
    (x1, y1, x2, y2) box rows.

    ``boxes`` holds ``counts[m]`` rows of image ``m``, whose (width,
    height) is ``image_size[m]``, image after image. The call returns the
    stack's (K, 4) float64 crop rows, image after image, and each image's
    (M,) int64 crop count; an image's crops equal those of labeling that
    image alone, bit for bit.

    Every side of every box is first moved out by ``sigma`` pixels and
    clipped to its image, as Python's ``max(0.0, x1 - sigma)`` and
    ``min(width, x2 + sigma)`` do; then ``merge_steps`` rounds of
    :func:`merge_round` follow. Each image's output is deduplicated by
    exact coordinate equality, first occurrence kept (merging is
    deterministic, so exact duplicates are the only duplicate mode). Raises
    :class:`InvariantViolation` if an input or expanded row is not a valid
    box, such as a box outside its image.
    """
    boxes, sizes, n = _stack(boxes, image_size, counts)
    if not len(boxes):
        return boxes, np.zeros(len(n), dtype=np.int64)
    check_boxes(boxes)
    image = np.repeat(np.arange(len(n)), n)
    bounds = sizes[image]
    lo = boxes[:, :2] - params.sigma
    hi = boxes[:, 2:] + params.sigma
    # Not np.maximum: it keeps a -0.0 that Python's max turns into 0.0, and
    # a crop's repr seeds its child scene.
    current = np.concatenate(
        [np.where(lo > 0.0, lo, 0.0), np.where(hi < bounds, hi, bounds)], axis=1
    )
    check_boxes(current)
    for step in range(params.merge_steps):
        if not len(current):
            break
        current, n = merge_round(current, sizes, params, carry_unmerged=step > 0, counts=n)
    # Exact duplicates within an image sort next to each other, the first
    # occurrence first.
    image = np.repeat(np.arange(len(n)), n)
    order = np.lexsort((*current.T[::-1], image))
    same = (current[order[1:]] == current[order[:-1]]).all(axis=1)
    same &= image[order[1:]] == image[order[:-1]]
    first = np.ones(len(current), dtype=bool)
    first[order[1:][same]] = False
    return current[first], np.bincount(image[first], minlength=len(n))
