"""Density-crop discovery over clusters of overlapping boxes.

Boxes are first expanded by a few pixels so that near-adjacent objects
overlap, then an IoU-thresholded connection graph is built and each
connected cluster is merged into one enclosing "density crop". Merging is
repeated for a configurable number of rounds so that crops whose enclosing
boxes overlap get fused instead of producing redundant near-duplicates,
and crops covering too much of the image are filtered out.

Boxes and crops are (N, 4) float64 (x1, y1, x2, y2) rows throughout: the
graph is one IoU matrix, clusters come from label propagation over it, and
no :class:`~densecrop.geometry.Box` is built here. Crop order is part of
the output, since it names crop children and seeds their scenes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .geometry import box_areas, check_boxes, iou_matrix

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
        if self.merge_steps < 1:
            raise InvariantViolation(f"merge_steps must be >= 1, got {self.merge_steps}")
        if self.sigma < 0:
            raise InvariantViolation(f"sigma must be >= 0, got {self.sigma}")
        if not (0.0 < self.theta < 1.0):
            raise InvariantViolation(f"theta must be in (0, 1), got {self.theta}")
        if not (0.0 < self.pi <= 1.0):
            raise InvariantViolation(f"pi must be in (0, 1], got {self.pi}")
        if self.min_cluster < 2:
            raise InvariantViolation(f"min_cluster must be >= 2, got {self.min_cluster}")


def merge_round(
    rows: np.ndarray,
    image_size: tuple[float, float],
    params: CropParams,
    *,
    carry_unmerged: bool,
) -> np.ndarray:
    """One build/merge/filter pass over the current (N, 4) box rows.

    Two rows are connected when their IoU strictly exceeds ``theta``, and
    each connected component with at least one connection collapses into
    its enclosing box. Components come out in the order of a greedy
    discovery: the component holding the most-connected row first, ties to
    the lowest such row.

    In the first round (``carry_unmerged=False``) rows that joined no
    cluster are dropped and clusters below ``min_cluster`` members are
    discarded; in later rounds every input is already a crop, so unmerged
    rows pass through unchanged, in input order, after the merged ones.
    Rows larger than ``pi`` of the image area are filtered out.
    """
    n = len(rows)
    if n == 0:
        return rows
    connected = iou_matrix(rows, rows) > params.theta
    np.fill_diagonal(connected, False)
    degree = connected.sum(axis=1)
    # Label propagation: every row ends with the lowest row of its component.
    labels = np.arange(n)
    while True:
        lowest = np.minimum(labels, np.where(connected, labels, n).min(axis=1))
        if (lowest == labels).all():
            break
        labels = lowest
    # One ``members`` row per component with a connection, in discovery order.
    roots = np.flatnonzero((labels == np.arange(n)) & (degree > 0))
    members = labels == roots[:, None]
    rank = np.where(members, degree * n - np.arange(n), -1).max(axis=1)
    members = members[np.argsort(-rank)]
    crops = np.concatenate(
        [
            np.where(members[:, :, None], rows[None, :, :2], np.inf).min(axis=1),
            np.where(members[:, :, None], rows[None, :, 2:], -np.inf).max(axis=1),
        ],
        axis=1,
    )
    if carry_unmerged:
        out = np.concatenate([crops, rows[degree == 0]])
    else:
        out = crops[members.sum(axis=1) >= params.min_cluster]
    return out[box_areas(out) <= params.pi * image_size[0] * image_size[1]]


def label_density_crops(
    boxes: np.ndarray, image_size: tuple[float, float], params: CropParams
) -> np.ndarray:
    """Discover density crops for one image, as (K, 4) float64 rows, from
    its (N, 4) (x1, y1, x2, y2) box rows.

    Every side of every box is first moved out by ``sigma`` pixels and
    clipped to the image, as Python's ``max(0.0, x1 - sigma)`` and
    ``min(width, x2 + sigma)`` do; then ``merge_steps`` rounds of
    :func:`merge_round` follow. The output is deduplicated by exact
    coordinate equality, first occurrence kept (merging is deterministic,
    so exact duplicates are the only duplicate mode). Raises
    :class:`InvariantViolation` if an input or expanded row is not a valid
    box, such as a box outside the image.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    check_boxes(boxes)
    lo = boxes[:, :2] - params.sigma
    hi = boxes[:, 2:] + params.sigma
    bounds = np.array(image_size, dtype=np.float64)
    # Not np.maximum: it keeps a -0.0 that Python's max turns into 0.0, and
    # a crop's repr seeds its child scene.
    current = np.concatenate(
        [np.where(lo > 0.0, lo, 0.0), np.where(hi < bounds, hi, bounds)], axis=1
    )
    check_boxes(current)
    for step in range(params.merge_steps):
        current = merge_round(current, image_size, params, carry_unmerged=step > 0)
    keys = current.tolist()
    return current[[i for i, key in enumerate(keys) if key not in keys[:i]]]
