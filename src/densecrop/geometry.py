"""Axis-aligned box kernels shared by every other module.

Coordinates are continuous pixels. The corner convention is (x1, y1)
top-left inclusive and (x2, y2) bottom-right exclusive, so zero-area
boxes are invalid and reprojection between coordinate frames is exact.
The validated :class:`Box` and :class:`Detection` types serve the API and
the files; every numeric kernel here (IoU, clipping, crop projection, NMS)
works on (N, 4) float64 (x1, y1, x2, y2) rows, crops included. IoU comes
as a matrix of all pairs (:func:`iou_matrix`) or from the overlaps of
pairs (:func:`overlap_ious`), with the same float operations. Two
searches find the pairs of boxes that meet, so no kernel holds the pairs
that do not: :func:`meeting_pairs` within the groups of one stack, by one
sweep over the rows sorted by x1 (crop labeling, NMS), and
:func:`meeting_pairs_across` between each row and its group of a second
stack, a block of rows at a time (features, targets, AP matching). So a
chunk of images closes on a linear budget of objects, :func:`chunk_bounds`.
All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation

__all__ = [
    "Box",
    "Detection",
    "box_array",
    "CHUNK_OBJECTS",
    "check_boxes",
    "chunk_bounds",
    "clip",
    "detections_from_arrays",
    "group_pairs",
    "box_areas",
    "intersection_matrix",
    "iou_matrix",
    "meeting_pairs",
    "meeting_pairs_across",
    "overlap_ious",
    "project_rows",
    "reproject_rows",
    "nms_keep",
]


@dataclass(frozen=True, slots=True)
class Box:
    """Rectangle with x1 < x2 and y1 < y2, finite coordinates."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        for name in ("x1", "y1", "x2", "y2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvariantViolation(f"non-finite box coordinate: {v!r}")
            object.__setattr__(self, name, float(v))
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise InvariantViolation(
                f"degenerate box ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True, slots=True)
class Detection:
    """A scored class prediction: box, class id, confidence in [0, 1]."""

    box: Box
    class_id: int
    score: float

    def __post_init__(self) -> None:
        if self.class_id < 0:
            raise InvariantViolation(f"negative class id: {self.class_id}")
        if not (0.0 <= self.score <= 1.0):
            raise InvariantViolation(f"score outside [0, 1]: {self.score}")


def box_array(boxes: list[Box] | tuple[Box, ...]) -> np.ndarray:
    """(N, 4) float64 array of (x1, y1, x2, y2) rows; (0, 4) when empty."""
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def check_boxes(boxes: np.ndarray) -> None:
    """Raise :class:`InvariantViolation` unless every (x1, y1, x2, y2) row
    would make a valid :class:`Box`."""
    valid = (boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3])
    if not (valid.all() and np.isfinite(boxes).all()):
        valid &= np.isfinite(boxes).all(axis=1)
        # Building the first invalid row raises Box's own error for it.
        Box(*boxes[np.argmin(valid)].tolist())


def detections_from_arrays(
    boxes: np.ndarray, classes: np.ndarray, scores: np.ndarray
) -> list[Detection]:
    """One :class:`Detection` per row of (N, 4) box rows, (N,) class ids and
    (N,) scores."""
    return [
        Detection(box=Box(*box), class_id=class_id, score=score)
        for box, class_id, score in zip(boxes.tolist(), classes.tolist(), scores.tolist())
    ]


def clip(values: np.ndarray, lo, hi) -> np.ndarray:
    """``min(max(v, lo), hi)`` per entry, keeping ``v`` wherever Python would
    (so a -0.0 that no bound replaces stays -0.0)."""
    values = np.where(values < lo, lo, values)
    return np.where(values > hi, hi, values)


def group_pairs(counts: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (item, row) pair within the groups of a ragged stack, whose rows
    come group by group, ``counts[g]`` of them in group ``g``; item ``i`` is
    in group ``group[i]``. Returns each pair's item and row index, item by
    item and each item's rows in stack order."""
    start = np.cumsum(counts) - counts
    per_item = counts[group]
    first = np.cumsum(per_item) - per_item
    item = np.repeat(np.arange(len(group)), per_item)
    return item, np.arange(len(item)) + np.repeat(start[group] - first, per_item)


def box_areas(boxes: np.ndarray) -> np.ndarray:
    """Area of each (x1, y1, x2, y2) row, computed as ``Box.area`` does."""
    return (boxes[..., 2] - boxes[..., 0]) * (boxes[..., 3] - boxes[..., 1])


def intersection_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) intersection areas of (N, 4) box rows with (M, 4) box rows,
    or with (N, M, 4) rows where row ``i`` of ``a`` meets its own ``b[i]``:
    the overlap width times the overlap height, 0.0 unless both are
    positive."""
    iw = np.minimum(a[:, None, 2], b[..., 2]) - np.maximum(a[:, None, 0], b[..., 0])
    ih = np.minimum(a[:, None, 3], b[..., 3]) - np.maximum(a[:, None, 1], b[..., 1])
    return np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) IoU of (N, 4) and (M, 4) box rows: the intersection over
    ``area_a + area_b - intersection``. Symmetric, 0.0 when disjoint and
    exactly 1.0 for equal boxes."""
    inter = intersection_matrix(a, b)
    # Where inter is 0 the union is a sum of positive areas, so the IoU is 0.
    return inter / (box_areas(a)[:, None] + box_areas(b)[None, :] - inter)


def overlap_ious(iw: np.ndarray, ih: np.ndarray, area_a: np.ndarray, area_b: np.ndarray) -> np.ndarray:
    """IoU of pairs of boxes from their overlap widths ``iw`` and heights
    ``ih`` and their areas, by the formula of :func:`iou_matrix`, so every
    value keeps its bits. Symmetric in the two boxes, bit for bit."""
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    return inter / (area_a + area_b - inter)


# Candidate pairs of meeting_pairs tested for overlap at a time; bounds
# its temporaries at a few MB.
_MEETING_BLOCK_PAIRS = 1 << 15
# Same-group pairs that meeting_pairs_across tests for overlap at a time;
# bounds its temporaries at about half a MB.
_ACROSS_BLOCK_PAIRS = 1 << 13


def meeting_pairs(boxes: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every unordered pair of rows ``(a, b)`` of the (N, 4) box rows whose
    boxes meet and whose (N,) non-negative integer ``group`` ids are equal,
    with the overlap width and height of each: both at least 0, by the
    formula of :func:`intersection_matrix`. Returns the (P,) row indices
    ``a`` and ``b`` and the (P,) widths and heights, in no set order.

    The rows are sorted once by (group, x1), with the x1 values as integer
    ranks, so the key is exact for any coordinates. A row's candidates are
    the rows after it in its group whose x1 is at most its x2; one
    ``searchsorted`` of the sorted keys finds where they end for every
    row. They are enumerated about ``_MEETING_BLOCK_PAIRS`` at a time and
    tested exactly in x and y. Rows need x1 <= x2, as a valid box has, for
    every pair that meets to be a candidate.
    """
    n = len(boxes)
    x1, y1, x2, y2 = np.ascontiguousarray(boxes.T)
    # x1[q] <= x2[p] iff rank[q] < reach[p]: ranks are the places of the
    # x1 values in sorted order, reaches count the x1 values at most each x2.
    by_x1, by_x2 = np.argsort(x1), np.argsort(x2)
    rank, reach = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    rank[by_x1] = np.arange(n)
    reach[by_x2] = np.searchsorted(x1[by_x1], x2[by_x2], side="right")
    base = np.asarray(group, dtype=np.int64) * (n + 1)
    # The keys are unique, so any sort of them gives one order.
    key = base + rank
    order = np.argsort(key)
    ends = np.searchsorted(key[order], (base + reach)[order], side="left")
    counts = np.maximum(ends - np.arange(1, n + 1), 0)
    # A block starts at the first row whose candidates start at or past
    # each multiple of _MEETING_BLOCK_PAIRS.
    starts = np.cumsum(counts) - counts
    block = _MEETING_BLOCK_PAIRS
    cuts = np.searchsorted(starts, np.arange(block, counts.sum(), block)).tolist()
    near = []
    for start, stop in zip([0, *cuts], [*cuts, n]):
        # Sorted position p pairs with positions p + 1 .. p + per[p].
        per = counts[start:stop]
        rows = np.arange(start, stop)
        p = np.repeat(rows, per)
        q = np.arange(len(p)) - np.repeat(np.cumsum(per) - per - rows - 1, per)
        a, b = order[p], order[q]
        iw = np.minimum(x2[a], x2[b]) - np.maximum(x1[a], x1[b])
        ih = np.minimum(y2[a], y2[b]) - np.maximum(y1[a], y1[b])
        keep = np.flatnonzero((iw >= 0.0) & (ih >= 0.0))
        near.append((a[keep], b[keep], iw[keep], ih[keep]))
    return near[0] if len(near) == 1 else tuple(np.concatenate(v) for v in zip(*near))


def meeting_pairs_across(rows, row_group, others, other_counts) -> tuple[np.ndarray, ...]:
    """Row, other row, overlap width and overlap height of every pair of a
    row of the (N, 4) x1, y1, x2, y2 ``rows`` with a row of its own group
    of the ragged stack ``others``, whose boxes meet: width and height at
    least 0, by :func:`intersection_matrix`'s formula. Row ``i`` is in
    group ``row_group[i]``, and ``others`` holds ``other_counts[g]`` rows
    of group ``g``, group after group. The pairs come row by row, each
    row's in the order of ``others``.

    Every pair that overlaps or holds the other box's centre is among them,
    since a box's centre lies between its corners. The pairs are tested a
    block of rows of about ``_ACROSS_BLOCK_PAIRS`` pairs at a time, in x
    first and then in y on those that meet in x, so memory follows the rows
    and the pairs that meet, never all the pairs of a group.
    """
    x1, y1, x2, y2 = np.ascontiguousarray(rows.T)
    ox1, oy1, ox2, oy2 = np.ascontiguousarray(others.T)
    pairs = other_counts[row_group]
    cuts = np.flatnonzero(np.diff((np.cumsum(pairs) - pairs) // _ACROSS_BLOCK_PAIRS)) + 1
    near = []
    for start, stop in zip([0, *cuts.tolist()], [*cuts.tolist(), len(row_group)]):
        item, obj = group_pairs(other_counts, row_group[start:stop])
        iw = np.minimum(np.repeat(x2[start:stop], pairs[start:stop]), ox2[obj])
        iw -= np.maximum(np.repeat(x1[start:stop], pairs[start:stop]), ox1[obj])
        keep = np.flatnonzero(iw >= 0.0)
        item, obj, iw = item[keep] + start, obj[keep], iw[keep]
        ih = np.minimum(y2[item], oy2[obj]) - np.maximum(y1[item], oy1[obj])
        keep = np.flatnonzero(ih >= 0.0)
        near.append((item[keep], obj[keep], iw[keep], ih[keep]))
    return tuple(np.concatenate(v) for v in zip(*near))


# Objects per chunk of images, about (see chunk_bounds). Every chunked
# pass (a detector views call, an inference chunk, an evaluation pass)
# holds memory in proportion to its rows and the pairs of them that meet.
# Larger chunks cut per-call overhead but hold more rows: on perfbench's
# infer_toy (400 toy images of about 17 objects, two chunks at 4096), 2048
# ran 7 % slower, and 8192 ran 6 % faster for 3 MB (6 %) more peak
# resident memory.
CHUNK_OBJECTS = 4096


def chunk_bounds(objects: list[int]) -> list[tuple[int, int]]:
    """(start, stop) of each chunk of images with ``objects[i]`` objects in
    image ``i``. An image with m objects costs ``max(m, 1)``: its rows and
    the pairs of them that meet grow about linearly with m. A chunk closes
    after the image that takes its running cost past
    :data:`CHUNK_OBJECTS`."""
    edges, start, total = [], 0, 0
    for i, m in enumerate(objects):
        total += max(m, 1)
        if total > CHUNK_OBJECTS:
            edges.append((start, i + 1))
            start, total = i + 1, 0
    return edges + [(start, len(objects))] * (start < len(objects))


def _crop_frame(crops: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """(x1, y1, x1, y1) origins and (sw, sh, sw, sh) scales of (N, 4) crop
    rows upscaled to their (N, 2) sizes."""
    crops = np.asarray(crops, dtype=np.float64)
    size = np.asarray(sizes, dtype=np.float64)
    if (size <= 0).any():
        raise InvariantViolation(f"non-positive crop size {sizes}")
    origin, scales = crops[..., :2], (crops[..., 2:] - crops[..., :2]) / size
    return np.concatenate([origin, origin], axis=-1), np.concatenate([scales, scales], axis=-1)


def project_rows(rows: np.ndarray, crops: np.ndarray, sizes) -> np.ndarray:
    """Map (x1, y1, x2, y2) rows from parent-image pixels into the pixels of
    their crops upscaled to their sizes; the inverse of
    :func:`reproject_rows`.

    ``crops`` holds one (x1, y1, x2, y2) crop row per row, or one for all
    of them, and ``sizes`` the (I_W, I_H) size of each. Each row is
    shifted by its crop's origin and divided by (crop_width / I_W,
    crop_height / I_H).
    """
    origin, scales = _crop_frame(crops, sizes)
    return (rows - origin) / scales


def reproject_rows(rows: np.ndarray, crops: np.ndarray, sizes) -> np.ndarray:
    """Map (x1, y1, x2, y2) rows predicted in upscaled-crop pixels back to
    the parent image, with ``crops`` and ``sizes`` as in
    :func:`project_rows`.

    With a crop rendered at its size (I_W, I_H), each row is scaled down by
    (crop_width / I_W, crop_height / I_H) and shifted by the crop origin,
    so the result lies inside the crop region.
    """
    origin, scales = _crop_frame(crops, sizes)
    return rows * scales + origin


def nms_keep(
    boxes: np.ndarray, classes: np.ndarray, scores: np.ndarray, iou_thresh: float, counts
) -> np.ndarray:
    """Greedy per-class non-maximum suppression on a ragged stack of
    images: (N, 4) box rows with their (N,) classes and scores, image by
    image, ``counts[g]`` rows in image ``g``; returns the kept row indices.
    Raises :class:`InvariantViolation` unless every row is a valid box.

    Each image is visited on its own by descending score, ties in row order
    (a stable sort of -score). A row is kept iff its IoU with every
    already-kept row of its image and class is at most ``iou_thresh``; a
    pair suppresses when ``~(iou <= iou_thresh)``, with IoUs by the formula
    of :func:`overlap_ious`. Since ``iou_thresh > 0``, only rows whose boxes
    meet can suppress, so the pairs come from :func:`meeting_pairs` within
    each (image, class) group, and the greedy steps run once per rank
    within a group, for all groups at once. Kept rows come out image by
    image, each image's in visiting order.
    """
    if not (0.0 < iou_thresh <= 1.0):
        raise InvariantViolation(f"iou_thresh outside (0, 1]: {iou_thresh}")
    check_boxes(boxes)
    image = np.repeat(np.arange(len(counts)), counts)
    visit = np.lexsort((-scores, image))
    # Rows by (class, image, visiting order): each group is one run, and a
    # row's rank is its place in its group's run.
    grouped = visit[np.argsort(classes[visit], kind="stable")]
    key_image, key_class = image[grouped], classes[grouped]
    new = np.ones(len(grouped), dtype=bool)
    new[1:] = (key_image[1:] != key_image[:-1]) | (key_class[1:] != key_class[:-1])
    group = np.cumsum(new) - 1
    rank = np.arange(len(grouped)) - np.flatnonzero(new)[group]
    a, b, iw, ih = meeting_pairs(boxes[grouped], group)
    areas = box_areas(boxes)[grouped]
    suppress = ~(overlap_ious(iw, ih, areas[a], areas[b]) <= iou_thresh)
    # The earlier of a pair in visiting order suppresses the later one.
    a, b = a[suppress], b[suppress]
    first, second = np.minimum(a, b), np.maximum(a, b)
    by_rank = np.argsort(rank[first], kind="stable")
    first, second = first[by_rank], second[by_rank]
    steps = [0, *(np.flatnonzero(np.diff(rank[first])) + 1).tolist(), len(first)]
    alive = np.ones(len(grouped), dtype=bool)
    # Every row ranked below this step's rows is settled, so a live row
    # here is kept and drops the later rows of its group it suppresses.
    for lo, hi in zip(steps[:-1], steps[1:]):
        alive[second[lo:hi][alive[first[lo:hi]]]] = False
    kept = np.empty(len(grouped), dtype=bool)
    kept[grouped] = alive
    return visit[kept[visit]]
