"""COCO-style average precision and error-type profiling.

AP follows the fixed COCO protocol: greedy score-ordered matching per
image, class, and IoU threshold (each ground truth matched at most once),
101-point interpolated precision-recall integration, averaged over the
classes present in the ground truth and thresholds 0.50:0.05:0.95 (AP50
and AP75 read two of them), and size buckets at 32^2 and 96^2 pixels with
out-of-bucket ground truth ignored rather than counted against the
detector. Error profiling assigns each false positive exactly one type
(Cls, Loc, Both, Dupe, Bkg) and counts unmatched ground truth as Miss.

Every pass flattens ground truth and detections into one table of arrays,
image by image in sorted image-id order with detections in descending
score order, and walks it in chunks of whole images that
``geometry.chunk_bounds`` closes on their detections plus ground truth.
A chunk pairs each detection with the ground truth of its image whose
box meets its own (``geometry.meeting_pairs_across``), detection-major
with ground truth in annotation order, with IoUs by
``geometry.overlap_ious``. A pair left out has IoU exactly 0, no box
having zero area, and every threshold that decides a match is above 0,
so each (image, class) block of pairs acts as the per-(image, category)
matrix of pycocotools' COCOeval (whose design this follows, without
depending on it). Matching splits a chunk's detections in two. A
detection is contested when an earlier one of its image reaches (IoU at
or above some threshold) the same ground truth. Nothing an uncontested
one reaches can be taken before its turn, so two maxima over its pairs
decide it at every threshold of an area range: its best pair among the
range's counted ground truth, and its best pair overall. Above the
first it is a true positive; short of that, above the second it is
matched to ignored ground truth and left out of the ranking; else it is
unmatched. The few contested ones are matched one at a time in score
order, around what the uncontested took. ``evaluate_ap`` writes its
(range, threshold, detection) outcomes straight from these decisions, for
the area ranges that hold ground truth; ``profile_errors`` and
``recall_by_size`` take the same matcher at one threshold with nothing
ignored. One ranking of the detections, by class and then descending
score, serves every (range, threshold) of a class, and one pass
integrates the AP of all of them from where their true positives rank.

The tie rule: in score order, a detection takes the untaken counted
(in-range) ground truth of highest IoU at or above the threshold, the
first in annotation order among equal IoUs. Only when no counted one
qualifies does it take an ignored one, by the same rule, and a counted
match is never traded for an ignored one. Equal scores rank in image
order, then input order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DataError, InvariantViolation
from .geometry import box_areas, chunk_bounds, meeting_pairs_across, overlap_ious
from .manifest import write_json

__all__ = [
    "COCO_IOU_THRESHOLDS",
    "COCO_SIZE_BUCKETS",
    "EvalReport",
    "evaluate_ap",
    "recall_by_size",
    "profile_errors",
    "ErrorProfile",
    "compare_runs",
    "format_comparison",
    "write_eval_report",
    "read_eval_report",
]

COCO_IOU_THRESHOLDS: tuple[float, ...] = tuple(np.linspace(0.5, 0.95, 10))
COCO_SIZE_BUCKETS: dict[str, tuple[float, float]] = {
    "small": (0.0, 32.0**2),
    "medium": (32.0**2, 96.0**2),
    "large": (96.0**2, float("inf")),
}
_ALL = (0.0, float("inf"))
# Where AP50 and AP75 sit in COCO_IOU_THRESHOLDS.
_AP50, _AP75 = 0, 5
_RECALL_POINTS = np.linspace(0.0, 1.0, 101)

ERROR_TYPES = ("Cls", "Loc", "Both", "Dupe", "Bkg", "Miss")


@dataclass(frozen=True)
class EvalReport:
    """AP family plus optional per-class table and error tallies.

    Values are fractions in [0, 1]; ``None`` marks metrics with no ground
    truth to evaluate against (for example no small objects).
    """

    ap: float | None
    ap50: float | None
    ap75: float | None
    ap_small: float | None
    ap_medium: float | None
    ap_large: float | None
    per_class: dict = field(default_factory=dict)
    error_counts: dict | None = None

    def metrics(self) -> dict:
        return {
            "AP": self.ap,
            "AP50": self.ap50,
            "AP75": self.ap75,
            "AP_s": self.ap_small,
            "AP_m": self.ap_medium,
            "AP_l": self.ap_large,
        }


# ---------------------------------------------------------------------------
# Matching core
# ---------------------------------------------------------------------------


def _in_ranges(areas: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """(R, N) flags: area inside each closed [lo, hi] row of ``ranges``."""
    return (ranges[:, :1] <= areas) & (areas <= ranges[:, 1:])


def _fields(items: list, name: str, dtype) -> np.ndarray:
    """The ``name`` attribute of every item, as an array."""
    return np.fromiter(map(attrgetter(name), items), dtype, len(items))


def _boxes(items: list) -> np.ndarray:
    """(N, 4) (x1, y1, x2, y2) rows of the ``box`` of every item."""
    corners = chain.from_iterable(item.box.as_tuple() for item in items)
    return np.fromiter(corners, np.float64, 4 * len(items)).reshape(-1, 4)


class _Table(NamedTuple):
    """Ground truth and detections as flat arrays, image by image in the
    sorted image-id order every pass uses. Ground truth keeps annotation
    order; detections run in descending score order within an image, ties
    in input order: one stable sort by score, then one stable radix sort
    by image. Image k owns rows ``start[k]:start[k + 1]``."""

    gt_boxes: np.ndarray
    gt_classes: np.ndarray
    gt_start: np.ndarray
    det_boxes: np.ndarray
    det_classes: np.ndarray
    det_scores: np.ndarray
    det_start: np.ndarray


def _table(gts: dict, dets: list[tuple]) -> _Table:
    image_ids = sorted(gts, key=str)
    index = {image_id: k for k, image_id in enumerate(image_ids)}
    anns = [a for image_id in image_ids for a in gts[image_id]]
    gt_counts = np.fromiter(map(len, map(gts.__getitem__, image_ids)), np.intp, len(image_ids))
    det_objs = list(map(itemgetter(1), dets))
    try:
        images = map(index.__getitem__, map(itemgetter(0), dets))
        # The narrowest unsigned type, which numpy's stable sort radix-sorts.
        det_image = np.fromiter(images, np.min_scalar_type(len(image_ids)), len(dets))
    except KeyError as exc:
        raise DataError(f"detection references unknown image id {exc.args[0]!r}") from None
    scores = _fields(det_objs, "score", np.float64)
    order = np.argsort(-scores, kind="stable")
    order = order[np.argsort(det_image[order], kind="stable")]
    return _Table(
        gt_boxes=_boxes(anns),
        gt_classes=_fields(anns, "class_id", np.int64),
        gt_start=np.concatenate([[0], np.cumsum(gt_counts)]),
        det_boxes=_boxes(det_objs)[order],
        det_classes=_fields(det_objs, "class_id", np.int64)[order],
        det_scores=scores[order],
        det_start=np.searchsorted(det_image[order], np.arange(len(image_ids) + 1)),
    )


class _Chunk(NamedTuple):
    """Whole images of a table: their detection rows ``dets`` and
    ground-truth rows ``gts``, and the (detection, ground truth) pairs of
    one image whose boxes meet, detection-major with ground truth in
    annotation order, as rows counted from the chunk's first; with each
    pair's IoU and whether its classes agree."""

    dets: slice
    gts: slice
    det: np.ndarray
    gt: np.ndarray
    ious: np.ndarray
    same_class: np.ndarray

    @property
    def num_dets(self) -> int:
        return self.dets.stop - self.dets.start


def _chunks(table: _Table, same_class_only: bool) -> Iterator[_Chunk]:
    """The table in chunks of whole images, as ``chunk_bounds`` closes them
    on each image's detections plus ground truth. With ``same_class_only``
    the other-class pairs are left out."""
    det_counts, gt_counts = np.diff(table.det_start), np.diff(table.gt_start)
    for lo, hi in chunk_bounds((det_counts + gt_counts).tolist()):
        dets = slice(*table.det_start[[lo, hi]].tolist())
        gts = slice(*table.gt_start[[lo, hi]].tolist())
        if dets.start == dets.stop:
            continue
        det_boxes, gt_boxes = table.det_boxes[dets], table.gt_boxes[gts]
        image = np.repeat(np.arange(hi - lo), det_counts[lo:hi])
        det, gt, iw, ih = meeting_pairs_across(det_boxes, image, gt_boxes, gt_counts[lo:hi])
        same_class = table.det_classes[dets][det] == table.gt_classes[gts][gt]
        if same_class_only:
            det, gt, iw, ih = det[same_class], gt[same_class], iw[same_class], ih[same_class]
            same_class = same_class[same_class]
        ious = overlap_ious(iw, ih, box_areas(det_boxes)[det], box_areas(gt_boxes)[gt])
        yield _Chunk(dets, gts, det, gt, ious, same_class)


def _pick(candidates: np.ndarray, ious: np.ndarray, counted: np.ndarray) -> tuple:
    """Best candidate along the last (ground-truth) axis, by the tie rule.

    Returns (column, found): the first column of highest IoU among the
    counted candidates, or among all candidates when no counted one is left.
    """
    preferred = candidates & counted
    candidates = np.where(preferred.any(axis=-1, keepdims=True), preferred, candidates)
    return np.where(candidates, ious, -1.0).argmax(axis=-1), candidates.any(axis=-1)


def _takes(
    counted_iou: np.ndarray,
    counted_row: np.ndarray,
    best_iou: np.ndarray,
    best_row: np.ndarray,
    thresholds: np.ndarray,
) -> np.ndarray:
    """(R, T, n) ground-truth row that each of n uncontested detections
    takes, -1 for none, from its (R, n) best counted pairs and (n,) best
    pairs."""
    at = thresholds[:, None]
    return np.where(
        counted_iou[:, None] >= at, counted_row[:, None], np.where(best_iou >= at, best_row, -1)
    )


class _Matching(NamedTuple):
    """A chunk's matching decisions at ``thresholds``, over its R ranges and
    D detections.

    An uncontested detection d takes, at range r and threshold t, the
    counted ground-truth row ``counted_row[r, d]`` when ``counted_iou[r, d]
    >= t``, else ``best_row[d]`` (ignored ground truth) when ``best_iou[d]
    >= t``, else nothing. The IoUs read -1 where a detection has no such
    pair and for the ``contested`` detections, which take
    ``contested_rows[:, :, k]`` (R, T) for ``contested[k]``, -1 for none."""

    thresholds: np.ndarray
    counted_iou: np.ndarray
    counted_row: np.ndarray
    best_iou: np.ndarray
    best_row: np.ndarray
    contested: np.ndarray
    contested_rows: np.ndarray

    def rows(self) -> np.ndarray:
        """(R, T, D) ground-truth row each detection takes, -1 for none."""
        rows = _takes(
            self.counted_iou, self.counted_row, self.best_iou, self.best_row, self.thresholds
        )
        rows[:, :, self.contested] = self.contested_rows
        return rows


def _match(
    det: np.ndarray,
    gt: np.ndarray,
    ious: np.ndarray,
    num_dets: int,
    counted: np.ndarray,
    thresholds: np.ndarray,
) -> _Matching:
    """Greedy matching of a chunk's detections for every (range, threshold).

    ``det``, ``gt`` and ``ious`` are the chunk's same-class pairs as in
    :class:`_Chunk`, ``counted`` is (R, G) over the chunk's ground truth
    and ``thresholds`` is (T,). The tie rule is the one in the module
    docstring.

    A detection can only take ground truth it reaches (IoU at or above some
    threshold). It is contested when an earlier detection of its image
    reaches some of that ground truth. An uncontested detection finds all
    of it untaken at its turn, so two maxima over its pairs decide it at
    every threshold of a range: the first pair of highest IoU among the
    counted ground truth, and the first of highest IoU among all of it (an
    ignored one whenever the first falls short). The contested go through
    ``_pick`` in score order, after what the uncontested took.
    """
    reach = ious >= thresholds.min(initial=np.inf)
    det, gt, ious = det[reach], gt[reach], ious[reach]
    # A stable sort by ground truth orders the detection-major pairs by
    # (ground truth, detection); a pair after one of its ground truth is contested.
    by_gt = np.argsort(gt, kind="stable")
    shared = gt[by_gt[1:]] == gt[by_gt[:-1]]
    contested = np.zeros(num_dets, dtype=bool)
    contested[det[by_gt[1:][shared]]] = True

    # Row r < R flags the pairs counted in range r; row R flags every pair.
    alone = ~contested[det]
    a_det, a_gt, a_ious = det[alone], gt[alone], ious[alone]
    flags = np.vstack([counted[:, a_gt], np.ones((1, len(a_gt)), dtype=bool)])
    best_iou = np.full((len(flags), num_dets), -1.0)
    best_row = np.zeros((len(flags), num_dets), dtype=np.intp)
    if len(a_det):
        opens = np.diff(a_det, prepend=-1) != 0
        starts, segment = np.flatnonzero(opens), np.cumsum(opens) - 1
        flagged = np.where(flags, a_ious, -1.0)
        best = np.maximum.reduceat(flagged, starts, axis=-1)
        pair = np.arange(len(a_det))
        at_best = flags & (flagged == best[:, segment])
        # A row without flagged pairs reads the last pair, and its best of -1 takes nothing.
        first = np.minimum.reduceat(np.where(at_best, pair, len(pair) - 1), starts, axis=-1)
        best_iou[:, a_det[starts]] = best
        best_row[:, a_det[starts]] = a_gt[first]

    in_order = np.flatnonzero(contested)
    contested_rows = np.full((len(counted), len(thresholds), len(in_order)), -1, dtype=np.intp)
    if len(in_order):
        # Only the first detection to reach a ground truth can be
        # uncontested, so only such leaders' picks stand in a contested one's way.
        leaders = det[by_gt[:-1][shared]]
        leaders = leaders[~contested[leaders]]
        taken = np.zeros((len(counted), len(thresholds), counted.shape[1]), dtype=bool)
        picks = _takes(
            best_iou[:-1, leaders], best_row[:-1, leaders], best_iou[-1, leaders],
            best_row[-1, leaders], thresholds,
        )
        r, t, k = np.nonzero(picks >= 0)
        taken[r, t, picks[r, t, k]] = True
        rest = np.flatnonzero(~alone)
        for k, pairs in enumerate(np.split(rest, np.flatnonzero(np.diff(det[rest])) + 1)):
            g, v = gt[pairs], ious[pairs]
            candidates = (v >= thresholds[:, None]) & ~taken[:, :, g]
            cols, found = _pick(candidates, v, counted[:, None, g])
            r, t = np.nonzero(found)
            contested_rows[r, t, k] = g[cols[r, t]]
            taken[r, t, g[cols[r, t]]] = True
    return _Matching(
        thresholds, best_iou[:-1], best_row[:-1], best_iou[-1], best_row[-1],
        in_order, contested_rows,
    )


def _match_once(chunk: _Chunk, iou_thresh: float) -> np.ndarray:
    """Matched ground-truth row per detection of a chunk at one threshold,
    same-class pairs only and nothing ignored."""
    same = chunk.same_class
    det, gt, ious = chunk.det[same], chunk.gt[same], chunk.ious[same]
    nothing_ignored = np.ones((1, chunk.gts.stop - chunk.gts.start), dtype=bool)
    thr = np.array([iou_thresh], dtype=np.float64)
    return _match(det, gt, ious, chunk.num_dets, nothing_ignored, thr).rows()[0, 0]


def _outcomes(
    table: _Table, counted: np.ndarray, bounds: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """(R, T, D) outcome of every detection of the table, in table order, at
    each area range (rows of ``bounds``, counting ``counted``'s (R, G) ground
    truth) and threshold: 1 true positive, 0 false positive, -1 left out of
    the ranking (matched to ignored ground truth, or unmatched and outside
    the range). The last chunk's arrays go with the call, before AP is
    integrated."""
    out_of_range = ~_in_ranges(box_areas(table.det_boxes), bounds)[:, None, :]
    at = thresholds[:, None]
    outcome = np.empty((len(bounds), len(thresholds), len(table.det_scores)), dtype=np.int8)
    for chunk in _chunks(table, same_class_only=True):
        chunk_counted = counted[:, chunk.gts]
        m = _match(chunk.det, chunk.gt, chunk.ious, chunk.num_dets, chunk_counted, thresholds)
        left_out = (m.best_iou >= at) | out_of_range[:, :, chunk.dets]
        tp = m.counted_iou[:, None] >= at
        outcome[:, :, chunk.dets] = np.where(tp, 1, -left_out.astype(np.int8))
        # The contested read as unmatched above; their picks overwrite that.
        r, t, k = np.nonzero(m.contested_rows >= 0)
        on_counted = chunk_counted[r, m.contested_rows[r, t, k]]
        outcome[r, t, chunk.dets.start + m.contested[k]] = np.where(on_counted, 1, -1)
    return outcome


def _ranking(
    classes: np.ndarray, scores: np.ndarray, present: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every detection ranked by class, then descending score, ties in
    table order: one stable sort by score, then one stable radix sort by
    class. Class ``present[c]`` ranks ``ranking[starts[c]:starts[c + 1]]``;
    a class the ground truth lacks ranks after them all, unread."""
    key = np.searchsorted(present, classes)
    # A key past the last class reads the appended 0, and stays past it either way.
    key[np.append(present, 0)[key] != classes] = len(present)
    key = key.astype(np.min_scalar_type(len(present)))
    ranking = np.argsort(-scores, kind="stable")
    ranking = ranking[np.argsort(key[ranking], kind="stable")]
    per_class = np.bincount(key, minlength=len(present) + 1)[:-1]
    return ranking, np.concatenate([[0], np.cumsum(per_class)])


def _interpolated_aps(
    outcome: np.ndarray, ranking: np.ndarray, starts: np.ndarray, npig: np.ndarray
) -> np.ndarray:
    """(R, C, T) 101-point interpolated AP of every (range, class, threshold).

    ``outcome`` is the (R, T, D) outcome of every detection (1 true
    positive, 0 false positive, -1 left out of the ranking), class c ranks
    detections ``ranking[starts[c]:starts[c + 1]]``, and range r counts
    ``npig[r, c]`` of its ground truth; without any, its APs read 0.0.

    The c-th true positive of a (range, class, threshold) segment, at kept
    ordinal k, has precision c / k and recall c / npig, and the envelope
    at a recall point is the highest precision from the first true
    positive that reaches it on. So segments are integrated on their true
    positives alone, in blocks of classes that ``chunk_bounds`` closes on
    their (threshold, detection) cells, which bounds a block's temporaries.
    """
    num_thresholds, num_dets = outcome.shape[1:]
    aps = np.zeros(npig.shape + (num_thresholds,))
    for r, range_outcome in enumerate(outcome):
        # need[c, p]: the fewest true positives whose recall c / npig reaches
        # point p, the same float division as the recall itself; at least 1,
        # since recall 0 reads the envelope of the whole segment. More than
        # any segment holds where nothing is counted.
        need = np.full((len(npig[r]), len(_RECALL_POINTS)), num_dets + 1)
        for c in np.flatnonzero(npig[r]):
            n = int(npig[r, c])
            need[c] = np.searchsorted(np.arange(n + 1) / n, _RECALL_POINTS, side="left")
        np.maximum(need, 1, out=need)
        for lo, hi in chunk_bounds((num_thresholds * np.diff(starts)).tolist()):
            cuts = starts[lo : hi + 1] - starts[lo]
            block = range_outcome[:, ranking[starts[lo] : starts[hi]]].ravel()
            # Segment (threshold, class) of the block, in flat row-major order.
            seg = (np.arange(num_thresholds)[:, None] * cuts[-1] + cuts[:-1]).ravel()
            kept = np.flatnonzero(block >= 0)
            tp = np.flatnonzero(block[kept] == 1)  # kept ordinal of each true positive
            seg_kept = np.searchsorted(kept, seg)
            seg_tp = np.append(np.searchsorted(tp, seg_kept), len(tp))
            counts = np.diff(seg_tp)
            # Each true positive's ordinal among its segment's true positives
            # and among its kept detections, both from 1.
            ordinal = np.arange(1, len(tp) + 1) - np.repeat(seg_tp[:-1], counts)
            kept_ordinal = tp - np.repeat(seg_kept - 1, counts)
            # Point p of a segment takes the maximum precision over its true
            # positives from need[p] to the next point's; a point past the
            # segment's last true positive, and the segment's end, index its
            # end. The 0.0 after the last segment keeps every index in bounds.
            first = np.tile(need[lo:hi], (num_thresholds, 1))
            valid = first <= counts[:, None]
            at = np.where(valid, seg_tp[:-1, None] + first - 1, seg_tp[1:, None])
            at = np.hstack([at, seg_tp[1:, None]]).ravel()
            precision = np.append(ordinal / kept_ordinal, 0.0)
            highest = np.maximum.reduceat(precision, at).reshape(len(seg), -1)
            highest = np.where(valid, highest[:, :-1], 0.0)
            envelope = np.maximum.accumulate(highest[:, ::-1], axis=1)[:, ::-1]
            aps[r, lo:hi] = envelope.mean(axis=1).reshape(-1, hi - lo).T
    return aps


def evaluate_ap(gts: dict, dets: list[tuple]) -> EvalReport:
    """COCO-style AP over ground truth and scored detections.

    ``gts`` maps image id to its annotations; ``dets`` is a flat list of
    (image_id, Detection). AP is evaluated at :data:`COCO_IOU_THRESHOLDS`
    for every class present in the ground truth, overall and in each of
    :data:`COCO_SIZE_BUCKETS`, closed area ranges.
    """
    table = _table(gts, dets)
    present = np.array(sorted(set(table.gt_classes.tolist())), dtype=np.int64)

    ranges: dict[str, tuple[float, float]] = {"all": _ALL, **COCO_SIZE_BUCKETS}
    bounds = np.array(list(ranges.values()), dtype=np.float64)
    counted = _in_ranges(box_areas(table.gt_boxes), bounds)
    # A range without ground truth has no AP, so it is neither matched nor integrated.
    held = counted.any(axis=1)
    names = [name for name, h in zip(ranges, held) if h]
    counted = counted[held]
    outcome = _outcomes(table, counted, bounds[held], np.array(COCO_IOU_THRESHOLDS))

    ranking, starts = _ranking(table.det_classes, table.det_scores, present)
    gt_class = np.searchsorted(present, table.gt_classes)
    npig = np.array([np.bincount(gt_class[row], minlength=len(present)) for row in counted])
    npig = npig.reshape(len(names), len(present))  # (0, 0) without ground truth
    aps = _interpolated_aps(outcome, ranking, starts, npig)

    # ap_table[range_name]: per-threshold APs of each class the range holds ground truth of
    ap_table = {
        name: [aps[r, c].tolist() for c in np.flatnonzero(npig[r])] for r, name in enumerate(names)
    }

    def mean_over_classes(range_name: str, thr_index: int | None) -> float | None:
        per_thr = ap_table.get(range_name, [])
        values = [float(np.mean(p)) if thr_index is None else p[thr_index] for p in per_thr]
        return float(np.mean(values)) if values else None

    # The "all" range counts every ground truth, so it holds every present class.
    per_class = {c: float(np.mean(p)) for c, p in zip(present.tolist(), ap_table.get("all", []))}
    return EvalReport(
        ap=mean_over_classes("all", None),
        ap50=mean_over_classes("all", _AP50),
        ap75=mean_over_classes("all", _AP75),
        ap_small=mean_over_classes("small", None),
        ap_medium=mean_over_classes("medium", None),
        ap_large=mean_over_classes("large", None),
        per_class=per_class,
    )


def recall_by_size(gts: dict, dets: list[tuple], iou_thresh: float = 0.5) -> dict:
    """Fraction of ground truth matched at one IoU threshold, per
    :data:`COCO_SIZE_BUCKETS` bucket.

    Matching is greedy by score within each image and class. Buckets with
    no ground truth report None; ``"all"`` is the overall fraction.
    ``iou_thresh`` must lie in (0, 1]: only boxes that meet are paired.
    """
    if not (0.0 < iou_thresh <= 1.0):
        raise InvariantViolation(f"iou_thresh outside (0, 1]: {iou_thresh}")
    table = _table(gts, dets)
    gt_hit = np.zeros(len(table.gt_classes), dtype=bool)
    for chunk in _chunks(table, same_class_only=True):
        det_match = _match_once(chunk, iou_thresh)
        gt_hit[chunk.gts.start + det_match[det_match >= 0]] = True
    areas = box_areas(table.gt_boxes)
    matched: dict[str, int] = {}
    totals: dict[str, int] = {}
    for name, (lo, hi) in COCO_SIZE_BUCKETS.items():
        in_bucket = (lo <= areas) & (areas <= hi)
        totals[name] = int(in_bucket.sum())
        matched[name] = int((in_bucket & gt_hit).sum())
    matched["all"], totals["all"] = int(gt_hit.sum()), len(gt_hit)
    return {
        name: (matched[name] / totals[name] if totals[name] else None) for name in totals
    }


@dataclass(frozen=True)
class ErrorProfile:
    """False-positive taxonomy plus missed ground truth.

    Cls + Loc + Both + Dupe + Bkg always equals the false-positive count.
    """

    counts: dict
    true_positives: int
    false_positives: int

    def __post_init__(self) -> None:
        fp_sum = sum(self.counts[k] for k in ("Cls", "Loc", "Both", "Dupe", "Bkg"))
        if fp_sum != self.false_positives:
            raise InvariantViolation(
                f"error types sum to {fp_sum}, expected {self.false_positives} false positives"
            )


def profile_errors(
    gts: dict,
    dets: list[tuple],
    fg_iou: float = 0.5,
    bg_iou: float = 0.1,
) -> ErrorProfile:
    """Classify every false positive into exactly one error type.

    An unmatched detection is Cls when it sits on a ground truth of
    another class (IoU >= fg), Dupe when it re-detects an already-matched
    same-class ground truth, Loc when its best same-class overlap falls
    between bg and fg, Both when only an other-class overlap does, and Bkg
    otherwise. Unmatched ground truth counts as Miss. Since no IoU exceeds
    1, ``fg_iou`` must lie in (``bg_iou``, 1], and ``bg_iou`` be at least 0.
    """
    if not (1.0 >= fg_iou > bg_iou >= 0.0):
        raise InvariantViolation(f"need 1 >= fg_iou > bg_iou >= 0, got fg={fg_iou} bg={bg_iou}")
    table = _table(gts, dets)
    kinds = np.zeros(5, dtype=np.int64)
    tp = 0
    for chunk in _chunks(table, same_class_only=False):
        unmatched = _match_once(chunk, fg_iou) < 0
        tp += chunk.num_dets - int(unmatched.sum())
        # IoU is never negative, so 0 stands for "no such ground truth".
        same = chunk.same_class
        iou_same = _det_max(np.where(same, chunk.ious, 0.0), chunk)[unmatched]
        iou_other = _det_max(np.where(same, 0.0, chunk.ious), chunk)[unmatched]
        # The first condition that holds names the type; none holding is Bkg.
        kind = np.select(
            [iou_other >= fg_iou, iou_same >= fg_iou, iou_same > bg_iou, iou_other > bg_iou],
            [0, 1, 2, 3],
            4,
        )
        kinds += np.bincount(kind, minlength=5)
    counts = {name: 0 for name in ERROR_TYPES}
    counts.update(zip(("Cls", "Dupe", "Loc", "Both", "Bkg"), kinds.tolist()))
    counts["Miss"] = len(table.gt_classes) - tp
    fp = sum(counts[k] for k in ("Cls", "Loc", "Both", "Dupe", "Bkg"))
    return ErrorProfile(counts=counts, true_positives=tp, false_positives=fp)


def _det_max(values: np.ndarray, chunk: _Chunk) -> np.ndarray:
    """Per-detection maximum of a chunk's pair values, 0.0 for a detection
    without pairs."""
    out = np.zeros(chunk.num_dets)
    starts = np.flatnonzero(np.diff(chunk.det, prepend=-1))
    if len(starts):
        out[chunk.det[starts]] = np.maximum.reduceat(values, starts)
    return out


# ---------------------------------------------------------------------------
# Run comparison
# ---------------------------------------------------------------------------

_GAP = "--"


def compare_runs(reports: list[tuple]) -> dict:
    """Per-metric values, mean, sample std, and delta against the first run.

    ``reports`` is a list of (name, EvalReport). A metric missing from one
    report produces an explicit gap marker in that cell instead of failing.
    """
    if len(reports) < 2:
        raise DataError("compare_runs needs at least two reports")
    names = [name for name, _ in reports]
    table: dict = {"runs": names, "metrics": {}}
    metric_names = list(reports[0][1].metrics())
    for metric in metric_names:
        values = [rep.metrics().get(metric) for _, rep in reports]
        present = [v for v in values if v is not None]
        baseline = values[0]
        table["metrics"][metric] = {
            "values": values,
            "mean": float(np.mean(present)) if present else None,
            "std": float(np.std(present, ddof=1)) if len(present) >= 2 else None,
            "delta_vs_first": [
                (None if (v is None or baseline is None) else v - baseline) for v in values
            ],
        }
    return table


def format_comparison(table: dict) -> str:
    """Aligned text table, values shown as percentages."""

    def cell(v) -> str:
        return _GAP if v is None else f"{100.0 * v:.2f}"

    names = table["runs"]
    header = ["metric"] + list(names) + ["mean±std"]
    rows = [header]
    for metric, entry in table["metrics"].items():
        mean, std = entry["mean"], entry["std"]
        spread = _GAP if mean is None else (
            f"{100.0 * mean:.2f}±{100.0 * std:.2f}" if std is not None else f"{100.0 * mean:.2f}"
        )
        rows.append([metric] + [cell(v) for v in entry["values"]] + [spread])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


def write_eval_report(
    report: EvalReport, json_path: str | os.PathLike, text_path: str | os.PathLike | None = None
) -> None:
    """Machine-readable JSON plus an aligned human-readable table."""
    payload = {
        "metrics": report.metrics(),
        "per_class": {str(k): v for k, v in sorted(report.per_class.items())},
        "error_counts": report.error_counts,
    }
    write_json(json_path, payload)
    if text_path is None:
        return
    rows = [["metric", "value"]]
    for name, value in report.metrics().items():
        rows.append([name, _GAP if value is None else f"{100.0 * value:.2f}"])
    for class_id, value in sorted(report.per_class.items()):
        rows.append([f"AP[class {class_id}]", _GAP if value is None else f"{100.0 * value:.2f}"])
    if report.error_counts:
        for name in ERROR_TYPES:
            rows.append([f"errors.{name}", str(report.error_counts.get(name, 0))])
    widths = [max(len(r[i]) for r in rows) for i in range(2)]
    with open(text_path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


def read_eval_report(path: str | os.PathLike) -> EvalReport:
    """The report :func:`write_eval_report` wrote. Every metric and
    per-class AP must be null or a fraction in [0, 1], every class key an
    integer, and ``error_counts`` null or an object that maps names from
    :data:`ERROR_TYPES` to non-negative integers; anything else is a
    :class:`DataError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read report {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"report {path} is not valid JSON: {exc}") from exc
    # The AP fields come first in EvalReport, in the order metrics() names them.
    names = ("AP", "AP50", "AP75", "AP_s", "AP_m", "AP_l")
    try:
        values = [payload.get("metrics", {}).get(name) for name in names]
        per_class = {int(k): v for k, v in payload.get("per_class", {}).items()}
    except (AttributeError, ValueError) as exc:
        raise DataError(f"report {path} is malformed: {exc}") from exc
    for value in [*values, *per_class.values()]:
        if not (value is None or (type(value) in (int, float) and 0.0 <= value <= 1.0)):
            raise DataError(f"report {path} holds AP {value!r}, not null or a fraction in [0, 1]")
    error_counts = payload.get("error_counts")
    if error_counts is not None and not (
        isinstance(error_counts, dict)
        and all(k in ERROR_TYPES and type(v) is int and v >= 0 for k, v in error_counts.items())
    ):
        raise DataError(
            f"report {path} holds error counts {error_counts!r}, not null or an object "
            f"of non-negative integers named from {ERROR_TYPES}"
        )
    return EvalReport(*values, per_class=per_class, error_counts=error_counts)
