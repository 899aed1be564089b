"""COCO-style average precision and error-type profiling.

AP follows the COCO protocol: greedy score-ordered matching per image,
class, and IoU threshold (each ground truth matched at most once),
101-point interpolated precision-recall integration, thresholds
0.50:0.05:0.95, and size buckets at 32^2 and 96^2 pixels with
out-of-bucket ground truth ignored rather than counted against the
detector. Error profiling assigns each false positive exactly one type
(Cls, Loc, Both, Dupe, Bkg) and counts unmatched ground truth as Miss.

Every pass computes IoU once per image, as one float64 matrix of
score-ordered detections by ground truth with other-class pairs masked
out, so each (image, class) block is the per-(image, category) matrix of
pycocotools' COCOeval (whose design this follows, without depending on
it), computed by ``geometry.iou_matrix``. One greedy kernel matches
against that matrix for every (area range, IoU threshold) pair at once,
and one stable ranking per class serves all of them.

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
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DataError, InvariantViolation
from .geometry import box_areas, box_array, iou_matrix
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
_RECALL_POINTS = np.linspace(0.0, 1.0, 101)
# Cells (detection x range x threshold x ground truth) the matching kernel
# decides in one vectorized step; bounds its temporary arrays at a few MB.
_PICK_CELLS = 1 << 18

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


def _pick(candidates: np.ndarray, ious: np.ndarray, counted: np.ndarray) -> tuple:
    """Best candidate along the last (ground-truth) axis, by the tie rule.

    Returns (column, found): the first column of highest IoU among the
    counted candidates, or among all candidates when no counted one is left.
    """
    preferred = candidates & counted
    candidates = np.where(preferred.any(axis=-1, keepdims=True), preferred, candidates)
    return np.where(candidates, ious, -1.0).argmax(axis=-1), candidates.any(axis=-1)


def _match(ious: np.ndarray, ignored: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Greedy matching of one image's detections for every (range, threshold).

    ``ious`` is (D, G) with detections in descending score order and -inf
    for pairs that may never match (other class), ``ignored`` is (R, G) and
    ``thresholds`` is (T,). Returns the (R, T, D) matched ground-truth
    column, -1 where the detection stays unmatched. The tie rule is the one
    in the module docstring.

    A detection can only take ground truth it reaches (IoU at or above some
    threshold). If no earlier detection reaches any of that ground truth,
    all of it is still untaken at the detection's turn, and nothing it
    takes is visible to an earlier one; such detections are matched
    together in one step, and only the others go through the loop in score
    order.
    """
    num_dets, num_gts = ious.shape
    matched = np.full((len(ignored), len(thresholds), num_dets), -1, dtype=np.intp)
    if num_gts == 0:
        return matched
    above = ious[:, None, :] >= thresholds[:, None]  # (D, T, G)
    reach = above.any(axis=1)
    contested = np.zeros(num_dets, dtype=bool)
    contested[1:] = (reach[1:] & np.logical_or.accumulate(reach, axis=0)[:-1]).any(axis=1)
    counted = ~ignored[:, None, :]
    taken = np.zeros((len(ignored), len(thresholds), num_gts), dtype=bool)

    alone = np.flatnonzero(reach.any(axis=1) & ~contested)
    step = max(1, _PICK_CELLS // taken.size)
    for chunk in (alone[i : i + step] for i in range(0, len(alone), step)):
        cols, found = _pick(above[chunk, None], ious[chunk, None, None], counted)  # (n, R, T)
        n, r, t = np.nonzero(found)
        matched[r, t, chunk[n]] = cols[n, r, t]
        taken[r, t, cols[n, r, t]] = True

    for d in np.flatnonzero(contested):
        cols, found = _pick(above[d] & ~taken, ious[d], counted)  # (R, T)
        r, t = np.nonzero(found)
        matched[r, t, d] = cols[r, t]
        taken[r, t, cols[r, t]] = True
    return matched


def _match_once(ious: np.ndarray, iou_thresh: float) -> np.ndarray:
    """Matched ground-truth column per detection at one threshold, nothing ignored."""
    no_ignored = np.zeros((1, ious.shape[1]), dtype=bool)
    return _match(ious, no_ignored, np.array([iou_thresh], dtype=np.float64))[0, 0]


class _Image(NamedTuple):
    """One image's ground truth and its detections in descending score
    order (ties keep input order), as arrays."""

    gt_boxes: np.ndarray
    gt_classes: np.ndarray
    det_boxes: np.ndarray
    det_classes: np.ndarray
    det_scores: np.ndarray

    def class_ious(self) -> tuple[np.ndarray, np.ndarray]:
        """(detection x ground-truth IoU, same-class mask) of the image."""
        same_class = self.det_classes[:, None] == self.gt_classes[None, :]
        return iou_matrix(self.det_boxes, self.gt_boxes), same_class


def _images(gts: dict, dets: list[tuple]) -> Iterator[_Image]:
    """Per-image arrays, one image at a time, in the sorted image-id order
    every pass uses."""
    image_ids = sorted(gts, key=str)
    slots = {image_id: [] for image_id in image_ids}
    for image_id, det in dets:
        slot = slots.get(image_id)
        if slot is None:
            raise DataError(f"detection references unknown image id {image_id!r}")
        slot.append(det)
    for image_id in image_ids:
        anns, img_dets = gts[image_id], slots.pop(image_id)
        scores = np.array([d.score for d in img_dets], dtype=np.float64)
        order = np.argsort(-scores, kind="stable")
        yield _Image(
            gt_boxes=box_array([a.box for a in anns]),
            gt_classes=np.array([a.class_id for a in anns], dtype=np.int64),
            det_boxes=box_array([d.box for d in img_dets])[order],
            det_classes=np.array([d.class_id for d in img_dets], dtype=np.int64)[order],
            det_scores=scores[order],
        )


def _same_class_only(ious: np.ndarray, same_class: np.ndarray) -> np.ndarray:
    """IoU with other-class pairs set to -inf, which no threshold reaches."""
    return np.where(same_class, ious, -np.inf)


def _interpolated_ap(tps: np.ndarray, npig: int) -> float:
    """101-point interpolated AP of ranked true-positive flags (1 or 0)."""
    if tps.size == 0:
        return 0.0
    tps = tps.astype(np.float64)
    tp_cum = np.cumsum(tps)
    fp_cum = np.cumsum(1.0 - tps)
    recall = tp_cum / npig
    precision = np.maximum.accumulate((tp_cum / (tp_cum + fp_cum))[::-1])[::-1]
    indices = np.searchsorted(recall, _RECALL_POINTS, side="left")
    q = np.zeros(len(_RECALL_POINTS))
    valid = indices < len(precision)
    q[valid] = precision[indices[valid]]
    return float(np.mean(q))


def evaluate_ap(
    gts: dict,
    dets: list[tuple],
    size_buckets: dict | None = None,
    iou_thresholds: tuple | None = None,
    class_ids: tuple | None = None,
) -> EvalReport:
    """COCO-style AP over ground truth and scored detections.

    ``gts`` maps image id to its annotations; ``dets`` is a flat list of
    (image_id, Detection). Classes default to every class present in the
    ground truth; classes without ground truth are skipped.
    """
    size_buckets = COCO_SIZE_BUCKETS if size_buckets is None else size_buckets
    thresholds = COCO_IOU_THRESHOLDS if iou_thresholds is None else tuple(iou_thresholds)
    all_anns = [a for anns in gts.values() for a in anns]
    if class_ids is None:
        class_ids = tuple(sorted({a.class_id for a in all_anns}))

    ranges: dict[str, tuple[float, float]] = {"all": _ALL, **size_buckets}
    bounds = np.array(list(ranges.values()), dtype=np.float64).reshape(-1, 2)
    thr = np.array(thresholds, dtype=np.float64)
    range_rows = np.arange(len(ranges))[:, None, None]
    unmatched_column = np.zeros((len(ranges), 1), dtype=bool)
    gt_classes = np.array([a.class_id for a in all_anns], dtype=np.int64)
    counted = _in_ranges(box_areas(box_array([a.box for a in all_anns])), bounds)
    # Over every detection, image by image: class, score, and the (R, T)
    # outcome: 1 true positive, 0 false positive, -1 left out of the ranking
    # (matched to ignored ground truth, or unmatched and outside the range).
    det_classes = np.empty(len(dets), dtype=np.int64)
    scores = np.empty(len(dets), dtype=np.float64)
    outcome = np.empty((len(ranges), len(thresholds), len(dets)), dtype=np.int8)
    start = 0
    for image in _images(gts, dets):
        rows = slice(start, start + len(image.det_scores))
        start = rows.stop
        det_classes[rows], scores[rows] = image.det_classes, image.det_scores
        ignored = ~_in_ranges(box_areas(image.gt_boxes), bounds)
        matched = _match(_same_class_only(*image.class_ious()), ignored, thr)
        # Column -1, the unmatched mark, reads the appended all-False column.
        on_ignored = np.hstack([ignored, unmatched_column])[range_rows, matched]
        out_of_range = ~_in_ranges(box_areas(image.det_boxes), bounds)[:, None, :]
        hit = matched >= 0
        outcome[:, :, rows] = np.where(np.where(hit, on_ignored, out_of_range), -1, hit)

    # ap_table[(class, range_name)] -> list of per-threshold AP or None
    ap_table: dict = {}
    for class_id in class_ids:
        npig = counted[:, gt_classes == class_id].sum(axis=1)
        # Image order then score order within an image; one stable ranking by score.
        ranked = np.flatnonzero(det_classes == class_id)
        ranked = ranked[np.argsort(-scores[ranked], kind="stable")]
        class_outcome = outcome[:, :, ranked]
        for r, range_name in enumerate(ranges):
            ap_table[(class_id, range_name)] = (
                None
                if npig[r] == 0
                else [
                    _interpolated_ap(o[o >= 0], int(npig[r]))
                    for o in class_outcome[r]
                ]
            )

    def mean_over_classes(range_name: str, thr_index: int | None) -> float | None:
        values = []
        for class_id in class_ids:
            per_thr = ap_table[(class_id, range_name)]
            if per_thr is None:
                continue
            values.append(per_thr[thr_index] if thr_index is not None else float(np.mean(per_thr)))
        if not values:
            return None
        return float(np.mean(values))

    per_class = {
        class_id: (
            float(np.mean(ap_table[(class_id, "all")]))
            if ap_table[(class_id, "all")] is not None
            else None
        )
        for class_id in class_ids
    }
    idx50 = _threshold_index(thresholds, 0.5)
    idx75 = _threshold_index(thresholds, 0.75)
    return EvalReport(
        ap=mean_over_classes("all", None),
        ap50=mean_over_classes("all", idx50) if idx50 is not None else None,
        ap75=mean_over_classes("all", idx75) if idx75 is not None else None,
        ap_small=mean_over_classes("small", None) if "small" in ranges else None,
        ap_medium=mean_over_classes("medium", None) if "medium" in ranges else None,
        ap_large=mean_over_classes("large", None) if "large" in ranges else None,
        per_class=per_class,
    )


def _threshold_index(thresholds: tuple, value: float) -> int | None:
    for i, t in enumerate(thresholds):
        if abs(t - value) < 1e-9:
            return i
    return None


def recall_by_size(
    gts: dict,
    dets: list[tuple],
    iou_thresh: float = 0.5,
    size_buckets: dict | None = None,
) -> dict:
    """Fraction of ground truth matched at one IoU threshold, per size bucket.

    Matching is greedy by score within each image and class. Buckets with
    no ground truth report None.
    """
    size_buckets = COCO_SIZE_BUCKETS if size_buckets is None else size_buckets
    matched: dict[str, int] = {name: 0 for name in size_buckets}
    totals: dict[str, int] = {name: 0 for name in size_buckets}
    matched["all"], totals["all"] = 0, 0
    for image in _images(gts, dets):
        det_match = _match_once(_same_class_only(*image.class_ious()), iou_thresh)
        gt_hit = np.zeros(len(image.gt_boxes), dtype=bool)
        gt_hit[det_match[det_match >= 0]] = True
        areas = box_areas(image.gt_boxes)
        totals["all"] += len(gt_hit)
        matched["all"] += int(gt_hit.sum())
        for name, (lo, hi) in size_buckets.items():
            in_bucket = (lo <= areas) & (areas <= hi)
            totals[name] += int(in_bucket.sum())
            matched[name] += int((in_bucket & gt_hit).sum())
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
    otherwise. Unmatched ground truth counts as Miss.
    """
    if not (fg_iou > bg_iou >= 0.0):
        raise InvariantViolation(f"need fg_iou > bg_iou >= 0, got fg={fg_iou} bg={bg_iou}")
    counts = {name: 0 for name in ERROR_TYPES}
    tp = 0
    for image in _images(gts, dets):
        ious, same_class = image.class_ious()
        unmatched = _match_once(_same_class_only(ious, same_class), fg_iou) < 0
        hits = len(unmatched) - int(unmatched.sum())
        tp += hits
        counts["Miss"] += len(image.gt_boxes) - hits
        # IoU is never negative, so 0 stands for "no such ground truth".
        iou_same = np.where(same_class, ious, 0.0).max(axis=1, initial=0.0)[unmatched]
        iou_other = np.where(same_class, 0.0, ious).max(axis=1, initial=0.0)[unmatched]
        # The first condition that holds names the type; none holding is Bkg.
        kind = np.select(
            [iou_other >= fg_iou, iou_same >= fg_iou, iou_same > bg_iou, iou_other > bg_iou],
            [0, 1, 2, 3],
            4,
        )
        for name, n in zip(("Cls", "Dupe", "Loc", "Both", "Bkg"), np.bincount(kind, minlength=5).tolist()):
            counts[name] += n
    fp = sum(counts[k] for k in ("Cls", "Loc", "Both", "Dupe", "Bkg"))
    return ErrorProfile(counts=counts, true_positives=tp, false_positives=fp)


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read report {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"report {path} is not valid JSON: {exc}") from exc
    metrics = payload.get("metrics", {})
    return EvalReport(
        ap=metrics.get("AP"),
        ap50=metrics.get("AP50"),
        ap75=metrics.get("AP75"),
        ap_small=metrics.get("AP_s"),
        ap_medium=metrics.get("AP_m"),
        ap_large=metrics.get("AP_l"),
        per_class={int(k): v for k, v in payload.get("per_class", {}).items()},
        error_counts=payload.get("error_counts"),
    )
