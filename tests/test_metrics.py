"""AP evaluation, error profiling, and run comparison."""

import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from densecrop import geometry, metrics
from densecrop.dataset import Annotation
from densecrop.errors import DataError, InvariantViolation
from densecrop.geometry import Box, Detection, box_areas, iou_matrix
from densecrop.metrics import (
    COCO_IOU_THRESHOLDS,
    ErrorProfile,
    EvalReport,
    compare_runs,
    evaluate_ap,
    format_comparison,
    profile_errors,
    read_eval_report,
    recall_by_size,
    write_eval_report,
)

from reference_impls import (
    ap_reference,
    interpolated_ap_per_row,
    match_per_image_ref,
    profile_errors_ref,
    recall_by_size_ref,
)


def ann(x1, y1, x2, y2, class_id=0):
    return Annotation(box=Box(x1, y1, x2, y2), class_id=class_id)


def det(image_id, x1, y1, x2, y2, class_id=0, score=0.9):
    return (image_id, Detection(box=Box(x1, y1, x2, y2), class_id=class_id, score=score))


def random_instance(rng, num_images=2, max_gt=5, max_det=8, num_classes=2, size=140.0):
    gts = {}
    dets = []
    for image_id in range(1, num_images + 1):
        anns = []
        for _ in range(int(rng.integers(0, max_gt + 1))):
            x, y = rng.uniform(0, size - 40, 2)
            w, h = rng.uniform(4, 40, 2)
            anns.append(ann(x, y, x + w, y + h, int(rng.integers(0, num_classes))))
        gts[image_id] = anns
        for _ in range(int(rng.integers(0, max_det + 1))):
            if anns and rng.random() < 0.7:
                base = anns[int(rng.integers(0, len(anns)))].box
                jit = rng.normal(0, 6, 4)
                x1, y1 = base.x1 + jit[0], base.y1 + jit[1]
                x2, y2 = max(base.x2 + jit[2], x1 + 1), max(base.y2 + jit[3], y1 + 1)
            else:
                x, y = rng.uniform(0, size - 40, 2)
                x1, y1, x2, y2 = x, y, x + rng.uniform(4, 40), y + rng.uniform(4, 40)
            dets.append(
                det(
                    image_id,
                    x1,
                    y1,
                    x2,
                    y2,
                    int(rng.integers(0, num_classes)),
                    float(rng.uniform(0.05, 1.0)),
                )
            )
    return gts, dets


SCORE_LEVELS = (0.3, 0.6, 0.9)


def tie_heavy_instance(rng, num_images=5, num_classes=3):
    """Integer-grid boxes full of exact IoU, score and area ties.

    Ground truth is 32x32 or 96x96, areas exactly on the size-bucket
    boundaries, and half of it has a same-class neighbour 8 pixels to the
    right. Most detections are a ground truth with one edge moved by 8
    pixels or not at all, so some overlap two ground truths equally; the
    rest are free grid boxes. Scores come from three levels and some
    detections appear twice. About a quarter of the images have no ground
    truth, and class ``num_classes`` is detected but never annotated.
    """
    gts = {}
    dets = []
    for image_id in range(1, num_images + 1):
        anns = []
        if rng.random() < 0.75:
            for _ in range(int(rng.integers(1, 5))):
                side = (32, 96)[int(rng.integers(0, 2))]
                x, y = (8 * rng.integers(0, 12, 2)).tolist()
                class_id = int(rng.integers(0, num_classes))
                anns.append(ann(x, y, x + side, y + side, class_id))
                if rng.random() < 0.5:
                    anns.append(ann(x + 8, y, x + 8 + side, y + side, class_id))
        gts[image_id] = anns
        for _ in range(int(rng.integers(0, 13))):
            if anns and rng.random() < 0.7:
                base = anns[int(rng.integers(0, len(anns)))]
                coords = list(base.box.as_tuple())
                coords[int(rng.integers(0, 4))] += 8 * int(rng.integers(-1, 2))
                class_id = base.class_id if rng.random() < 0.8 else int(rng.integers(0, num_classes + 1))
            else:
                x, y = (8 * rng.integers(0, 12, 2)).tolist()
                coords = [x, y, x + 8 * int(rng.integers(1, 13)), y + 8 * int(rng.integers(1, 13))]
                class_id = int(rng.integers(0, num_classes + 1))
            entry = det(image_id, *coords, class_id, SCORE_LEVELS[int(rng.integers(0, 3))])
            dets.append(entry)
            if rng.random() < 0.3:
                dets.append(entry)
    return gts, dets


def as_tuples(gts, dets):
    """The plain-tuple form the reference implementations take."""
    return (
        {i: [(a.box.as_tuple(), a.class_id) for a in anns] for i, anns in gts.items()},
        [(i, d.box.as_tuple(), d.class_id, d.score) for i, d in dets],
    )


def assert_matches_reference(value, expected):
    if expected is None:
        assert value is None
    else:
        assert value == pytest.approx(expected, abs=1e-9)


def assert_report_matches_reference(gts, dets):
    """``evaluate_ap`` equals ``ap_reference`` on every AP figure and every
    class's AP."""
    thresholds = list(COCO_IOU_THRESHOLDS)
    report = evaluate_ap(gts, dets)
    ref_gts, ref_dets = as_tuples(gts, dets)
    for value, thr, area_range in (
        (report.ap, thresholds, (0.0, float("inf"))),
        (report.ap50, thresholds[:1], (0.0, float("inf"))),
        (report.ap75, thresholds[5:6], (0.0, float("inf"))),
        (report.ap_small, thresholds, (0.0, 1024.0)),
        (report.ap_medium, thresholds, (1024.0, 9216.0)),
        (report.ap_large, thresholds, (9216.0, float("inf"))),
    ):
        expected = ap_reference(ref_gts, ref_dets, thr, area_range=area_range)
        assert_matches_reference(value, expected)
    for class_id, value in report.per_class.items():
        class_gts = {i: [r for r in rows if r[1] == class_id] for i, rows in ref_gts.items()}
        class_dets = [r for r in ref_dets if r[2] == class_id]
        assert_matches_reference(value, ap_reference(class_gts, class_dets, thresholds))


class TestEvaluateAp:
    def test_perfect_detections_ap_one(self):
        gts = {
            1: [ann(10, 10, 40, 40, 0), ann(100, 100, 160, 150, 1)],
            2: [ann(5, 5, 25, 25, 0)],
        }
        dets = [
            det(1, 10, 10, 40, 40, 0, 1.0),
            det(1, 100, 100, 160, 150, 1, 1.0),
            det(2, 5, 5, 25, 25, 0, 1.0),
        ]
        report = evaluate_ap(gts, dets)
        assert report.ap == 1.0
        assert report.ap50 == 1.0
        assert report.ap75 == 1.0

    def test_zero_detections_ap_zero(self):
        gts = {1: [ann(10, 10, 40, 40, 0)]}
        report = evaluate_ap(gts, [])
        assert report.ap == 0.0 and report.ap50 == 0.0 and report.ap75 == 0.0

    def test_no_ground_truth_means_undefined(self):
        report = evaluate_ap({1: []}, [])
        assert report.ap is None

    def test_unknown_image_id_rejected(self):
        with pytest.raises(DataError, match="unknown image id"):
            evaluate_ap({1: [ann(0, 0, 10, 10)]}, [det(9, 0, 0, 10, 10)])

    def test_handcrafted_case_matches_reference(self):
        gts = {
            1: [ann(10, 10, 50, 50, 0), ann(60, 60, 90, 100, 0), ann(120, 10, 180, 70, 1)],
        }
        dets = [
            det(1, 12, 11, 52, 49, 0, 0.95),   # good match for gt0
            det(1, 58, 62, 88, 98, 0, 0.80),   # good match for gt1
            det(1, 10, 10, 50, 50, 0, 0.70),   # duplicate of gt0
            det(1, 125, 15, 175, 60, 1, 0.60), # decent match for gt2
        ]
        report = evaluate_ap(gts, dets)
        expected = ap_reference(
            {1: [(a.box.as_tuple(), a.class_id) for a in gts[1]]},
            [(i, d.box.as_tuple(), d.class_id, d.score) for i, d in dets],
            list(COCO_IOU_THRESHOLDS),
        )
        assert report.ap == pytest.approx(expected, abs=1e-9)

    def test_random_instances_match_reference(self):
        rng = np.random.default_rng(70)
        for _ in range(60):
            gts, dets = random_instance(rng)
            report = evaluate_ap(gts, dets)
            expected = ap_reference(
                {i: [(a.box.as_tuple(), a.class_id) for a in anns] for i, anns in gts.items()},
                [(i, d.box.as_tuple(), d.class_id, d.score) for i, d in dets],
                list(COCO_IOU_THRESHOLDS),
            )
            if expected is None:
                assert report.ap is None
            else:
                assert report.ap == pytest.approx(expected, abs=1e-9)

    def test_size_buckets_match_reference(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            gts, dets = random_instance(rng)
            report = evaluate_ap(gts, dets)
            for value, area_range in (
                (report.ap_small, (0.0, 1024.0)),
                (report.ap_medium, (1024.0, 9216.0)),
                (report.ap_large, (9216.0, float("inf"))),
            ):
                expected = ap_reference(
                    {i: [(a.box.as_tuple(), a.class_id) for a in anns] for i, anns in gts.items()},
                    [(i, d.box.as_tuple(), d.class_id, d.score) for i, d in dets],
                    list(COCO_IOU_THRESHOLDS),
                    area_range=area_range,
                )
                if expected is None:
                    assert value is None
                else:
                    assert value == pytest.approx(expected, abs=1e-9)

    def test_adding_top_scoring_true_positive_never_hurts(self):
        rng = np.random.default_rng(72)
        for _ in range(30):
            gts, dets = random_instance(rng)
            if not any(gts.values()):
                continue
            before = evaluate_ap(gts, dets).ap or 0.0
            image_id = next(i for i, anns in gts.items() if anns)
            target = gts[image_id][0]
            boosted = dets + [
                (image_id, Detection(box=target.box, class_id=target.class_id, score=1.0))
            ]
            after = evaluate_ap(gts, boosted).ap or 0.0
            assert after >= before - 1e-12

    def test_per_class_table(self):
        gts = {1: [ann(10, 10, 40, 40, 0), ann(60, 60, 90, 90, 2)]}
        dets = [det(1, 10, 10, 40, 40, 0, 1.0)]
        report = evaluate_ap(gts, dets)
        assert report.per_class[0] == 1.0
        assert report.per_class[2] == 0.0


class TestRecallBySize:
    def test_buckets(self):
        gts = {
            1: [ann(0, 0, 10, 10, 0), ann(50, 50, 150, 150, 0)],
        }
        dets = [det(1, 0, 0, 10, 10, 0, 0.9)]
        recall = recall_by_size(gts, dets)
        assert recall["small"] == 1.0
        assert recall["large"] == 0.0
        assert recall["all"] == 0.5
        assert recall["medium"] is None

    @pytest.mark.parametrize("iou_thresh", [0.0, -0.5, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, iou_thresh):
        # only boxes that meet are paired, so a threshold of 0 cannot match
        # same-class boxes that do not
        gts = {1: [ann(0, 0, 10, 10, 0)]}
        dets = [det(1, 50, 50, 60, 60, 0, 0.9)]
        with pytest.raises(InvariantViolation):
            recall_by_size(gts, dets, iou_thresh=iou_thresh)


class TestProfileErrors:
    def test_perfect_detections_no_errors(self):
        gts = {1: [ann(10, 10, 40, 40, 0)]}
        dets = [det(1, 10, 10, 40, 40, 0, 1.0)]
        profile = profile_errors(gts, dets)
        assert all(v == 0 for v in profile.counts.values())
        assert profile.true_positives == 1

    def test_localization_error_and_miss(self):
        # right class but IoU 0.3: localization error; the gt stays missed
        gts = {1: [ann(0, 0, 30, 10, 0)]}
        dets = [det(1, 0, 0, 10, 10, 0, 0.9)]
        profile = profile_errors(gts, dets, fg_iou=0.5, bg_iou=0.1)
        assert profile.counts["Loc"] == 1
        assert profile.counts["Miss"] == 1
        assert profile.false_positives == 1

    def test_duplicate_error(self):
        gts = {1: [ann(10, 10, 50, 50, 0)]}
        dets = [
            det(1, 10, 10, 50, 50, 0, 0.9),
            det(1, 11, 11, 51, 51, 0, 0.7),
        ]
        profile = profile_errors(gts, dets)
        assert profile.counts["Dupe"] == 1
        assert profile.counts["Miss"] == 0

    def test_classification_error(self):
        gts = {1: [ann(10, 10, 50, 50, 1)]}
        dets = [det(1, 10, 10, 50, 50, 0, 0.9)]
        profile = profile_errors(gts, dets)
        assert profile.counts["Cls"] == 1
        assert profile.counts["Miss"] == 1

    def test_both_error(self):
        gts = {1: [ann(0, 0, 30, 10, 1)]}
        dets = [det(1, 0, 0, 10, 10, 0, 0.9)]
        profile = profile_errors(gts, dets)
        assert profile.counts["Both"] == 1

    def test_background_error(self):
        gts = {1: [ann(0, 0, 10, 10, 0)]}
        dets = [det(1, 200, 200, 240, 240, 0, 0.9)]
        profile = profile_errors(gts, dets)
        assert profile.counts["Bkg"] == 1

    def test_partition_equals_false_positives(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            gts, dets = random_instance(rng, num_images=3)
            profile = profile_errors(gts, dets)
            fp_types = sum(profile.counts[k] for k in ("Cls", "Loc", "Both", "Dupe", "Bkg"))
            assert fp_types == profile.false_positives
            assert profile.true_positives + profile.false_positives == len(dets)

    def test_invalid_thresholds(self):
        with pytest.raises(InvariantViolation):
            profile_errors({}, [], fg_iou=0.1, bg_iou=0.5)

    @pytest.mark.parametrize("fg_iou", [1.5, float("inf")])
    def test_fg_iou_above_one_rejected(self, fg_iou):
        # no IoU reaches it: an exact detection would count as Loc plus Miss
        gts = {1: [ann(10, 10, 40, 40)]}
        dets = [det(1, 10, 10, 40, 40)]
        with pytest.raises(InvariantViolation, match="fg_iou"):
            profile_errors(gts, dets, fg_iou=fg_iou)
        assert profile_errors(gts, dets, fg_iou=1.0).true_positives == 1


class TestTieHeavyOracle:
    def test_generator_makes_the_ties_it_promises(self):
        rng = np.random.default_rng(80)
        instances = [tie_heavy_instance(rng) for _ in range(20)]
        areas = {a.box.area for gts, _ in instances for anns in gts.values() for a in anns}
        assert areas == {32.0**2, 96.0**2}
        assert any(not anns for gts, _ in instances for anns in gts.values())
        assert any(d.class_id == 3 for _, dets in instances for _, d in dets)
        assert any(len(set(map(id, dets))) < len(dets) for _, dets in instances)

    def test_ap_family_and_per_class_match_reference(self):
        rng = np.random.default_rng(81)
        for _ in range(40):
            assert_report_matches_reference(*tie_heavy_instance(rng))


def random_or_tie_heavy(rng, kind):
    if kind == "random":
        return random_instance(rng, num_images=3)
    return tie_heavy_instance(rng)


class TestErrorProfileOracle:
    @pytest.mark.parametrize("kind", ["random", "tie_heavy"])
    @pytest.mark.parametrize("fg_iou, bg_iou", [(0.5, 0.1), (0.6, 0.3)])
    def test_profile_errors_matches_reference(self, kind, fg_iou, bg_iou):
        rng = np.random.default_rng(82)
        for _ in range(40):
            gts, dets = random_or_tie_heavy(rng, kind)
            profile = profile_errors(gts, dets, fg_iou=fg_iou, bg_iou=bg_iou)
            counts, tp, fp = profile_errors_ref(*as_tuples(gts, dets), fg_iou=fg_iou, bg_iou=bg_iou)
            assert profile.counts == counts
            assert (profile.true_positives, profile.false_positives) == (tp, fp)

    @pytest.mark.parametrize("kind", ["random", "tie_heavy"])
    @pytest.mark.parametrize("iou_thresh", [0.5, 0.75])
    def test_recall_by_size_matches_reference(self, kind, iou_thresh):
        rng = np.random.default_rng(83)
        for _ in range(40):
            gts, dets = random_or_tie_heavy(rng, kind)
            got = recall_by_size(gts, dets, iou_thresh=iou_thresh)
            assert got == recall_by_size_ref(*as_tuples(gts, dets), iou_thresh=iou_thresh)


def pinned_dump():
    """A fixed dump of 2331 detections on 250 images, random and tie-heavy."""
    rng = np.random.default_rng(20261018)
    gts, dets = random_instance(rng, num_images=100, max_gt=12, max_det=24, num_classes=2, size=300.0)
    tie_gts, tie_dets = tie_heavy_instance(rng, num_images=150, num_classes=2)
    gts.update({i + 1000: anns for i, anns in tie_gts.items()})
    dets += [(i + 1000, d) for i, d in tie_dets]
    return gts, dets


class TestPinnedValues:
    """Exact values from the scalar-IoU implementation this one replaced;
    compared with ==, so any change in float operation order shows."""

    def test_eval_report_is_exact(self):
        gts, dets = pinned_dump()
        assert len(dets) == 2331
        assert evaluate_ap(gts, dets) == EvalReport(
            ap=0.05336471857657804,
            ap50=0.09159627386163172,
            ap75=0.05784464382702461,
            ap_small=0.03174765834427022,
            ap_medium=0.19308236368749498,
            ap_large=0.3851193102188001,
            per_class={0: 0.0550738712376186, 1: 0.05165556591553747},
        )

    def test_error_profile_is_exact(self):
        gts, dets = pinned_dump()
        assert profile_errors(gts, dets) == ErrorProfile(
            counts={"Cls": 212, "Loc": 240, "Both": 273, "Dupe": 283, "Bkg": 972, "Miss": 613},
            true_positives=351,
            false_positives=1980,
        )


SEGMENT_PATTERNS = ("left out throughout", "left out at the head", "left out at the tail",
                    "all left out", "no true positive")


def ranked_outcomes(rng, n, pattern):
    """n ranked outcomes (1, 0, or -1 for left out) of one segment."""
    outcomes = rng.choice(np.array([-1, 0, 1], dtype=np.int8), n, p=rng.dirichlet(np.ones(3)))
    run = int(rng.integers(1, n + 1)) if n else 0
    if pattern == "left out at the head":
        outcomes[:run] = -1
    elif pattern == "left out at the tail":
        outcomes[n - run :] = -1
    elif pattern == "all left out":
        outcomes[:] = -1
    elif pattern == "no true positive":
        outcomes[outcomes == 1] = 0
    return outcomes


class TestOnePassIntegration:
    """``_ranking`` and ``_interpolated_aps`` against a Python sort and the
    per-row integration they replaced, on random ragged segments; the APs
    are compared with ==."""

    @pytest.mark.parametrize("blocks", ["several classes", "one class"])
    def test_equals_per_row_integration(self, blocks, monkeypatch):
        if blocks == "one class":
            monkeypatch.setattr(geometry, "CHUNK_OBJECTS", 1)
        rng = np.random.default_rng(31)
        seen = Counter()
        while seen["segments"] < 2000:
            num_ranges, num_thresholds = int(rng.integers(1, 4)), int(rng.integers(1, 11))
            present = np.sort(rng.choice(np.arange(-3, 20), rng.integers(1, 7), replace=False))
            num_dets = int(rng.integers(0, 120))
            # class 20 is not present: its detections rank last and are never read
            classes = rng.choice(np.append(present, 20), num_dets)
            scores = rng.integers(0, 6, num_dets) / 5.0  # six values: many ties
            ranking, starts = metrics._ranking(classes, scores, present)
            outcome = rng.integers(-1, 2, (num_ranges, num_thresholds, num_dets)).astype(np.int8)
            npig = np.zeros((num_ranges, len(present)), dtype=np.intp)
            expected = np.zeros((num_ranges, len(present), num_thresholds))
            for c, class_id in enumerate(present):
                ranked = sorted(np.flatnonzero(classes == class_id), key=lambda i: -scores[i])
                assert ranking[starts[c] : starts[c + 1]].tolist() == ranked
                n = len(ranked)
                seen["ties"] += len(set(scores[ranked])) < n
                for r in range(num_ranges):
                    rows = [ranked_outcomes(rng, n, rng.choice(SEGMENT_PATTERNS))
                            for _ in range(num_thresholds)]
                    most = max(int((row == 1).sum()) for row in rows)
                    npig[r, c] = rng.choice([0, 1, max(most, 1), most + rng.integers(1, 40)])
                    for t, row in enumerate(rows):
                        outcome[r, t, ranked] = row
                        if npig[r, c]:
                            expected[r, c, t] = interpolated_ap_per_row(row[row >= 0], npig[r, c])
                            seen["segments"] += 1
                            seen["npig 1"] += npig[r, c] == 1
                            seen["npig above the true positives"] += npig[r, c] > (row == 1).sum()
                            seen["class without detections"] += n == 0
                            seen["all left out"] += n > 0 and (row < 0).all()
                            seen["no true positive"] += (row >= 0).any() and not (row == 1).any()
                            seen["left out at the head"] += n > 1 and row[0] < 0 <= row.max()
                            seen["left out at the tail"] += n > 1 and row[-1] < 0 <= row.max()
                            seen["left out between kept"] += (
                                n > 2 and row[0] >= 0 and row[-1] >= 0 and (row < 0).any()
                            )
            got = metrics._interpolated_aps(outcome, ranking, starts, npig)
            np.testing.assert_array_equal(got, expected)
        assert all(seen.values()) and len(seen) == 10, seen


# About 2.1 MB evaluates the memory test's dump in chunks of about
# CHUNK_OBJECTS boxes; building all of its 150k pairs at once peaks at
# about 9.5 MB.
PEAK_BOUND_BYTES = 4 << 20
# evaluate_ap's traced peak on that dump when it integrated AP row by row
# (Python 3.11, numpy 2.4).
ROW_BY_ROW_PEAK_BYTES = 2_282_000
COCO_BOUNDS = np.array([(0.0, np.inf), (0.0, 32.0**2), (32.0**2, 96.0**2), (96.0**2, np.inf)])


def memory_dump():
    """About 10k detections over 400 images."""
    rng = np.random.default_rng(86)
    gts, dets = random_instance(
        rng, num_images=400, max_gt=30, max_det=50, num_classes=5, size=600.0
    )
    assert 9000 < len(dets) < 11000
    return gts, dets


def batched_matched(gts, dets, thresholds):
    """The chunked matcher's (R, T, D) matched ground-truth rows over the
    whole dump, rows numbered across images in sorted image-id order, and
    how many detections each branch of its decision served: uncontested
    ones taking counted ground truth, uncontested ones taking ignored
    ground truth because no counted one qualifies, and contested ones (all
    at some range and threshold)."""
    table = metrics._table(gts, dets)
    counted = metrics._in_ranges(box_areas(table.gt_boxes), COCO_BOUNDS)
    columns = [np.empty((len(COCO_BOUNDS), len(thresholds), 0), dtype=np.intp)]
    branches = {"counted": 0, "ignored": 0, "contested": 0}
    at = thresholds[:, None]
    for chunk in metrics._chunks(table, same_class_only=True):
        m = metrics._match(
            chunk.det, chunk.gt, chunk.ious, chunk.num_dets, counted[:, chunk.gts], thresholds
        )
        matched = m.rows()
        columns.append(np.where(matched >= 0, matched + chunk.gts.start, -1))
        on_counted = m.counted_iou[:, None] >= at
        branches["counted"] += int(on_counted.any(axis=(0, 1)).sum())
        branches["ignored"] += int(((m.best_iou >= at) & ~on_counted).any(axis=(0, 1)).sum())
        branches["contested"] += len(m.contested)
    return np.concatenate(columns, axis=-1), branches


def per_image_matched(gts, dets, thresholds):
    """``match_per_image_ref`` image by image, in the same detection order
    and ground-truth numbering, plus the number of contested detections
    (an earlier detection of the image reaches some ground truth it
    reaches)."""
    columns, offset, contested = [], 0, 0
    for image_id in sorted(gts, key=str):
        anns = gts[image_id]
        img_dets = [d for i, d in dets if i == image_id]
        order = np.argsort([-d.score for d in img_dets], kind="stable").astype(np.intp)
        img_dets = [img_dets[k] for k in order]
        gt_boxes = np.array([a.box.as_tuple() for a in anns]).reshape(-1, 4)
        det_boxes = np.array([d.box.as_tuple() for d in img_dets]).reshape(-1, 4)
        same = np.array([[d.class_id == a.class_id for a in anns] for d in img_dets], dtype=bool)
        same = same.reshape(len(img_dets), len(anns))
        ious = np.where(same, iou_matrix(det_boxes, gt_boxes), -np.inf)
        areas = box_areas(gt_boxes)
        ignored = (areas < COCO_BOUNDS[:, :1]) | (areas > COCO_BOUNDS[:, 1:])
        matched = match_per_image_ref(ious, ignored, thresholds)
        columns.append(np.where(matched >= 0, matched + offset, -1))
        offset += len(anns)
        reach = ious >= thresholds.min()
        contested += sum(bool((reach[d] & reach[:d].any(axis=0)).any()) for d in range(len(reach)))
    return np.concatenate(columns, axis=-1), contested


class TestChunkedMatcher:
    """The chunked matcher against the per-image matcher it replaced."""

    @pytest.mark.parametrize("kind", ["random", "tie_heavy"])
    def test_matched_columns_equal_per_image_reference(self, kind):
        rng = np.random.default_rng(84)
        thresholds = np.array(COCO_IOU_THRESHOLDS)
        branches = dict.fromkeys(("counted", "ignored", "contested"), 0)
        empty_images = {"no detections": 0, "no ground truth": 0}
        for _ in range(30):
            gts, dets = random_or_tie_heavy(rng, kind)
            want, contested = per_image_matched(gts, dets, thresholds)
            got, served = batched_matched(gts, dets, thresholds)
            np.testing.assert_array_equal(got, want)
            assert served["contested"] == contested
            branches = {k: branches[k] + served[k] for k in branches}
            with_dets = {i for i, _ in dets}
            empty_images["no detections"] += sum(i not in with_dets for i in gts)
            empty_images["no ground truth"] += sum(not anns for anns in gts.values())
        assert all(branches.values()), branches
        assert all(empty_images.values()), empty_images

    def test_chunk_boundaries_anywhere(self, monkeypatch):
        """A budget of a few objects splits chunks between most images and
        leaves images over the budget alone in theirs."""
        monkeypatch.setattr(geometry, "CHUNK_OBJECTS", 3)
        rng = np.random.default_rng(85)
        thresholds = list(COCO_IOU_THRESHOLDS)
        split, alone_over_budget = 0, 0
        for k in range(30):
            gts, dets = random_or_tie_heavy(rng, ("random", "tie_heavy")[k % 2])
            table = metrics._table(gts, dets)
            chunks = list(metrics._chunks(table, same_class_only=False))
            split += len(chunks) > 1
            first, last = table.det_start[:-1], table.det_start[1:]
            for c in chunks:
                images = (first >= c.dets.start) & (last <= c.dets.stop) & (last > first)
                objects = c.num_dets + c.gts.stop - c.gts.start
                alone_over_budget += images.sum() == 1 and objects > 3
            ref_gts, ref_dets = as_tuples(gts, dets)
            report = evaluate_ap(gts, dets)
            for value, area_range in (
                (report.ap, (0.0, float("inf"))),
                (report.ap_small, (0.0, 1024.0)),
                (report.ap_medium, (1024.0, 9216.0)),
                (report.ap_large, (9216.0, float("inf"))),
            ):
                expected = ap_reference(ref_gts, ref_dets, thresholds, area_range=area_range)
                assert_matches_reference(value, expected)
            profile = profile_errors(gts, dets)
            counts, tp, fp = profile_errors_ref(ref_gts, ref_dets)
            assert profile.counts == counts
            assert (profile.true_positives, profile.false_positives) == (tp, fp)
            assert recall_by_size(gts, dets) == recall_by_size_ref(ref_gts, ref_dets)
        assert split and alone_over_budget

    def test_peak_memory_is_bounded_by_the_chunk_budget(self):
        """Evaluating about 10k detections in chunks of whole images keeps
        the peak traced allocation far below what the dump's 150k pairs
        would take at once."""
        gts, dets = memory_dump()
        evaluate_ap(gts, dets)  # first call: lazy imports and caches
        tracemalloc.start()
        try:
            evaluate_ap(gts, dets)
            profile_errors(gts, dets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PEAK_BOUND_BYTES

    def test_integration_keeps_the_row_by_row_peak(self):
        """AP integrated in one pass over blocks of classes peaks no higher
        than it did row by row; one (R, T, D) int64 index array over the
        dump's three ranges with ground truth would take 2.5 MB alone."""
        gts, dets = memory_dump()
        evaluate_ap(gts, dets)
        tracemalloc.start()
        try:
            evaluate_ap(gts, dets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ROW_BY_ROW_PEAK_BYTES


ALL, SMALL, MEDIUM, LARGE = range(len(COCO_BOUNDS))


def decided_rows(gts, dets):
    """The matcher's (R, T, D) rows, once they equal the per-image
    reference's and ``evaluate_ap`` equals ``ap_reference``."""
    thresholds = np.array(COCO_IOU_THRESHOLDS)
    got, _ = batched_matched(gts, dets, thresholds)
    np.testing.assert_array_equal(got, per_image_matched(gts, dets, thresholds)[0])
    assert_report_matches_reference(gts, dets)
    return got


class TestMatcherDecisions:
    """Handcrafted cases of the matcher's decision, from the two best pairs
    of an uncontested detection and the picks of a contested one. Rows
    index ground truth in annotation order; threshold 5 is 0.75."""

    def test_iou_exactly_at_a_threshold_matches(self):
        gts = {1: [ann(0, 0, 100, 100)], 2: [ann(0, 0, 100, 100)]}
        dets = [det(1, 0, 0, 100, 50), det(2, 0, 0, 100, 75)]  # IoU 0.5 and 0.75
        rows = decided_rows(gts, dets)
        np.testing.assert_array_equal(rows[ALL, :, 0], [0] + [-1] * 9)
        np.testing.assert_array_equal(rows[ALL, :, 1], [1] * 6 + [-1] * 4)

    def test_counted_wins_a_tie_with_ignored(self):
        # IoU 0.75 with both: 1200 / 1600 and 900 / 1200
        gts = {1: [ann(0, 0, 40, 40), ann(0, 0, 30, 30)]}  # medium, then small
        rows = decided_rows(gts, [det(1, 0, 0, 30, 40)])
        for r, row in ((ALL, 0), (SMALL, 1), (MEDIUM, 0), (LARGE, 0)):
            np.testing.assert_array_equal(rows[r, :, 0], [row] * 6 + [-1] * 4)

    def test_counted_above_threshold_beats_ignored_of_higher_iou(self):
        # IoU 750 / 990 = 0.76 with the small one, 990 / 1080 = 0.92 with the medium one
        gts = {1: [ann(0, 0, 30, 36), ann(0, 0, 30, 25)]}
        rows = decided_rows(gts, [det(1, 0, 0, 30, 33)])
        np.testing.assert_array_equal(rows[SMALL, :, 0], [1] * 6 + [0] * 3 + [-1])
        np.testing.assert_array_equal(rows[MEDIUM, :, 0], [0] * 9 + [-1])

    def test_counted_below_threshold_leaves_the_ignored_match(self):
        # IoU 360 / 990 = 0.36 with the small one, 0.92 with the medium one;
        # in the small range the detection is left out of the ranking, not
        # a false positive, up to threshold 0.9
        gts = {1: [ann(0, 0, 30, 36), ann(0, 0, 30, 12)]}
        dets = [det(1, 0, 0, 30, 33, score=0.9), det(1, 200, 200, 220, 220, score=0.5)]
        rows = decided_rows(gts, dets)
        np.testing.assert_array_equal(rows[SMALL, :, 0], [0] * 9 + [-1])
        # the small ground truth is never matched, so small AP is 0
        assert evaluate_ap(gts, dets).ap_small == 0.0

    def test_contested_after_uncontested_sees_its_pick_taken(self):
        # the first detection is exact on ground truth 0 and reaches 1 (IoU
        # 0.67); the second meets both at 0.82 and, 0 being taken, takes 1
        gts = {1: [ann(0, 0, 40, 40), ann(8, 0, 48, 40), ann(100, 100, 130, 130)]}
        dets = [
            det(1, 0, 0, 40, 40, score=0.9),
            det(1, 100, 100, 130, 130, score=0.85),
            det(1, 4, 0, 44, 40, score=0.8),
        ]
        thresholds = np.array(COCO_IOU_THRESHOLDS)
        rows = decided_rows(gts, dets)
        np.testing.assert_array_equal(rows[ALL, :, 0], [0] * 10)
        np.testing.assert_array_equal(rows[ALL, :, 1], [2] * 10)
        np.testing.assert_array_equal(rows[ALL, :, 2], [1] * 7 + [-1] * 3)
        assert batched_matched(gts, dets, thresholds)[1]["contested"] == 1


def dense_image(rng, n, size):
    """One image of n ground truth and n detections in a size x size frame:
    seven in ten detections a jittered ground truth, mostly of its class,
    the rest free boxes of any class."""
    xy = rng.uniform(0.0, size - 40.0, (2 * n, 2))
    boxes = np.hstack([xy, xy + rng.uniform(4.0, 40.0, (2 * n, 2))])
    classes = rng.integers(0, 3, 2 * n)
    source = rng.integers(0, n, n)
    copied = rng.random(n) < 0.7
    jittered = boxes[source] + rng.normal(0.0, 6.0, (n, 4))
    jittered[:, 2:] = np.maximum(jittered[:, 2:], jittered[:, :2] + 1.0)
    boxes[n:][copied] = jittered[copied]
    keep_class = copied & (rng.random(n) < 0.8)
    classes[n:][keep_class] = classes[source[keep_class]]
    scores = rng.uniform(0.05, 1.0, n)
    gts = {1: [ann(*b, c) for b, c in zip(boxes[:n].tolist(), classes[:n].tolist())]}
    dets = [
        det(1, *b, c, s)
        for b, c, s in zip(boxes[n:].tolist(), classes[n:].tolist(), scores.tolist())
    ]
    return gts, dets


# One image of 2000 detections and 2000 ground truth: pairing only the
# boxes that meet peaks at about 2 MB, every pair of the image at about
# 280 MB.
DENSE_PEAK_BOUND_BYTES = 8 << 20


class TestDenseImage:
    """An image's pairs are those that meet, so one dense image costs its
    boxes, not their square, and evaluates as the reference does."""

    def test_matches_reference(self):
        gts, dets = dense_image(np.random.default_rng(87), 300, 400.0)
        ref_gts, ref_dets = as_tuples(gts, dets)
        thresholds = list(COCO_IOU_THRESHOLDS)
        report = evaluate_ap(gts, dets)
        for value, area_range in (
            (report.ap, (0.0, float("inf"))),
            (report.ap_small, (0.0, 1024.0)),
            (report.ap_medium, (1024.0, 9216.0)),
        ):
            expected = ap_reference(ref_gts, ref_dets, thresholds, area_range=area_range)
            assert_matches_reference(value, expected)
        profile = profile_errors(gts, dets)
        counts, tp, fp = profile_errors_ref(ref_gts, ref_dets)
        assert profile.counts == counts
        assert (profile.true_positives, profile.false_positives) == (tp, fp)
        assert min(counts.values()) > 0 and tp > 0

    def test_peak_memory_follows_the_boxes(self):
        gts, dets = dense_image(np.random.default_rng(88), 2000, 1000.0)
        evaluate_ap(gts, dets)  # first call: lazy imports and caches
        tracemalloc.start()
        try:
            evaluate_ap(gts, dets)
            profile_errors(gts, dets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < DENSE_PEAK_BOUND_BYTES, peak / 2**20


def make_report(ap=0.5, ap50=0.7, ap75=0.4, ap_s=0.2, ap_m=0.5, ap_l=None):
    return EvalReport(
        ap=ap, ap50=ap50, ap75=ap75, ap_small=ap_s, ap_medium=ap_m, ap_large=ap_l
    )


class TestCompareRuns:
    def test_self_comparison_zero_deltas(self):
        rep = make_report()
        table = compare_runs([("a", rep), ("b", rep)])
        for metric in table["metrics"].values():
            assert all(d in (0.0, None) for d in metric["delta_vs_first"])

    def test_std_matches_hand_computation(self):
        reports = [("r1", make_report(ap=0.30)), ("r2", make_report(ap=0.34)), ("r3", make_report(ap=0.32))]
        table = compare_runs(reports)
        values = [0.30, 0.34, 0.32]
        mean = sum(values) / 3
        std = (sum((v - mean) ** 2 for v in values) / 2) ** 0.5
        assert table["metrics"]["AP"]["std"] == pytest.approx(std, abs=1e-12)

    def test_missing_metric_gap_marker(self):
        table = compare_runs([("a", make_report(ap_l=0.5)), ("b", make_report(ap_l=None))])
        assert table["metrics"]["AP_l"]["values"][1] is None
        text = format_comparison(table)
        assert "--" in text

    def test_needs_two_reports(self):
        with pytest.raises(DataError):
            compare_runs([("solo", make_report())])


class TestReportIO:
    def test_round_trip(self, tmp_path):
        report = EvalReport(
            ap=0.5,
            ap50=0.75,
            ap75=0.4,
            ap_small=0.1,
            ap_medium=0.6,
            ap_large=None,
            per_class={0: 0.5, 1: None},
            error_counts={"Cls": 1, "Loc": 2, "Both": 0, "Dupe": 0, "Bkg": 3, "Miss": 4},
        )
        json_path = tmp_path / "report.json"
        text_path = tmp_path / "report.txt"
        write_eval_report(report, json_path, text_path)
        loaded = read_eval_report(json_path)
        assert loaded == report
        assert "AP" in text_path.read_text()

    @pytest.mark.parametrize(
        "error_counts",
        [["x"], "Cls", 3, {"Cls": -1}, {"Cls": 1.5}, {"Cls": True}, {"Cls": "1"}, {"Oops": 1}],
        ids=repr,
    )
    def test_malformed_error_counts_rejected(self, tmp_path, error_counts):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"metrics": {"AP": 0.5}, "error_counts": error_counts}))
        with pytest.raises(DataError, match="error counts"):
            read_eval_report(path)

    def test_partial_error_counts_round_trip(self, tmp_path):
        report = EvalReport(None, None, None, None, None, None, error_counts={"Miss": 2})
        write_eval_report(report, tmp_path / "report.json", tmp_path / "report.txt")
        assert read_eval_report(tmp_path / "report.json") == report
