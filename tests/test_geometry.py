"""Geometry kernels: examples plus randomized oracle comparisons."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from densecrop.croplab import CropParams
from densecrop import geometry as geometry_module
from densecrop.dataset import Annotation
from densecrop.errors import ConfigError, InvariantViolation
from densecrop.geometry import (
    Box,
    Detection,
    box_array,
    check_boxes,
    clip,
    detections_from_arrays,
    iou_matrix,
    meeting_pairs,
    nms_keep,
    project_rows,
    reproject_rows,
)

from reference_impls import (
    detection_arrays,
    iou_ref,
    label_one,
    meeting_case_stack,
    nms_keep_all_pairs,
    nms_ref,
    scaled_boxes_ref,
)


def random_box(rng, width=500.0, height=500.0, min_side=1.0, max_side=120.0):
    w = rng.uniform(min_side, max_side)
    h = rng.uniform(min_side, max_side)
    x = rng.uniform(0.0, width - w)
    y = rng.uniform(0.0, height - h)
    return Box(x, y, x + w, y + h)


class TestBoxInvariants:
    def test_zero_area_rejected(self):
        with pytest.raises(InvariantViolation):
            Box(0, 0, 0, 10)
        with pytest.raises(InvariantViolation):
            Box(5, 5, 5, 5)

    def test_inverted_rejected(self):
        with pytest.raises(InvariantViolation):
            Box(10, 0, 5, 10)

    def test_non_finite_rejected(self):
        with pytest.raises(InvariantViolation):
            Box(0, 0, float("nan"), 10)
        with pytest.raises(InvariantViolation):
            Box(0, 0, float("inf"), 10)

    def test_coordinates_coerced_to_float(self):
        b = Box(1, 2, 3, 4)
        assert isinstance(b.x1, float) and isinstance(b.y2, float)


class TestDetectionInvariants:
    def test_score_bounds(self):
        box = Box(0, 0, 1, 1)
        with pytest.raises(InvariantViolation):
            Detection(box=box, class_id=0, score=1.5)
        with pytest.raises(InvariantViolation):
            Detection(box=box, class_id=0, score=-0.1)

    def test_negative_class_rejected(self):
        with pytest.raises(InvariantViolation):
            Detection(box=Box(0, 0, 1, 1), class_id=-1, score=0.5)


class TestValueObjects:
    """Box, Detection and Annotation are slotted: no per-instance
    ``__dict__``, and still frozen values with field-wise equality and
    hashing."""

    def objects(self):
        return [
            lambda k: Box(1, 2, 3 + k, 4),
            lambda k: Detection(Box(1, 2, 3, 4), class_id=k, score=0.5),
            lambda k: Annotation(Box(1, 2, 3, 4 + k), class_id=2),
        ]

    def test_no_instance_dict(self):
        for make in self.objects():
            value = make(0)
            assert not hasattr(value, "__dict__") and type(value).__slots__

    def test_equality_hash_and_frozenness(self):
        for make in self.objects():
            a, same, other = make(0), make(0), make(1)
            assert a == same and hash(a) == hash(same) and a is not same
            assert a != other and len({a, same, other}) == 2
            field = dataclasses.fields(a)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, field, getattr(other, field))
            with pytest.raises((AttributeError, TypeError)):
                a.extra = 1
        box = Box(1, 2, 3, 4)
        assert hash(box) == hash((1.0, 2.0, 3.0, 4.0)) and box.as_tuple() == (1.0, 2.0, 3.0, 4.0)


def iou(a: Box, b: Box) -> float:
    """:func:`iou_matrix` of one pair."""
    return float(iou_matrix(np.array([a.as_tuple()]), np.array([b.as_tuple()]))[0, 0])


class TestIou:
    def test_identity(self):
        assert iou(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0
        assert iou(Box(0, 0, 10, 10), Box(10, 0, 20, 10)) == 0.0  # touching

    def test_hand_computed_third(self):
        # intersection 50, union 150
        assert iou(Box(0, 0, 10, 10), Box(5, 0, 15, 10)) == pytest.approx(1.0 / 3.0)

    def test_symmetry_and_bounds_random(self):
        rng = np.random.default_rng(100)
        for _ in range(2000):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0
            assert iou(a, a) == 1.0

    def test_matches_reference(self):
        rng = np.random.default_rng(101)
        boxes = [random_box(rng) for _ in range(200)]
        m = iou_matrix(box_array(boxes[:100]), box_array(boxes[100:]))
        for i, a in enumerate(boxes[:100]):
            for j, b in enumerate(boxes[100:]):
                assert m[i, j] == iou_ref(a.as_tuple(), b.as_tuple())


class TestPairwiseIou:
    def test_empty(self):
        assert iou_matrix(np.zeros((0, 4)), np.zeros((0, 4))).shape == (0, 0)
        assert iou_matrix(np.zeros((0, 4)), box_array([Box(0, 0, 1, 1)])).shape == (0, 1)

    def test_single(self):
        b = box_array([Box(0, 0, 10, 10)])
        m = iou_matrix(b, b)
        assert m.shape == (1, 1) and m[0, 0] == 1.0

    def test_pair(self):
        b = box_array([Box(0, 0, 10, 10), Box(5, 0, 15, 10)])
        expected = np.array([[1.0, 1.0 / 3.0], [1.0 / 3.0, 1.0]])
        np.testing.assert_allclose(iou_matrix(b, b), expected)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(102)
        b = box_array([random_box(rng) for _ in range(12)])
        m = iou_matrix(b, b)
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_array_equal(np.diag(m), np.ones(12))


def expanded(box: Box, sigma: float, bounds) -> tuple:
    """Density-crop labeling's sigma expansion of one box: a box and its
    copy form one cluster, whose crop is the expanded box."""
    params = CropParams(merge_steps=1, sigma=sigma, theta=0.5, pi=1.0, min_cluster=2)
    (crop,) = label_one(box_array([box, box]), bounds, params).tolist()
    return tuple(crop)


class TestScaleBox:
    """The sigma expansion density-crop labeling starts with."""

    def test_zero_sigma_identity(self):
        b = Box(10, 10, 20, 20)
        assert expanded(b, 0, (500, 500)) == b.as_tuple()

    def test_clip_at_origin(self):
        assert expanded(Box(0, 0, 20, 20), 5, (500, 500)) == (0, 0, 25, 25)

    def test_clip_at_far_edge(self):
        assert expanded(Box(490, 490, 500, 500), 5, (500, 500)) == (485, 485, 500, 500)
        rng = np.random.default_rng(106)
        for _ in range(200):
            b, sigma = random_box(rng, 500.0, 400.0), float(rng.uniform(0, 30))
            want = scaled_boxes_ref([b.as_tuple()], sigma, (500, 400))[0]
            assert expanded(b, sigma, (500, 400)) == want

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            CropParams(sigma=-1)
        # a box outside the image cannot be expanded into it
        with pytest.raises(InvariantViolation):
            expanded(Box(510, 0, 520, 10), 5, (500, 500))


class TestEnclosingBox:
    """Each density crop encloses its cluster exactly."""

    def test_singleton(self):
        # a later round carries a lone crop through unchanged
        params = CropParams(merge_steps=3, sigma=0, theta=0.1, pi=1.0, min_cluster=2)
        boxes = box_array([Box(0, 0, 10, 10), Box(5, 0, 15, 10), Box(200, 200, 230, 230)])
        pair = box_array([Box(0, 0, 15, 10)])
        assert np.array_equal(label_one(boxes, (500, 500), params), pair)

    def test_pair(self):
        params = CropParams(merge_steps=1, sigma=0, theta=0.1, pi=1.0, min_cluster=2)
        boxes = box_array([Box(0, 0, 10, 10), Box(5, 5, 20, 15)])
        crops = label_one(boxes, (500, 500), params)
        assert crops.tolist() == [[0, 0, 20, 15]]

    def test_empty_rejected(self):
        params = CropParams()
        assert label_one(np.zeros((0, 4)), (500, 500), params).shape == (0, 4)
        for bad in ([10.0, 0.0, 5.0, 10.0], [0.0, 0.0, float("nan"), 10.0]):
            with pytest.raises(InvariantViolation):
                label_one(np.array([bad, [0.0, 0.0, 10.0, 10.0]]), (500, 500), params)

    def test_random_fold_oracle(self):
        rng = np.random.default_rng(103)
        # boxes around one centre overlap pairwise, so they form one cluster
        boxes = []
        for _ in range(100):
            cx, cy = rng.uniform(240, 260, 2)
            w, h = rng.uniform(40, 60, 2)
            boxes.append(Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
        params = CropParams(merge_steps=1, sigma=0, theta=0.1, pi=1.0, min_cluster=2)
        (got,) = label_one(box_array(boxes), (500, 500), params).tolist()
        xs1, ys1, xs2, ys2 = (
            min(b.x1 for b in boxes),
            min(b.y1 for b in boxes),
            max(b.x2 for b in boxes),
            max(b.y2 for b in boxes),
        )
        assert got == [xs1, ys1, xs2, ys2]


def reproject(p: Box, crop: Box, crop_size) -> Box:
    """:func:`reproject_rows` of one box."""
    return Box(*reproject_rows(np.array([p.as_tuple()]), [crop.as_tuple()], [crop_size])[0].tolist())


def project_into_crop(b: Box, crop: Box, crop_size) -> Box:
    """:func:`project_rows` of one box."""
    return Box(*project_rows(np.array([b.as_tuple()]), [crop.as_tuple()], [crop_size])[0].tolist())


class TestReproject:
    def test_unit_scale_zero_offset(self):
        out = reproject(Box(10, 10, 20, 20), Box(0, 0, 100, 100), (100, 100))
        assert out == Box(10, 10, 20, 20)
        assert project_into_crop(out, Box(0, 0, 100, 100), (100, 100)) == out

    def test_half_scale_with_shift(self):
        out = reproject(Box(40, 20, 80, 60), Box(100, 100, 300, 200), (400, 200))
        assert out == Box(120, 110, 140, 130)
        assert project_into_crop(out, Box(100, 100, 300, 200), (400, 200)) == Box(40, 20, 80, 60)

    def test_zero_crop_size_rejected(self):
        for fn in (reproject_rows, project_rows):
            with pytest.raises(InvariantViolation):
                fn(np.array([[0.0, 0.0, 1.0, 1.0]]), [(0.0, 0.0, 10.0, 10.0)], [(0, 10)])

    def test_round_trip_random(self):
        rng = np.random.default_rng(104)
        for _ in range(1000):
            crop = random_box(rng, min_side=10.0)
            out_size = (crop.width * rng.uniform(1.0, 8.0), crop.height * rng.uniform(1.0, 8.0))
            # a box inside the crop, expressed in parent coordinates
            inner = Box(
                crop.x1 + 0.1 * crop.width,
                crop.y1 + 0.1 * crop.height,
                crop.x2 - 0.1 * crop.width,
                crop.y2 - 0.1 * crop.height,
            )
            projected = project_into_crop(inner, crop, out_size)
            back = reproject(projected, crop, out_size)
            for a, b in zip(back.as_tuple(), inner.as_tuple()):
                assert abs(a - b) < 1e-9

    def test_result_inside_crop(self):
        rng = np.random.default_rng(105)
        for _ in range(200):
            crop = random_box(rng, min_side=20.0)
            out_size = (crop.width * 4.0, crop.height * 4.0)
            p = Box(
                rng.uniform(0, out_size[0] / 2),
                rng.uniform(0, out_size[1] / 2),
                rng.uniform(out_size[0] / 2 + 1, out_size[0]),
                rng.uniform(out_size[1] / 2 + 1, out_size[1]),
            )
            out = reproject(p, crop, out_size)
            tol = 1e-9
            assert out.x1 >= crop.x1 - tol and out.y1 >= crop.y1 - tol
            assert out.x2 <= crop.x2 + tol and out.y2 <= crop.y2 + tol


def random_detections(rng, n, num_classes=3):
    out = []
    for _ in range(n):
        out.append(
            Detection(
                box=random_box(rng, max_side=60.0),
                class_id=int(rng.integers(0, num_classes)),
                score=float(rng.uniform(0.05, 1.0)),
            )
        )
    return out


def nms(dets: list[Detection], iou_thresh: float) -> list[Detection]:
    """:func:`nms_keep` on the detections of one image: the kept ones in
    visiting order."""
    return [dets[i] for i in stack_nms([dets], iou_thresh).tolist()]


class TestNms:
    def test_disjoint_both_kept(self):
        dets = [
            Detection(Box(0, 0, 10, 10), 0, 0.9),
            Detection(Box(100, 100, 110, 110), 0, 0.8),
        ]
        assert nms(dets, 0.5) == dets

    def test_exact_duplicate_suppressed(self):
        dets = [
            Detection(Box(0, 0, 10, 10), 0, 0.7),
            Detection(Box(0, 0, 10, 10), 0, 0.9),
        ]
        kept = nms(dets, 0.5)
        assert kept == [dets[1]]

    def test_different_classes_not_suppressed(self):
        dets = [
            Detection(Box(0, 0, 10, 10), 0, 0.9),
            Detection(Box(0, 0, 10, 10), 1, 0.7),
        ]
        assert len(nms(dets, 0.5)) == 2

    def test_invalid_threshold(self):
        with pytest.raises(InvariantViolation):
            nms([], 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(106)
        for trial in range(20):
            dets = random_detections(rng, int(rng.integers(0, 60)))
            got = nms(dets, 0.5)
            ref = [dets[i] for i in nms_ref([(d.box.as_tuple(), d.class_id, d.score) for d in dets], 0.5)]
            assert got == ref

    def test_output_subset_and_no_overlap(self):
        rng = np.random.default_rng(107)
        dets = random_detections(rng, 80)
        kept = nms(dets, 0.4)
        assert all(k in dets for k in kept)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                if a.class_id == b.class_id:
                    assert iou(a.box, b.box) <= 0.4

    def test_score_tie_breaks_by_index(self):
        dets = [
            Detection(Box(0, 0, 10, 10), 0, 0.5),
            Detection(Box(1, 0, 11, 10), 0, 0.5),
        ]
        kept = nms(dets, 0.5)
        assert kept == [dets[0]]


def tied_instance(rng, n):
    """Detections with exact score ties, exact duplicate boxes and up to
    three classes: scores come from a few levels, and about a third of the
    boxes repeat an earlier one."""
    dets = []
    for i in range(n):
        if dets and rng.random() < 0.3:
            box = dets[int(rng.integers(0, len(dets)))].box
        else:
            box = random_box(rng, width=120.0, height=120.0, max_side=50.0)
        score = float(rng.choice([0.3, 0.5, 0.5, 0.7, 0.9, rng.uniform(0.05, 1.0)]))
        dets.append(Detection(box, int(rng.integers(0, 3)), score))
    return dets


def stack_nms(images, thresh):
    """:func:`nms_keep` over the detections of a list of images, as one
    ragged stack."""
    dets = [d for image in images for d in image]
    return nms_keep(*detection_arrays(dets), thresh, [len(image) for image in images])


def nms_ref_by_image(images, thresh):
    """``nms_ref`` run image by image, as indices into the stack."""
    kept, offset = [], 0
    for dets in images:
        rows = [(d.box.as_tuple(), d.class_id, d.score) for d in dets]
        kept += [offset + i for i in nms_ref(rows, thresh)]
        offset += len(dets)
    return kept


class TestNmsKernel:
    @pytest.mark.parametrize("thresh", [0.1, 0.5, 0.9, 1.0])
    def test_matches_reference_with_ties_and_duplicates(self, thresh):
        # Images of 0 to 40 rows, a fifth of them empty; each image's rows
        # pair only with each other, so identical boxes in two images never
        # suppress across them.
        rng = np.random.default_rng(int(thresh * 1000))
        for _ in range(40):
            images = [
                tied_instance(rng, int(rng.integers(0, 40))) if rng.random() > 0.2 else []
                for _ in range(int(rng.integers(0, 8)))
            ]
            keep = stack_nms(images, thresh)
            assert keep.dtype == np.int64
            assert keep.tolist() == nms_ref_by_image(images, thresh)

    @pytest.mark.parametrize("thresh", [0.1, 0.5, 0.9, 1.0])
    def test_one_crowded_image_of_one_class(self, thresh):
        # 300 same-class rows take 300 greedy ranks in one group, beside
        # small images whose groups end early.
        rng = np.random.default_rng(300)
        crowd = [Detection(d.box, 0, d.score) for d in tied_instance(rng, 300)]
        images = [tied_instance(rng, 12), [], crowd, tied_instance(rng, 3)]
        assert stack_nms(images, thresh).tolist() == nms_ref_by_image(images, thresh)

    def test_threshold_one_keeps_exact_duplicates(self):
        box = Box(0, 0, 10, 10)
        dets = [Detection(box, 0, 0.5), Detection(box, 0, 0.5)]
        assert stack_nms([dets], 1.0).tolist() == [0, 1]
        assert stack_nms([dets], 0.99).tolist() == [0]

    def test_empty_input(self):
        assert stack_nms([], 0.5).tolist() == []
        assert stack_nms([[], [], []], 0.5).tolist() == []

    def test_invalid_threshold(self):
        for thresh in (0.0, -0.5, 1.5, float("nan")):
            with pytest.raises(InvariantViolation):
                stack_nms([[]], thresh)

    def test_stack_builds_no_matrix_of_all_rows(self):
        # 32 images of 60 rows: a matrix over all 1920 rows would take
        # 1920 ** 2 bytes even as booleans; the per-(image, class) pairs
        # take a fraction of that.
        rng = np.random.default_rng(32)
        images = [tied_instance(rng, 60) for _ in range(32)]
        arrays = detection_arrays([d for image in images for d in image])
        rows = len(arrays[0])
        tracemalloc.start()
        try:
            keep = nms_keep(*arrays, 0.5, [60] * 32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows * rows
        assert keep.tolist() == nms_ref_by_image(images, 0.5)


def stacked_detections(rng, images):
    """The (boxes, classes, scores) rows of a ``meeting_case_stack`` with
    up to four classes and scores from a few tied levels, and its counts."""
    boxes = np.concatenate([b for b, _ in images] or [np.zeros((0, 4))])
    classes = rng.integers(0, 4, len(boxes))
    scores = rng.choice([0.3, 0.5, 0.9, rng.uniform(0.05, 1.0)], len(boxes))
    return (boxes, classes, scores), [len(b) for b, _ in images]


class TestMeetingPairs:
    def brute_force(self, boxes, group):
        pairs = []
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                w = min(boxes[i, 2], boxes[j, 2]) - max(boxes[i, 0], boxes[j, 0])
                h = min(boxes[i, 3], boxes[j, 3]) - max(boxes[i, 1], boxes[j, 1])
                if group[i] == group[j] and w >= 0.0 and h >= 0.0:
                    pairs.append((i, j, w, h))
        return pairs

    @pytest.mark.parametrize("block_pairs", [1, 7, 1 << 15])
    def test_every_meeting_pair_once(self, monkeypatch, block_pairs):
        # Any block size gives the same pairs; groups need not be sorted.
        monkeypatch.setattr(geometry_module, "_MEETING_BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(block_pairs)
        for _ in range(30):
            images = meeting_case_stack(rng, int(rng.integers(1, 6)))
            boxes = np.concatenate([b for b, _ in images])
            group = np.repeat(np.arange(len(images)), [len(b) for b, _ in images])
            if rng.random() < 0.5:
                group = rng.permutation(group)
            a, b, iw, ih = meeting_pairs(boxes, group)
            got = sorted(
                (min(i, j), max(i, j), w, h)
                for i, j, w, h in zip(a.tolist(), b.tolist(), iw.tolist(), ih.tolist())
            )
            assert got == self.brute_force(boxes, group)

    def test_touching_boxes_meet_with_zero_width(self):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0], [10.0, 0.0, 20.0, 10.0], [20.25, 0, 30, 10]])
        a, b, iw, ih = meeting_pairs(boxes, np.zeros(3, dtype=np.int64))
        assert (a.tolist(), b.tolist(), iw.tolist(), ih.tolist()) == ([0], [1], [0.0], [10.0])

    def test_no_rows(self):
        a, b, iw, ih = meeting_pairs(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
        assert len(a) == len(b) == len(iw) == len(ih) == 0
        assert a.dtype == np.int64 and iw.dtype == np.float64


class TestNmsAgainstAllPairs:
    """:func:`nms_keep` keeps the rows that scoring every pair of an
    (image, class) group kept."""

    @pytest.mark.parametrize("thresh", [0.1, 0.5, 1.0])
    def test_random_stacks(self, thresh):
        rng = np.random.default_rng(int(thresh * 100) + 7)
        for _ in range(40):
            images = meeting_case_stack(rng, int(rng.integers(1, 9)))
            arrays, counts = stacked_detections(rng, images)
            keep = nms_keep(*arrays, thresh, counts)
            assert keep.dtype == np.int64
            assert keep.tolist() == nms_keep_all_pairs(*arrays, thresh, counts).tolist()

    def test_crowded_image(self):
        rng = np.random.default_rng(2100)
        images = meeting_case_stack(rng, 5, crowded=2100)
        assert max(len(b) for b, _ in images) > 2000
        arrays, counts = stacked_detections(rng, images)
        for thresh in (0.3, 0.7):
            want = nms_keep_all_pairs(*arrays, thresh, counts)
            assert nms_keep(*arrays, thresh, counts).tolist() == want.tolist()

    def test_zero_area_rows_raise(self):
        # Two zero-area rows that do not meet gave IoU 0 / 0 = NaN, and a
        # NaN suppressed; an invalid row is refused instead.
        boxes = np.array([[0.0, 0.0, 0.0, 0.0], [5.0, 5.0, 5.0, 5.0]])
        with pytest.raises(InvariantViolation, match="degenerate"):
            nms_keep(boxes, np.zeros(2, dtype=np.int64), np.array([0.9, 0.8]), 0.5, [2])
        boxes[1] = [5.0, 5.0, 6.0, float("inf")]
        with pytest.raises(InvariantViolation, match="non-finite"):
            nms_keep(boxes[1:], np.zeros(1, dtype=np.int64), np.array([0.9]), 0.5, [1])


# Pairing every row of a class on one dense image peaked at 318 MiB for
# 6000 rows of 4 classes; the pairs that meet take a few MiB.
DENSE_NMS_PEAK_BOUND_BYTES = 32 << 20


def test_dense_image_nms_pairs_only_meeting_rows():
    rng = np.random.default_rng(6000)
    corners = rng.uniform(0.0, 3950.0, (6000, 2))
    boxes = np.concatenate([corners, corners + rng.uniform(8.0, 40.0, (6000, 2))], axis=1)
    classes, scores = rng.integers(0, 4, 6000), rng.uniform(0.0, 1.0, 6000)
    tracemalloc.start()
    try:
        nms_keep(boxes, classes, scores, 0.5, [6000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < DENSE_NMS_PEAK_BOUND_BYTES


class TestArrayHelpers:
    def test_detection_arrays_round_trip(self):
        dets = random_detections(np.random.default_rng(5), 12)
        back = detections_from_arrays(*detection_arrays(dets))
        assert back == dets
        assert all(type(d.class_id) is int and type(d.score) is float for d in back)

    def test_reproject_rows_equals_reproject(self):
        # Each row follows the scalar formulas, rounding step by rounding
        # step: reproject is x * scale + origin, project (x - origin) / scale.
        # The second crop's scales are not powers of two, so a different
        # order of operations shows in the last bits.
        rng = np.random.default_rng(9)
        for crop, out_size in (
            (Box(37.25, 11.5, 141.0, 90.75), (415.0, 317.0)),
            (Box(12.3456, 7.891, 99.87, 80.123), (317.3, 211.7)),
        ):
            sw, sh = crop.width / out_size[0], crop.height / out_size[1]
            boxes = [random_box(rng, width=400.0, height=300.0).as_tuple() for _ in range(50)]
            back = reproject_rows(np.array(boxes), [crop.as_tuple()], [out_size])
            assert back.tolist() == [
                [x1 * sw + crop.x1, y1 * sh + crop.y1, x2 * sw + crop.x1, y2 * sh + crop.y1]
                for x1, y1, x2, y2 in boxes
            ]
            into = project_rows(np.array(boxes), [crop.as_tuple()], [out_size])
            assert into.tolist() == [
                [(x1 - crop.x1) / sw, (y1 - crop.y1) / sh, (x2 - crop.x1) / sw, (y2 - crop.y1) / sh]
                for x1, y1, x2, y2 in boxes
            ]

    def test_clip_keeps_python_min_max(self):
        values = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, float("inf")])
        want = [min(max(v, 0.0), 1.0) for v in values.tolist()]
        got = clip(values, 0.0, 1.0).tolist()
        assert got == want and [repr(v) for v in got] == [repr(v) for v in want]

    def test_check_boxes_accepts_valid_rows(self):
        check_boxes(np.array([[0.0, 0.0, 1.0, 1.0], [2.0, 3.0, 4.0, 5.0]]))
        check_boxes(np.zeros((0, 4)))

    @pytest.mark.parametrize(
        "row, message",
        [
            ([0.0, 0.0, float("nan"), 1.0], "non-finite"),
            ([0.0, 0.0, float("inf"), 1.0], "non-finite"),
            ([1.0, 0.0, 1.0, 1.0], "degenerate"),
            ([0.0, 2.0, 1.0, 1.0], "degenerate"),
        ],
    )
    def test_check_boxes_raises_as_box_does(self, row, message):
        rows = np.array([[0.0, 0.0, 1.0, 1.0], row])
        with pytest.raises(InvariantViolation, match=message):
            check_boxes(rows)
