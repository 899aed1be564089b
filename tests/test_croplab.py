"""Density-crop discovery: spec examples, the union-find cluster oracle and
the discovery-order oracle."""

import hashlib
import tracemalloc
import json

import numpy as np
import pytest

from densecrop import croplab as croplab_module
from densecrop.cli import main as cli_main
from densecrop.croplab import CropParams, label_density_crops, merge_round
from densecrop.errors import ConfigError, InvariantViolation
from densecrop.geometry import iou_matrix

from reference_impls import (
    component_labels_plain,
    crop_components_ref,
    label_density_crops_ref,
    label_one,
    meeting_case_stack,
    merge_once_ref,
    merge_round_all_pairs,
    scaled_boxes_ref,
    split_rows,
)


def rows(boxes) -> np.ndarray:
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


def tuples(crops: np.ndarray) -> list[tuple]:
    return [tuple(r) for r in crops.tolist()]


def random_boxes(rng, n, lo=0.0, hi=400.0, side=(5.0, 50.0)) -> np.ndarray:
    out = []
    for _ in range(n):
        x, y = rng.uniform(lo, hi, 2)
        out.append((x, y, x + rng.uniform(*side), y + rng.uniform(*side)))
    return rows(out)


def one_round(**overrides) -> CropParams:
    """A single merge round with no expansion and no area filter, so the
    crops are exactly the enclosing boxes of the input's components."""
    kwargs = dict(merge_steps=1, sigma=0.0, theta=0.1, pi=1.0, min_cluster=2)
    kwargs.update(overrides)
    return CropParams(**kwargs)


def contains(outer: tuple, inner: tuple) -> bool:
    return all(o <= i for o, i in zip(outer[:2], inner[:2])) and all(
        o >= i for o, i in zip(outer[2:], inner[2:])
    )


class TestCropParams:
    def test_defaults_valid(self):
        p = CropParams()
        assert p.merge_steps >= 1 and 0 < p.theta < 1 and 0 < p.pi <= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"merge_steps": 0},
            {"sigma": -1.0},
            {"theta": 0.0},
            {"theta": 1.0},
            {"pi": 0.0},
            {"pi": 1.5},
            {"min_cluster": 1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CropParams(**kwargs)


class TestBuildConnections:
    """Two boxes are connected iff their IoU strictly exceeds theta, and a
    box is never connected to itself."""

    def test_disjoint_all_false(self):
        boxes = rows([(0, 0, 10, 10), (100, 100, 110, 110)])
        assert label_one(boxes, (500, 500), one_round()).shape == (0, 4)

    def test_overlapping_pair_connected(self):
        # IoU of this pair is 1/3
        boxes = rows([(0, 0, 10, 10), (5, 0, 15, 10)])
        assert tuples(label_one(boxes, (500, 500), one_round())) == [(0, 0, 15, 10)]

    def test_threshold_not_met(self):
        boxes = rows([(0, 0, 10, 10), (5, 0, 15, 10)])
        assert len(label_one(boxes, (500, 500), one_round(theta=0.5))) == 0
        # equal to theta is not above it
        third = iou_matrix(boxes, boxes)[0, 1]
        assert third == pytest.approx(1.0 / 3.0)
        assert len(label_one(boxes, (500, 500), one_round(theta=float(third)))) == 0

    def test_diagonal_forced_false(self):
        box = rows([(0, 0, 10, 10)])
        assert iou_matrix(box, box)[0, 0] == 1.0
        assert len(label_one(box, (500, 500), one_round())) == 0
        # later rounds carry a lone crop through unchanged
        again, counts = merge_round(box, [(500, 500)], one_round(), carry_unmerged=True, counts=[1])
        assert tuples(again) == [(0, 0, 10, 10)] and counts.tolist() == [1]

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        boxes = random_boxes(rng, 15, 0.0, 80.0, (5.0, 30.0))
        m = iou_matrix(boxes, boxes)
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_array_equal(np.diag(m), np.ones(15))
        # the crops do not depend on which box of a pair comes first
        params = one_round()
        for perm in (np.arange(15)[::-1], rng.permutation(15)):
            assert set(tuples(label_one(boxes[perm], (500, 500), params))) == set(
                tuples(label_one(boxes, (500, 500), params))
            )


class TestMergeOnce:
    """One merge round against the discovery-order oracle."""

    def test_no_connections_empty(self):
        boxes = [(0, 0, 10, 10), (50, 50, 60, 60)]
        assert merge_once_ref(boxes, 0.1) == []
        assert len(label_one(rows(boxes), (500, 500), one_round())) == 0

    def test_chain_merges_into_one_crop(self):
        # a-b and b-c overlap; a and c do not. The middle box has the most
        # connections and seeds a single cluster of all three.
        boxes = [(0, 0, 10, 10), (5, 0, 15, 10), (10, 0, 20, 10)]
        assert iou_matrix(rows(boxes), rows(boxes))[0, 2] == 0.0
        assert merge_once_ref(boxes, 0.1) == [((0, 0, 20, 10), [0, 1, 2])]
        assert tuples(label_one(rows(boxes), (500, 500), one_round())) == [(0, 0, 20, 10)]

    def test_two_separate_pairs_two_crops(self):
        boxes = [(0, 0, 10, 10), (5, 0, 15, 10), (100, 100, 110, 110), (105, 100, 115, 110)]
        merged = merge_once_ref(boxes, 0.1)
        assert [m for _, m in merged] == [[0, 1], [2, 3]]
        crops = label_one(rows(boxes), (500, 500), one_round())
        assert tuples(crops) == [box for box, _ in merged] == [(0, 0, 15, 10), (100, 100, 115, 110)]

    def test_long_chain_single_component(self):
        boxes = [(5 * i, 0, 5 * i + 10, 10) for i in range(5)]
        assert merge_once_ref(boxes, 0.1) == [((0, 0, 30, 10), [0, 1, 2, 3, 4])]
        assert tuples(label_one(rows(boxes), (500, 500), one_round())) == [(0, 0, 30, 10)]


class TestLabelDensityCrops:
    def test_empty_input(self):
        crops = label_one(np.zeros((0, 4)), (500, 500), CropParams())
        assert crops.shape == (0, 4) and crops.dtype == np.float64

    def test_single_box_below_min_cluster(self):
        assert len(label_one(rows([(0, 0, 20, 20)]), (500, 500), CropParams())) == 0

    def test_three_box_fixture(self):
        boxes = rows([(0, 0, 20, 20), (25, 0, 45, 20), (200, 200, 220, 220)])
        params = CropParams(merge_steps=1, sigma=5, theta=0.05, pi=0.5, min_cluster=2)
        assert tuples(label_one(boxes, (500, 500), params)) == [(0, 0, 50, 25)]

    def test_pi_filter_drops_huge_crop(self):
        boxes = rows([(0, 0, 90, 90), (10, 10, 95, 95)])
        tight = CropParams(merge_steps=1, sigma=0.0001, theta=0.1, pi=0.05, min_cluster=2)
        assert len(label_one(boxes, (100, 100), tight)) == 0

    def test_min_cluster_filter(self):
        boxes = rows([(0, 0, 10, 10), (5, 0, 15, 10)])
        params = CropParams(merge_steps=1, sigma=0.0001, theta=0.1, pi=1.0, min_cluster=3)
        assert len(label_one(boxes, (100, 100), params)) == 0

    def test_emitted_crop_contains_min_cluster_scaled_inputs(self):
        rng = np.random.default_rng(21)
        params = CropParams(merge_steps=1, sigma=8.0, theta=0.1, pi=1.0, min_cluster=2)
        for _ in range(100):
            boxes = random_boxes(rng, int(rng.integers(2, 15)), side=(4.0, 60.0))
            scaled = scaled_boxes_ref(tuples(boxes), params.sigma, (500, 500))
            for crop in tuples(label_one(boxes, (500, 500), params)):
                contained = sum(1 for s in scaled if contains(crop, s))
                assert contained >= params.min_cluster

    def test_area_ratio_bounded_by_pi(self):
        rng = np.random.default_rng(22)
        params = CropParams(merge_steps=3, sigma=10.0, theta=0.05, pi=0.3, min_cluster=2)
        for _ in range(50):
            boxes = random_boxes(rng, int(rng.integers(2, 20)), 0.0, 350.0, (5.0, 120.0))
            for x1, y1, x2, y2 in tuples(label_one(boxes, (500, 500), params)):
                assert (x2 - x1) * (y2 - y1) <= params.pi * 500 * 500

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        boxes = random_boxes(rng, 18)
        params = CropParams()
        first = label_one(boxes, (500, 500), params)
        for _ in range(3):
            assert np.array_equal(label_one(boxes, (500, 500), params), first)

    def test_single_round_matches_union_find(self):
        rng = np.random.default_rng(24)
        for trial in range(200):
            sigma = float(rng.uniform(0, 20))
            theta = float(rng.choice([0.05, 0.1, 0.3]))
            boxes = random_boxes(rng, int(rng.integers(0, 21)), 0.0, 440.0, (3.0, 60.0))
            params = CropParams(merge_steps=1, sigma=sigma, theta=theta, pi=1.0, min_cluster=2)
            got = label_one(boxes, (500, 500), params)
            expected = crop_components_ref(tuples(boxes), sigma, theta, (500, 500))
            assert set(tuples(got)) == {box for _, box in expected}
            # the order oracle finds the same components, member for member
            scaled = scaled_boxes_ref(tuples(boxes), sigma, (500, 500))
            merged = merge_once_ref(scaled, theta)
            assert {tuple(m) for _, m in merged} == {m for m, _ in expected}

    def test_fixed_point_round_is_identity(self):
        # Crops that no longer overlap above theta pass a further merge
        # round unchanged.
        params = CropParams(merge_steps=1, sigma=5, theta=0.1, pi=1.0, min_cluster=2)
        crops = rows([(0, 0, 50, 25), (200, 200, 260, 240)])
        again, _ = merge_round(crops, [(500, 500)], params, carry_unmerged=True, counts=[2])
        assert np.array_equal(again, crops)

    def test_extra_rounds_never_add_crops(self):
        # Later rounds merge or carry crops forward, so the crop count is
        # non-increasing in the number of merge steps.
        rng = np.random.default_rng(25)
        for _ in range(100):
            boxes = random_boxes(rng, int(rng.integers(0, 18)), side=(4.0, 70.0))
            counts = []
            for steps in (1, 2, 3):
                params = CropParams(
                    merge_steps=steps, sigma=10.0, theta=0.1, pi=1.0, min_cluster=2
                )
                counts.append(len(label_one(boxes, (500, 500), params)))
            assert counts[0] >= counts[1] >= counts[2]


class TestCropOrder:
    """Crop order names crop children (``:crop{k}``) and seeds their scenes,
    so crops must come out in the discovery order of the merge loop."""

    def test_rows_match_order_oracle(self):
        rng = np.random.default_rng(26)
        for trial in range(600):
            # dense instances make multi-component and multi-round merges
            size = (500.0, 500.0) if trial % 2 else (float(rng.integers(150, 600)), 300.0)
            boxes = random_boxes(
                rng, int(rng.integers(0, 41)), 0.0, min(size) - 60.0, (3.0, 60.0)
            )
            sigma = 0.0 if trial % 5 == 0 else float(rng.uniform(0, 20))
            params = CropParams(
                merge_steps=int(rng.integers(1, 4)),
                sigma=sigma,
                theta=float(rng.choice([0.05, 0.1, 0.3])),
                pi=float(rng.choice([0.05, 0.3, 1.0])),
                min_cluster=int(rng.integers(2, 4)),
            )
            want = label_density_crops_ref(
                tuples(boxes), size, params.sigma, params.theta, params.pi,
                params.merge_steps, params.min_cluster,
            )
            got = tuples(label_one(boxes, size, params))
            assert got == want
            assert [repr(c) for c in got] == [repr(c) for c in want]  # signed zeros too

    def test_signed_zero_expansion_matches_python(self):
        # max(0.0, -0.0 - 0.0) is 0.0, and a crop's repr seeds its child
        # scene, so a -0.0 corner must not survive the expansion.
        boxes = [(-0.0, -0.0, 10.0, 10.0), (5.0, -0.0, 15.0, 10.0)]
        want = label_density_crops_ref(boxes, (500, 500), 0.0, 0.1, 1.0, 1)
        got = tuples(label_one(rows(boxes), (500, 500), one_round()))
        assert [repr(c) for c in got] == [repr(c) for c in want] == ["(0.0, 0.0, 15.0, 10.0)"]

    def test_duplicate_crops_keep_first(self):
        # Horizontal bars A and vertical bars B both enclose the whole
        # image, but crossing bars overlap too little to connect. The small
        # chain C comes between them in discovery order, so the duplicate
        # crop is the third one, and C stays second.
        horizontal = [(0, 5 * k, 40, 5 * k + 10) for k in range(7)]
        vertical = [(5 * k, 0, 5 * k + 10, 40) for k in range(7)]
        chain = [(18, 18, 22, 22), (20, 18, 24, 22), (22, 18, 26, 22)]
        boxes = horizontal + chain + vertical
        params = one_round(theta=0.2)
        assert [box for box, _ in merge_once_ref(boxes, 0.2)] == [
            (0, 0, 40, 40), (18, 18, 26, 22), (0, 0, 40, 40)
        ]
        want = label_density_crops_ref(boxes, (40, 40), 0.0, 0.2, 1.0, 1)
        got = tuples(label_one(rows(boxes), (40, 40), params))
        assert got == want == [(0, 0, 40, 40), (18, 18, 26, 22)]

    def test_higher_degree_component_first(self):
        # Component A (rows 0-1) is a pair. Component B (rows 2-5) is a star
        # whose centre, row 3, has three connections, so B comes first.
        # Components C (rows 6-7) and D (rows 8-9) are pairs like A; of the
        # three, the one holding the lowest row comes first.
        boxes = [
            (0, 0, 10, 10), (5, 0, 15, 10),
            (100, 0, 110, 10), (105, 0, 115, 10), (110, 0, 120, 10), (105, 8, 115, 18),
            (200, 0, 210, 10), (205, 0, 215, 10),
            (300, 0, 310, 10), (305, 0, 315, 10),
        ]
        oracle = merge_once_ref(boxes, 0.1)
        assert [m for _, m in oracle] == [[2, 3, 4, 5], [0, 1], [6, 7], [8, 9]]
        crops = tuples(label_one(rows(boxes), (500, 500), one_round()))
        assert crops == [box for box, _ in oracle]
        assert crops == [(100, 0, 120, 18), (0, 0, 15, 10), (200, 0, 215, 10), (300, 0, 315, 10)]

    def test_degree_tie_goes_to_lowest_top_degree_row(self):
        # Chains of 10-px boxes 5 px apart: inner boxes have two connections,
        # end boxes one. Chain D (rows 0, 2, 3, 4) holds the lowest row, but
        # chain E's centre, row 1, is the lowest row with two connections, so
        # E comes first.
        def at(x):
            return (x, 0, x + 10, 10)

        boxes = [at(0), at(105), at(5), at(10), at(15), at(100), at(110)]
        oracle = merge_once_ref(boxes, 0.1)
        assert [m for _, m in oracle] == [[1, 5, 6], [0, 2, 3, 4]]
        crops = tuples(label_one(rows(boxes), (500, 500), one_round()))
        assert crops == [box for box, _ in oracle] == [(100, 0, 120, 10), (0, 0, 25, 10)]


# sha256 of the annotations.json that ``densecrop crops label`` writes for
# the generated dataset below, as the Box-based crop labeling computed it.
CROPS_LABEL_SHA256 = "ae58ded1ab2832f9ec3a3035e79428bb3cc7b450919a937e2359ba7345943618"


def test_crops_label_output_is_pinned(tmp_path):
    gen = tmp_path / "gen"
    assert cli_main(["dataset", "gen", "--out", str(gen), "--num-images", "12", "--seed", "5"]) == 0
    out = tmp_path / "crops"
    assert cli_main(
        ["crops", "label", "--annotations", str(gen / "annotations.json"), "--out", str(out)]
    ) == 0
    data = (out / "annotations.json").read_bytes()
    payload = json.loads(data)
    (crop_class,) = [c["id"] for c in payload["categories"] if c["name"] == "density_crop"]
    crop_images = [a["image_id"] for a in payload["annotations"] if a["category_id"] == crop_class]
    # images with several crops, so their order shows
    assert max(crop_images.count(i) for i in set(crop_images)) >= 2
    assert hashlib.sha256(data).hexdigest() == CROPS_LABEL_SHA256


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigma": float("nan")},
        {"sigma": float("inf")},
        {"merge_steps": float("nan")},
        {"min_cluster": float("nan")},
    ],
)
def test_non_finite_params_rejected(kwargs):
    # A NaN sigma expands no box and a NaN min_cluster keeps no cluster, so
    # either would silently turn discovery off: this pair gives one crop
    # with the defaults.
    boxes = rows([(0, 0, 10, 10), (5, 5, 20, 20)])
    assert len(label_one(boxes, (100, 100), CropParams(sigma=15.0))) == 1
    with pytest.raises(ConfigError):
        CropParams(**kwargs)


def ragged_stack(rng, images):
    """Random images for one stack: (boxes, size) pairs, with empty and
    single-box images, exact duplicates, rounded coordinates (degree ties)
    and boxes large enough to give crops above ``pi``."""
    out = []
    for _ in range(images):
        size = (float(rng.integers(120, 600)), float(rng.integers(120, 600)))
        n = int(rng.choice([0, 1, 2, int(rng.integers(3, 40))]))
        boxes = random_boxes(rng, n, 0.0, min(size) - 61.0, (3.0, 60.0))
        if n > 3 and rng.random() < 0.4:
            boxes[int(rng.integers(1, n))] = boxes[0]
        if rng.random() < 0.3:
            boxes = np.round(boxes / 5.0) * 5.0 + np.array([0.0, 0.0, 5.0, 5.0])
        out.append((boxes, size))
    return out


def label_stack(images, params):
    """``label_density_crops`` over the stack of ``images``: one (K, 4)
    block per image."""
    crops, counts = label_density_crops(
        np.concatenate([b for b, _ in images] or [np.zeros((0, 4))]),
        [size for _, size in images],
        params,
        [len(b) for b, _ in images],
    )
    assert crops.dtype == np.float64 and counts.dtype == np.int64
    assert len(counts) == len(images) and counts.sum() == len(crops)
    return split_rows(counts, crops)


class TestStackedLabeling:
    """A stack of images labels each image exactly as it is labeled alone."""

    def test_random_stacks_equal_each_image_alone_and_the_oracle(self):
        rng = np.random.default_rng(27)
        seen = set()
        for trial in range(150):
            images = ragged_stack(rng, int(rng.integers(1, 13)))
            params = CropParams(
                merge_steps=int(rng.integers(1, 4)),
                sigma=0.0 if trial % 4 == 0 else float(rng.uniform(0, 20)),
                theta=float(rng.choice([0.05, 0.1, 0.3])),
                pi=float(rng.choice([0.02, 0.05, 0.3, 1.0])),
                min_cluster=int(rng.integers(2, 4)),
            )
            seen.add(params.merge_steps)
            for (boxes, size), got in zip(images, label_stack(images, params)):
                alone = label_one(boxes, size, params)
                want = label_density_crops_ref(
                    tuples(boxes), size, params.sigma, params.theta, params.pi,
                    params.merge_steps, params.min_cluster,
                )
                assert got.dtype == np.float64 and got.shape == alone.shape
                assert got.tobytes() == alone.tobytes()
                assert [repr(c) for c in tuples(got)] == [repr(c) for c in want]
                seen.add("empty" if len(boxes) == 0 else "single" if len(boxes) == 1 else "")
                seen.add("crops" if len(got) else "")
        assert {1, 2, 3, "empty", "single", "crops"} <= seen

    def test_hand_built_stack_keeps_every_image_order(self):
        # The degree-tie chains, the higher-degree star, a duplicate crop,
        # a crop above pi, an empty image, a crop whose area is exactly
        # (pi * w) * h, which pi * (w * h) would round below, and a copy
        # of that image, whose equal crop is no duplicate, stacked.
        def at(x):
            return (x, 0, x + 10, 10)

        tie = [at(0), at(105), at(5), at(10), at(15), at(100), at(110)]
        star = [
            (0, 0, 10, 10), (5, 0, 15, 10),
            (100, 0, 110, 10), (105, 0, 115, 10), (110, 0, 120, 10), (105, 8, 115, 18),
        ]
        horizontal = [(0, 5 * k, 40, 5 * k + 10) for k in range(7)]
        vertical = [(5 * k, 0, 5 * k + 10, 40) for k in range(7)]
        chain = [(18, 18, 22, 22), (20, 18, 24, 22), (22, 18, 26, 22)]
        images = [
            (rows(tie), (500.0, 500.0)),
            (rows([]), (300.0, 200.0)),
            (rows(star), (500.0, 500.0)),
            (rows(horizontal + chain + vertical), (80.0, 80.0)),
            (rows([(0, 0, 90, 90), (10, 10, 95, 95)]), (100.0, 100.0)),
            (rows([(0, 0, 104, 36.6)] * 2), (104.0, 122.0)),
            (rows([(0, 0, 104, 36.6)] * 2), (104.0, 122.0)),
        ]
        params = one_round(pi=0.3)
        assert 104 * 36.6 == 0.3 * 104 * 122 > 0.3 * (104 * 122)
        got = [tuples(c) for c in label_stack(images, params)]
        for (boxes, size), crops in zip(images, got):
            assert crops == label_density_crops_ref(tuples(boxes), size, 0.0, 0.1, 0.3, 1)
        assert got == [
            [(100, 0, 120, 10), (0, 0, 25, 10)],
            [],
            [(100, 0, 120, 18), (0, 0, 15, 10)],
            [(0, 0, 40, 40), (18, 18, 26, 22)],
            [],
            [(0, 0, 104, 36.6)],
            [(0, 0, 104, 36.6)],
        ]

    def test_empty_stacks(self):
        params, sizes = CropParams(), [(10.0, 10.0)] * 3
        crops, counts = label_density_crops(np.zeros((0, 4)), [], params, [])
        assert crops.shape == (0, 4) and counts.tolist() == []
        for boxes, per_image in ((np.zeros((0, 4)), [0, 0, 0]), (rows([(0, 0, 5, 5)]), [0, 1, 0])):
            crops, counts = label_density_crops(boxes, sizes, params, per_image)
            assert crops.shape == (0, 4) and counts.tolist() == [0, 0, 0]

    def test_invalid_row_mid_stack_raises(self):
        good = rows([(0, 0, 10, 10), (5, 0, 15, 10)])
        for bad in ([20.0, 0.0, 10.0, 10.0], [0.0, 0.0, float("nan"), 10.0], [600, 0, 610, 10]):
            boxes = np.concatenate([good, rows([bad]), good])
            with pytest.raises(InvariantViolation):
                label_density_crops(boxes, [(500, 500)] * 3, one_round(), [2, 1, 2])

    def test_counts_must_cover_the_rows(self):
        boxes = rows([(0, 0, 10, 10), (5, 0, 15, 10)])
        for sizes, counts in (([(50, 50)], [1]), ([(50, 50)], [3]), ([(50, 50)] * 2, [2])):
            with pytest.raises(InvariantViolation):
                label_density_crops(boxes, sizes, one_round(), counts)

    def test_merge_round_stack_equals_each_image(self):
        rng = np.random.default_rng(28)
        params = one_round(pi=0.3)
        for _ in range(40):
            images = ragged_stack(rng, int(rng.integers(1, 8)))
            stacked, counts = merge_round(
                np.concatenate([b for b, _ in images]),
                [size for _, size in images],
                params,
                carry_unmerged=True,
                counts=[len(b) for b, _ in images],
            )
            for (boxes, size), got in zip(images, np.split(stacked, np.cumsum(counts)[:-1])):
                alone, _ = merge_round(
                    boxes, [size], params, carry_unmerged=True, counts=[len(boxes)]
                )
                assert got.tobytes() == alone.tobytes() and got.shape == alone.shape


# Labeling the memory test's stack of 40 images of 40 boxes peaks at about
# 7 MB; pairing its 1600 rows across the whole stack would take
# (Σn)² float64 arrays of 20 MB each.
STACK_PEAK_BOUND_BYTES = 16 << 20


def test_stacked_labeling_pairs_only_within_images():
    rng = np.random.default_rng(29)
    images = [
        (random_boxes(rng, 40, 0.0, 340.0, (5.0, 60.0)), (400.0, 400.0)) for _ in range(40)
    ]
    params = CropParams()
    label_stack(images, params)  # first call: lazy imports and caches
    tracemalloc.start()
    try:
        label_stack(images, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < STACK_PEAK_BOUND_BYTES


def stack_arguments(images):
    """The rows, sizes and counts of a stack of (boxes, size) images."""
    boxes = np.concatenate([b for b, _ in images] or [np.zeros((0, 4))])
    return boxes, [size for _, size in images], [len(b) for b, _ in images]


class TestAgainstAllPairs:
    """Pairing only the rows that meet gives the crops, crop order and
    counts of scoring every pair of rows of an image, bit for bit."""

    def assert_same(self, got, want):
        assert got[0].tobytes() == want[0].tobytes() and got[0].shape == want[0].shape
        assert got[1].tolist() == want[1].tolist()

    @pytest.mark.parametrize("carry_unmerged", [False, True])
    def test_merge_round(self, carry_unmerged):
        rng = np.random.default_rng(31 + carry_unmerged)
        for _ in range(60):
            boxes, sizes, counts = stack_arguments(meeting_case_stack(rng, int(rng.integers(1, 9))))
            params = one_round(
                theta=float(rng.choice([0.02, 0.1, 0.5])),
                pi=float(rng.choice([0.05, 0.3, 1.0])),
                min_cluster=int(rng.integers(2, 4)),
            )
            self.assert_same(
                merge_round(boxes, sizes, params, carry_unmerged=carry_unmerged, counts=counts),
                merge_round_all_pairs(
                    boxes, sizes, params, carry_unmerged=carry_unmerged, counts=counts
                ),
            )

    def test_label_density_crops(self, monkeypatch):
        rng = np.random.default_rng(33)
        cases = [
            (
                meeting_case_stack(rng, int(rng.integers(1, 9))),
                CropParams(sigma=float(rng.choice([0.0, 0.5, 15.0]))),
            )
            for _ in range(40)
        ]

        def label(images, params):
            boxes, sizes, counts = stack_arguments(images)
            return label_density_crops(boxes, sizes, params, counts)

        got = [label(*case) for case in cases]
        assert sum(len(crops) for crops, _ in got) > 40
        monkeypatch.setattr(croplab_module, "merge_round", merge_round_all_pairs)
        for case, crops in zip(cases, got):
            self.assert_same(crops, label(*case))

    def test_crowded_image(self, monkeypatch):
        rng = np.random.default_rng(2100)
        boxes, sizes, counts = stack_arguments(meeting_case_stack(rng, 4, crowded=2100))
        assert max(counts) > 2000
        params = CropParams(sigma=0.0, pi=0.05)
        got = label_density_crops(boxes, sizes, params, counts)
        assert len(got[0]) > 10
        monkeypatch.setattr(croplab_module, "merge_round", merge_round_all_pairs)
        self.assert_same(got, label_density_crops(boxes, sizes, params, counts))

    def test_touching_boxes_do_not_link(self):
        # overlap width exactly 0 is no overlap; a quarter pixel more is
        touching = rows([(0, 0, 10, 10), (10, 0, 20, 10)])
        assert len(label_one(touching, (100, 100), one_round(theta=0.001))) == 0
        touching[1, 0] = 9.75
        assert len(label_one(touching, (100, 100), one_round(theta=0.001))) == 1


class TestComponentLabels:
    """Label propagation with pointer jumping against plain propagation,
    on random graphs with long chains through shuffled rows, where the
    lowest label has the farthest to travel."""

    def links(self, rng, n, chains):
        """``degree`` and ``link_j`` of a random graph on ``n`` rows, every
        link both ways, sorted by (row, neighbour)."""
        edges = [rng.integers(0, n, (int(rng.integers(0, n // 4 + 1)), 2))]
        edges += [np.column_stack([c[:-1], c[1:]]) for c in chains]
        i, j = np.concatenate(edges).T
        keep = i != j
        pairs = np.unique(np.r_[i[keep] * n + j[keep], j[keep] * n + i[keep]])
        return np.bincount(pairs // n, minlength=n), pairs % n

    def test_random_graphs_match_plain_propagation(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            lengths = rng.integers(1, n + 1, int(rng.integers(0, 4))).tolist()
            chains = [rng.permutation(n)[:length] for length in lengths]
            degree, link_j = self.links(rng, n, chains)
            got = croplab_module._component_labels(degree, link_j)
            assert np.array_equal(got, component_labels_plain(degree, link_j))

    def test_long_chains_match_plain_propagation(self):
        # one chain from the highest row down to the lowest, and one that
        # zigzags between the two ends
        n = 2000
        rows_down = np.arange(n)[::-1]
        zigzag = np.ravel(np.column_stack([np.arange(n // 2), np.arange(n - 1, n // 2 - 1, -1)]))
        rng = np.random.default_rng(56)
        for chain in (rows_down, zigzag, rng.permutation(n)):
            degree, link_j = self.links(rng, n, [chain])
            got = croplab_module._component_labels(degree, link_j)
            assert np.array_equal(got, component_labels_plain(degree, link_j))
            assert not got.any()  # one component, labelled by row 0


# Pairing every two of 4000 boxes of one 4000x4000 image peaked at
# 855 MiB; the pairs that meet take a few MiB.
DENSE_LABEL_PEAK_BOUND_BYTES = 32 << 20


def test_dense_image_labeling_pairs_only_meeting_boxes():
    rng = np.random.default_rng(4000)
    corners = rng.uniform(0.0, 3950.0, (4000, 2))
    boxes = np.concatenate([corners, corners + rng.uniform(8.0, 40.0, (4000, 2))], axis=1)
    tracemalloc.start()
    try:
        crops, _ = label_density_crops(boxes, [(4000.0, 4000.0)], CropParams(), [4000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(crops) > 100
    assert peak < DENSE_LABEL_PEAK_BOUND_BYTES
