"""Annotation IO, tiling, splits, crop augmentation, synthetic scenes."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from densecrop.dataset import (
    Annotation,
    ImageRecord,
    SceneSample,
    SceneStack,
    SyntheticConfig,
    UpscalePolicy,
    generate_synthetic_dataset,
    load_annotations,
    make_crop_children,
    read_scenes,
    read_split,
    split_dataset,
    tile_image_report,
    write_annotations,
    write_scenes,
    write_split,
)
from densecrop.cli import main as cli_main
from densecrop.croplab import CropParams
from densecrop.errors import ConfigError, DataError, InvariantViolation
from densecrop.geometry import Box, intersection_matrix, reproject_rows
from densecrop import seeding
from densecrop.seeding import StreamDecoder, stable_int

import benchmarks
from reference_impls import (
    annotation_rows,
    child_samples,
    crop_children_ref,
    label_one,
    make_crop_children_per_child,
    scene_spec,
    stack_of,
    stacked_rows,
    synthetic_dataset_ref,
    zoomed_samples,
)

# `dataset gen --num-images 12 --seed 5`, and that dataset tiled by
# `dataset tile --tile 100 --stride 100`.
SCENES_SHA256 = "8464f3225bfbce7d17fbd247fb25a4562eb41f6b551eee8bb3af70fb3c738318"
ANNOTATIONS_SHA256 = "9280281b641eddde2d7eec562417fde2975f009908aa1ca96a750dc65d76d7bd"
TILES_SHA256 = "3390681fdbbc0a9af1b801fb0b136cfc695b9597bcd72253bd4747190e01dddc"


def coco_payload(images, annotations, categories=None):
    if categories is None:
        categories = [{"id": 0, "name": "class_0"}, {"id": 1, "name": "class_1"}]
    return {"images": images, "annotations": annotations, "categories": categories}


def write_json(tmp_path, payload, name="ann.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("size", [(0.0, 10.0), (float("nan"), 10.0), (10.0, float("inf"))])
def test_image_record_size_must_be_positive_and_finite(size):
    # NaN compares false with everything, so "width <= 0" alone lets it in
    with pytest.raises(InvariantViolation, match="not positive and finite"):
        ImageRecord(1, *size)


class TestImageRecordRows:
    def test_rows_are_read_only_and_annotations_built_on_read(self):
        record = ImageRecord(1, 10.0, 10.0, np.array([[1.0, 2.0, 3.0, 4.0]]), np.array([2]))
        assert (record.boxes.dtype, record.classes.dtype) == (np.float64, np.int64)
        with pytest.raises(ValueError):
            record.boxes[0, 0] = 0.0
        with pytest.raises(ValueError):
            record.classes[0] = 0
        assert record.annotations == (Annotation(Box(1, 2, 3, 4), 2),)
        assert record.annotations is not record.annotations
        with pytest.raises(AttributeError):
            record.annotations = ()
        empty = ImageRecord(1, 10.0, 10.0)
        assert (empty.boxes.shape, empty.classes.shape, empty.annotations) == ((0, 4), (0,), ())

    @pytest.mark.parametrize(
        "boxes, classes, message",
        [
            ([[0.0, 0.0, float("nan"), 1.0]], [0], "non-finite"),
            ([[1.0, 0.0, 1.0, 1.0]], [0], "degenerate"),
            ([[0.0, 0.0, 1.0, 1.0]], [-1], "negative class id"),
            ([[0.0, 0.0, 1.0, 1.0]], [0, 1], "shapes"),
            ([0.0, 0.0, 1.0, 1.0], [0], "shapes"),
        ],
    )
    def test_invalid_rows_rejected(self, boxes, classes, message):
        with pytest.raises(InvariantViolation, match=message):
            ImageRecord(1, 10.0, 10.0, np.array(boxes), np.array(classes))


class TestLoadAnnotations:
    def test_minimal_round_trip(self, tmp_path):
        payload = coco_payload(
            [{"id": 1, "width": 100, "height": 80, "file_name": "a.png"}],
            [{"id": 1, "image_id": 1, "category_id": 0, "bbox": [10, 10, 20, 30]}],
        )
        loaded = load_annotations(write_json(tmp_path, payload))
        assert len(loaded.records) == 1
        rec = loaded.records[0]
        assert rec.image_id == 1 and rec.width == 100 and rec.height == 80
        assert rec.annotations == (Annotation(box=Box(10, 10, 30, 40), class_id=0),)
        assert loaded.categories == {0: "class_0", 1: "class_1"}

    def test_out_of_bounds_clipped(self, tmp_path):
        payload = coco_payload(
            [{"id": 1, "width": 100, "height": 100, "file_name": "a.png"}],
            [{"id": 1, "image_id": 1, "category_id": 0, "bbox": [90, 90, 30, 30]}],
        )
        loaded = load_annotations(write_json(tmp_path, payload))
        assert loaded.records[0].annotations[0].box == Box(90, 90, 100, 100)

    def test_zero_area_dropped_with_count(self, tmp_path):
        payload = coco_payload(
            [{"id": 1, "width": 100, "height": 100, "file_name": "a.png"}],
            [
                {"id": 1, "image_id": 1, "category_id": 0, "bbox": [10, 10, 0, 10]},
                {"id": 2, "image_id": 1, "category_id": 0, "bbox": [120, 120, 10, 10]},
                {"id": 3, "image_id": 1, "category_id": 0, "bbox": [5, 5, 10, 10]},
            ],
        )
        loaded = load_annotations(write_json(tmp_path, payload))
        assert loaded.dropped_zero_area == 2
        assert len(loaded.records[0].annotations) == 1

    def test_empty_image_list_ok(self, tmp_path):
        loaded = load_annotations(write_json(tmp_path, coco_payload([], [])))
        assert loaded.records == ()

    def test_unknown_category_rejected(self, tmp_path):
        payload = coco_payload(
            [{"id": 1, "width": 100, "height": 100, "file_name": "a.png"}],
            [{"id": 1, "image_id": 1, "category_id": 9, "bbox": [0, 0, 5, 5]}],
        )
        with pytest.raises(DataError, match="unknown category"):
            load_annotations(write_json(tmp_path, payload))

    def test_unknown_image_rejected(self, tmp_path):
        payload = coco_payload(
            [{"id": 1, "width": 100, "height": 100, "file_name": "a.png"}],
            [{"id": 1, "image_id": 7, "category_id": 0, "bbox": [0, 0, 5, 5]}],
        )
        with pytest.raises(DataError, match="unknown image"):
            load_annotations(write_json(tmp_path, payload))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="not valid JSON"):
            load_annotations(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_annotations(tmp_path / "absent.json")

    def test_writer_reader_round_trip(self, tmp_path):
        records = [
            ImageRecord(
                1,
                200.0,
                150.0,
                np.array([[10.5, 20.25, 30.75, 40.5], [50, 60, 70, 80]]),
                np.array([0, 1]),
            )
        ]
        path = tmp_path / "out.json"
        write_annotations(records, {0: "class_0", 1: "class_1"}, path)
        loaded = load_annotations(path)
        assert loaded.records[0].annotations == records[0].annotations


class TestTileImage:
    def make_record(self, width, height, annotations=()):
        return ImageRecord(1, width, height, *annotation_rows(annotations))

    def test_image_smaller_than_tile(self):
        tiles, _ = tile_image_report(self.make_record(1000, 1000), tile=1500, stride=1000)
        assert len(tiles) == 1
        assert tiles[0].width == 1000 and tiles[0].height == 1000
        assert tiles[0].provenance.offset == (0.0, 0.0)

    def test_sliding_window_offsets(self):
        tiles, _ = tile_image_report(self.make_record(2500, 2500), tile=1500, stride=1000)
        offsets = {t.provenance.offset for t in tiles}
        assert offsets == {(0.0, 0.0), (0.0, 1000.0), (1000.0, 0.0), (1000.0, 1000.0)}
        assert all(t.width == 1500 and t.height == 1500 for t in tiles)

    def test_annotation_shifted_once(self):
        ann = Annotation(box=Box(1200, 200, 1300, 300), class_id=0)
        tiles, _ = tile_image_report(self.make_record(2500, 1000, (ann,)), tile=1500, stride=1000)
        hits = [
            (t.provenance.offset, a.box)
            for t in tiles
            for a in t.annotations
        ]
        # fully inside both x-tiles is impossible here: x range 1200..1300
        # sits inside tile at 0 (0..1500) and tile at 1000 (1000..2500)
        assert ((0.0, 0.0), Box(1200, 200, 1300, 300)) in hits
        assert ((1000.0, 0.0), Box(200, 200, 300, 300)) in hits

    def test_half_area_rule(self):
        # 20px-wide box straddling the boundary at x=100 of a 2-tile split
        ann = Annotation(box=Box(92, 10, 112, 30), class_id=0)
        tiles, _ = tile_image_report(self.make_record(200, 50, (ann,)), tile=100, stride=100)
        counts = [len(t.annotations) for t in tiles]
        # clipped areas: 8/20 and 12/20 of the original; only the second keeps it
        assert counts == [0, 1]

    def test_parent_annotations_conserved_unless_straddling(self):
        rng = np.random.default_rng(9)
        anns = []
        for _ in range(40):
            x, y = rng.uniform(0, 1900, 2)
            w, h = rng.uniform(5, 80, 2)
            anns.append(
                Annotation(box=Box(x, y, min(x + w, 2000), min(y + h, 2000)), class_id=0)
            )
        record = ImageRecord(1, 2000, 2000, *annotation_rows(anns))
        tiles, lost = tile_image_report(record, tile=1200, stride=800)
        placed = sum(len(t.annotations) for t in tiles)
        # every annotation lands somewhere (duplicates allowed) except the
        # counted straddlers
        assert placed >= len(anns) - lost
        assert lost == 0  # stride 800 < tile 1200 means full coverage here

    def test_straddler_counted_as_lost(self):
        # box centered on the tile boundary keeps exactly half of its area
        # on each side; the half-area rule keeps only >= 0.5, so it lands
        # in both tiles when split evenly but is lost when split worse
        ann = Annotation(box=Box(95, 10, 115, 30), class_id=0)  # 8/20 and 12/20
        record = ImageRecord(1, 200, 50, *annotation_rows([ann]))
        tiles, lost = tile_image_report(record, tile=100, stride=100)
        assert lost == 0  # kept by the right-hand tile
        ann2 = Annotation(box=Box(90, 10, 111, 30), class_id=0)  # 10/21 and 11/21
        record2 = ImageRecord(1, 200, 50, *annotation_rows([ann2]))
        _, lost2 = tile_image_report(record2, tile=100, stride=100)
        assert lost2 == 0
        # centered exactly on the tile corner: every quadrant keeps 25%
        ann3 = Annotation(box=Box(90, 90, 110, 110), class_id=0)
        record3 = ImageRecord(1, 200, 200, *annotation_rows([ann3]))
        _, lost3 = tile_image_report(record3, tile=100, stride=100)
        assert lost3 == 1

    def test_negative_zero_corner_kept(self):
        # min(max(-0.0, 0.0), w) is -0.0, and a tile keeps it; np.maximum
        # would turn it into 0.0
        ann = Annotation(box=Box(-0.0, 0.0, 10.0, 10.0), class_id=0)
        tiles, _ = tile_image_report(self.make_record(200, 50, (ann,)), tile=100, stride=100)
        assert repr(tiles[0].annotations[0].box.as_tuple()) == "(-0.0, 0.0, 10.0, 10.0)"

    def test_invalid_params(self):
        rec = self.make_record(100, 100)
        with pytest.raises(ConfigError):
            tile_image_report(rec, tile=0, stride=1)
        with pytest.raises(ConfigError):
            tile_image_report(rec, tile=100, stride=200)


class TestSplitDataset:
    def test_full_supervision(self):
        split = split_dataset([1, 2, 3], 1.0, 0)
        assert split.labeled_ids == frozenset({1, 2, 3})
        assert split.unlabeled_ids == frozenset()

    def test_ten_percent_of_ten(self):
        ids = list(range(10))
        split = split_dataset(ids, 0.1, 42)
        assert len(split.labeled_ids) == 1
        again = split_dataset(ids, 0.1, 42)
        assert split.labeled_ids == again.labeled_ids

    def test_sizes_stable_across_seeds(self):
        ids = list(range(40))
        sizes = {len(split_dataset(ids, 0.25, seed).labeled_ids) for seed in range(100)}
        assert sizes == {10}

    def test_different_seeds_usually_differ(self):
        ids = list(range(40))
        picks = {split_dataset(ids, 0.25, seed).labeled_ids for seed in range(20)}
        assert len(picks) > 1

    def test_zero_labeled_rejected(self):
        with pytest.raises(ConfigError):
            split_dataset(list(range(30)), 0.001, 0)

    def test_invalid_fraction(self):
        with pytest.raises(ConfigError):
            split_dataset([1, 2], 0.0, 0)
        with pytest.raises(ConfigError):
            split_dataset([1, 2], 1.5, 0)

    def test_split_file_round_trip(self, tmp_path):
        split = split_dataset(list(range(20)), 0.3, 7)
        path = tmp_path / "split.txt"
        write_split(split, path)
        loaded = read_split(path, list(range(20)))
        assert loaded.labeled_ids == split.labeled_ids
        assert loaded.unlabeled_ids == split.unlabeled_ids
        assert loaded.seed == 7

    def test_split_file_unknown_id_rejected(self, tmp_path):
        path = tmp_path / "split.txt"
        path.write_text("# seed=0 fraction=0.5\n99\n")
        with pytest.raises(DataError, match="unknown image id"):
            read_split(path, [1, 2, 3])


def with_scene(record):
    """``record`` paired with an empty scene of its size."""
    return SceneSample(record=record, scene=scene_spec(record.width, record.height, 0))


def assert_same_scene(got, want):
    """Equal scenes, bit for bit: size, seed, and each object array's
    dtype, shape and bytes."""
    assert (got.width, got.height, got.seed) == (want.width, want.height, want.seed)
    for name in ("object_boxes", "object_classes", "object_payloads"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def assert_same_record(got, want):
    """Equal records, bit for bit: metadata, provenance (``repr`` shows a
    -0.0 that ``==`` would miss) and each annotation array's dtype, shape
    and bytes."""
    assert (got.image_id, got.width, got.height) == (want.image_id, want.width, want.height)
    assert got.provenance == want.provenance and repr(got.provenance) == repr(want.provenance)
    for name in ("boxes", "classes"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def assert_same_samples(got, want):
    """Equal samples, bit for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_record(a.record, b.record)
        assert_same_scene(a.scene, b.scene)


class TestAugmentWithCrops:
    """The child records ``make_crop_children`` adds to the training pools."""

    def parent(self):
        return with_scene(
            ImageRecord(
                5,
                500.0,
                400.0,
                np.array([[120, 110, 140, 130], [400, 300, 450, 350]]),
                np.array([0, 1]),
            )
        )

    def test_zero_crops_unchanged(self):
        policy = UpscalePolicy("factor", factor=2.0)
        for parents, crops in (([self.parent()], [np.zeros((0, 4))]), ([], [])):
            out = make_crop_children(stack_of(parents), *stacked_rows(crops), policy)
            assert len(out) == 0 and out.object_boxes.shape == (0, 4)
            assert child_samples(parents, crops, policy) == []

    def test_known_transform(self):
        crop = Box(100, 100, 300, 200)
        policy = UpscalePolicy("factor", factor=2.0)
        out = child_samples([self.parent()], [np.array([crop.as_tuple()])], policy)
        assert len(out) == 1
        child = out[0].record
        assert child.provenance.kind == "crop"
        assert child.provenance.parent_id == 5
        assert child.width == 400.0 and child.height == 200.0
        assert child.annotations == (
            Annotation(box=Box(40, 20, 80, 60), class_id=0),
        )

    def test_annotation_outside_crop_absent(self):
        crop = Box(100, 100, 300, 200)
        out = child_samples(
            [self.parent()], [np.array([crop.as_tuple()])], UpscalePolicy("factor", factor=2.0)
        )
        child_classes = {a.class_id for a in out[0].record.annotations}
        assert 1 not in child_classes

    def test_child_round_trips_to_parent(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x, y = rng.uniform(50, 200, 2)
            w, h = rng.uniform(30, 120, 2)
            ann_box = Box(x + 5, y + 5, min(x + 5 + w / 2, x + w - 1), min(y + 5 + h / 2, y + h - 1))
            parent = ImageRecord(1, 500, 500, np.array([ann_box.as_tuple()]), np.array([0]))
            crop = Box(x, y, x + w, y + h)
            policy = UpscalePolicy("short_edge", target=256.0)
            crops = np.array([crop.as_tuple()])
            child = child_samples([with_scene(parent)], [crops], policy)[0].record
            assert len(child.annotations) == 1
            back = reproject_rows(
                np.array([child.annotations[0].box.as_tuple()]), crops, [child.provenance.upscale_size]
            )
            for a, b in zip(back[0].tolist(), ann_box.as_tuple()):
                assert abs(a - b) < 1e-6

    def test_half_area_rule_and_clip(self):
        # exactly half inside stays (clipped to the child), just under half
        # goes; a -0.0 corner stays -0.0, as min(max(v, 0), w) leaves it
        parent = with_scene(
            ImageRecord(
                2,
                400.0,
                400.0,
                np.array([[90, 10, 110, 30], [89.5, 40, 110, 60], [-0.0, 0, 120, 20]]),
                np.array([0, 1, 2]),
            )
        )
        crop = np.array([[100.0, 0.0, 300.0, 200.0], [0.0, 0.0, 200.0, 200.0]])
        policy = UpscalePolicy("factor", factor=2.0)
        first, second = (
            c.record.annotations for c in child_samples([parent], [crop], policy)
        )
        assert first == (Annotation(box=Box(0, 20, 20, 60), class_id=0),)
        boxes = [a.box.as_tuple() for a in second]
        assert repr(boxes[-1]) == "(-0.0, 0.0, 240.0, 40.0)"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "short_edge", "target": float("nan")},
            {"mode": "short_edge", "target": float("inf")},
            {"mode": "factor", "factor": float("nan")},
            {"mode": "factor", "factor": float("inf")},
        ],
    )
    def test_non_finite_upscale_rejected(self, kwargs):
        # max(1.0, nan) is 1.0, so a NaN target would silently stop upscaling.
        with pytest.raises(ConfigError):
            UpscalePolicy(**kwargs)

    def test_short_edge_policy_never_downscales(self):
        policy = UpscalePolicy("short_edge", target=100.0)
        crops = np.array([[0.0, 0.0, 300.0, 200.0], [0.0, 0.0, 50.0, 25.0]])
        assert policy.output_size(crops).tolist() == [[300.0, 200.0], [200.0, 100.0]]


class TestSyntheticScenes:
    def test_zero_objects(self):
        cfg = SyntheticConfig(
            num_images=3,
            clusters_per_image=(0, 0),
            scattered_per_image=(0, 0),
            seed=1,
        )
        samples = generate_synthetic_dataset(cfg)
        assert all(len(s.record.annotations) == 0 for s in samples)

    def test_cluster_structure_statistics(self):
        nearest = []
        for seed in range(100):
            cfg = SyntheticConfig(
                num_images=1,
                clusters_per_image=(2, 2),
                objects_per_cluster=(10, 10),
                scattered_per_image=(0, 0),
                cluster_spread=20.0,
                seed=seed,
            )
            sample = generate_synthetic_dataset(cfg)[0]
            assert len(sample.record.annotations) == 20
            boxes = sample.scene.object_boxes
            centers = (boxes[:, :2] + boxes[:, 2:]) / 2.0
            dists = np.hypot(*(centers[:, None, :] - centers[None, :, :]).transpose(2, 0, 1))
            np.fill_diagonal(dists, np.inf)
            nearest.extend(dists.min(axis=1))
        # every object has a neighbour within a few spreads, and on average
        # within one (20 objects spread uniformly over the scene average
        # about 60 px)
        assert max(nearest) < 4 * 20.0
        assert np.mean(nearest) < 20.0

    def test_boxes_inside_scene(self):
        cfg = SyntheticConfig(num_images=5, seed=3)
        for sample in generate_synthetic_dataset(cfg):
            for x1, y1, x2, y2 in sample.scene.object_boxes.tolist():
                assert 0 <= x1 < x2 <= cfg.width
                assert 0 <= y1 < y2 <= cfg.height

    def test_same_seed_bit_identical(self, tmp_path):
        cfg = SyntheticConfig(num_images=4, seed=11)
        a = generate_synthetic_dataset(cfg)
        b = generate_synthetic_dataset(cfg)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_scenes(a, pa)
        write_scenes(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert_same_samples(a, b)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(num_images=-1)
        with pytest.raises(ConfigError):
            SyntheticConfig(clusters_per_image=(3, 1))
        with pytest.raises(ConfigError):
            SyntheticConfig(small_size=(0.0, 5.0))
        for bad in (
            {"width": float("nan")}, {"height": float("inf")}, {"cluster_spread": -1.0},
            {"cluster_spread": float("nan")}, {"payload_noise": float("nan")},
            {"large_size": (40.0, float("inf"))}, {"small_size": (float("nan"), 5.0)},
        ):
            with pytest.raises(ConfigError):
                SyntheticConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"width": 60.0, "height": 60.0, "large_size": (40.0, 90.0), "seed": 3},
            {"width": 512.0, "height": 100.0, "large_size": (40.0, 100.5)},
            {"width": 10.0, "height": 80.0, "small_size": (6.0, 16.0), "large_size": (4.0, 9.0)},
        ],
    )
    def test_object_larger_than_the_scene_rejected(self, bad):
        # such an object cannot fit: 60x60 scenes with (40, 90) objects put
        # a box at x1 = -29.7
        with pytest.raises(ConfigError, match="invalid for a"):
            SyntheticConfig(**bad)

    def test_objects_as_long_as_the_shorter_side_fit(self):
        cfg = SyntheticConfig(num_images=20, width=200.0, height=60.0, large_size=(50.0, 60.0), seed=3)
        for sample in generate_synthetic_dataset(cfg):
            boxes = sample.scene.object_boxes
            assert (boxes[:, :2] >= 0).all()
            assert (boxes[:, 2] <= cfg.width).all() and (boxes[:, 3] <= cfg.height).all()

    @pytest.mark.parametrize(
        "bad",
        [
            {"num_images": 2**31},
            {"num_classes": 2**31},
            {"clusters_per_image": (0, 2**31)},
            {"objects_per_cluster": (2**31, 2**31)},
            {"scattered_per_image": (1, 2**40)},
        ],
    )
    def test_counts_of_2_to_the_31_rejected(self, bad):
        # each count is one 32-bit Lemire draw and each scene index one
        # seed word
        with pytest.raises(ConfigError):
            SyntheticConfig(**bad)

    def test_scene_file_round_trip(self, tmp_path):
        cfg = SyntheticConfig(num_images=3, seed=5)
        samples = generate_synthetic_dataset(cfg)
        scene_path = tmp_path / "scenes.json"
        ann_path = tmp_path / "ann.json"
        write_scenes(samples, scene_path)
        write_annotations(
            [s.record for s in samples], {i: f"class_{i}" for i in range(cfg.num_classes)}, ann_path
        )
        loaded = load_annotations(ann_path)
        rejoined = read_scenes(scene_path, list(loaded.records))
        for got, want in zip(rejoined, samples, strict=True):
            assert_same_scene(got.scene, want.scene)
        assert rejoined[0].scene.object_classes.dtype == np.int64

    def test_scene_file_with_clusters_key_loads(self, tmp_path):
        # earlier versions also wrote each scene's cluster centres
        cfg = SyntheticConfig(num_images=2, seed=5)
        samples = generate_synthetic_dataset(cfg)
        path = tmp_path / "scenes.json"
        write_scenes(samples, path)
        payload = json.loads(path.read_text())
        for scene in payload["scenes"].values():
            scene["clusters"] = [{"center": [100.0, 120.0], "spread": 28.0, "count": 6}]
        path.write_text(json.dumps(payload))
        rejoined = read_scenes(path, [s.record for s in samples])
        assert_same_samples(rejoined, samples)

    @pytest.mark.parametrize("name", ["width", "height"])
    def test_scene_of_another_size_than_its_record_rejected(self, tmp_path, name):
        # Proposals and clipping read the record's size and features the
        # scene's; a stack holds one size per scene, so they must agree.
        samples = generate_synthetic_dataset(SyntheticConfig(num_images=2, seed=5))
        path = tmp_path / "scenes.json"
        write_scenes(samples, path)
        payload = json.loads(path.read_text())
        payload["scenes"]["2"][name] = 256.0
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="scene for image 2 is"):
            read_scenes(path, [s.record for s in samples])

    def test_scene_file_missing_image_rejected(self, tmp_path):
        cfg = SyntheticConfig(num_images=2, seed=5)
        samples = generate_synthetic_dataset(cfg)
        path = tmp_path / "scenes.json"
        write_scenes(samples[:1], path)
        with pytest.raises(DataError, match="no scene"):
            read_scenes(path, [s.record for s in samples])


class TestCropScene:
    def test_scene_arrays_are_computed_once_and_read_only(self):
        sample = generate_synthetic_dataset(SyntheticConfig(num_images=1, seed=3))[0]
        crop = np.array([[100.0, 100.0, 356.0, 356.0]])
        child = child_samples([sample], [crop], UpscalePolicy("factor", factor=2.0))[0]
        for scene in (sample.scene, child.scene):
            assert scene.object_boxes is scene.object_boxes
            n = len(scene.object_boxes)
            assert n and scene.object_boxes.shape == (n, 4)
            assert scene.object_classes.shape == (n,) and scene.object_payloads.shape == (n, 4)
            for values in (scene.object_boxes, scene.object_classes, scene.object_payloads):
                with pytest.raises(ValueError):
                    values[0] = 1.0
        empty = scene_spec(10.0, 10.0, 0)
        assert empty.object_boxes.shape == (0, 4) and len(empty.object_payloads) == 0

    def test_make_crop_children_pairs_record_and_scene(self):
        cfg = SyntheticConfig(num_images=1, seed=4)
        sample = generate_synthetic_dataset(cfg)[0]
        crop = Box(50, 50, 306, 306)
        children = child_samples(
            [sample], [np.array([crop.as_tuple()])], UpscalePolicy("factor", factor=2.0)
        )
        assert len(children) == 1
        child = children[0]
        assert child.record.provenance.kind == "crop"
        assert child.record.width == child.scene.width
        assert child.record.image_id == "1:crop0"

    def ragged_parents(self, rng):
        """Random parents and crop groups, with a parent without
        annotations, one without objects, one with zero crops, and one
        repeated in one-row groups as inference passes it."""
        samples = generate_synthetic_dataset(
            SyntheticConfig(num_images=6, num_classes=3, seed=int(rng.integers(1 << 30)))
        )
        bare = replace(samples[1].record, boxes=np.zeros((0, 4)), classes=np.zeros(0, np.int64))
        no_anns = replace(samples[1], record=bare)
        no_objects = replace(samples[2], scene=scene_spec(512.0, 512.0, 9, payload_width=3))
        parents = [samples[0], no_anns, no_objects, samples[3]]
        crops = []
        for sample in parents:
            found = label_one(
                sample.scene.object_boxes if len(sample.scene.object_boxes)
                else sample.record.boxes,
                sample.record.size,
                CropParams(merge_steps=2),
            )
            x1, y1 = rng.uniform(0.0, 400.0, (2, 3))
            w, h = rng.uniform(5.0, 200.0, (2, 3))
            # Rounded corners put box edges on crop edges.
            drawn = np.round(np.stack([x1, y1, x1 + w, y1 + h], axis=1))
            crops.append(np.concatenate([found, drawn]))
        parents.append(samples[4])
        crops.append(np.zeros((0, 4)))
        for row in crops[0][:3]:
            parents.append(samples[0])
            crops.append(row[None])
        order = rng.permutation(len(parents))
        return [parents[i] for i in order], [crops[i] for i in order]

    def test_ragged_stack_equals_per_box_reference(self):
        # One call over a ragged stack against the scalar reference: child
        # records, annotation order, provenance, scene arrays and seeds.
        rng = np.random.default_rng(16)
        for trial in range(12):
            parents, crops = self.ragged_parents(rng)
            policy = (
                UpscalePolicy("factor", factor=float(rng.uniform(1.0, 4.0)))
                if trial % 2 else UpscalePolicy("short_edge", target=float(rng.uniform(64, 512)))
            )
            got = child_samples(parents, crops, policy)
            assert_same_samples(got, crop_children_ref(parents, crops, policy))
            assert len(got) == sum(len(c) for c in crops)
            assert sum(len(c.record.annotations) for c in got) > 0
            assert sum(len(c.scene.object_boxes) for c in got) > 0
            for child in got:
                w, h = child.record.size
                assert (child.scene.width, child.scene.height) == (w, h)
                for x1, y1, x2, y2 in child.scene.object_boxes.tolist():
                    assert 0 <= x1 < x2 <= w and 0 <= y1 < y2 <= h
            repeated = [c.record.image_id for c in got if c.record.provenance.parent_id == 1]
            assert repeated.count("1:crop0") >= 3

    def test_degenerate_crop_row_rejected(self):
        sample = generate_synthetic_dataset(SyntheticConfig(num_images=1, seed=4))[0]
        crops = np.array([[10.0, 10.0, 50.0, 50.0], [60.0, 60.0, 60.0, 90.0]])
        with pytest.raises(InvariantViolation):
            make_crop_children(stack_of([sample]), crops, [2], UpscalePolicy())

    def test_counts_must_give_each_parent_its_rows(self):
        samples = generate_synthetic_dataset(SyntheticConfig(num_images=2, seed=4))
        crops = np.array([[10.0, 10.0, 50.0, 50.0], [60.0, 60.0, 90.0, 90.0]])
        make_crop_children(stack_of(samples), crops, [1, 1], UpscalePolicy())
        for counts in ([2], [1, 1, 0], [1, 0], [2, 1], [3, -1]):
            with pytest.raises(InvariantViolation, match="do not split"):
                make_crop_children(stack_of(samples), crops, counts, UpscalePolicy())


class TestZoom:
    """``make_crop_children`` zooms a stack into the stack of its children;
    each child against the per-child construction it replaced
    (``reference_impls.make_crop_children_per_child``), field by field."""

    def parents(self, rng):
        """Ragged parents with int and string ids (``"007"`` among them), a
        parent without annotations, one without objects, an empty group,
        and one parent heading several multi-row groups."""
        samples = generate_synthetic_dataset(
            SyntheticConfig(num_images=5, num_classes=3, seed=int(rng.integers(1 << 30)))
        )
        named = [
            replace(s, record=replace(s.record, image_id=image_id))
            for s, image_id in zip(samples[3:], ("007", "a:crop0"))
        ]
        bare = replace(samples[1].record, boxes=np.zeros((0, 4)), classes=np.zeros(0, np.int64))
        no_objects = replace(samples[2], scene=scene_spec(512.0, 512.0, 9, payload_width=3))
        parents = [samples[0], replace(samples[1], record=bare), no_objects, *named]
        crops = []
        for sample in parents:
            x1, y1 = rng.uniform(0.0, 400.0, (2, 3))
            w, h = rng.uniform(5.0, 200.0, (2, 3))
            crops.append(np.round(np.stack([x1, y1, x1 + w, y1 + h], axis=1)))
        crops[2] = np.zeros((0, 4))
        parents += [samples[0], named[0]]
        crops += [crops[0][1:], crops[3][::-1]]
        order = rng.permutation(len(parents))
        return [parents[i] for i in order], [crops[i] for i in order]

    def test_children_equal_per_child_construction(self):
        rng = np.random.default_rng(61)
        outside = 0
        for trial in range(10):
            parents, crops = self.parents(rng)
            policy = (
                UpscalePolicy("factor", factor=float(rng.uniform(1.0, 4.0)))
                if trial % 2 else UpscalePolicy("short_edge", target=float(rng.uniform(64, 512)))
            )
            stack = stack_of(parents)
            got = make_crop_children(stack, *stacked_rows(crops), policy)
            want = make_crop_children_per_child(parents, crops, policy)
            assert len(got) == len(want) == sum(len(c) for c in crops)
            assert got.image_ids == tuple(w.record.image_id for w in want)
            assert "007:crop0" in got.image_ids and "a:crop0:crop2" in got.image_ids
            assert got.sizes.tolist() == [list(w.record.size) for w in want]
            assert got.seeds.tolist() == [w.scene.seed for w in want]
            assert got.id_words.tolist() == [stable_int(w.record.image_id) for w in want]
            assert got.crop.all()
            columns = {
                "boxes": [w.record.boxes for w in want],
                "classes": [w.record.classes for w in want],
                "object_boxes": [w.scene.object_boxes for w in want],
                "object_classes": [w.scene.object_classes for w in want],
                "object_payloads": [w.scene.object_payloads for w in want],
            }
            for name, blocks in columns.items():
                a, b = getattr(got, name), np.concatenate(blocks)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            assert got.counts.tolist() == [len(w.record.classes) for w in want]
            assert got.object_counts.tolist() == [len(w.scene.object_boxes) for w in want]
            # Provenance (the crop Box and the upscaled size) and the
            # records and scenes built where a caller returns them.
            assert_same_samples(zoomed_samples(stack, crops, got), want)
            for parent, rows in zip(parents, crops):
                overlap = intersection_matrix(parent.scene.object_boxes, rows) if len(rows) else []
                outside += int(np.count_nonzero(np.asarray(overlap) == 0.0))
        assert outside > 0

    def test_stack_of_samples_and_takes(self):
        samples = generate_synthetic_dataset(SyntheticConfig(num_images=4, num_classes=3, seed=8))
        samples[1] = replace(samples[1], record=replace(samples[1].record, image_id="007"))
        stack = stack_of(samples)
        assert stack.image_ids == (1, "007", 3, 4)
        assert stack.id_words.tolist() == [stable_int(s.record.image_id) for s in samples]
        assert stack.seeds.tolist() == [stable_int(s.scene.seed) for s in samples]
        assert not stack.crop.any()
        taken = stack.take([2, 0, 2])
        assert taken.image_ids == (3, 1, 3)
        for k, i in enumerate([2, 0, 2]):
            alone = stack_of([samples[i]])
            for name in ("boxes", "classes", "object_boxes", "object_payloads"):
                rows = np.split(getattr(taken, name), np.cumsum(
                    taken.counts if name in ("boxes", "classes") else taken.object_counts
                )[:-1])[k]
                assert rows.tobytes() == getattr(alone, name).tobytes(), name
        assert len(stack.take([])) == 0 and stack.take([]).object_payloads.shape == (0, 3)

    def test_stack_rejects_a_scene_of_another_size(self):
        sample = generate_synthetic_dataset(SyntheticConfig(num_images=1, seed=8))[0]
        wide = replace(sample, record=replace(sample.record, width=600.0))
        with pytest.raises(InvariantViolation, match="scene is 512.0x512.0"):
            SceneStack.of([wide])


def decoder_corpus() -> list:
    """Scene configs whose generation the stream decoder must reproduce:
    the pinned benchmark scenes, zero-width count ranges, one class, zero
    spread and noise (whose normals are still drawn), dense clusters,
    scenes that are not square and objects as long as a scene's side."""
    base = SyntheticConfig(num_images=12)
    configs = [benchmarks.scene_config(1000, 400), benchmarks.scene_config(1, 30)]
    configs += [replace(base, seed=seed) for seed in (0, 1, 5, 2**32 + 7)]
    configs += [
        replace(base, num_classes=1, seed=2),
        replace(base, num_classes=1, clusters_per_image=(3, 3), seed=3),
        replace(base, clusters_per_image=(2, 2), objects_per_cluster=(5, 5), seed=4),
        replace(base, scattered_per_image=(0, 0), seed=5),
        replace(base, clusters_per_image=(0, 0), scattered_per_image=(4, 4), seed=6),
        replace(base, clusters_per_image=(0, 0), scattered_per_image=(0, 0), seed=7),
        replace(base, objects_per_cluster=(0, 0), seed=8),
        replace(base, cluster_spread=0.0, seed=9),
        replace(base, payload_noise=0.0, seed=10),
        replace(base, cluster_spread=0.0, payload_noise=0.0, num_classes=1, seed=11),
        replace(base, objects_per_cluster=(20, 60), seed=12),
        replace(base, num_images=6, clusters_per_image=(4, 6), objects_per_cluster=(20, 60), seed=13),
        replace(base, num_classes=2, seed=14),
        replace(base, num_classes=37, seed=15),
        replace(base, width=300.0, height=120.0, large_size=(20.0, 120.0), seed=16),
        replace(base, width=64.0, height=64.0, small_size=(2.0, 8.0), large_size=(10.0, 64.0), seed=17),
        replace(base, cluster_spread=200.0, seed=18),
        replace(base, clusters_per_image=(0, 5), objects_per_cluster=(0, 3), scattered_per_image=(0, 2), seed=19),
        replace(base, num_images=1, seed=20),
        replace(base, num_images=0, seed=21),
        replace(base, num_images=300, seed=22),
        replace(base, small_size=(10, 10), large_size=(50, 50), seed=23),
        replace(base, num_images=40, num_classes=3, payload_noise=1.5, seed=24),
        replace(base, num_images=40, num_classes=9, objects_per_cluster=(10, 30), seed=25),
    ]
    return configs


class TestSceneDecoder:
    def test_equals_the_per_object_generator_bit_for_bit(self, monkeypatch):
        # numpy draws the normals off the ziggurat's fast path, through a
        # helper generator; record which kind each was (index 0 is the
        # tail), and whether a row's buffer was extended
        kinds, extended = [], []
        slow_normal, extend = StreamDecoder._slow_normal, StreamDecoder._extend

        def recording_slow(self, row, pos):
            kinds.append(int(self._raw[row, pos]) & 0xFF == 0)
            return slow_normal(self, row, pos)

        def recording_extend(self, rows, ends):
            extended.append(bool((ends > self._filled[rows]).any()))
            return extend(self, rows, ends)

        monkeypatch.setattr(StreamDecoder, "_slow_normal", recording_slow)
        monkeypatch.setattr(StreamDecoder, "_extend", recording_extend)
        configs = decoder_corpus()
        assert len(configs) >= 30
        for i, cfg in enumerate(configs):
            # every third config reads its streams through small buffers,
            # down to one output, which it must keep extending
            monkeypatch.setattr(seeding, "RAW_BLOCK", [4096, 1, 16][i % 3])
            assert_same_samples(generate_synthetic_dataset(cfg), synthetic_dataset_ref(cfg))
        assert any(kinds) and not all(kinds), "no tail or no wedge normal"
        assert any(extended)


class TestPinnedFiles:
    def test_generated_and_tiled_files_are_pinned(self, tmp_path, capsys):
        def digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        gen, tiles = tmp_path / "gen", tmp_path / "tiles"
        assert cli_main(["dataset", "gen", "--out", str(gen), "--num-images", "12", "--seed", "5"]) == 0
        assert digest(gen / "scenes.json") == SCENES_SHA256
        assert digest(gen / "annotations.json") == ANNOTATIONS_SHA256
        capsys.readouterr()
        argv = ["dataset", "tile", "--annotations", str(gen / "annotations.json")]
        assert cli_main([*argv, "--out", str(tiles), "--tile", "100", "--stride", "100"]) == 0
        assert "432 tiles (7 annotations lost to straddling)" in capsys.readouterr().out
        assert digest(tiles / "annotations.json") == TILES_SHA256


class TestSceneFileChecks:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda objs: objs[1]["payload"].pop(),
            lambda objs: objs[1]["payload"].append([1.0]),
            lambda objs: objs[0]["box"].pop(),
            lambda objs: objs[0]["box"].extend([1.0, 2.0, 3.0, 4.0]),
            lambda objs: objs[0].update(box=[[1.0, 2.0], [3.0, 4.0]]),
            lambda objs: objs[0]["box"].__setitem__(2, None),
            lambda objs: objs[0]["box"].__setitem__(2, objs[0]["box"][0]),
        ],
        ids=["short payload", "nested payload", "3-number box", "8-number box",
             "nested box", "null coordinate", "zero-width box"],
    )
    def test_malformed_objects_rejected(self, tmp_path, edit):
        samples = generate_synthetic_dataset(SyntheticConfig(num_images=2, seed=5))
        path = tmp_path / "scenes.json"
        write_scenes(samples, path)
        payload = json.loads(path.read_text())
        edit(payload["scenes"]["2"]["objects"])
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="malformed scene entry for image 2"):
            read_scenes(path, [s.record for s in samples])
