"""Multi-stage inference: crop selection, zoom-in re-detection, fusion."""

from dataclasses import replace

import numpy as np
import pytest

from densecrop.croplab import CropParams
from densecrop.dataset import (
    Annotation,
    ImageRecord,
    Provenance,
    SceneSample,
    SceneSpec,
    SyntheticConfig,
    UpscalePolicy,
    generate_synthetic_dataset,
)
from densecrop import geometry as geometry_module
from densecrop import infer as infer_module
from densecrop.detect import (
    OracleBackend,
    OracleNoiseModel,
    ToyDetector,
    ToyDetectorConfig,
    WeightVector,
)
from densecrop.errors import ConfigError, InvariantViolation
from densecrop.geometry import Box, Detection, chunk_bounds, detections_from_arrays
from densecrop.infer import InferenceConfig, run_inference, select_crops
from densecrop.metrics import recall_by_size

from reference_impls import (
    annotation_rows,
    detection_arrays,
    label_one,
    one_scene,
    scene_spec,
    split_rows,
    stack_of,
)

CROP_PARAMS = CropParams(merge_steps=1, sigma=5, theta=0.05, pi=0.5, min_cluster=2)


def config(**overrides):
    defaults = dict(
        crop_mode="predicted",
        crop_score_threshold=0.5,
        crop_params=CROP_PARAMS,
        max_crops_per_image=8,
        upscale=UpscalePolicy("factor", factor=4.0),
        fusion_iou=0.5,
    )
    defaults.update(overrides)
    return InferenceConfig(**defaults)


def select_one(first_pass, cfg, image_size, crop_class_id):
    """:func:`select_crops` over a stack of one image: its (K, 4) crops."""
    crops, counts = select_crops(first_pass, [len(first_pass[2])], cfg, [image_size], crop_class_id)
    assert counts.tolist() == [len(crops)]
    return crops


def crop_weights(backend):
    """Toy weights that predict a crop where proposals hold many object
    centres and class 0 on proposals that overlap an object well."""
    layout = backend.layout
    cls = np.zeros((layout.num_outputs, layout.columns))
    cls[backend.crop_class_id, 6] = 30.0  # the center-count feature
    cls[backend.crop_class_id, -1] = -10.0
    cls[0, 4] = 12.0  # the best-IoU feature
    return WeightVector(layout, np.concatenate([cls.ravel(), np.zeros(layout.reg_size)]))


def crops_alone(backend, weights, sample, cfg=None):
    """The crops :func:`select_crops` picks from ``sample``'s stage one
    run alone."""
    first = one_scene(backend.detect_batch(weights, stack_of([sample])))
    return select_one(first, cfg or config(), sample.record.size, backend.crop_class_id)


class TestInferenceConfig:
    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            config(crop_mode="both")

    def test_invalid_caps(self):
        with pytest.raises(ConfigError):
            config(max_crops_per_image=-1)
        with pytest.raises(ConfigError):
            config(fusion_iou=0.0)


class TestSelectCrops:
    def test_predicted_mode_empty_without_crop_class(self):
        dets = [Detection(Box(0, 0, 10, 10), 0, 0.9)]
        crops = select_one(detection_arrays(dets), config(), (500, 500), crop_class_id=3)
        assert crops.shape == (0, 4)

    def test_predicted_mode_threshold(self):
        dets = [
            Detection(Box(0, 0, 50, 50), 3, 0.9),
            Detection(Box(100, 100, 150, 150), 3, 0.4),
        ]
        crops = select_one(detection_arrays(dets), config(), (500, 500), crop_class_id=3)
        assert crops.tolist() == [[0, 0, 50, 50]]

    def test_predicted_mode_top_k_by_score(self):
        dets = [
            Detection(Box(0, 0, 50, 50), 3, 0.6),
            Detection(Box(100, 100, 150, 150), 3, 0.9),
            Detection(Box(200, 200, 250, 250), 3, 0.7),
        ]
        crops = select_one(
            detection_arrays(dets), config(max_crops_per_image=2), (500, 500), crop_class_id=3
        )
        assert crops.tolist() == [[100, 100, 150, 150], [200, 200, 250, 250]]

    def test_relabeled_mode_matches_crop_labeling(self):
        boxes = [Box(0, 0, 20, 20), Box(25, 0, 45, 20), Box(200, 200, 220, 220)]
        dets = [Detection(b, 0, 0.9) for b in boxes]
        crops = select_one(
            detection_arrays(dets), config(crop_mode="relabeled"), (500, 500), crop_class_id=3
        )
        rows = np.array([b.as_tuple() for b in boxes])
        assert np.array_equal(crops, label_one(rows, (500, 500), CROP_PARAMS))
        assert crops.tolist() == [[0, 0, 50, 25]]

    def test_relabeled_mode_ignores_unconfident(self):
        boxes = [Box(0, 0, 20, 20), Box(25, 0, 45, 20)]
        dets = [Detection(b, 0, 0.2) for b in boxes]
        crops = select_one(detection_arrays(dets), config(crop_mode="relabeled"), (500, 500), 3)
        assert crops.shape == (0, 4)

    def test_predicted_mode_score_ties_keep_row_order(self):
        scores = [0.8, 0.6, 0.9] * 20
        dets = [Detection(Box(8.0 * i, 0, 8.0 * i + 5, 5), 3, s) for i, s in enumerate(scores)]
        crops = select_one(
            detection_arrays(dets), config(max_crops_per_image=30), (500, 500), crop_class_id=3
        )
        by_score = sorted(dets, key=lambda d: -d.score)  # sorted() is stable
        assert crops.tolist() == [list(d.box.as_tuple()) for d in by_score[:30]]


def random_first_pass(rng, n, size):
    """Stage-one rows of one image: boxes around three cluster centres,
    classes 0 to 3 (3 is the crop class) and scores from a few levels, so
    that scores tie."""
    width, height = size
    centres = rng.uniform(60.0, min(width, height) - 60.0, (3, 2))
    corner = centres[rng.integers(0, 3, n)] + rng.normal(0.0, 15.0, (n, 2))
    corner = np.clip(corner, 0.0, [width - 20.0, height - 20.0])
    boxes = np.concatenate([corner, corner + rng.uniform(6.0, 20.0, (n, 2))], axis=1)
    return boxes, rng.integers(0, 4, n), rng.choice([0.3, 0.6, 0.6, 0.9], n)


def select_ref(first_pass, cfg, image_size, crop_class_id):
    """One image's crops by a loop: ``predicted`` mode sorts the crop-class
    rows above the threshold by score with ``sorted`` (stable);
    ``relabeled`` labels the confident base-class rows alone."""
    boxes, classes, scores = first_pass
    above = [i for i in range(len(scores)) if scores[i] > cfg.crop_score_threshold]
    if cfg.crop_mode == "predicted":
        rows = sorted((i for i in above if classes[i] == crop_class_id), key=lambda i: -scores[i])
        return boxes[rows].reshape(-1, 4)[: cfg.max_crops_per_image]
    rows = [i for i in above if classes[i] != crop_class_id]
    return label_one(boxes[rows], image_size, cfg.crop_params)[: cfg.max_crops_per_image]


class TestSelectCropsStack:
    """``select_crops`` over a ragged stack of images, image by image."""

    SIZES = [(500.0, 500.0), (300.0, 200.0), (500.0, 400.0), (400.0, 500.0), (500.0, 300.0)]

    @pytest.mark.parametrize("mode", ["predicted", "relabeled"])
    def test_ragged_stack_equals_each_image_alone(self, mode, monkeypatch):
        rng = np.random.default_rng(17)
        images = [random_first_pass(rng, n, size) for n, size in zip((30, 0, 60, 7, 45), self.SIZES)]
        cfg = config(crop_mode=mode, max_crops_per_image=3, crop_params=CropParams(merge_steps=2))
        label, calls = infer_module.label_density_crops, []

        def counted(*args):
            calls.append(len(args[0]))
            return label(*args)

        monkeypatch.setattr(infer_module, "label_density_crops", counted)
        stack = tuple(np.concatenate(column) for column in zip(*images))
        crops, counts = select_crops(stack, [len(first[2]) for first in images], cfg, self.SIZES, 3)
        got = split_rows(counts, crops)
        # Relabeled mode labels every image's confident rows in one call.
        confident = np.count_nonzero((stack[1] != 3) & (stack[2] > 0.5))
        assert calls == ([confident] if mode == "relabeled" else [])
        want = [select_ref(first, cfg, size, 3) for first, size in zip(images, self.SIZES)]
        assert [rows.tolist() for rows in got] == [rows.tolist() for rows in want]
        assert all(rows.shape == (len(rows), 4) for rows in got)
        assert len(got[1]) == 0 and max(len(rows) for rows in got) == 3

    def test_predicted_mode_caps_each_image(self):
        # Equal scores in two images: each image keeps its own first rows.
        boxes = np.array([[0.0, 0.0, 10.0 + k, 10.0] for k in range(6)])
        stack = (boxes, np.full(6, 3), np.full(6, 0.9))
        cfg = config(max_crops_per_image=3)
        crops, counts = select_crops(stack, [4, 2], cfg, self.SIZES[:2], 3)
        assert counts.tolist() == [3, 2]
        assert crops.tolist() == boxes[:3].tolist() + boxes[4:].tolist()


def clustered_sample(seed=0):
    cfg = SyntheticConfig(
        num_images=1,
        width=512.0,
        height=512.0,
        num_classes=3,
        clusters_per_image=(2, 2),
        objects_per_cluster=(6, 8),
        small_size=(8.0, 16.0),
        scattered_per_image=(2, 3),
        large_size=(48.0, 90.0),
        seed=seed,
    )
    return generate_synthetic_dataset(cfg)[0]


def add_crop_annotations(sample, crop_class, crop_params=None):
    params = crop_params or CropParams(merge_steps=2, sigma=14, theta=0.05, pi=0.4, min_cluster=3)
    crops = label_one(
        sample.record.boxes, sample.record.size, params
    )
    record = replace(
        sample.record,
        boxes=np.concatenate([sample.record.boxes, crops]),
        classes=np.concatenate([sample.record.classes, np.full(len(crops), crop_class)]),
    )
    return SceneSample(record=record, scene=sample.scene)


MISS_SMALL = OracleNoiseModel(
    miss_curve=((0.0, 1.0), (1024.0, 0.0)), score_mean=0.9, score_std=0.0
)


def detect_one(sample, backend, inference):
    """The fused detections of one image: ``run_inference`` over a list of one."""
    (result,) = run_inference([sample], backend, None, inference)
    assert result.error is None
    return result.detections


class TestDetectMultistage:
    def test_no_crops_selected_equals_stage_one(self):
        sample = clustered_sample(seed=1)  # no crop annotations -> no crop dets
        backend = OracleBackend(num_base_classes=3, noise=OracleNoiseModel(score_mean=0.9, score_std=0.0))
        multi = detect_one(sample, backend, config())
        single = detect_one(sample, backend, config(multistage=False))
        assert multi == single

    def test_small_recall_zero_to_one(self):
        # stage one misses everything below 32^2; the upscaled crops bring
        # the clustered small objects back. Built by hand so every small
        # object lies inside a crop.
        smalls = []
        for cx, cy in ((80.0, 80.0), (400.0, 300.0)):
            for dx in (-24.0, 0.0, 24.0):
                for dy in (-20.0, 0.0, 20.0):
                    smalls.append(Box(cx + dx, cy + dy, cx + dx + 10, cy + dy + 10))
        crops = [Box(40, 44, 130, 126), Box(360, 264, 450, 346)]
        annotations = tuple(Annotation(box=b, class_id=0) for b in smalls) + tuple(
            Annotation(box=c, class_id=3) for c in crops
        )
        record = ImageRecord(1, 512.0, 512.0, *annotation_rows(annotations))
        scene = scene_spec(512.0, 512.0, 0)
        sample = SceneSample(record=record, scene=scene)
        for s in smalls:
            assert any(
                c.x1 <= s.x1 and c.y1 <= s.y1 and c.x2 >= s.x2 and c.y2 >= s.y2 for c in crops
            )
        backend = OracleBackend(num_base_classes=3, noise=MISS_SMALL)
        gts = {1: [a for a in annotations if a.class_id != 3]}
        single = detect_one(sample, backend, config(multistage=False))
        multi = detect_one(sample, backend, config())
        r_single = recall_by_size(gts, [(1, d) for d in single])
        r_multi = recall_by_size(gts, [(1, d) for d in multi])
        assert r_single["small"] == 0.0
        assert r_multi["small"] == 1.0

    def test_duplicates_fused(self):
        # no misses at all: both stages see everything inside the crops, so
        # fusion must deduplicate per object
        sample = add_crop_annotations(clustered_sample(seed=3), crop_class=3)
        noise = OracleNoiseModel(score_mean=0.9, score_std=0.0)
        backend = OracleBackend(num_base_classes=3, noise=noise)
        multi = detect_one(sample, backend, config())
        base_gt = [a for a in sample.record.annotations if a.class_id != 3]
        assert len(multi) == len(base_gt)

    def test_no_crop_class_in_output(self):
        sample = add_crop_annotations(clustered_sample(seed=4), crop_class=3)
        backend = OracleBackend(num_base_classes=3, noise=OracleNoiseModel(score_mean=0.9, score_std=0.0))
        multi = detect_one(sample, backend, config())
        assert all(d.class_id != 3 for d in multi)

    def test_outputs_inside_image(self):
        sample = add_crop_annotations(clustered_sample(seed=5), crop_class=3)
        noise = OracleNoiseModel(jitter_std=4.0, score_mean=0.8, score_std=0.1, fp_rate=2.0)
        backend = OracleBackend(num_base_classes=3, noise=noise)
        for det in detect_one(sample, backend, config()):
            assert 0 <= det.box.x1 < det.box.x2 <= sample.record.width
            assert 0 <= det.box.y1 < det.box.y2 <= sample.record.height

    def test_stage_two_detections_inside_their_crop(self):
        sample = add_crop_annotations(clustered_sample(seed=6), crop_class=3)
        backend = OracleBackend(num_base_classes=3, noise=MISS_SMALL)
        crops = [a.box for a in sample.record.annotations if a.class_id == 3]
        single = detect_one(sample, backend, config(multistage=False))
        multi = detect_one(sample, backend, config())
        stage2_only = [d for d in multi if d not in single]
        tol = 1e-9
        for det in stage2_only:
            assert any(
                det.box.x1 >= c.x1 - tol
                and det.box.y1 >= c.y1 - tol
                and det.box.x2 <= c.x2 + tol
                and det.box.y2 <= c.y2 + tol
                for c in crops
            )

    def test_deterministic(self):
        sample = add_crop_annotations(clustered_sample(seed=7), crop_class=3)
        noise = OracleNoiseModel(jitter_std=1.0, score_mean=0.8, score_std=0.1)
        backend = OracleBackend(num_base_classes=3, noise=noise)
        a = detect_one(sample, backend, config())
        b = detect_one(sample, backend, config())
        assert a == b


class FailingBackend(OracleBackend):
    def detect_batch(self, weights, scenes):
        if 2 in scenes.image_ids:
            raise RuntimeError("backend exploded")
        return super().detect_batch(weights, scenes)


class TestRunInference:
    def samples(self, n=6):
        cfg = SyntheticConfig(num_images=n, num_classes=3, seed=12)
        return generate_synthetic_dataset(cfg)

    def test_backend_failure_becomes_error_record(self):
        samples = self.samples()
        backend = FailingBackend(
            num_base_classes=3, noise=OracleNoiseModel(score_mean=0.9, score_std=0.0)
        )
        results = run_inference(samples, backend, None, config(), seed=0)
        failed = [r for r in results if r.error]
        assert len(failed) == 1
        assert failed[0].image_id == 2
        assert "backend exploded" in failed[0].error
        assert all(r.detections for r in results if not r.error)

    def test_failing_chunk_retries_on_one_scene_takes_of_its_stack(self):
        seen = []

        class Recording(FailingBackend):
            def detect_batch(self, weights, scenes):
                seen.append(scenes)
                return super().detect_batch(weights, scenes)

        backend = Recording(
            num_base_classes=3, noise=OracleNoiseModel(score_mean=0.9, score_std=0.0)
        )
        results = run_inference(self.samples(4), backend, None, config(multistage=False))
        chunk, *retries = seen
        assert chunk.image_ids == (1, 2, 3, 4)
        assert [scenes.image_ids for scenes in retries] == [(1,), (2,), (3,), (4,)]
        names = ("sizes", "seeds", "id_words", "boxes", "classes", "object_boxes", "object_payloads")
        for k, scenes in enumerate(retries):
            for name in names:
                assert getattr(scenes, name).tobytes() == getattr(chunk.take([k]), name).tobytes()
        assert [r.error is not None for r in results] == [False, True, False, False]

    def test_invariant_violation_propagates(self):
        class BrokenBackend(OracleBackend):
            def detect_batch(self, weights, scenes):
                raise InvariantViolation("broken invariant")

        backend = BrokenBackend(num_base_classes=3, noise=OracleNoiseModel())
        with pytest.raises(InvariantViolation, match="broken invariant"):
            run_inference(self.samples(2), backend, None, config(), seed=0)

    @pytest.mark.parametrize(
        "row, message",
        [([1.0, 1.0, float("nan"), 5.0], "non-finite"), ([4.0, 1.0, 4.0, 5.0], "degenerate")],
    )
    def test_invalid_stage_two_row_raises(self, row, message):
        # The bad row scores low, so NMS would drop it; the fusion guard
        # checks every row before NMS, as building each Box did.
        class BadStageTwo(OracleBackend):
            def detect_batch(self, weights, scenes):
                boxes, classes, scores, counts = super().detect_batch(weights, scenes)
                # the bad row ends each child's rows
                ends = np.cumsum(counts)[scenes.crop]
                return (
                    np.insert(boxes, ends, row, axis=0), np.insert(classes, ends, 0),
                    np.insert(scores, ends, 0.01), counts + scenes.crop,
                )

        sample = add_crop_annotations(clustered_sample(seed=7), crop_class=3)
        backend = BadStageTwo(
            num_base_classes=3, noise=OracleNoiseModel(score_mean=0.9, score_std=0.0)
        )
        assert len(crops_alone(backend, None, sample))
        with pytest.raises(InvariantViolation, match=message):
            run_inference([sample], backend, None, config(), seed=0)

    def test_timings_recorded(self):
        samples = self.samples(3)
        backend = OracleBackend(
            num_base_classes=3, noise=OracleNoiseModel(score_mean=0.9, score_std=0.0)
        )
        results = run_inference(samples, backend, None, config(), seed=0)
        assert all(r.seconds >= 0.0 for r in results)


class TestArrayResults:
    """Results hold (N, 4), (N,) and (N,) arrays; ``detections`` builds
    :class:`Detection` objects from them only when it is read."""

    def zooming_samples(self):
        samples = []
        for k, seed in enumerate((3, 5, 6)):
            sample = add_crop_annotations(clustered_sample(seed=seed), crop_class=3)
            record = replace(sample.record, image_id=f"img{k}")
            samples.append(replace(sample, record=record))
        return samples

    def test_zooming_inference_builds_no_detection(self, monkeypatch):
        # Crop children stay rows of their stack: a zooming pass builds no
        # Box, Annotation or Detection, and no record, scene, sample or
        # provenance for its children.
        samples = self.zooming_samples()
        noise = OracleNoiseModel(jitter_std=2.0, score_mean=0.8, score_std=0.1, fp_rate=1.0)
        backend = OracleBackend(num_base_classes=3, noise=noise)
        crops = [crops_alone(backend, None, s) for s in samples]
        assert all(len(rows) for rows in crops)
        built = []

        def counting(init):
            def count(obj, *args, **kwargs):
                built.append(obj)
                init(obj, *args, **kwargs)

            return count

        classes = (Box, Detection, Annotation, ImageRecord, SceneSpec, SceneSample, Provenance)
        with monkeypatch.context() as patched:
            for cls in classes:
                patched.setattr(cls, "__init__", counting(cls.__init__))
            results = run_inference(samples, backend, None, config())
        assert built == []
        assert all(r.error is None and len(r.scores) for r in results)
        for r in results:
            assert (r.boxes.dtype, r.classes.dtype, r.scores.dtype) == (
                np.float64, np.int64, np.float64
            )
            assert r.boxes.shape == (len(r.scores), 4) and r.classes.shape == r.scores.shape
            assert repr(r.detections) == repr(
                detections_from_arrays(r.boxes, r.classes, r.scores)
            )

    def test_error_record_has_zero_rows(self):
        backend = FailingBackend(
            num_base_classes=3, noise=OracleNoiseModel(score_mean=0.9, score_std=0.0)
        )
        samples = generate_synthetic_dataset(SyntheticConfig(num_images=3, num_classes=3, seed=12))
        (failed,) = [r for r in run_inference(samples, backend, None, config()) if r.error]
        assert (failed.boxes.shape, failed.classes.shape, failed.scores.shape) == (
            (0, 4), (0,), (0,)
        )
        assert (failed.boxes.dtype, failed.classes.dtype, failed.scores.dtype) == (
            np.float64, np.int64, np.float64
        )
        assert failed.detections == []

    @pytest.mark.parametrize("order, message", [((0, 1), "non-finite"), ((1, 0), "degenerate")])
    def test_first_invalid_stage_two_row_of_the_chunk_raises(self, order, message):
        # Every stage-two child gets one bad row, NaN in image 0's children
        # and zero-width in image 1's: the chunk's rows are checked at once,
        # in (image, crop) order, so the first image's bad row raises.
        samples = self.zooming_samples()[:2]
        bad = {"img0": [1.0, 1.0, float("nan"), 5.0], "img1": [4.0, 1.0, 4.0, 5.0]}

        class BadStageTwo(OracleBackend):
            def detect_batch(self, weights, scenes):
                boxes, classes, scores, counts = super().detect_batch(weights, scenes)
                # a bad row of its parent's kind ends each child's rows
                ends = np.cumsum(counts)[scenes.crop]
                rows = [bad[i.split(":")[0]] for i in scenes.image_ids if ":" in i]
                return (
                    np.insert(boxes, ends, np.reshape(rows, (-1, 4)), axis=0),
                    np.insert(classes, ends, 0),
                    np.insert(scores, ends, 0.01),
                    counts + scenes.crop,
                )

        backend = BadStageTwo(
            num_base_classes=3, noise=OracleNoiseModel(score_mean=0.9, score_std=0.0)
        )
        with pytest.raises(InvariantViolation, match=message):
            run_inference([samples[k] for k in order], backend, None, config())


class TestChunkedInference:
    """``run_inference`` over chunks against the same images run one per
    chunk: the same ids, detections and errors, in the same order."""

    # Objects per chunk: these samples fill three chunks.
    BUDGET = 120

    def samples(self):
        cfg = SyntheticConfig(
            num_images=40, num_classes=3, clusters_per_image=(0, 2),
            objects_per_cluster=(6, 8), scattered_per_image=(1, 3), seed=14,
        )
        generated = generate_synthetic_dataset(cfg)
        empty = SceneSample(
            record=ImageRecord("empty", 300.0, 300.0),
            scene=scene_spec(300.0, 300.0, 1, payload_width=3),
        )
        return generated[:5] + [empty] + generated[5:]

    def chunks(self, monkeypatch, samples, budget):
        monkeypatch.setattr(geometry_module, "CHUNK_OBJECTS", budget)
        return chunk_bounds([len(s.scene.object_boxes) for s in samples])

    def outcomes(self, monkeypatch, samples, backend, weights, budget):
        monkeypatch.setattr(geometry_module, "CHUNK_OBJECTS", budget)
        results = run_inference(samples, backend, weights, config(), seed=3)
        return [(r.image_id, r.detections, r.error) for r in results]

    def check(self, monkeypatch, samples, backend, weights, failing):
        crops = [
            len(crops_alone(backend, weights, s)) for s in samples if s.record.image_id != failing
        ]
        assert min(crops) == 0 and max(crops) > 0
        assert len(self.chunks(monkeypatch, samples, self.BUDGET)) >= 3
        # a budget of 0 puts every image in a chunk of its own
        singles = [(i, i + 1) for i in range(len(samples))]
        assert self.chunks(monkeypatch, samples, 0) == singles
        chunked = self.outcomes(monkeypatch, samples, backend, weights, self.BUDGET)
        assert chunked == self.outcomes(monkeypatch, samples, backend, weights, 0)
        errors = {image_id: error for image_id, _, error in chunked if error}
        assert list(errors) == [failing] and "backend exploded" in errors[failing]
        assert sum(len(dets) for _, dets, _ in chunked) > 0
        return chunked

    def test_oracle_chunks_equal_one_image_per_chunk(self, monkeypatch):
        samples = [add_crop_annotations(s, crop_class=3) for s in self.samples()]
        backend = FailingBackend(
            num_base_classes=3, noise=OracleNoiseModel(score_mean=0.9, score_std=0.0)
        )
        self.check(monkeypatch, samples, backend, None, failing=2)

    def test_toy_chunks_equal_one_image_per_chunk(self, monkeypatch):
        samples = self.samples()
        start, stop = self.chunks(monkeypatch, samples, self.BUDGET)[1]
        assert stop - start >= 3
        failing = samples[(start + stop) // 2].record.image_id  # mid second chunk

        class FailingToy(ToyDetector):
            def views(self, scenes, targets=False):
                if failing in scenes.image_ids:
                    raise RuntimeError("backend exploded")
                return super().views(scenes, targets)

        backend = FailingToy(
            ToyDetectorConfig(
                num_base_classes=3, background_proposals=0, proposal_crop_params=CROP_PARAMS
            )
        )
        chunked = self.check(monkeypatch, samples, backend, crop_weights(backend), failing)
        # the scene without objects has no proposals, hence no detections
        assert backend.views(stack_of([samples[5]])).proposals.shape == (0, 4)
        assert chunked[5] == ("empty", [], None)


class TestChunkBudget:
    """Chunks close by the object budget: an image with m objects costs
    ``max(m, 1)``, so a dense image shares its chunk."""

    def test_chunk_exceeds_budget_only_by_its_last_image(self, monkeypatch):
        budget = 100
        monkeypatch.setattr(geometry_module, "CHUNK_OBJECTS", budget)
        rng = np.random.default_rng(15)
        objects = rng.integers(0, 30, 400).tolist()
        # images over the budget by themselves, after a short and a closed
        # chunk and twice in a row, and empty images, which cost 1
        objects[50:50] = [140]
        objects[120:120] = [1, 132, 133, 5]
        objects[200:200] = [0] * 8
        objects += [0, 145]
        cost = [max(m, 1) for m in objects]
        edges = chunk_bounds(objects)
        assert [a for a, _ in edges] == [0] + [b for _, b in edges[:-1]]
        assert edges[-1][1] == len(objects) and all(a < b for a, b in edges)
        for k, (a, b) in enumerate(edges):
            assert sum(cost[a : b - 1]) <= budget
            if k + 1 < len(edges):
                assert sum(cost[a:b]) > budget
        # an image over the budget closes its chunk, and runs alone only
        # when it opens one
        over = [i for i, c in enumerate(cost) if c > budget]
        assert len(over) == 4 and all(any(b == i + 1 for _, b in edges) for i in over)
        assert sum((i, i + 1) not in edges for i in over) == 3
        assert max(b - a for a, b in edges) > 3
        # the cost is linear: images of 25 objects close a chunk every fifth
        assert chunk_bounds([25] * 12) == [(0, 5), (5, 10), (10, 12)]
        assert chunk_bounds([]) == []

    def test_run_inference_runs_those_chunks(self, monkeypatch):
        samples = TestChunkedInference().samples()
        monkeypatch.setattr(geometry_module, "CHUNK_OBJECTS", 60)
        edges = chunk_bounds([len(s.scene.object_boxes) for s in samples])
        sizes = []
        attempt = infer_module._attempt

        def recording(scenes, *args):
            sizes.append(len(scenes))
            return attempt(scenes, *args)

        monkeypatch.setattr(infer_module, "_attempt", recording)
        backend = OracleBackend(num_base_classes=3, noise=OracleNoiseModel())
        results = run_inference(samples, backend, None, config())
        assert sizes == [b - a for a, b in edges] and len(sizes) > 2
        assert [r.image_id for r in results] == [s.record.image_id for s in samples]


class TestDenseChunks:
    def test_dense_scenes_share_chunks(self, monkeypatch):
        # 32 dense 1024x1024 scenes of 165..233 objects. Under the squared
        # pair budget each ran in a chunk of its own; every kernel of a
        # chunk is linear in its rows and meeting pairs, so they share two
        # chunks and give the detections of one image per chunk.
        import tracemalloc

        cfg = SyntheticConfig(
            num_images=32, width=1024.0, height=1024.0, clusters_per_image=(10, 12),
            objects_per_cluster=(14, 18), scattered_per_image=(10, 20), seed=7,
        )
        samples = generate_synthetic_dataset(cfg)
        assert min(len(s.scene.object_boxes) for s in samples) >= 150
        backend = ToyDetector(ToyDetectorConfig(num_base_classes=4, proposal_crop_params=CROP_PARAMS))
        weights = crop_weights(backend)
        sizes = []
        attempt = infer_module._attempt

        def recording(scenes, *args):
            sizes.append(len(scenes))
            return attempt(scenes, *args)

        monkeypatch.setattr(infer_module, "_attempt", recording)
        tracemalloc.start()
        try:
            chunked = run_inference(samples, backend, weights, config())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [21, 11]
        assert peak <= 16 * 2**20, peak / 2**20
        monkeypatch.setattr(geometry_module, "CHUNK_OBJECTS", 0)
        singles = run_inference(samples, backend, weights, config())
        assert len(sizes) == 2 + len(samples)
        outcomes = [
            [(r.image_id, r.boxes.tobytes(), r.classes.tolist(), r.scores.tobytes(), r.error) for r in run]
            for run in (chunked, singles)
        ]
        assert outcomes[0] == outcomes[1]
        assert all(r.error is None for r in chunked) and sum(len(r.classes) for r in chunked) > 0
        assert len(crops_alone(backend, weights, samples[0])) > 0  # stage two runs


class TestPinnedToyInference:
    def test_multistage_toy_detections_digest_is_pinned(self):
        # A trained toy detector through both crop modes of multistage
        # inference, down to the last bit of every fused detection; the
        # digest is the one the per-proposal implementation computed.
        import hashlib

        from densecrop.dataset import DatasetSplit
        from densecrop.detect import ToyDetector, ToyDetectorConfig
        from densecrop.teacher import TrainerConfig, train

        crop_params = CropParams(merge_steps=2, sigma=14, theta=0.05, pi=0.4, min_cluster=3)
        upscale = UpscalePolicy("factor", factor=4.0)

        def scenes(seed, n):
            cfg = SyntheticConfig(
                num_images=n, width=400.0, height=400.0, num_classes=3,
                clusters_per_image=(2, 2), objects_per_cluster=(6, 8),
                scattered_per_image=(2, 3), payload_noise=0.05, seed=seed,
            )
            return generate_synthetic_dataset(cfg)

        samples = {s.record.image_id: s for s in scenes(3, 10)}
        ids = sorted(samples)
        split = DatasetSplit(
            labeled_ids=frozenset(ids[:3]), unlabeled_ids=frozenset(ids[3:]), seed=0, fraction=0.3
        )
        backend = ToyDetector(
            ToyDetectorConfig(
                num_base_classes=3, proposal_crop_params=crop_params, payload_obs_scale=2.0
            )
        )
        trainer = TrainerConfig(
            burn_in_iters=60, max_iters=120, crop_start_iter=75, learning_rate=0.05, tau=0.5,
            crops_on_labeled=True, crop_params=crop_params, upscale=upscale,
        )
        weights = train(trainer, samples, split, backend).teacher
        test = scenes(7, 12)
        digest = hashlib.sha256()
        zoomed = 0
        for mode in ("predicted", "relabeled"):
            cfg = config(crop_mode=mode, crop_score_threshold=0.25, crop_params=crop_params)
            zoomed += sum(len(crops_alone(backend, weights, s, cfg)) for s in test)
            for result in run_inference(test, backend, weights, cfg, seed=5):
                assert result.error is None
                digest.update(f"{result.image_id}\n".encode())
                for d in result.detections:
                    digest.update(repr((d.class_id, d.score, d.box.as_tuple())).encode())
        assert zoomed == 45  # stage two runs on dozens of crops
        assert digest.hexdigest() == (
            "a1740664227434e47ce3e46dba3b4a3efdedca721c525756c8bcc17f57e4cfc5"
        )
