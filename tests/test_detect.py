"""Detection backends: oracle noise model, features, forward pass, losses."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from densecrop.croplab import CropParams
from densecrop.dataset import (
    Annotation,
    ImageRecord,
    SceneSample,
    SyntheticConfig,
    generate_synthetic_dataset,
)
from densecrop.detect import (
    EMIT_FLOOR,
    OracleBackend,
    OracleNoiseModel,
    SupervisedBatch,
    ToyDetector,
    ToyDetectorConfig,
    UnsupervisedBatch,
    ViewStack,
    WeightLayout,
    WeightVector,
    assign_targets,
    extract_features,
    feature_dim,
    loss_sup,
    loss_unsup,
    oracle_detect,
    read_detections,
    toy_forward,
    write_detections,
)
from densecrop.errors import ConfigError, DataError, InvariantViolation
from densecrop.geometry import (
    Box,
    Detection,
    chunk_bounds,
    detections_from_arrays,
    intersection_matrix,
    iou_matrix,
)
from densecrop.seeding import rng_for

from reference_impls import (
    annotation_rows,
    assign_targets_per_view,
    assign_targets_ref,
    central_difference_gradient,
    decode_per_view,
    decode_ref,
    extract_features_ref,
    label_one,
    one_scene,
    proposals_ref,
    child_samples,
    record_stack,
    safe_box_ref,
    scene_spec,
    scene_stack,
    split_detections,
    stack_of,
    stacked_rows,
    zoomed_samples,
)


def scene_sample(seed=0, **overrides) -> SceneSample:
    cfg = SyntheticConfig(num_images=1, seed=seed, **overrides)
    return generate_synthetic_dataset(cfg)[0]


def record_with(annotations, width=500.0, height=500.0, image_id=1):
    return ImageRecord(image_id, width, height, *annotation_rows(annotations))


def no_rows(detections) -> bool:
    """Whether a detection result over an empty stack is empty rows and
    no counts, typed as every result is."""
    return [(a.shape, a.dtype) for a in detections] == [
        ((0, 4), np.float64), ((0,), np.int64), ((0,), np.float64), ((0,), np.int64)
    ]


class TestOracleNoiseModel:
    def test_miss_curve_must_start_at_zero(self):
        with pytest.raises(ConfigError):
            OracleNoiseModel(miss_curve=((10.0, 0.5),))

    def test_miss_curve_must_be_non_increasing(self):
        with pytest.raises(ConfigError):
            OracleNoiseModel(miss_curve=((0.0, 0.2), (100.0, 0.5)))

    @pytest.mark.parametrize("low, high", [(0.5, 1.5), (-0.1, 0.5), (0.6, 0.4)])
    def test_fp_score_range_must_lie_in_unit_interval(self, low, high):
        with pytest.raises(ConfigError, match="fp_score_range"):
            OracleNoiseModel(fp_rate=3, fp_score_range=(low, high))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("score_std", -1.0),
            ("fp_rate", -2.0),
            ("jitter_std", -0.5),
            ("fp_rate", float("nan")),
            ("jitter_std", float("nan")),
            ("score_mean", float("nan")),
            ("score_std", float("inf")),
        ],
    )
    def test_noise_parameters_must_be_finite_and_non_negative(self, name, value):
        with pytest.raises(ConfigError, match=name):
            OracleNoiseModel(**{name: value})

    def test_step_evaluation(self):
        model = OracleNoiseModel(miss_curve=((0.0, 0.9), (1024.0, 0.3), (9216.0, 0.0)))
        assert model.miss_probability(10.0) == 0.9
        assert model.miss_probability(1024.0) == 0.3
        assert model.miss_probability(5000.0) == 0.3
        assert model.miss_probability(10000.0) == 0.0


class TestOracleDetect:
    def test_noiseless_oracle_echoes_ground_truth(self):
        record = record_with(
            [
                Annotation(box=Box(10, 10, 50, 50), class_id=0),
                Annotation(box=Box(100, 100, 140, 160), class_id=2),
            ]
        )
        noise = OracleNoiseModel(score_mean=1.0, score_std=0.0)
        boxes, classes, scores = one_scene(oracle_detect(record_stack(record), noise, 3))
        assert boxes.dtype == scores.dtype == np.float64 and classes.dtype == np.int64
        assert boxes.tolist() == [[10.0, 10.0, 50.0, 50.0], [100.0, 100.0, 140.0, 160.0]]
        assert classes.tolist() == [0, 2]
        assert scores.tolist() == [1.0, 1.0]

    def test_forced_miss_below_threshold(self):
        record = record_with([Annotation(box=Box(0, 0, 8, 8), class_id=0)])
        noise = OracleNoiseModel(miss_curve=((0.0, 1.0), (1024.0, 0.0)))
        boxes, classes, scores = one_scene(oracle_detect(record_stack(record), noise, 3))
        assert (boxes.shape, classes.shape, scores.shape) == ((0, 4), (0,), (0,))

    def test_deterministic_per_seed_and_image(self):
        sample = scene_sample(seed=3)
        noise = OracleNoiseModel(
            miss_curve=((0.0, 0.4),), jitter_std=1.0, fp_rate=2.0, seed=5
        )
        a = one_scene(oracle_detect(stack_of([sample]), noise, num_base_classes=4))
        b = one_scene(oracle_detect(stack_of([sample]), noise, num_base_classes=4))
        assert len(a[0]) > 0
        assert [x.tobytes() for x in a] == [x.tobytes() for x in b]

    def test_crop_annotations_respect_emit_flag(self):
        record = record_with(
            [
                Annotation(box=Box(10, 10, 200, 200), class_id=3),
                Annotation(box=Box(50, 50, 120, 120), class_id=0),
            ]
        )
        noise_on = OracleNoiseModel(score_mean=1.0, score_std=0.0)
        noise_off = OracleNoiseModel(score_mean=1.0, score_std=0.0, emit_crops=False)
        _, with_crops, _ = one_scene(oracle_detect(record_stack(record), noise_on, 3))
        _, without, _ = one_scene(oracle_detect(record_stack(record), noise_off, 3))
        assert set(with_crops.tolist()) == {0, 3}
        assert set(without.tolist()) == {0}


# A side so thin that the area of a box it bounds underflows to 0.0 when
# the other side is at most about 1e-153.
_TINY = 1e-170


def features_of(scene, boxes, num_base_classes=4, payload_obs_scale=4.0):
    """extract_features of one scene: a stack of one."""
    return extract_features(
        scene_stack(scene), boxes, num_base_classes, payload_obs_scale, [len(boxes)]
    )


class TestExtractFeatures:
    def test_deterministic(self):
        sample = scene_sample(seed=1)
        boxes = np.array([[50.0, 50.0, 150.0, 150.0]])
        a = features_of(sample.scene, boxes)
        b = features_of(sample.scene, boxes)
        np.testing.assert_array_equal(a, b)

    def test_payload_block_peaks_at_covered_class(self):
        sample = scene_sample(seed=2)
        scene = sample.scene
        phi = features_of(scene, scene.object_boxes[:1], payload_obs_scale=0.0)
        payload = phi[0, 8:]
        assert int(np.argmax(payload)) == scene.object_classes[0]

    def test_thin_proposal_finite(self):
        sample = scene_sample(seed=3)
        phi = features_of(sample.scene, np.array([[10.0, 10.0, 10.01, 400.0]]))
        assert np.all(np.isfinite(phi))

    def test_feature_dim(self):
        assert feature_dim(4) == 12
        sample = scene_sample(seed=4)
        boxes = np.array([[0.0, 0.0, 50.0, 50.0], [10.0, 10.0, 20.0, 30.0]])
        assert features_of(sample.scene, boxes).shape == (2, 12)
        assert features_of(sample.scene, np.zeros((0, 4))).shape == (0, 12)

    @pytest.mark.parametrize(
        "counts", [[40, 38], [40, 40, 0], [80], [82, -2], [], [41, 40]], ids=str
    )
    def test_counts_must_give_each_scene_its_rows(self, counts):
        # One count per scene, none negative, summing to the 80 proposal rows.
        samples = [scene_sample(seed=5), scene_sample(seed=6)]
        rng = np.random.default_rng(48)
        corner = rng.uniform(0.0, 400.0, (80, 2))
        boxes = np.column_stack([corner, corner + rng.uniform(1.0, 80.0, (80, 2))])
        assert extract_features(stack_of(samples), boxes, 4, 4.0, [40, 40]).shape == (80, 12)
        with pytest.raises(InvariantViolation, match="counts"):
            extract_features(stack_of(samples), boxes, 4, 4.0, counts)


class TestPairwiseMeans:
    def test_pairwise_sum_equals_np_sum_for_every_length(self):
        # Every length from 0 to 300: the running sums below 8, the
        # 8-accumulator blocks up to 128 and the halving above, on values
        # of both signs and wide range, with zeros of both signs.
        from densecrop.detect import _pairwise_sum

        rng = np.random.default_rng(44)
        for n in range(301):
            values = rng.normal(0.0, 1.0, (7, n)) * 10.0 ** rng.integers(-8, 9, (7, n))
            values[rng.random((7, n)) < 0.1] = 0.0
            values[rng.random((7, n)) < 0.1] = -0.0
            values[0] = -0.0
            want = np.array([np.sum(row) for row in values])
            assert _pairwise_sum(values).tobytes() == want.tobytes(), n
            # trailing columns are summed independently, as the kernel's
            # (fraction, area) pairs are
            both = _pairwise_sum(np.stack([values, values[::-1]], axis=-1))
            assert both.tobytes() == np.column_stack([want, want[::-1]]).tobytes(), n

    def test_run_means_equal_np_mean_for_every_count(self):
        # One call over ragged runs of every count from 1 to 300, in
        # shuffled order, against np.mean of each run.
        from densecrop.detect import _run_means

        rng = np.random.default_rng(45)
        counts = rng.permutation(np.repeat(np.arange(1, 301), 2))
        values = rng.random((int(counts.sum()), 2)) * 10.0 ** rng.integers(-4, 5, (int(counts.sum()), 2))
        runs = np.split(values, np.cumsum(counts)[:-1])
        want = np.array([[np.mean(run[:, 0]), np.mean(run[:, 1])] for run in runs])
        assert _run_means(values, counts).tobytes() == want.tobytes()
        assert _run_means(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)).shape == (0, 2)


class TestStreamedFeatures:
    """The pair-filtering feature kernel on random stacks against the
    per-proposal loop, and its memory on a dense stack."""

    def random_sample(self, rng, image_id, n):
        # Half the objects sit in one tight cluster, so that some proposals
        # cover many of them; payloads take both signs. A scene of 5 or
        # more objects also gets degenerate ones.
        width, height = rng.uniform(120.0, 600.0, 2).tolist()
        cx, cy = rng.uniform(0.3, 0.7) * width, rng.uniform(0.3, 0.7) * height
        boxes = []
        for i in range(n):
            w, h = rng.uniform(2.0, 40.0, 2).tolist()
            if i % 2:
                x, y = cx + rng.normal(0.0, 15.0), cy + rng.normal(0.0, 15.0)
            else:
                x, y = rng.uniform(0.0, width), rng.uniform(0.0, height)
            x, y = min(max(x, 0.0), width - w), min(max(y, 0.0), height - h)
            boxes.append((x, y, x + w, y + h))
        if n >= 5:
            boxes += self.degenerate_objects(rng, width, height)
        objects = [(box, int(rng.integers(0, 4)), tuple(rng.normal(0.0, 0.6, 4).tolist())) for box in boxes]
        scene = scene_spec(width, height, int(rng.integers(0, 2**31)), objects, payload_width=4)
        return SceneSample(ImageRecord(image_id, width, height), scene)

    def degenerate_objects(self, rng, width, height):
        """Objects one ULP wide or high, whose centre rounds onto an edge,
        and objects at the origin so thin that their overlaps with
        proposals there underflow to 0.0 (the last one's area too)."""
        x, y = rng.uniform(0.0, width / 2.0), rng.uniform(0.0, height / 2.0)
        w, h = rng.uniform(2.0, 40.0, 2).tolist()
        x_ulp, y_ulp = float(np.nextafter(x, np.inf)), float(np.nextafter(y, np.inf))
        return [
            (x, y, x_ulp, y + h),
            (x, y, x + w, y_ulp),
            (0.0, 0.0, _TINY, h),
            (0.0, 0.0, w, _TINY),
            (0.0, 0.0, _TINY, _TINY),
        ]

    def random_boxes(self, rng, sample, n):
        """Random boxes, the whole image, the object boxes, boxes that
        touch an object's edge, boxes with a corner on an object's centre
        (holding it, or not), and thin boxes at the origin."""
        w, h = sample.record.size
        x1, y1 = rng.uniform(0.0, w, n), rng.uniform(0.0, h, n)
        x2, y2 = x1 + rng.uniform(0.5, w / 2.0, n), y1 + rng.uniform(0.5, h / 2.0, n)
        boxes = [np.column_stack([x1, y1, np.minimum(x2, w), np.minimum(y2, h)])]
        boxes.append(np.array([[0.0, 0.0, w, h]]))
        objects = sample.scene.object_boxes
        boxes.append(objects[:5])
        boxes.append(np.column_stack([objects[:3, 2], objects[:3, 1], objects[:3, 2] + 5.0, objects[:3, 3]]))
        if len(objects):
            picked = objects[np.unique(np.r_[:3, -5:0] % len(objects))]
            centres = (picked[:, :2] + picked[:, 2:]) / 2.0
            boxes.append(np.column_stack([centres, centres + 5.0]))
            below = np.column_stack([np.maximum(centres - 5.0, 0.0), centres])
            # a box up to the centre of an object at the origin has no area
            boxes.append(below[np.prod(below[:, 2:] - below[:, :2], axis=1) > 0.0])
        boxes.append(np.array([[0.0, 0.0, 30.0, _TINY], [0.0, 0.0, _TINY, 30.0], [0.0, 0.0, 30.0, 30.0]]))
        return np.concatenate(boxes)

    @pytest.mark.parametrize("block_pairs", [None, 40])
    def test_random_stacks_match_loop(self, block_pairs, monkeypatch):
        # With 40 pairs a block, most blocks hold a row or two, and a row of
        # more objects than that is a block alone.
        from densecrop import geometry as geometry_module
        from densecrop.dataset import UpscalePolicy

        if block_pairs:
            monkeypatch.setattr(geometry_module, "_ACROSS_BLOCK_PAIRS", block_pairs)

        rng = np.random.default_rng(46)
        most_covered = []
        traps = {"centre without overlap": 0, "underflowing overlap": 0}
        for trial in range(6):
            sizes = rng.choice([0, 0, 1, 1, 2, 5, 9, 17, 40, 150, 170], int(rng.integers(3, 7)))
            samples = [self.random_sample(rng, f"t{trial}-{i}", int(n)) for i, n in enumerate(sizes)]
            parent = self.random_sample(rng, f"t{trial}-parent", 60)
            w, h = parent.record.size
            crops = np.array([[0.1 * w, 0.1 * h, 0.7 * w, 0.8 * h], [0.0, 0.0, 0.5 * w, 0.5 * h]])
            children = child_samples([parent], [crops], UpscalePolicy("factor", factor=2.0))
            samples[1:1] = children
            samples = [samples[i] for i in rng.permutation(len(samples))]
            per_scene = [self.random_boxes(rng, s, int(rng.integers(0, 12))) for s in samples]
            boxes = np.concatenate(per_scene)
            counts = [len(b) for b in per_scene]
            for scale in (4.0, 0.0):
                got = extract_features(stack_of(samples), boxes, 4, scale, counts)
                want = [
                    extract_features_ref(s.scene, r, 4, scale)
                    for s, b in zip(samples, per_scene)
                    for r in rows(b)
                ]
                assert got.tobytes() == np.stack(want).tobytes(), trial
            for s, b in zip(samples, per_scene):
                objects = s.scene.object_boxes
                if len(objects):
                    covers = intersection_matrix(b, objects) > 0.0
                    most_covered.append(int(covers.sum(axis=1).max()))
                    centres = (objects[:, :2] + objects[:, 2:]) / 2.0
                    inside = ((b[:, None, :2] <= centres) & (centres < b[:, None, 2:])).all(axis=2)
                    traps["centre without overlap"] += int((inside & ~covers).sum())
                    sides = np.minimum(b[:, None, 2:], objects[:, 2:]) - np.maximum(b[:, None, :2], objects[:, :2])
                    traps["underflowing overlap"] += int(((sides > 0.0).all(axis=2) & ~covers).sum())
        # rows on the running-sum, 8-accumulator and halving paths of the means
        assert min(most_covered) < 8 and any(8 <= c <= 128 for c in most_covered)
        assert max(most_covered) > 128
        assert min(traps.values()) > 0, traps

    def test_dense_views_memory_is_bounded(self):
        # 32 dense 1024x1024 scenes of 165..233 objects. Pairing every
        # proposal with the stack's largest object count in padded (N, M)
        # and (N, M, K) arrays peaked at 166 MiB in views and in
        # extract_features alone; the kernel holds (N,) and (N, K) arrays,
        # one block of pairs and the pairs that meet.
        cfg = SyntheticConfig(
            num_images=32, width=1024.0, height=1024.0, clusters_per_image=(10, 12),
            objects_per_cluster=(14, 18), scattered_per_image=(10, 20), seed=7,
        )
        samples = generate_synthetic_dataset(cfg)
        assert min(len(s.scene.object_boxes) for s in samples) >= 150
        backend = ToyDetector(ToyDetectorConfig(num_base_classes=4))
        stack = stack_of(samples)
        boxes, counts = backend.proposals(stack)
        peaks = []
        for run in (lambda: backend.views(stack), lambda: backend.features(stack, boxes, counts)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        views_peak, features_peak = peaks
        assert views_peak <= 166 * 2**20 / 2
        assert features_peak <= 166 * 2**20 / 16

    def chunk_features_peak(self, chunk=None):
        """Proposal count and traced peak of the stage-one features of a
        chunk of the first infer_toy benchmark split, by default the first
        chunk that the default object budget closes."""
        import benchmarks as pinned
        samples = generate_synthetic_dataset(pinned.scene_config(1000, 400))
        start, stop = chunk or chunk_bounds([len(s.scene.object_boxes) for s in samples])[0]
        stack = stack_of(samples[start:stop])
        backend = pinned.make_backend(1)
        boxes, counts = backend.proposals(stack)
        backend.features(stack, boxes, counts)
        tracemalloc.start()
        try:
            backend.features(stack, boxes, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return len(boxes), peak

    def test_toy_inference_chunk_memory_is_bounded(self):
        # The first 57 images, the first chunk of the earlier squared pair
        # budget (1531 proposals). The object-column kernel peaked at
        # 1.22 MiB there, while drawing the payload noise.
        proposals, peak = self.chunk_features_peak((0, 57))
        assert proposals == 1531
        assert peak <= 1.22 * 2**20

    def test_default_first_chunk_memory_is_bounded(self):
        # 248 images of about 17 objects under the default object budget
        # (6529 proposals); it measured 3.69 MiB.
        proposals, peak = self.chunk_features_peak()
        assert proposals == 6529
        assert peak <= 4.0 * 2**20


def weights_from(layout, cls, reg=None):
    """Weight vector from classifier and regressor matrices (regressor zero
    by default); the values are read-only once wrapped, so build first."""
    if reg is None:
        reg = np.zeros((4, layout.columns))
    return WeightVector(layout=layout, values=np.concatenate([cls.ravel(), reg.ravel()]))


def random_weights(rng, num_classes=3):
    layout = WeightLayout(feature_dim=feature_dim(num_classes), num_outputs=num_classes + 2)
    return WeightVector(layout=layout, values=rng.normal(0, 0.5, layout.total))


class TestToyForward:
    def test_zero_weights_uniform(self):
        layout = WeightLayout(feature_dim=feature_dim(3), num_outputs=5)
        weights = WeightVector(layout=layout, values=np.zeros(layout.total))
        probs, offsets = toy_forward(weights, np.ones((1, layout.feature_dim)), [1])
        np.testing.assert_allclose(probs, np.full((1, 5), 0.2), atol=1e-12)
        np.testing.assert_allclose(offsets, np.zeros((1, 4)), atol=1e-12)

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            weights = random_weights(rng)
            phi = rng.normal(0, 2, (1, weights.layout.feature_dim))
            probs, _ = toy_forward(weights, phi, [1])
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(probs > 0)

    def test_favorable_weights_win_argmax(self):
        layout = WeightLayout(feature_dim=feature_dim(3), num_outputs=5)
        cls = np.zeros((layout.num_outputs, layout.columns))
        cls[2, :] = 1.0
        weights = weights_from(layout, cls)
        probs, _ = toy_forward(weights, np.ones((1, layout.feature_dim)), [1])
        assert int(np.argmax(probs[0])) == 2

    def test_layout_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        weights = random_weights(rng)
        with pytest.raises(InvariantViolation):
            toy_forward(weights, np.ones((1, weights.layout.feature_dim + 1)), [1])

    def test_blocks_equal_per_block_forward(self):
        # The matmuls run per block: one matmul over the whole
        # stack differs in the last bits from the per-block products on
        # some of these stacks with OpenBLAS.
        rng = np.random.default_rng(10)
        for _ in range(300):
            weights = random_weights(rng)
            counts = rng.integers(0, 60, int(rng.integers(1, 12)))
            phi = rng.normal(0, 1, (int(counts.sum()), weights.layout.feature_dim))
            probs, offsets = toy_forward(weights, phi, counts)
            split = np.split(phi, np.cumsum(counts)[:-1])
            blocks = [toy_forward(weights, b, [len(b)]) for b in split]
            assert np.array_equal(probs, np.concatenate([p for p, _ in blocks]))
            assert np.array_equal(offsets, np.concatenate([o for _, o in blocks]))

    def test_extreme_logits_stable(self):
        layout = WeightLayout(feature_dim=2, num_outputs=3)
        values = np.zeros(layout.total)
        values[0] = 500.0
        weights = WeightVector(layout=layout, values=values)
        probs, _ = toy_forward(weights, np.array([[10.0, 0.0]]), [1])
        assert np.all(np.isfinite(probs)) and abs(probs.sum() - 1.0) < 1e-9


def random_sup_batch(rng, weights, n=6):
    d = weights.layout.feature_dim
    classes = rng.integers(0, weights.layout.num_outputs, n)
    return SupervisedBatch(
        features=rng.normal(0, 1, (n, d)),
        classes=classes,
        offsets=rng.normal(0, 2, (n, 4)),
    )


class TestLossSup:
    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(10)
        weights = random_weights(rng)
        empty = SupervisedBatch(
            features=np.zeros((0, weights.layout.feature_dim)),
            classes=np.zeros(0, dtype=int),
            offsets=np.zeros((0, 4)),
        )
        with pytest.raises(InvariantViolation):
            loss_sup(weights, empty)

    def test_perfect_prediction_limit(self):
        # Reinforce the true class hard enough and the loss approaches its
        # lower bound: zero regression error, vanishing cross-entropy.
        layout = WeightLayout(feature_dim=2, num_outputs=3)
        cls = np.zeros((layout.num_outputs, layout.columns))
        cls[1, 0] = 50.0
        weights = weights_from(layout, cls)
        batch = SupervisedBatch(
            features=np.array([[1.0, 0.0]]),
            classes=np.array([1]),
            offsets=np.zeros((1, 4)),
        )
        result = loss_sup(weights, batch)
        assert result.reg_term == 0.0
        assert result.cls_term < 1e-9
        assert result.value == result.cls_term + result.reg_term

    def test_hand_computed_two_class_case(self):
        # one feature, one example: logits (w0*x, w1*x), target class 0,
        # predicted offsets all w_r*x against targets of zero
        layout = WeightLayout(feature_dim=1, num_outputs=2)
        cls = np.zeros((layout.num_outputs, layout.columns))
        cls[0, 0] = 0.3
        cls[1, 0] = -0.2
        reg = np.zeros((4, layout.columns))
        reg[:, 0] = 0.4
        weights = weights_from(layout, cls, reg)
        x = 2.0
        batch = SupervisedBatch(
            features=np.array([[x]]),
            classes=np.array([0]),
            offsets=np.zeros((1, 4)),
        )
        result = loss_sup(weights, batch)
        logits = np.array([0.3 * x, -0.2 * x])
        expected_cls = -np.log(np.exp(logits[0]) / np.exp(logits).sum())
        pred = 0.4 * x  # |0.8| < 1 -> quadratic branch
        expected_reg = 4 * 0.5 * pred**2
        assert result.cls_term == pytest.approx(expected_cls, abs=1e-12)
        assert result.reg_term == pytest.approx(expected_reg, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(30):
            weights = random_weights(rng)
            batch = random_sup_batch(rng, weights)
            result = loss_sup(weights, batch)

            def f(values, batch=batch, layout=weights.layout):
                return loss_sup(WeightVector(layout=layout, values=values), batch).value

            numeric = central_difference_gradient(f, weights.values.copy())
            denom = np.maximum(np.abs(numeric), 1.0)
            worst = max(worst, float(np.max(np.abs(result.gradient - numeric) / denom)))
        assert worst < 1e-4

    def test_loss_non_negative(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            weights = random_weights(rng)
            batch = random_sup_batch(rng, weights)
            result = loss_sup(weights, batch)
            assert result.value >= 0.0
            assert result.cls_term >= 0.0 and result.reg_term >= 0.0


class TestLossUnsup:
    def test_regressor_gradient_block_exactly_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            weights = random_weights(rng)
            batch = random_sup_batch(rng, weights)
            result = loss_unsup(
                weights, UnsupervisedBatch(features=batch.features, classes=batch.classes)
            )
            reg_block = result.gradient[weights.layout.cls_size :]
            assert np.all(reg_block == 0.0)

    def test_equals_supervised_classification_term(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            weights = random_weights(rng)
            batch = random_sup_batch(rng, weights)
            sup = loss_sup(weights, batch)
            unsup = loss_unsup(
                weights, UnsupervisedBatch(features=batch.features, classes=batch.classes)
            )
            assert unsup.value == sup.cls_term
            np.testing.assert_array_equal(
                unsup.gradient[: weights.layout.cls_size],
                sup.gradient[: weights.layout.cls_size],
            )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        worst = 0.0
        for _ in range(30):
            weights = random_weights(rng)
            batch = random_sup_batch(rng, weights)
            ub = UnsupervisedBatch(features=batch.features, classes=batch.classes)
            result = loss_unsup(weights, ub)

            def f(values, ub=ub, layout=weights.layout):
                return loss_unsup(WeightVector(layout=layout, values=values), ub).value

            numeric = central_difference_gradient(f, weights.values.copy())
            denom = np.maximum(np.abs(numeric), 1.0)
            worst = max(worst, float(np.max(np.abs(result.gradient - numeric) / denom)))
        assert worst < 1e-4

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(16)
        weights = random_weights(rng)
        with pytest.raises(InvariantViolation):
            loss_unsup(
                weights,
                UnsupervisedBatch(
                    features=np.zeros((0, weights.layout.feature_dim)),
                    classes=np.zeros(0, dtype=int),
                ),
            )


class TestAssignTargets:
    def test_matched_proposal_takes_class_and_offsets(self):
        gt_boxes, gt_classes = np.array([[10.0, 10.0, 30.0, 30.0]]), np.array([2])
        props = np.array([[11.0, 11.0, 31.0, 31.0], [200.0, 200.0, 220.0, 220.0]])
        classes, offsets = assign_targets(
            props, np.zeros(2, dtype=int), gt_boxes, np.zeros(1, dtype=int), gt_classes,
            fg_iou=0.5, background_class=5,
        )
        assert classes.tolist() == [2, 5]
        np.testing.assert_allclose(offsets[0], [-1, -1, -1, -1])
        np.testing.assert_array_equal(offsets[1], np.zeros(4))

    @pytest.mark.parametrize("block_pairs", [None, 7])
    def test_random_stacks_match_loop(self, block_pairs, monkeypatch):
        # Ragged stacks against the per-proposal scan, view by view. Boxes
        # lie on a 5-pixel grid, so many touch or repeat each other; a
        # view's first ground truth copies one of its proposals and its
        # second nests inside another; some views have no proposals or no
        # ground truth. With 7 pairs a block, a view's pairs take many.
        from densecrop import geometry as geometry_module

        if block_pairs:
            monkeypatch.setattr(geometry_module, "_ACROSS_BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(58)
        background = 9
        seen = dict.fromkeys(["touching", "nested", "identical", "no boxes", "no ground truth"], 0)

        def grid_boxes(n):
            xy = rng.integers(0, 8, (n, 2)) * 5.0
            return np.concatenate([xy, xy + rng.integers(1, 4, (n, 2)) * 5.0], axis=1)

        for trial in range(300):
            views = []
            for _ in range(int(rng.integers(1, 6))):
                boxes = grid_boxes(int(rng.integers(0, 8)) * (rng.random() > 0.15))
                gt = grid_boxes(int(rng.integers(0, 5)) * (rng.random() > 0.2))
                if len(boxes) and len(gt):
                    picks = boxes[rng.integers(0, len(boxes), 2)]
                    gt[0] = picks[0]
                    if len(gt) > 1:
                        gt[1] = picks[1] + [1.0, 1.0, -1.0, -1.0]
                views.append((boxes, gt, rng.integers(0, 4, len(gt))))
            fg_iou = (0.0, 0.3, 0.5)[trial % 3]
            classes, offsets = assign_targets(
                np.concatenate([b for b, _, _ in views]),
                np.repeat(np.arange(len(views)), [len(b) for b, _, _ in views]),
                np.concatenate([g for _, g, _ in views]),
                np.repeat(np.arange(len(views)), [len(g) for _, g, _ in views]),
                np.concatenate([c for _, _, c in views]),
                fg_iou,
                background,
            )
            ends = np.cumsum([len(b) for b, _, _ in views]).tolist()
            for (boxes, gt, gt_classes), stop in zip(views, ends):
                anns = [(tuple(g), int(c)) for g, c in zip(gt.tolist(), gt_classes.tolist())]
                want, want_offsets = assign_targets_ref(rows(boxes), anns, fg_iou, background)
                own = slice(stop - len(boxes), stop)
                assert np.array_equal(classes[own], want) and np.array_equal(offsets[own], want_offsets)
                seen["no boxes"] += not len(boxes)
                seen["no ground truth"] += bool(len(boxes)) and not len(gt)
                lo, hi = boxes[:, None, :2], boxes[:, None, 2:]
                sides = np.minimum(hi, gt[:, 2:]) - np.maximum(lo, gt[:, :2])
                seen["touching"] += int(((sides == 0.0).any(axis=2) & (sides >= 0.0).all(axis=2)).sum())
                seen["nested"] += int(((lo < gt[:, :2]) & (gt[:, 2:] < hi)).all(axis=2).sum())
                seen["identical"] += int((boxes[:, None] == gt).all(axis=2).sum())
        assert min(seen.values()) > 0, seen

    def test_dense_view_memory_is_bounded(self):
        # One view of 2000 proposals and 2000 ground-truth boxes. Forming
        # every same-view pair at once peaked at 275 MiB; the pairs come a
        # block at a time, and only those that meet are kept.
        rng = np.random.default_rng(59)

        def random_boxes(n):
            xy = rng.uniform(0.0, 1000.0, (n, 2))
            return np.concatenate([xy, xy + rng.uniform(5.0, 40.0, (n, 2))], axis=1)

        boxes, gt = random_boxes(2000), random_boxes(2000)
        gt[:1000] = boxes[:1000] + 1.0  # half the proposals have a near copy
        gt_classes = rng.integers(0, 4, 2000)
        view = np.zeros(2000, dtype=np.int64)
        tracemalloc.start()
        try:
            classes, offsets = assign_targets(boxes, view, gt, view, gt_classes, 0.5, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak / 2**20
        want, want_offsets = assign_targets_per_view(boxes, gt, gt_classes, 0.5, 9)
        assert np.array_equal(classes, want) and np.array_equal(offsets, want_offsets)
        assert np.count_nonzero(classes != 9) >= 1000


class TestToyDetector:
    def backend(self, seed=0):
        return ToyDetector(
            ToyDetectorConfig(
                num_base_classes=4,
                proposal_crop_params=CropParams(merge_steps=1, sigma=12, theta=0.05, pi=0.5),
                seed=seed,
            )
        )

    def test_detect_deterministic(self):
        sample = scene_sample(seed=6)
        backend = self.backend()
        weights = backend.init_weights(3)

        def weak_decode():
            stack = backend.views(stack_of([sample]))
            return backend.decode(weights, stack, "weak", [rng_for(17, "weak")])

        a, b = weak_decode(), weak_decode()
        assert [x.tobytes() for x in a] == [x.tobytes() for x in b]
        a, b = (one_scene(backend.detect_batch(weights, stack_of([sample]))) for _ in range(2))
        assert len(a[0]) > 0
        assert [x.tobytes() for x in a] == [x.tobytes() for x in b]

    def test_detect_requires_weights(self):
        sample = scene_sample(seed=6)
        with pytest.raises(InvariantViolation):
            self.backend().detect_batch(None, stack_of([sample]))

    def test_emits_crop_class_when_trained_for_it(self):
        # With hand-set weights that key on the center-count feature the
        # crop class is predictable.
        sample = scene_sample(
            seed=7, clusters_per_image=(2, 2), objects_per_cluster=(8, 8)
        )
        backend = self.backend()
        cls = np.zeros((backend.layout.num_outputs, backend.layout.columns))
        cls[backend.crop_class_id, 6] = 30.0  # center-count feature
        cls[backend.crop_class_id, backend.layout.feature_dim] = -10.0
        weights = weights_from(backend.layout, cls)
        _, classes, _ = one_scene(backend.detect_batch(weights, stack_of([sample])))
        assert backend.crop_class_id in classes.tolist()

    def test_strong_augmentation_changes_features(self):
        sample = scene_sample(seed=8)
        backend = self.backend()
        props = backend.proposals(stack_of([sample]))[0]
        plain = backend.features(stack_of([sample]), props, [len(props)])
        strong = backend.augment(plain, "strong", [rng_for(4, "strong")], [len(plain)])
        assert not np.array_equal(plain, strong)

    def test_view_features_stay_unchanged_under_augmentation(self):
        sample = scene_sample(seed=8)
        backend = self.backend()
        weights = backend.init_weights(3)
        view = backend.views(stack_of([sample]), targets=True)
        before = view.phi.copy()
        assert not view.phi.flags.writeable
        with pytest.raises(ValueError):
            view.phi[0, 0] = 1.0
        # at seed 3 the weak flip fires, so weak augmentation does write
        # to its output
        weak = backend.augment(view.phi, "weak", [rng_for(3, "weak")], view.counts)
        np.testing.assert_array_equal(weak[:, 2], 1.0 - before[:, 2])
        strong = backend.augment(view.phi, "strong", [rng_for(4, "strong")], view.counts)
        assert not np.array_equal(strong, before)
        decoded = backend.decode(weights, ViewStack.of([view]), "weak", [rng_for(3, "weak")])
        fresh = decode_per_view(backend, weights, backend.views(stack_of([sample])), "weak", 3)
        assert [x.tobytes() for x in decoded] == [x.tobytes() for x in fresh]
        backend.supervised_batch(ViewStack.of([view]), "weak", [rng_for(3, "weak")])
        backend.unsupervised_batch(
            ViewStack.of([view]),
            np.zeros((0, 4)),
            np.zeros(0, dtype=int),
            np.zeros(0, dtype=int),
            [rng_for(4, "strong")],
        )
        np.testing.assert_array_equal(view.phi, before)
        with pytest.raises(InvariantViolation):
            no_targets = ViewStack.of([backend.views(stack_of([sample]))])
            backend.supervised_batch(no_targets, "none", ())

    def test_unknown_augmentation_rejected(self):
        sample = scene_sample(seed=8)
        backend = self.backend()
        props = backend.proposals(stack_of([sample]))[0]
        phi = backend.features(stack_of([sample]), props, [len(props)])
        with pytest.raises(InvariantViolation):
            backend.augment(phi, "extreme", [], [])

    def test_no_cluster_proposals_on_crop_children(self):
        from densecrop.dataset import UpscalePolicy

        sample = scene_sample(seed=9, clusters_per_image=(2, 2), objects_per_cluster=(6, 6))
        backend = self.backend()
        child = child_samples(
            [sample], [np.array([[50.0, 50.0, 306.0, 306.0]])], UpscalePolicy("factor", factor=2.0)
        )[0]
        n_parent_extra = (
            len(backend.proposals(stack_of([sample]))[0]) - len(sample.scene.object_boxes)
        )
        n_child_extra = len(backend.proposals(stack_of([child]))[0]) - len(child.scene.object_boxes)
        # child gets only background proposals, no cluster candidates
        assert n_child_extra == backend.config.background_proposals
        assert n_parent_extra > backend.config.background_proposals

    def test_unsupervised_batch_excludes_unmatched(self):
        sample = scene_sample(seed=10)
        backend = self.backend()
        pseudo_boxes = sample.scene.object_boxes[:1]
        batch = backend.unsupervised_batch(
            ViewStack.of([backend.views(stack_of([sample]))]),
            pseudo_boxes,
            np.array([1]),
            np.array([0]),
            [rng_for(0, "strong")],
        )
        assert 0 < len(batch) <= len(backend.proposals(stack_of([sample]))[0])
        assert np.all(batch.classes == 1)


def rows(boxes) -> list[tuple]:
    return [tuple(r) for r in np.asarray(boxes).tolist()]


class TestArrayKernelsMatchLoops:
    """The array kernels against the per-proposal loops they replaced
    (``reference_impls``), bit for bit."""

    backend = TestToyDetector.backend

    def samples(self):
        from densecrop.dataset import UpscalePolicy

        dense = scene_sample(seed=21, clusters_per_image=(2, 3), objects_per_cluster=(10, 14))
        crops = label_one(dense.scene.object_boxes, dense.record.size, CropParams(merge_steps=2))
        child = child_samples([dense], [crops[:1]], UpscalePolicy("factor", factor=3.0))[0]
        assert child.record.provenance.kind == "crop" and len(child.scene.object_boxes) >= 9
        return [dense, scene_sample(seed=22), child]

    def extra_boxes(self, sample):
        """The whole image, an edge-touching box and a thin box."""
        w, h = sample.record.size
        x1, y1, x2, y2 = sample.scene.object_boxes[0].tolist()
        return np.array(
            [
                [0.0, 0.0, w, h],
                [x2, y1, x2 + 20.0, y2],  # touches the first object
                [x1, 0.0, x1 + 0.01, h],
            ]
        )

    def test_features_match_loop(self):
        backend = self.backend()
        for sample in self.samples():
            proposals = backend.proposals(stack_of([sample]))[0]
            boxes = np.concatenate([proposals, self.extra_boxes(sample)])
            covers = (intersection_matrix(boxes, sample.scene.object_boxes) > 0.0).sum(axis=1)
            assert covers.max() >= 9
            for scale in (4.0, 0.0):
                got = features_of(sample.scene, boxes, payload_obs_scale=scale)
                want = [extract_features_ref(sample.scene, r, 4, scale) for r in rows(boxes)]
                assert np.array_equal(got, np.stack(want))

    def test_features_of_touching_and_empty_scenes_match_loop(self):
        objects = (
            ((10.0, 10.0, 30.0, 30.0), 1, (0.1, 0.8, 0.1)),
            ((30.0, 10.0, 50.0, 30.0), 2, (0.0, 0.2, 0.9)),
        )
        boxes = np.array(
            [
                [0.0, 0.0, 100.0, 80.0],
                [50.0, 10.0, 70.0, 30.0],  # touches the second object's right edge
                [10.0, 30.0, 50.0, 40.0],  # touches both bottom edges
                [20.0, 15.0, 40.0, 25.0],  # overlaps both
            ]
        )
        for objs in (objects, ()):
            scene = scene_spec(100.0, 80.0, 3, objs, payload_width=3)
            want = np.stack([extract_features_ref(scene, r, 3) for r in rows(boxes)])
            got = features_of(scene, boxes, num_base_classes=3)
            assert np.array_equal(got, want)
            if objs:
                assert np.array_equal(got[1:3, 4:8], np.zeros((2, 4)))  # no overlap features
                assert np.all(got[3, 4:8] > 0.0)

    def check_targets(self, boxes, anns, fg_iou=0.5, background=9):
        gt_boxes = np.array([a[0] for a in anns], dtype=np.float64).reshape(-1, 4)
        gt_classes = np.array([a[1] for a in anns], dtype=np.int64)
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        got = assign_targets(
            boxes, np.zeros(len(boxes), dtype=int), gt_boxes, np.zeros(len(gt_boxes), dtype=int),
            gt_classes, fg_iou, background,
        )
        want = assign_targets_ref(rows(boxes), anns, fg_iou, background)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        return got[0]

    def test_targets_match_loop(self):
        backend = self.backend()
        for sample in self.samples():
            anns = [(a.box.as_tuple(), a.class_id) for a in sample.record.annotations]
            proposals = backend.proposals(stack_of([sample]))[0]
            for fg_iou in (0.0, 0.3, 0.5, 0.9):
                classes = self.check_targets(proposals, anns, fg_iou)
            assert 0 < np.count_nonzero(classes != 9) < len(classes)
            self.check_targets(proposals, [])  # no annotations: all background
        self.check_targets(np.zeros((0, 4)), [((0.0, 0.0, 5.0, 5.0), 1)])

    def test_targets_equal_iou_first_annotation_wins(self):
        prop = [[10.0, 10.0, 30.0, 30.0]]
        left, right = (0.0, 10.0, 20.0, 30.0), (20.0, 10.0, 40.0, 30.0)  # IoU 1/3 each
        assert self.check_targets(prop, [(left, 1), (right, 2)], fg_iou=0.3).tolist() == [1]
        assert self.check_targets(prop, [(right, 2), (left, 1)], fg_iou=0.3).tolist() == [2]

    def test_view_targets_equal_assign_targets_per_view(self):
        # The same-view pair kernel against the per-view iou_matrix and
        # argmax it replaced, view by view, on random ragged stacks with
        # empty views, views without ground truth, exact IoU ties between
        # ground-truth rows of different classes (the first must win) and
        # touching boxes, all on a 5-pixel grid.
        rng = np.random.default_rng(31)
        background = 9
        ties = empty = 0

        def grid_boxes(n):
            xy = rng.integers(0, 8, (n, 2)) * 5.0
            wh = rng.integers(1, 4, (n, 2)) * 5.0
            return np.concatenate([xy, xy + wh], axis=1)

        for trial in range(1500):
            views = int(rng.integers(1, 6))
            n = rng.integers(0, 6, views) * (rng.random(views) > 0.15)
            m = rng.integers(0, 5, views) * (rng.random(views) > 0.2)
            boxes, gt_boxes = grid_boxes(int(n.sum())), grid_boxes(int(m.sum()))
            if trial % 2:
                # exact ties: each view's second ground-truth row copies
                # its first, and the first row of all copies the last
                starts = np.cumsum(m) - m
                pairs = starts[m > 1]
                gt_boxes[pairs + 1] = gt_boxes[pairs]
                if len(gt_boxes):
                    gt_boxes[0] = gt_boxes[-1]
            gt_classes = rng.integers(0, 4, len(gt_boxes))
            box_view = np.repeat(np.arange(views), n)
            gt_view = np.repeat(np.arange(views), m)
            fg_iou = (0.0, 0.3, 0.5)[trial % 3]
            classes, offsets = assign_targets(
                boxes, box_view, gt_boxes, gt_view, gt_classes, fg_iou, background
            )
            for v in range(views):
                own, own_gt = box_view == v, gt_view == v
                want, want_offsets = assign_targets_per_view(
                    boxes[own], gt_boxes[own_gt], gt_classes[own_gt], fg_iou, background
                )
                assert np.array_equal(classes[own], want)
                assert np.array_equal(offsets[own], want_offsets)
                empty += not own.any() or not own_gt.any()
                if own_gt.sum() > 1 and own.any():
                    ious = iou_matrix(boxes[own], gt_boxes[own_gt])
                    best = ious.max(axis=1, keepdims=True)
                    top = (ious == best) & (best > 0.0) & (best >= fg_iou)
                    ties += sum(
                        len(set(gt_classes[own_gt][row].tolist())) > 1 for row in top
                    )
        assert ties > 30 and empty > 100

    def test_decode_stack_equals_decode_per_view(self):
        # Parents and a crop child of another size in one stack, each view
        # with its own generator: row for row what the per-view decode gave.
        backend = self.backend()
        rng = np.random.default_rng(32)
        views = [backend.views(stack_of([s])) for s in self.samples()]
        stack = ViewStack.of(views + views[:1])
        seeds = [3, 4, 5, 6]
        for augmentation in ("none", "weak", "strong"):
            w = random_weights(rng, 4)
            rngs = [rng_for(seed, augmentation) for seed in seeds]
            boxes, probs = backend.decode(w, stack, augmentation, rngs)
            per_view = [
                decode_per_view(backend, w, v, augmentation, seed)
                for v, seed in zip(views + views[:1], seeds)
            ]
            assert np.array_equal(boxes, np.concatenate([b for b, _ in per_view]))
            assert np.array_equal(probs, np.concatenate([p for _, p in per_view]))
            assert stack.width.tolist() == np.repeat(
                [v.sizes[0, 0] for v in views + views[:1]], stack.counts
            ).tolist()

    def mixed_batch(self):
        """Parents and crop children of other sizes, a scene of another
        size and object count, and a scene without objects."""
        from densecrop.dataset import UpscalePolicy

        dense, other, child = self.samples()
        crops = label_one(dense.scene.object_boxes, dense.record.size, CropParams(merge_steps=2))
        children = child_samples([dense], [crops[1:3]], UpscalePolicy("factor", factor=2.0))
        small = scene_sample(seed=23, width=320.0, height=200.0, clusters_per_image=(0, 1))
        empty = SceneSample(
            record=record_with([], width=240.0, height=180.0, image_id="empty"),
            scene=scene_spec(240.0, 180.0, 4),
        )
        # another id, so the same image draws other proposals in the batch
        renamed = replace(other, record=replace(other.record, image_id="other"))
        return [dense, child, empty, small, *children, other, renamed]

    def test_views_of_a_mixed_batch_equal_views_of_one(self):
        # Every view of one batched pass, bit for bit, against the view of
        # its sample alone and the per-image proposals it replaced. The
        # stack's rows are read-only, and its derived rows (view index,
        # image size) are those of the views taken from it.
        def same_bits(a, b):
            return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        samples = self.mixed_batch()
        for background in (8, 0):
            backend = ToyDetector(replace(self.backend().config, background_proposals=background))
            for targets in (True, False):
                stack = backend.views(stack_of(samples), targets=targets)
                views = [stack.take([k]) for k in range(len(samples))]
                ids = tuple(s.record.image_id for s in samples)
                assert stack.image_ids == ids and [v.image_ids for v in views] == [(i,) for i in ids]
                assert stack.sizes.tolist() == [list(s.record.size) for s in samples]
                arrays = ("proposals", "phi", "counts")
                arrays += ("gt_classes", "gt_offsets") if targets else ()
                for sample, view in zip(samples, views):
                    alone = backend.views(stack_of([sample]), targets=targets)
                    assert same_bits(view.proposals, alone.proposals)
                    assert same_bits(view.phi, alone.phi)
                    assert rows(view.proposals) == proposals_ref(backend, sample)
                    assert view.counts.tolist() == [len(view.proposals)]
                    if targets:
                        assert same_bits(view.gt_classes, alone.gt_classes)
                        assert same_bits(view.gt_offsets, alone.gt_offsets)
                    else:
                        assert view.gt_classes is None and alone.gt_classes is None
                assert not any(getattr(stack, name).flags.writeable for name in arrays)
                assert len({s.record.size for s in samples}) > 2  # parents and children
                row_view = np.concatenate([v.row_view + k for k, v in enumerate(views)])
                assert same_bits(stack.row_view, row_view)
                for name in ("width", "height"):
                    per_view = np.concatenate([getattr(v, name) for v in views])
                    assert same_bits(getattr(stack, name), per_view)
                assert stack.width.tolist() == np.repeat(
                    [s.record.width for s in samples], stack.counts
                ).tolist()
                assert stack.height.tolist() == np.repeat(
                    [s.record.height for s in samples], stack.counts
                ).tolist()
            dense, empty = views[0], views[2]
            covers = (intersection_matrix(dense.proposals, samples[0].scene.object_boxes) > 0.0)
            assert covers.sum(axis=1).max() >= 8  # np.mean path of the covered means
            assert len(empty.proposals) == background
        assert backend.views(stack_of([])).image_ids == ()

    def test_take_gathers_views_by_index(self):
        # take, the inverse of of: the views at the given positions in that
        # order, repeats allowed, with or without targets; an empty take is
        # an empty stack, and the stacks of single takes rejoin the stack.
        def same_bits(a, b):
            return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        samples = self.mixed_batch()
        backend = self.backend()
        for targets in (True, False):
            stack = backend.views(stack_of(samples), targets=targets)
            arrays = ("proposals", "phi") + (("gt_classes", "gt_offsets") if targets else ())
            ends = np.cumsum(stack.counts)
            own = [slice(end - n, end) for end, n in zip(ends.tolist(), stack.counts.tolist())]
            last = len(samples) - 1
            for index in ([3, 0, 3, last, 2], [last, last], [], list(range(len(samples)))):
                taken = stack.take(index)
                assert taken.image_ids == tuple(stack.image_ids[i] for i in index)
                assert same_bits(taken.sizes, stack.sizes[index].reshape(-1, 2))
                assert same_bits(taken.counts, stack.counts[index])
                for name in arrays:
                    rows = [getattr(stack, name)[own[i]] for i in index]
                    want = np.concatenate(rows) if rows else getattr(stack, name)[:0]
                    assert same_bits(getattr(taken, name), want)
                if not targets:
                    assert taken.gt_classes is None and taken.gt_offsets is None
                assert same_bits(taken.row_view, np.repeat(np.arange(len(index)), taken.counts))
            rejoined = ViewStack.of([stack.take([k]) for k in range(len(samples))])
            for name in ("sizes", "counts") + arrays:
                assert same_bits(getattr(rejoined, name), getattr(stack, name))

    def test_views_label_their_parents_crops_in_one_call(self, monkeypatch):
        # One stacked labeling call per views call, over the non-crop
        # samples' object rows only.
        from densecrop import detect as detect_module

        calls = []
        label = detect_module.label_density_crops

        def counted(boxes, image_size, params, counts=None):
            calls.append(list(counts))
            return label(boxes, image_size, params, counts)

        monkeypatch.setattr(detect_module, "label_density_crops", counted)
        samples = self.mixed_batch()
        self.backend().views(stack_of(samples))
        parents = [s for s in samples if s.record.provenance.kind != "crop"]
        assert len(parents) < len(samples)
        assert calls == [[len(s.scene.object_boxes) for s in parents]]
        self.backend().views(stack_of([]))
        assert calls[1:] == [[]]

    def test_features_of_a_chunk_equal_features_of_each_scene(self):
        # Boxes on the image corner and edges, in scenes of different
        # object counts whose rows the kernel sorts: a scene's rows are its own.
        backend = self.backend()
        samples = self.mixed_batch()
        per_scene = [
            np.concatenate([backend.proposals(stack_of([s]))[0], self.extra_boxes(s)])
            if len(s.scene.object_boxes) else np.array([[0.0, 0.0, *s.record.size]])
            for s in samples
        ]
        for scale in (4.0, 0.0):
            got = extract_features(
                stack_of(samples), np.concatenate(per_scene), 4, scale,
                [len(b) for b in per_scene],
            )
            want = np.concatenate(
                [features_of(s.scene, b, payload_obs_scale=scale) for s, b in zip(samples, per_scene)]
            )
            assert got.tobytes() == want.tobytes()

    def test_mixed_stack_gives_each_scene_its_own_rows(self):
        # Parents beside crop children straight from the zoom: each scene's
        # proposals, features and toy and oracle detections are those of
        # the scene alone, and a child's are those of its materialized
        # sample, so no record or scene object is needed on the way.
        from densecrop.dataset import UpscalePolicy, make_crop_children

        dense, other, _ = self.samples()
        parents = stack_of([dense, other, dense])
        crops = [
            label_one(dense.scene.object_boxes, dense.record.size, CropParams(merge_steps=2))[:3],
            np.array([[0.0, 0.0, 200.0, 150.0]]),
            np.array([[100.0, 100.0, 300.0, 260.0]]),
        ]
        policy = UpscalePolicy("factor", factor=2.0)
        zoomed = make_crop_children(parents, *stacked_rows(crops), policy)
        children = zoomed_samples(parents, crops, zoomed)
        mixed = stack_of([dense, children[0], other, *children[1:]])
        assert mixed.crop.tolist() == [False, True, False] + [True] * (len(children) - 1)
        backend = self.backend()
        weights = random_weights(np.random.default_rng(34), 4)
        oracle = OracleBackend(4, OracleNoiseModel(jitter_std=1.0, fp_rate=2.0, seed=3))
        boxes, counts = backend.proposals(mixed)
        phi = backend.features(mixed, boxes, counts)
        toy = split_detections(backend.detect_batch(weights, mixed))
        noisy = split_detections(oracle.detect_batch(None, mixed))
        ends = np.cumsum(counts).tolist()
        # Mixed scene k is child child_at[k] of the zoom, or a parent.
        child_at = {1: 0, **{j + 2: j for j in range(1, len(children))}}
        assert len(set(zoomed.image_ids)) < len(zoomed)  # dense heads two groups
        for k, (start, end) in enumerate(zip([0] + ends, ends)):
            alone = [mixed.take([k])]
            if k in child_at:
                alone.append(zoomed.take([child_at[k]]))
            for single in alone:
                want_boxes, want_counts = backend.proposals(single)
                assert want_counts.tolist() == [end - start]
                assert boxes[start:end].tobytes() == want_boxes.tobytes()
                want_phi = backend.features(single, want_boxes, want_counts)
                assert phi[start:end].tobytes() == want_phi.tobytes()
                for got, want in ((toy[k], one_scene(backend.detect_batch(weights, single))),
                                  (noisy[k], one_scene(oracle.detect_batch(None, single)))):
                    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert sum(len(t[2]) for t in toy) > 0 and sum(len(t[2]) for t in noisy) > 0

    def test_payload_noise_derives_few_generators(self, monkeypatch):
        # A dense chunk's payload noise draws without one generator per
        # proposal row: only rows that leave the ziggurat's fast path get one.
        from densecrop import seeding

        samples = self.mixed_batch()
        boxes, counts = self.backend().proposals(stack_of(samples))
        derived = []
        generators = seeding._generators

        def counting(words):
            derived.append(len(words))
            return generators(words)

        monkeypatch.setattr(seeding, "_generators", counting)
        extract_features(stack_of(samples), boxes, 4, 4.0, counts)
        assert len(boxes) >= 200 and 0 < sum(derived) < len(boxes) / 4

    def test_detect_batch_equals_one_sample_batches(self):
        backend = self.backend()
        samples = self.mixed_batch()
        weights = random_weights(np.random.default_rng(33), 4)
        batch = split_detections(backend.detect_batch(weights, stack_of(samples)))
        assert len(batch) == len(samples)
        for sample, got in zip(samples, batch):
            want = one_scene(backend.detect_batch(weights, stack_of([sample])))
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert sum(len(classes) for _, classes, _ in batch) > 0
        assert no_rows(backend.detect_batch(weights, stack_of([])))

    def test_targets_touching_boxes_stay_background(self):
        prop = [[0.0, 0.0, 10.0, 10.0]]
        touching = [((10.0, 0.0, 20.0, 10.0), 1), ((0.0, 10.0, 10.0, 20.0), 2)]
        assert self.check_targets(prop, touching, fg_iou=0.0).tolist() == [9]

    def test_detections_match_loop(self):
        backend = self.backend()
        rng = np.random.default_rng(23)
        layout = backend.layout
        degenerate = []
        for bias in ([1e4, -1e4, 1e4, -1e4], [-1e4, 0.0, -1e4, 0.0], [0.0, 1e4, 0.0, 1e4]):
            reg = np.zeros((4, layout.columns))
            reg[:, -1] = bias  # every box collapses onto an image edge
            cls = rng.normal(0, 1.0, (layout.num_outputs, layout.columns))
            degenerate.append(weights_from(layout, cls, reg))
        weights = [random_weights(rng, 4) for _ in range(3)] + degenerate
        emitted = padded = 0
        for sample in self.samples():
            view = backend.views(stack_of([sample]))
            for w in weights:
                for augmentation, seed in (("none", 0), ("weak", 3), ("strong", 4)):
                    rngs = [rng_for(seed, augmentation)]
                    phi = backend.augment(view.phi, augmentation, rngs, view.counts)
                    probs, offsets = toy_forward(w, phi, view.counts)
                    want = decode_ref(
                        rows(view.proposals), probs, offsets, sample.record.size,
                        EMIT_FLOOR, backend.background_class,
                    )
                    boxes, decoded_probs = backend.decode(
                        w, ViewStack.of([view]), augmentation, [rng_for(seed, augmentation)]
                    )
                    pairs = zip(*(a.tolist() for a in backend.emitted(decoded_probs)))
                    got = [(tuple(boxes[r].tolist()), c, decoded_probs[r, c]) for r, c in pairs]
                    assert got == want
                    if augmentation == "none":
                        got_boxes, got_classes, got_scores = one_scene(
                            backend.detect_batch(w, stack_of([sample]))
                        )
                        assert list(zip(rows(got_boxes), got_classes, got_scores)) == want
                    assert np.array_equal(decoded_probs, probs)
                    assert rows(boxes) == [
                        safe_box_ref(*(np.asarray(p) + o), *sample.record.size)
                        for p, o in zip(rows(view.proposals), offsets)
                    ]
                    emitted += len(want)
                    padded += int(np.count_nonzero(boxes[:, 2] - boxes[:, 0] < 2e-3))
        assert emitted > 0 and padded > 0


class TestOracleBackend:
    def test_detect_contract(self):
        sample = scene_sample(seed=11)
        noise = OracleNoiseModel(score_mean=1.0, score_std=0.0)
        backend = OracleBackend(num_base_classes=4, noise=noise)
        boxes, classes, scores = one_scene(backend.detect_batch(None, stack_of([sample])))
        assert boxes.shape == (len(sample.record.annotations), 4)
        assert boxes.dtype == scores.dtype == np.float64 and classes.dtype == np.int64
        want = one_scene(oracle_detect(stack_of([sample]), noise, num_base_classes=4))
        assert [x.tobytes() for x in (boxes, classes, scores)] == [x.tobytes() for x in want]
        assert backend.crop_class_id == 4
        assert no_rows(backend.detect_batch(None, stack_of([])))


class TestDetectionDump:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        rows = []
        for image_id in (3, 1, 4, 2, 5):
            n = int(rng.integers(0, 10)) if image_id != 4 else 0
            xy = rng.uniform(0, 400, (n, 2))
            boxes = np.hstack([xy, xy + rng.uniform(1, 50, (n, 2))])
            rows.append((image_id, boxes, rng.integers(0, 4, n), rng.uniform(0.05, 1.0, n)))
        path = tmp_path / "dets.tsv"
        write_detections(rows, path)
        expected = [(i, d) for i, *arrays in rows for d in detections_from_arrays(*arrays)]
        assert len(expected) > 10
        assert read_detections(path) == expected

    def test_image_ids_stay_text_unless_plain_integers(self, tmp_path):
        one = (np.array([[0.0, 0.0, 1.0, 1.0]]), np.array([0]), np.array([0.5]))
        path = tmp_path / "dets.tsv"
        write_detections([(i, *one) for i in ("007", "12", 3, -5, "--5", "+4", "a1")], path)
        assert [i for i, _ in read_detections(path)] == ["007", 12, 3, -5, "--5", "+4", "a1"]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t0\t0.5\n")
        with pytest.raises(DataError, match="expected 7 fields"):
            read_detections(path)

    def test_byte_stable(self, tmp_path):
        rows = [(1, np.array([[-0.0, 0.2, 10.3, 10.4]]), np.array([0]), np.array([0.5]))]
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_detections(rows, a)
        write_detections(rows, b)
        assert a.read_bytes() == b.read_bytes()
        # The repr of each Python float, as a Detection's fields print.
        assert a.read_text().splitlines()[1] == "1\t0\t0.5\t-0.0\t0.2\t10.3\t10.4"
