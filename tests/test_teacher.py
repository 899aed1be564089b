"""Mean-teacher trainer: thresholding, EMA, schedules, and full runs."""

from dataclasses import replace

import numpy as np
import pytest

from densecrop.croplab import CropParams
from densecrop.dataset import (
    Annotation,
    DatasetSplit,
    SyntheticConfig,
    UpscalePolicy,
    generate_synthetic_dataset,
    make_crop_children,
    split_dataset,
)
from densecrop.detect import (
    SupervisedBatch,
    ToyDetector,
    ToyDetectorConfig,
    ViewStack,
    WeightLayout,
    WeightVector,
    loss_sup,
    toy_forward,
)
from densecrop.errors import ConfigError, DataError, InvariantViolation
from densecrop.geometry import iou_matrix
from densecrop.seeding import rng_for
from densecrop.teacher import (
    CropCache,
    TrainerConfig,
    TrainerState,
    combined_loss,
    discover_unlabeled_crops,
    ema_update,
    _augment_rngs,
    _student_batch,
    _teacher_pseudo_labels,
    filter_pseudo_labels,
    prepare_labeled_pool,
    read_checkpoint,
    train,
    write_checkpoint,
    write_run_report,
)

from reference_impls import (
    annotation_rows,
    child_samples,
    decode_per_view,
    label_one,
    stack_of,
    student_batch_ref,
    supervised_batch_ref,
    with_record,
)

CROP_PARAMS = CropParams(merge_steps=2, sigma=14, theta=0.05, pi=0.4, min_cluster=3)
UPSCALE = UpscalePolicy("factor", factor=4.0)


def tiny_dataset(seed=0, n=8, **overrides):
    defaults = dict(
        num_images=n,
        width=400.0,
        height=400.0,
        num_classes=3,
        clusters_per_image=(1, 2),
        objects_per_cluster=(4, 6),
        scattered_per_image=(2, 3),
        payload_noise=0.1,
        seed=seed,
    )
    defaults.update(overrides)
    samples = generate_synthetic_dataset(SyntheticConfig(**defaults))
    return {s.record.image_id: s for s in samples}


def backend_for(num_classes=3, seed=0, **overrides):
    return ToyDetector(
        ToyDetectorConfig(
            num_base_classes=num_classes,
            proposal_crop_params=CROP_PARAMS,
            seed=seed,
            **overrides,
        )
    )


def trainer_config(**overrides):
    defaults = dict(
        burn_in_iters=20,
        max_iters=40,
        crop_start_iter=30,
        learning_rate=0.01,
        lambda_unsup=1.0,
        tau=0.6,
        alpha=0.99,
        crop_params=CROP_PARAMS,
        upscale=UPSCALE,
        seed=0,
    )
    defaults.update(overrides)
    return TrainerConfig(**defaults)


class TestTrainerConfig:
    def test_valid(self):
        trainer_config()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 1.2},
            {"alpha": -0.1},
            {"tau": 1.5},
            {"lambda_unsup": -1.0},
            {"learning_rate": 0.0},
            {"burn_in_iters": 100, "max_iters": 50},
            {"crop_start_iter": 10},  # not above burn-in
            {"data_ratio": -1.0},
            {"data_ratio": float("nan")},
            {"data_ratio": float("inf")},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"lr_decay_factor": 0.0},
            {"lr_decay_factor": -0.1},
            {"lr_decay_factor": float("nan")},
            {"lambda_unsup": float("nan")},
            {"checkpoint_interval": -10},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            trainer_config(**kwargs)

    def test_crop_start_beyond_max_is_allowed(self):
        cfg = trainer_config(crop_start_iter=10**9)
        assert cfg.crop_start_iter > cfg.max_iters

    def test_lr_decay(self):
        cfg = trainer_config(lr_decay_iter=30, lr_decay_factor=0.1)
        assert cfg.learning_rate_at(30) == 0.01
        assert cfg.learning_rate_at(31) == pytest.approx(0.001)


class TestFilterPseudoLabels:
    def test_threshold_keeps_strictly_above(self):
        kept = filter_pseudo_labels(np.array([0.9, 0.6, 0.3, 0.7]), 0.7)
        assert kept.tolist() == [0]

    def test_tau_one_keeps_nothing(self):
        assert filter_pseudo_labels(np.array([1.0, 0.99]), 1.0).tolist() == []

    def test_tau_zero_keeps_everything(self):
        assert len(filter_pseudo_labels(np.array([0.9, 0.6, 0.3]), 0.0)) == 3

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(44)
        scores = rng.uniform(0.01, 1.0, 30)
        for t1, t2 in [(0.1, 0.4), (0.4, 0.7), (0.7, 0.95)]:
            keep1 = set(filter_pseudo_labels(scores, t1).tolist())
            keep2 = set(filter_pseudo_labels(scores, t2).tolist())
            assert keep2 <= keep1

    def test_crop_class_retained(self):
        # The teacher's pseudo-labels keep the reserved density-crop class
        # of the detections they come from.
        samples = tiny_dataset(n=1, clusters_per_image=(2, 2), objects_per_cluster=(8, 8))
        backend = backend_for()
        view = backend.views(stack_of([next(iter(samples.values()))]))
        cls = np.zeros((backend.layout.num_outputs, backend.layout.columns))
        cls[backend.crop_class_id, 6] = 30.0  # center-count feature
        cls[backend.crop_class_id, backend.layout.feature_dim] = -10.0
        weights = WeightVector(
            layout=backend.layout,
            values=np.concatenate([cls.ravel(), np.zeros(backend.layout.reg_size)]),
        )
        stack = ViewStack.of([view])
        _, classes, label_view, _ = _teacher_pseudo_labels(
            backend, weights, stack, 0.5, [rng_for(0, "weak")]
        )
        assert backend.crop_class_id in classes.tolist()
        assert label_view.tolist() == [0] * len(classes)

    def test_invalid_tau(self):
        with pytest.raises(InvariantViolation):
            filter_pseudo_labels(np.zeros(0), -0.1)

    def test_teacher_pseudo_labels_are_confident_detections(self):
        # The stacked selection equals filtering the detector's emitted
        # pairs of each weak view decoded alone, in their order, also for
        # tau below the emit floor; each view draws its weak flip from its
        # own generator.
        samples = tiny_dataset(n=3)
        backend = backend_for()
        rng = np.random.default_rng(45)
        values = rng.normal(0, 1.0, backend.layout.total)
        weights = WeightVector(layout=backend.layout, values=values)
        views = [backend.views(stack_of([sample])) for sample in samples.values()]
        stack = ViewStack.of(views)
        seeds = [7, 8, 9]
        kept = 0
        for tau in (0.0, 0.1, 0.3, 0.6, 1.0):
            rngs = [rng_for(seed, "weak") for seed in seeds]
            boxes, classes, label_view, probs = _teacher_pseudo_labels(
                backend, weights, stack, tau, rngs
            )
            assert probs.shape == (len(stack.proposals), backend.layout.num_outputs)
            assert np.all(np.diff(label_view) >= 0)
            for k, (view, seed) in enumerate(zip(views, seeds)):
                view_boxes, view_probs = decode_per_view(backend, weights, view, "weak", seed)
                want = [
                    (tuple(view_boxes[r].tolist()), c)
                    for r, c in zip(*(a.tolist() for a in backend.emitted(view_probs)))
                    if view_probs[r, c] > tau
                ]
                own = label_view == k
                assert [tuple(b) for b in boxes[own].tolist()] == [w[0] for w in want]
                assert classes[own].tolist() == [w[1] for w in want]
                kept += len(want)
        assert kept > 0


class TestStudentBatch:
    """The stacked unlabeled step against the per-view path it replaced
    (``reference_impls.student_batch_ref``), bit for bit."""

    def views(self):
        """Parents, upscaled crop children (whose image size differs from
        their parent's), a view without proposals and a view whose
        edge proposals carry -0.0."""
        samples = tiny_dataset(
            seed=5, n=5, clusters_per_image=(2, 2), objects_per_cluster=(6, 8)
        )
        backend = backend_for(payload_obs_scale=2.0)
        views = [backend.views(stack_of([s])) for s in samples.values()]
        parents = list(samples.values())[:3]
        crops = np.array([[40.0, 60.0, 140.0, 140.0], [200.0, 180.0, 330.0, 300.0]])
        children = child_samples(parents, [crops] * len(parents), UPSCALE)
        for k, child in enumerate(children):
            assert child.record.size != parents[k // 2].record.size
            views.append(backend.views(stack_of([child])))
        edge = views[0]
        proposals = edge.proposals.copy()
        proposals[0, :2] = 0.0
        proposals[proposals == 0.0] = -0.0
        views.append(ViewStack(edge.image_ids, edge.sizes, proposals, edge.phi, edge.counts))
        empty = views[1]
        no_rows = (np.zeros((0, 4)), np.zeros((0, empty.phi.shape[1])), np.zeros(1, dtype=np.int64))
        views.append(ViewStack(empty.image_ids, empty.sizes, *no_rows))
        return backend, views

    def weights(self, backend, rng):
        layout = backend.layout
        out = [
            WeightVector(layout=layout, values=rng.normal(0.0, scale, layout.total))
            for scale in (0.3, 1.0, 3.0)
        ]
        # A zero regressor decodes each proposal onto itself, so pseudo-
        # labels of two classes on one proposal share a box exactly.
        cls = rng.normal(0.0, 0.5, layout.cls_size)
        out.append(WeightVector(layout=layout, values=np.concatenate([cls, np.zeros(layout.reg_size)])))
        return out

    def test_batched_views_equal_per_view_path(self):
        backend, pool = self.views()
        rng = np.random.default_rng(46)
        weights = self.weights(backend, rng)
        ties = empty_views = empty_batches = 0
        for trial in range(60):
            size = int(rng.integers(1, 7))
            views = [pool[int(i)] for i in rng.integers(0, len(pool), size)]
            if trial % 10 == 0:
                views.append(pool[-2])  # the -0.0 view
            weak = rng.integers(0, 2**63, len(views)).tolist()
            strong = rng.integers(0, 2**63, len(views)).tolist()
            teacher = weights[trial % len(weights)]
            tau = (0.16, 0.3, 0.5, 1.0)[trial % 4]
            batch, pseudo = _student_batch(
                backend,
                teacher,
                ViewStack.of(views),
                tau,
                _augment_rngs([(s, "weak") for s in weak]),
                _augment_rngs([(s, "strong") for s in strong]),
            )
            features, classes, want_pseudo = student_batch_ref(
                backend, teacher, views, tau, weak, strong
            )
            assert np.array_equal(batch.features, features)
            assert np.array_equal(batch.classes, classes)
            assert pseudo == want_pseudo
            empty_batches += pseudo == 0
            # Count the views without pseudo-labels, and proposals whose best
            # pseudo-label IoU is tied between two classes, where the first
            # pseudo-label must win.
            stack = ViewStack.of(views)
            boxes, label_classes, label_view, _ = _teacher_pseudo_labels(
                backend, teacher, stack, tau, _augment_rngs([(s, "weak") for s in weak])
            )
            for k in range(len(views)):
                own = label_view == k
                empty_views += not own.any()
                if own.sum() < 2 or not len(views[k].proposals):
                    continue
                ious = iou_matrix(views[k].proposals, boxes[own])
                best = ious.max(axis=1, keepdims=True)
                at_best = (ious == best) & (best >= backend.config.fg_iou)
                tied = [len(set(label_classes[own][row].tolist())) > 1 for row in at_best]
                ties += sum(tied)
        assert ties > 0 and empty_views > 0 and empty_batches > 0


class TestSupervisedBatch:
    """The stacked labeled step against the per-view path it replaced
    (``reference_impls.supervised_batch_ref``), bit for bit."""

    def views(self):
        """Labeled views with targets: parents, upscaled crop children
        (whose image size differs from their parent's), a view without
        annotations, and views whose annotations tie exactly: every other
        annotation gets a copy of another class, ahead of the original or
        behind it, so the first of the two must win."""
        samples = tiny_dataset(seed=7, n=4, clusters_per_image=(2, 2), objects_per_cluster=(6, 8))
        samples = list(samples.values())
        backend = backend_for()
        crops = np.array([[40.0, 60.0, 140.0, 140.0], [200.0, 180.0, 330.0, 300.0]])
        children = child_samples(samples[:2], [crops, crops], UPSCALE)
        assert any(c.record.annotations for c in children)
        tied = []
        for k, sample in enumerate(samples[:3]):
            anns = sample.record.annotations
            twins = tuple(Annotation(a.box, (a.class_id + 1) % 3) for a in anns[::2])
            boxes, classes = annotation_rows(twins + anns if k % 2 else anns + twins)
            tied.append(with_record(sample, boxes=boxes, classes=classes))
        bare = with_record(samples[3], boxes=np.zeros((0, 4)), classes=np.zeros(0, np.int64))
        pool = samples + children + tied + [bare]
        return backend, [(s, backend.views(stack_of([s]), targets=True)) for s in pool]

    def test_stacked_labeled_views_equal_per_view_path(self):
        backend, pool = self.views()
        rng = np.random.default_rng(47)
        layout = backend.layout
        weights = WeightVector(layout=layout, values=rng.normal(0.0, 0.5, layout.total))
        stack = ViewStack.of([view for _, view in pool])
        ties = bare = mixed = 0
        for trial in range(60):
            size = int(rng.integers(1, 7))
            index = rng.integers(0, len(pool), size).tolist()
            picked = [pool[i] for i in index]
            views = [view for _, view in picked]
            annotations = [sample.record.annotations for sample, _ in picked]
            seeds = rng.integers(0, 2**63, size).tolist()
            rngs = _augment_rngs([(s, "weak") for s in seeds])
            batch = backend.supervised_batch(ViewStack.of(views), "weak", rngs)
            features, classes, offsets = supervised_batch_ref(backend, views, annotations, seeds)
            assert np.array_equal(batch.features, features)
            assert np.array_equal(batch.classes, classes)
            assert np.array_equal(batch.offsets, offsets)
            # The training step's loss is the loss of the per-view batch.
            rngs = _augment_rngs([(s, "weak") for s in seeds])
            got = loss_sup(weights, backend.supervised_batch(stack.take(index), "weak", rngs))
            want = loss_sup(weights, SupervisedBatch(features, classes, offsets))
            assert got.value == want.value
            assert np.array_equal(got.gradient, want.gradient)
            mixed += len({tuple(v.sizes[0]) for v in views}) > 1
            for view, anns in zip(views, annotations):
                bare += not anns
                if len(anns) < 2:
                    continue
                ious = iou_matrix(view.proposals, np.array([a.box.as_tuple() for a in anns]))
                best = ious.max(axis=1, keepdims=True)
                at_best = (ious == best) & (best > 0.0) & (best >= backend.config.fg_iou)
                tied = [len({anns[j].class_id for j in np.flatnonzero(row)}) > 1 for row in at_best]
                ties += sum(tied)
        assert ties > 0 and bare > 0 and mixed > 0


class TestEmaUpdate:
    def test_alpha_one_keeps_teacher(self):
        layout = WeightLayout(feature_dim=2, num_outputs=2)
        t = WeightVector(layout=layout, values=np.arange(layout.total, dtype=float))
        s = WeightVector(layout=layout, values=np.ones(layout.total))
        out = ema_update(t, s, 1.0)
        np.testing.assert_array_equal(out.values, t.values)

    def test_alpha_zero_copies_student(self):
        layout = WeightLayout(feature_dim=2, num_outputs=2)
        t = WeightVector(layout=layout, values=np.arange(layout.total, dtype=float))
        s = WeightVector(layout=layout, values=np.ones(layout.total))
        out = ema_update(t, s, 0.0)
        np.testing.assert_array_equal(out.values, s.values)

    def test_scalar_arithmetic(self):
        layout = WeightLayout(feature_dim=2, num_outputs=2)
        t = WeightVector(layout=layout, values=np.ones(layout.total))
        s = WeightVector(layout=layout, values=np.zeros(layout.total))
        out = ema_update(t, s, 0.9996)
        np.testing.assert_allclose(out.values, np.full(layout.total, 0.9996), atol=0)

    def test_contraction_power_law(self):
        rng = np.random.default_rng(50)
        layout = WeightLayout(feature_dim=6, num_outputs=4)
        teacher = WeightVector(layout=layout, values=rng.normal(0, 1, layout.total))
        student = WeightVector(layout=layout, values=rng.normal(0, 1, layout.total))
        alpha = 0.9996
        base = np.linalg.norm(teacher.values - student.values)
        current = teacher
        for k in range(1, 301):
            current = ema_update(current, student, alpha)
            expected = alpha**k * base
            assert abs(np.linalg.norm(current.values - student.values) - expected) < 1e-12

    def test_layout_mismatch_rejected(self):
        a = WeightVector(
            layout=WeightLayout(feature_dim=2, num_outputs=2),
            values=np.zeros(WeightLayout(feature_dim=2, num_outputs=2).total),
        )
        b = WeightVector(
            layout=WeightLayout(feature_dim=3, num_outputs=2),
            values=np.zeros(WeightLayout(feature_dim=3, num_outputs=2).total),
        )
        with pytest.raises(InvariantViolation):
            ema_update(a, b, 0.5)


class TestCombinedLoss:
    def test_lambda_zero(self):
        assert combined_loss(2.5, 100.0, 0.0) == 2.5

    def test_arithmetic(self):
        assert combined_loss(2.0, 3.0, 4.0) == 14.0

    def test_zero_unsup(self):
        for lam in (0.0, 1.0, 7.5):
            assert combined_loss(3.25, 0.0, lam) == 3.25

    def test_non_finite_rejected(self):
        with pytest.raises(InvariantViolation):
            combined_loss(float("nan"), 0.0, 1.0)


class TestBurnIn:
    # burn-in is the first burn_in_iters iterations of train, here all of them
    def test_zero_iterations_returns_init(self):
        samples = tiny_dataset()
        backend = backend_for()
        cfg = trainer_config(burn_in_iters=0, max_iters=0, crop_start_iter=1)
        state = train(cfg, samples, quick_split(samples, len(samples)), backend)
        init = backend.init_weights(cfg.seed).values
        np.testing.assert_array_equal(state.student.values, init)
        np.testing.assert_array_equal(state.teacher.values, init)
        assert state.history == [] and state.iteration == 0

    def test_deterministic(self):
        samples = tiny_dataset()
        backend = backend_for()
        cfg = trainer_config(burn_in_iters=25, max_iters=25, crop_start_iter=26)
        split = quick_split(samples, len(samples))
        a = train(cfg, samples, split, backend)
        b = train(cfg, samples, split, backend)
        np.testing.assert_array_equal(a.student.values, b.student.values)
        np.testing.assert_array_equal(a.teacher.values, a.student.values)

    def test_learns_separable_classes(self):
        # near-noiseless payloads make the classes linearly separable
        samples = tiny_dataset(
            n=4, num_classes=2, payload_noise=0.01, small_size=(20.0, 30.0),
            large_size=(40.0, 60.0),
        )
        backend = backend_for(num_classes=2, payload_obs_scale=0.5)
        cfg = trainer_config(
            burn_in_iters=500, max_iters=500, crop_start_iter=501, learning_rate=0.02
        )
        state = train(cfg, samples, quick_split(samples, len(samples)), backend)
        history = state.history
        assert history[-1].loss_total < history[0].loss_total
        pool = prepare_labeled_pool(samples, sorted(samples), cfg, backend)
        batch = backend.supervised_batch(pool, "none", ())
        probs, _ = toy_forward(state.student, batch.features, pool.counts)
        assert np.mean(np.argmax(probs, axis=1) == batch.classes) >= 0.95

    def test_empty_labeled_pool_rejected(self):
        samples = tiny_dataset()
        with pytest.raises(DataError):
            train(trainer_config(), samples, quick_split(samples, 0), backend_for())


def unlabeled_state(backend, samples, iteration):
    """A state at ``iteration`` with untrained weights whose crop cache
    holds the samples as unlabeled parents, and the parents' scenes."""
    weights = backend.init_weights(0)
    parents = stack_of(samples.values())
    cache = CropCache.of(backend.views(parents))
    return TrainerState(weights, weights, iteration, crop_cache=cache), parents


class TestDiscoverUnlabeledCrops:
    def test_gate_before_start_iteration(self):
        samples = tiny_dataset()
        backend = backend_for()
        state, parents = unlabeled_state(backend, samples, 5)
        pool = state.crop_cache.pool
        cfg = trainer_config(crop_start_iter=30)
        discover_unlabeled_crops(state, list(range(len(parents))), parents, backend, cfg)
        cache = state.crop_cache
        assert cache.pool is pool and len(cache.parent) == len(cache.crops) == 0
        assert cache.computed_iter.tolist() == [-1] * len(samples)

    def test_zero_confident_predictions_zero_crops(self):
        samples = tiny_dataset()
        backend = backend_for()  # untrained: scores hover near uniform
        state, parents = unlabeled_state(backend, samples, 35)
        cfg = trainer_config(tau=0.999)
        discover_unlabeled_crops(state, [0, 1], parents, backend, cfg)
        cache = state.crop_cache
        assert cache.computed_iter.tolist() == [35, 35] + [-1] * (len(samples) - 2)
        assert len(cache.crops) == 0 and len(cache.pool.image_ids) == len(samples)

    def test_one_labeling_call_and_no_empty_views_call(self, monkeypatch):
        # A pass labels all its targets' crops in one stacked call, and a
        # pass whose parents yield no crops builds no child views.
        from densecrop import teacher as teacher_module

        samples = tiny_dataset()
        backend = backend_for()
        state, parents = unlabeled_state(backend, samples, 35)
        pool = state.crop_cache.pool
        calls = {"label": 0, "views": 0}
        label = teacher_module.label_density_crops
        build = backend.views

        def counted_label(*args, **kwargs):
            calls["label"] += 1
            return label(*args, **kwargs)

        def counted_views(*args, **kwargs):
            calls["views"] += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(teacher_module, "label_density_crops", counted_label)
        monkeypatch.setattr(backend, "views", counted_views)
        discover_unlabeled_crops(state, [0, 1, 2, 3], parents, backend, trainer_config(tau=0.999))
        cache = state.crop_cache
        assert cache.computed_iter.tolist() == [35] * 4 + [-1] * (len(samples) - 4)
        assert len(cache.parent) == len(cache.crops) == 0 and cache.pool is pool
        assert calls == {"label": 1, "views": 0}

    def test_labeled_pool_crops_come_from_one_call(self, monkeypatch):
        # Each labeled image's crop-class rows follow its own rows and are
        # the crops of labeling its base-class rows alone; its children
        # join the pool, which stays in sorted-str id order.
        from densecrop import teacher as teacher_module

        samples = tiny_dataset()
        backend = backend_for()
        cfg = trainer_config(crops_on_labeled=True)
        label = teacher_module.label_density_crops
        build = backend.views
        calls, built = [], []

        def counted(*args, **kwargs):
            calls.append(args)
            return label(*args, **kwargs)

        def spied(scenes, targets=False):
            built.append(scenes)
            return build(scenes, targets)

        monkeypatch.setattr(teacher_module, "label_density_crops", counted)
        monkeypatch.setattr(backend, "views", spied)
        ids = sorted(samples)[:5]
        pool = prepare_labeled_pool(samples, ids, cfg, backend)
        assert len(calls) == 1
        parents, children = built
        assert parents.image_ids == tuple(sorted(ids, key=str))
        assert pool.image_ids == tuple(sorted(parents.image_ids + children.image_ids, key=str))
        ends = np.cumsum(parents.counts).tolist()
        for image_id, start, end in zip(parents.image_ids, [0] + ends, ends):
            record = samples[image_id].record
            own = start + len(record.classes)
            assert parents.boxes[start:own].tobytes() == record.boxes.tobytes()
            assert parents.classes[start:own].tolist() == record.classes.tolist()
            assert set(parents.classes[own:end].tolist()) <= {backend.crop_class_id}
            base = record.boxes[record.classes < 3]
            alone = label_one(base, record.size, cfg.crop_params)
            assert parents.boxes[own:end].tolist() == alone.tolist()
            kids = [i for i in pool.image_ids if str(i).startswith(f"{image_id}:crop")]
            assert kids == [f"{image_id}:crop{k}" for k in sorted(range(len(alone)), key=str)]
        assert len(children) and parents.counts.sum() > sum(len(samples[i].record.classes) for i in ids)

    def test_cache_entries_refresh_when_stale(self):
        samples = tiny_dataset()
        backend = backend_for()
        state, parents = unlabeled_state(backend, samples, 200)
        state.crop_cache.computed_iter[0] = 1
        cfg = trainer_config(crop_start_iter=30, crop_recompute_period=100)
        discover_unlabeled_crops(state, [], parents, backend, cfg)
        assert state.crop_cache.computed_iter.tolist() == [200] + [-1] * (len(samples) - 1)


def quick_split(samples, n_labeled):
    ids = sorted(samples)
    return DatasetSplit(
        labeled_ids=frozenset(ids[:n_labeled]),
        unlabeled_ids=frozenset(ids[n_labeled:]),
        seed=0,
        fraction=n_labeled / len(ids),
    )


class TestTrain:
    def test_full_run_deterministic(self):
        samples = tiny_dataset()
        split = quick_split(samples, 2)
        backend = backend_for()
        cfg = trainer_config()
        a = train(cfg, samples, split, backend)
        b = train(cfg, samples, split, backend)
        np.testing.assert_array_equal(a.student.values, b.student.values)
        np.testing.assert_array_equal(a.teacher.values, b.teacher.values)
        assert [h.loss_total for h in a.history] == [h.loss_total for h in b.history]

    def test_supervised_run_weights_are_pinned(self):
        # 40 burn-in iterations and nothing after them; the digest is what
        # the separate burn-in loop computed, and the teacher is the student
        import hashlib

        samples = tiny_dataset()
        cfg = trainer_config(burn_in_iters=40, max_iters=40, crop_start_iter=50)
        state = train(cfg, samples, quick_split(samples, 2), backend_for())
        assert hashlib.sha256(state.student.values.tobytes()).hexdigest() == (
            "293f7448e63068447f3f5994cea006ab9ca2d2b2cf749eb34154f04bfea9e427"
        )
        np.testing.assert_array_equal(state.teacher.values, state.student.values)
        assert [log.iteration for log in state.history] == list(range(1, 41))

    def test_burn_in_takes_no_unlabeled_batch(self, monkeypatch):
        # a run that is all burn-in never gathers an unlabeled batch and
        # derives no generator for one
        from densecrop import teacher as teacher_module

        taken, derived = [], []
        real_positions, real_batch_rngs = CropCache.positions, teacher_module._batch_rngs

        def positions(self, parents):
            taken.append(parents)
            return real_positions(self, parents)

        def batch_rngs(config, tag, iterations):
            derived.append((tag, len(iterations)))
            return real_batch_rngs(config, tag, iterations)

        monkeypatch.setattr(CropCache, "positions", positions)
        monkeypatch.setattr(teacher_module, "_batch_rngs", batch_rngs)
        samples = tiny_dataset()
        cfg = trainer_config(burn_in_iters=40, max_iters=40, crop_start_iter=50)
        state = train(cfg, samples, quick_split(samples, 2), backend_for())
        assert taken == []
        assert derived == [("batch-labeled", 40), ("batch-unlabeled", 0)]
        assert [log.unlabeled_images for log in state.history] == [0] * 40

    def test_degenerate_config_matches_supervised_bitwise(self):
        samples = tiny_dataset()
        split_labeled_only = DatasetSplit(
            labeled_ids=frozenset(sorted(samples)[:3]),
            unlabeled_ids=frozenset(),
            seed=0,
            fraction=0.375,
        )
        backend = backend_for()
        supervised = train(
            trainer_config(burn_in_iters=40, max_iters=40, crop_start_iter=50),
            samples,
            split_labeled_only,
            backend,
        )
        degenerate = train(
            trainer_config(
                burn_in_iters=10,
                max_iters=40,
                crop_start_iter=50,
                lambda_unsup=0.0,
                alpha=0.0,
            ),
            samples,
            split_labeled_only,
            backend,
        )
        assert np.array_equal(supervised.student.values, degenerate.student.values)
        assert np.array_equal(degenerate.teacher.values, degenerate.student.values)

    def test_teacher_weights_are_read_only(self):
        samples = tiny_dataset()
        split = quick_split(samples, 2)
        backend = backend_for()
        state = train(trainer_config(), samples, split, backend)
        with pytest.raises(ValueError):
            state.teacher.values[0] = 0.0
        with pytest.raises(ValueError):
            state.teacher.cls_matrix()[0, 0] = 0.0

    def test_loss_decomposition_exact(self):
        samples = tiny_dataset()
        split = quick_split(samples, 2)
        backend = backend_for()
        cfg = trainer_config()
        state = train(cfg, samples, split, backend)
        for log in state.history:
            if log.iteration <= cfg.burn_in_iters:
                continue
            sup = log.loss_sup_cls + log.loss_sup_reg
            assert log.loss_total == sup + cfg.lambda_unsup * log.loss_unsup

    def test_run_with_empty_discovery_passes_builds_no_child_views(self, monkeypatch):
        # tau 0.999 keeps no pseudo-label, so every discovery pass finds no
        # crop: the run builds the labeled pool's and the unlabeled
        # parents' views, and no others.
        samples = tiny_dataset()
        backend = backend_for()
        calls = []
        build = backend.views

        def counted_views(samples, targets=False):
            calls.append(len(samples))
            return build(samples, targets)

        monkeypatch.setattr(backend, "views", counted_views)
        state = train(trainer_config(tau=0.999), samples, quick_split(samples, 2), backend)
        cache = state.crop_cache
        assert (cache.computed_iter >= 0).any()
        assert len(cache.crops) == 0 and len(cache.pool.image_ids) == len(samples) - 2
        assert calls == [2, len(samples) - 2]

    def test_crop_discovery_populates_cache_and_children(self):
        samples = tiny_dataset(
            n=6, clusters_per_image=(2, 2), objects_per_cluster=(6, 8), payload_noise=0.05
        )
        split = quick_split(samples, 2)
        backend = backend_for(payload_obs_scale=2.0)
        cfg = trainer_config(
            burn_in_iters=120,
            max_iters=220,
            crop_start_iter=150,
            tau=0.5,
            crops_on_labeled=True,
        )
        state = train(cfg, samples, split, backend)
        cache = state.crop_cache
        done = cache.computed_iter[cache.computed_iter >= 0]
        assert len(done) and (done >= 150).all()  # every unlabeled batch parent was processed
        assert state.history[-1].crops_cached == len(cache.crops) == len(cache.parent) > 0
        # one child view per crop after the parents, named in crop order
        parent_ids = sorted(split.unlabeled_ids, key=str)
        assert cache.pool.image_ids[: len(parent_ids)] == tuple(parent_ids)
        assert len(cache.pool.image_ids) == len(parent_ids) + len(cache.crops)
        for p, parent_id in enumerate(parent_ids):
            children = [cache.pool.image_ids[k] for k in cache.positions([p])[1:]]
            assert children == [f"{parent_id}:crop{k}" for k in range(len(children))]

    def test_reused_crop_child_ids_get_fresh_views(self, monkeypatch):
        # With a short recompute period a parent's crops are recomputed and
        # the same child id ("<parent>:crop0") names a different crop;
        # training must see the new crop, not the view of the old one: each
        # pass's child views are those of its new crops, and every unlabeled
        # batch holds each sampled parent followed by exactly the child
        # views of its newest pass.
        import hashlib

        from densecrop import teacher as teacher_module

        def rows(views):
            return (views.image_ids, views.counts.tolist(), views.proposals.tobytes(), views.phi.tobytes())

        crops_by_child: dict = {}
        newest: dict = {}
        recomputed: set = set()
        checked = 0
        discover = teacher_module.discover_unlabeled_crops
        student_batch = teacher_module._student_batch

        def recording(state, batch, parents, backend, config):
            discover(state, batch, parents, backend, config)
            cache = state.crop_cache
            for p in np.flatnonzero(cache.computed_iter == state.iteration).tolist():
                parent_id = parents.image_ids[p]
                if parent_id in newest:
                    recomputed.add(parent_id)
                own = cache.positions([p])[1:]
                crops = cache.crops[own - len(parents)]
                newest[parent_id] = rows(cache.pool.take(own))
                if len(crops):
                    zoomed = make_crop_children(
                        parents.take([p]), crops, [len(crops)], config.upscale
                    )
                    assert newest[parent_id] == rows(backend.views(zoomed))
                for child_id, crop in zip(newest[parent_id][0], crops.tolist()):
                    crops_by_child.setdefault(child_id, set()).add(tuple(crop))

        def batch_recording(backend, teacher, views, *args):
            nonlocal checked
            ids = views.image_ids
            parents = [k for k, i in enumerate(ids) if ":crop" not in str(i)]
            for k, end in zip(parents, parents[1:] + [len(ids)]):
                children = rows(views.take(range(k + 1, end)))
                assert children == newest.get(ids[k], ((), [], b"", b""))
                checked += ids[k] in recomputed and end > k + 1
            return student_batch(backend, teacher, views, *args)

        monkeypatch.setattr(teacher_module, "discover_unlabeled_crops", recording)
        monkeypatch.setattr(teacher_module, "_student_batch", batch_recording)
        samples = tiny_dataset(
            n=6, clusters_per_image=(2, 2), objects_per_cluster=(6, 8), payload_noise=0.05
        )
        split = quick_split(samples, 2)
        backend = backend_for(payload_obs_scale=2.0)
        cfg = trainer_config(
            burn_in_iters=60,
            max_iters=100,
            crop_start_iter=70,
            learning_rate=0.05,
            tau=0.5,
            crops_on_labeled=True,
            crop_recompute_period=3,
        )
        state = train(cfg, samples, split, backend)
        assert any(len(crops) > 1 for crops in crops_by_child.values())
        assert checked > 0
        # recorded from the implementation that recomputed every feature on
        # every visit
        assert hashlib.sha256(state.teacher.values.tobytes()).hexdigest() == (
            "ce50513801a957b4303a7a2544838563aac707b4578c899a51647fcfe1cc4523"
        )

    def test_crop_lu_teacher_digest_is_pinned(self):
        # crop_lu with crop discovery on unlabeled images: pseudo-labels
        # feed both the student batches and the crop cache; the digest is
        # the one the per-proposal implementation computed.
        import hashlib

        samples = tiny_dataset(
            seed=3, n=10, clusters_per_image=(2, 2), objects_per_cluster=(6, 8), payload_noise=0.05
        )
        split = quick_split(samples, 3)
        backend = backend_for(payload_obs_scale=2.0)
        cfg = trainer_config(
            burn_in_iters=60,
            max_iters=120,
            crop_start_iter=75,
            learning_rate=0.05,
            tau=0.5,
            crops_on_labeled=True,
        )
        state = train(cfg, samples, split, backend)
        assert state.history[-1].crops_cached == 15
        assert hashlib.sha256(state.teacher.values.tobytes()).hexdigest() == (
            "3ca723a127f1eb362b5a1b0f1bd1104712d2ff24c983d88cba65b11ce0cc6d3d"
        )

    def test_one_rngs_for_call_per_iteration_and_none_in_augment(self, monkeypatch):
        # Every augment generator of an iteration (labeled weak, teacher
        # weak, student strong) comes from one rngs_for call; a crop
        # discovery pass with targets adds one more. The batch samplers'
        # generators come up front, one call per tag. augment only draws
        # from the generators it is given.
        from densecrop import detect as detect_module
        from densecrop import teacher as teacher_module

        calls: list = []
        inside_augment: list = []
        real_rngs_for = teacher_module.rngs_for
        real_augment = ToyDetector.augment

        def counted(prefix, rows):
            calls.append((tuple(prefix), len(rows)))
            return real_rngs_for(prefix, rows)

        def augment(self, *args, **kwargs):
            inside_augment.append(True)
            try:
                return real_augment(self, *args, **kwargs)
            finally:
                inside_augment.pop()

        def guarded(real):
            def wrapper(*args, **kwargs):
                assert not inside_augment, "augment derived a generator"
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(teacher_module, "rngs_for", counted)
        monkeypatch.setattr(ToyDetector, "augment", augment)
        monkeypatch.setattr(detect_module, "rng_for", guarded(detect_module.rng_for))
        for module in (detect_module, teacher_module):
            monkeypatch.setattr(module, "rngs_for", guarded(module.rngs_for))

        samples = tiny_dataset()
        split = quick_split(samples, 3)
        backend = backend_for()
        cfg = trainer_config(crop_start_iter=10**9)
        state = train(cfg, samples, split, backend)
        # burn-in samples no unlabeled batch and derives no generator for one
        assert [c for c in calls if c[0]] == [
            ((cfg.seed, "batch-labeled"), cfg.max_iters),
            ((cfg.seed, "batch-unlabeled"), cfg.max_iters - cfg.burn_in_iters),
        ]
        assert [rows for prefix, rows in calls if not prefix] == [
            cfg.labeled_batch + 2 * log.unlabeled_images for log in state.history
        ]
        assert all(log.unlabeled_images == 0 for log in state.history[: cfg.burn_in_iters])
        assert all(log.unlabeled_images > 0 for log in state.history[cfg.burn_in_iters :])

        passes: list = []
        discover = teacher_module.discover_unlabeled_crops

        def recording(state, *args, **kwargs):
            discover(state, *args, **kwargs)
            passes.append(bool((state.crop_cache.computed_iter == state.iteration).any()))

        monkeypatch.setattr(teacher_module, "discover_unlabeled_crops", recording)
        calls.clear()
        cfg = trainer_config()
        train(cfg, samples, split, backend)
        assert sum(passes) > 0
        assert len([c for c in calls if not c[0]]) == cfg.max_iters + sum(passes)

    def test_run_report_round_trips_loss_values(self, tmp_path):
        samples = tiny_dataset()
        split = quick_split(samples, 2)
        backend = backend_for()
        state = train(trainer_config(), samples, split, backend)
        path = tmp_path / "report.tsv"
        write_run_report(state.history, path)
        lines = path.read_text().splitlines()
        header = lines[0].split("\t")
        assert header[0] == "iteration"
        row = dict(zip(header, lines[-1].split("\t")))
        assert float(row["loss_total"]) == state.history[-1].loss_total


class TestPoolMemory:
    def test_dense_pools_are_built_a_chunk_at_a_time(self):
        # A zero-iteration run on 32 dense 1024x1024 scenes of 165..233
        # objects, 4 labeled and 28 unlabeled. Building each pool in one
        # views call peaked at 59 MiB, nearly all of it crop labeling in
        # the proposals; a pool is built a chunk of about CHUNK_OBJECTS
        # objects at a time.
        import tracemalloc

        cfg = SyntheticConfig(
            num_images=32, width=1024.0, height=1024.0, clusters_per_image=(10, 12),
            objects_per_cluster=(14, 18), scattered_per_image=(10, 20), seed=7,
        )
        samples = {s.record.image_id: s for s in generate_synthetic_dataset(cfg)}
        split = quick_split(samples, 4)
        backend = ToyDetector(ToyDetectorConfig(num_base_classes=4))
        tracemalloc.start()
        try:
            state = train(trainer_config(burn_in_iters=0, max_iters=0, crop_start_iter=1), samples, split, backend)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(state.crop_cache.pool.image_ids) == 28
        assert peak <= 59 * 2**20 / 4


class TestResumeAndIntervalCheckpoints:
    def test_interval_checkpoints_written(self, tmp_path):
        samples = tiny_dataset()
        split = quick_split(samples, 2)
        backend = backend_for()
        cfg = trainer_config(checkpoint_interval=10)
        train(cfg, samples, split, backend, checkpoint_dir=tmp_path)
        assert (tmp_path / "checkpoint_000010.txt").exists()  # inside burn-in
        assert (tmp_path / "checkpoint_000030.txt").exists()
        # the final iteration is the caller's responsibility, not an interval file
        assert not (tmp_path / "checkpoint_000040.txt").exists()

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        samples = tiny_dataset()
        split = quick_split(samples, 2)
        backend = backend_for()
        cfg = trainer_config(burn_in_iters=10, max_iters=60, crop_start_iter=10**9)
        full = train(cfg, samples, split, backend)

        cfg_half = trainer_config(burn_in_iters=10, max_iters=35, crop_start_iter=10**9)
        half = train(cfg_half, samples, split, backend)
        ckpt = tmp_path / "mid.txt"
        write_checkpoint(ckpt, half.student, half.teacher, 35, backend.num_base_classes)
        resumed = train(cfg, samples, split, backend, resume_from=ckpt)
        np.testing.assert_array_equal(resumed.student.values, full.student.values)
        np.testing.assert_array_equal(resumed.teacher.values, full.teacher.values)

    def test_resume_from_another_layout_rejected(self, tmp_path):
        # a checkpoint of a five-class detector cannot resume on three
        samples = tiny_dataset()
        split = quick_split(samples, 2)
        weights = backend_for(num_classes=5).init_weights(0)
        ckpt = tmp_path / "five.txt"
        write_checkpoint(ckpt, weights, weights, 30, 5)
        with pytest.raises(DataError, match="layout"):
            train(trainer_config(), samples, split, backend_for(), resume_from=ckpt)

    def test_resume_inside_burn_in_is_exact(self, tmp_path):
        # burn-in 20, crops from 30: before crop_start_iter the state is
        # the weights alone, which the checkpoint holds
        samples = tiny_dataset()
        split = quick_split(samples, 2)
        backend = backend_for()
        cfg = trainer_config(checkpoint_interval=5)
        full = train(cfg, samples, split, backend, checkpoint_dir=tmp_path)
        ckpt = tmp_path / "checkpoint_000005.txt"
        resumed = train(cfg, samples, split, backend, resume_from=ckpt)
        assert resumed.student.values.tobytes() == full.student.values.tobytes()
        assert resumed.teacher.values.tobytes() == full.teacher.values.tobytes()
        assert resumed.history == full.history[5:]


class TestCheckpointIO:
    def test_round_trip_bit_exact(self, tmp_path):
        backend = backend_for()
        rng = np.random.default_rng(60)
        student = WeightVector(
            layout=backend.layout, values=rng.normal(0, 1, backend.layout.total)
        )
        teacher = WeightVector(
            layout=backend.layout, values=rng.normal(0, 1, backend.layout.total)
        )
        path = tmp_path / "ckpt.txt"
        write_checkpoint(path, student, teacher, 123, backend.num_base_classes)
        header, s2, t2 = read_checkpoint(path)
        assert header["iteration"] == 123
        assert header["num_base_classes"] == 3
        np.testing.assert_array_equal(s2.values, student.values)
        np.testing.assert_array_equal(t2.values, teacher.values)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        header = '{"feature_dim": 11, "iteration": 0, "num_base_classes": 3, "num_outputs": 5}'
        path.write_text(header + "\nstudent\n1.0\n")
        with pytest.raises(DataError, match="values"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("iteration", None), ("iteration", "abc"), ("iteration", -1), ("iteration", 1.5),
            ("num_base_classes", None), ("num_base_classes", "x"), ("num_base_classes", True),
            ("num_base_classes", 4),  # the layout holds 3
        ],
    )
    def test_bad_header_field_rejected(self, tmp_path, key, value):
        import json

        weights = backend_for().init_weights(0)
        path = tmp_path / "ckpt.txt"
        write_checkpoint(path, weights, weights, 7, 3)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        if value is None:
            del header[key]
        else:
            header[key] = value
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        with pytest.raises(DataError, match=key):
            read_checkpoint(path)


class TestUnlabeledGroundTruthGuard:
    def test_teacher_ignores_unlabeled_annotations(self):
        # Training may read the annotation rows of labeled images only:
        # with every unlabeled record's rows stripped, the crop_lu teacher
        # is the same bit for bit. The toy proposals do draw on each
        # scene's objects, by design, as a stand-in for a region proposal
        # network; the records' rows are what this guards. The pinned
        # crop_lu schedule is compressed tenfold, with the learning rate and
        # EMA step scaled up, so that crop discovery finds crops.
        import benchmarks as pinned

        compression = 10
        base = pinned.trainer_config("crop_lu", 1)
        config = replace(
            base,
            max_iters=pinned.MAX_ITERS // compression,
            burn_in_iters=pinned.BURN_IN_ITERS // compression,
            crop_start_iter=pinned.CROP_START_ITER // compression,
            lr_decay_iter=base.lr_decay_iter // compression,
            learning_rate=base.learning_rate * compression,
            alpha=1.0 - (1.0 - base.alpha) * compression,
        )
        samples = generate_synthetic_dataset(pinned.scene_config(1, pinned.TRAIN_IMAGES))
        by_id = {s.record.image_id: s for s in samples}
        split = split_dataset(list(by_id), pinned.LABELED_FRACTION, 1)
        empty = dict(boxes=np.zeros((0, 4)), classes=np.zeros(0, dtype=np.int64))
        stripped = {
            i: s if i in split.labeled_ids else with_record(s, **empty)
            for i, s in by_id.items()
        }
        assert all(len(by_id[i].record.classes) for i in split.unlabeled_ids)
        full = train(config, by_id, split, pinned.make_backend(1))
        bare = train(config, stripped, split, pinned.make_backend(1))
        assert full.history[-1].crops_cached > 0
        assert full.teacher.values.tobytes() == bare.teacher.values.tobytes()
