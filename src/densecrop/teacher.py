"""Mean-teacher semi-supervised training with density-crop discovery.

The student network trains by gradient descent on a combined supervised
and unsupervised loss; the teacher is an exponential moving average of the
student and supplies confidence-thresholded pseudo-labels for unlabeled
images. Training starts with a supervised-only burn-in whose final weights
seed both networks. From a configurable iteration, density crops are
discovered on unlabeled images from teacher pseudo-labels; their upscaled
children join the unlabeled pool, which is what produces extra
pseudo-labels for clustered small objects.

Every source of randomness is derived from (root seed, purpose, iteration,
image), so runs are bit-reproducible and resumable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from itertools import islice

import numpy as np

from .croplab import CropParams, label_density_crops
from .dataset import (
    SceneSample,
    SceneStack,
    UpscalePolicy,
    crop_child_samples,
    make_crop_children,
)
from .detect import (
    LossResult,
    ToyDetector,
    UnsupervisedBatch,
    ViewStack,
    WeightLayout,
    WeightVector,
    loss_sup,
    loss_unsup,
)
from .errors import ConfigError, DataError, InvariantViolation
from .seeding import rngs_for, stable_int

__all__ = [
    "TrainerConfig",
    "TrainerState",
    "IterationLog",
    "burn_in",
    "filter_pseudo_labels",
    "ema_update",
    "combined_loss",
    "discover_unlabeled_crops",
    "train",
    "write_run_report",
    "write_checkpoint",
    "read_checkpoint",
]


@dataclass(frozen=True)
class TrainerConfig:
    """Schedule and loss hyperparameters for one training run.

    ``crop_start_iter`` may exceed ``max_iters``, in which case crops are
    never discovered on unlabeled images (the plain mean-teacher setting).
    """

    burn_in_iters: int
    max_iters: int
    crop_start_iter: int
    learning_rate: float
    lambda_unsup: float = 4.0
    tau: float = 0.7
    alpha: float = 0.9996
    crop_recompute_period: int = 10_000
    data_ratio: float = 1.0
    labeled_batch: int = 2
    lr_decay_iter: int | None = None
    lr_decay_factor: float = 0.1
    crops_on_labeled: bool = False
    crop_params: CropParams = field(default_factory=CropParams)
    upscale: UpscalePolicy = field(default_factory=UpscalePolicy)
    checkpoint_interval: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.burn_in_iters < 0 or self.max_iters < 0:
            raise ConfigError("iteration counts must be >= 0")
        if self.burn_in_iters > self.max_iters:
            raise ConfigError(
                f"burn_in_iters {self.burn_in_iters} exceeds max_iters {self.max_iters}"
            )
        if self.crop_start_iter <= self.burn_in_iters:
            raise ConfigError(
                f"crop_start_iter {self.crop_start_iter} must be > burn_in_iters {self.burn_in_iters}"
            )
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (0.0 <= self.tau <= 1.0):
            raise ConfigError(f"tau must be in [0, 1], got {self.tau}")
        if self.lambda_unsup < 0:
            raise ConfigError(f"lambda_unsup must be >= 0, got {self.lambda_unsup}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.data_ratio < 0:
            raise ConfigError("data_ratio must be >= 0")
        if self.labeled_batch < 1:
            raise ConfigError("labeled_batch must be >= 1")
        if self.crop_recompute_period < 1:
            raise ConfigError("crop_recompute_period must be >= 1")

    def learning_rate_at(self, iteration: int) -> float:
        if self.lr_decay_iter is not None and iteration > self.lr_decay_iter:
            return self.learning_rate * self.lr_decay_factor
        return self.learning_rate


@dataclass
class IterationLog:
    iteration: int
    lr: float
    loss_total: float
    loss_sup_cls: float
    loss_sup_reg: float
    loss_unsup: float
    pseudo_per_image: float
    unlabeled_images: int
    crops_cached: int


@dataclass
class CropCacheEntry:
    """One parent's density crops as (K, 4) rows, the iteration that found
    them, and their upscaled crop children's views, one stack of one each."""

    crops: np.ndarray
    computed_iter: int
    children: tuple


@dataclass
class TrainerState:
    """Everything the training loop owns.

    The teacher weight vector only ever changes through the EMA update.
    """

    student: WeightVector
    teacher: WeightVector
    iteration: int = 0
    crop_cache: dict = field(default_factory=dict)
    history: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def filter_pseudo_labels(scores: np.ndarray, tau: float) -> np.ndarray:
    """Positions of the detection scores strictly above ``tau``: the
    detections kept as pseudo-labels, in their order.

    Density-crop-class predictions pass the same filter; they keep their
    reserved class id, which is how downstream consumers recognize them.
    """
    if not (0.0 <= tau <= 1.0):
        raise InvariantViolation(f"tau must be in [0, 1], got {tau}")
    return np.flatnonzero(scores > tau)


def _teacher_pseudo_labels(
    backend: ToyDetector, teacher: WeightVector, stack: ViewStack, tau: float, rngs
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The teacher's pseudo-labels on the weak views of a stack, each view
    flipped by its own generator of ``rngs``: (P, 4) boxes, (P,) classes
    and the (P,) index of the view each belongs to, plus the stack's
    (N, num_outputs) per-proposal probabilities.

    One ``backend.decode`` on the stack yields every row's box and
    probabilities; the pseudo-labels are its emitted (proposal, class)
    entries scoring above ``tau``, in row-major order. A view's
    pseudo-labels are those of a decode of the stack of that view alone.
    """
    boxes, probs = backend.decode(teacher, stack, "weak", rngs)
    rows, classes = backend.emitted(probs)
    keep = filter_pseudo_labels(probs[rows, classes], tau)
    rows = rows[keep]
    return boxes[rows], classes[keep], stack.row_view[rows], probs


def _student_batch(
    backend: ToyDetector, teacher: WeightVector, views: list, tau: float, weak_rngs, strong_rngs
) -> tuple[UnsupervisedBatch, int]:
    """The student's strong-view batch over ``views`` against the teacher's
    weak-view pseudo-labels, and the number of pseudo-labels. One teacher
    pass on the weak views yields both the pseudo-labels and the
    confident-background mask."""
    stack = ViewStack.of(views)
    boxes, classes, label_view, probs = _teacher_pseudo_labels(
        backend, teacher, stack, tau, weak_rngs
    )
    batch = backend.unsupervised_batch(
        stack, boxes, classes, label_view, strong_rngs, teacher_probs=probs
    )
    return batch, len(classes)


def ema_update(teacher: WeightVector, student: WeightVector, alpha: float) -> WeightVector:
    """Exponential moving average: alpha * teacher + (1 - alpha) * student."""
    if teacher.layout != student.layout:
        raise InvariantViolation("teacher/student weight layouts differ")
    if not (0.0 <= alpha <= 1.0):
        raise InvariantViolation(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 0.0:
        return student.replace_values(student.values)
    if alpha == 1.0:
        return teacher.replace_values(teacher.values)
    return teacher.replace_values(alpha * teacher.values + (1.0 - alpha) * student.values)


def combined_loss(l_sup: float, l_unsup: float, lambda_unsup: float) -> float:
    """Total loss: supervised part plus weighted unsupervised part."""
    total = l_sup + lambda_unsup * l_unsup
    if not np.isfinite(total):
        raise InvariantViolation(f"non-finite combined loss {total}")
    return total


# ---------------------------------------------------------------------------
# Batch plumbing
# ---------------------------------------------------------------------------


def _batch_rngs(config: TrainerConfig, tag: str, iterations: range) -> list:
    """``rng_for(config.seed, tag, iteration)`` for each iteration, all
    from one :func:`rngs_for` call."""
    return rngs_for((config.seed, tag), np.array(iterations, dtype=np.int64).reshape(-1, 1))


def _sample_ids(ids: list, size: int, rng: np.random.Generator) -> list:
    """Up to ``size`` distinct entries of the sorted ``ids``, drawn by
    ``rng`` and kept in their sorted order."""
    if not ids or size <= 0:
        return []
    picked = rng.choice(len(ids), size=min(size, len(ids)), replace=False)
    return [ids[i] for i in sorted(picked.tolist())]


def _supervised_loss(
    labeled_pool: dict, batch_ids: list, rngs, backend: ToyDetector, weights: WeightVector
) -> LossResult:
    """Supervised loss over one stack of an iteration's labeled views, each
    weakly augmented with its own generator of ``rngs``. Shared by burn-in
    and the teacher-student phase so degenerate configs match supervised
    training bit for bit."""
    stack = ViewStack.of([labeled_pool[i] for i in batch_ids])
    return loss_sup(weights, backend.supervised_batch(stack, "weak", rngs))


def _apply_step(weights: WeightVector, gradient: np.ndarray, lr: float, iteration: int) -> WeightVector:
    new_values = weights.values - lr * gradient
    if not np.all(np.isfinite(new_values)):
        raise InvariantViolation(f"training diverged at iteration {iteration}")
    return weights.replace_values(new_values)


def _aug_seed(seed: int, tag: str, iteration: int, image_id) -> int:
    # Fold the context into one integer so backend seeding stays simple.
    # This is a 64-bit sha256 prefix, but stable_int masks an int part to
    # its low 32 bits, so only those seed the augment generator.
    h = hashlib.sha256(f"{seed}|{tag}|{iteration}|{image_id}".encode()).digest()
    return int.from_bytes(h[:8], "big")


# The stable_int words of the augmentation tags.
_AUGMENT_TAGS = {tag: stable_int(tag) for tag in ("weak", "strong")}


def _augment_rngs(requests: list) -> list:
    """One ``augment`` generator per (seed, augmentation tag) request, each
    drawing as ``rng_for(seed, tag)`` would, all from one :func:`rngs_for`
    call: row ``(seed & 0xFFFFFFFF, stable_int(tag))`` is exactly what
    ``rng_for`` hashes."""
    rows = np.array(
        [(seed & 0xFFFFFFFF, _AUGMENT_TAGS[tag]) for seed, tag in requests], dtype=np.int64
    ).reshape(-1, 2)
    return rngs_for((), rows)


def _iteration_rngs(config: TrainerConfig, iteration: int, labeled_ids: list, unlabeled_ids: list):
    """Every ``augment`` generator of one iteration, from one
    :func:`rngs_for` call: the labeled batch's weak views, then the
    teacher's weak and the student's strong views of the unlabeled batch."""
    rngs = _augment_rngs(
        [(_aug_seed(config.seed, "sup-aug", iteration, i), "weak") for i in labeled_ids]
        + [(_aug_seed(config.seed, "teacher-weak", iteration, i), "weak") for i in unlabeled_ids]
        + [(_aug_seed(config.seed, "student-strong", iteration, i), "strong") for i in unlabeled_ids]
    )
    n, m = len(labeled_ids), len(unlabeled_ids)
    return rngs[:n], rngs[n : n + m], rngs[n + m :]


# ---------------------------------------------------------------------------
# Burn-in
# ---------------------------------------------------------------------------


def burn_in(
    config: TrainerConfig, labeled_pool: dict, backend: ToyDetector
) -> tuple[WeightVector, list[IterationLog]]:
    """Supervised pre-training; returns the weights that seed both networks.

    ``labeled_pool`` maps image ids to views built with targets."""
    if not labeled_pool:
        raise DataError("burn-in requires a non-empty labeled set")
    weights = backend.init_weights(config.seed)
    history: list[IterationLog] = []
    ids = sorted(labeled_pool, key=str)
    iterations = range(1, config.burn_in_iters + 1)
    for iteration, rng in zip(iterations, _batch_rngs(config, "batch-labeled", iterations)):
        batch_ids = _sample_ids(ids, config.labeled_batch, rng)
        rngs, _, _ = _iteration_rngs(config, iteration, batch_ids, [])
        result = _supervised_loss(labeled_pool, batch_ids, rngs, backend, weights)
        if not np.isfinite(result.value):
            raise InvariantViolation(f"training diverged at iteration {iteration}")
        weights = _apply_step(
            weights, result.gradient, config.learning_rate_at(iteration), iteration
        )
        history.append(
            IterationLog(
                iteration=iteration,
                lr=config.learning_rate_at(iteration),
                loss_total=result.value,
                loss_sup_cls=result.cls_term,
                loss_sup_reg=result.reg_term,
                loss_unsup=0.0,
                pseudo_per_image=0.0,
                unlabeled_images=0,
                crops_cached=0,
            )
        )
    return weights, history


# ---------------------------------------------------------------------------
# Crop discovery on unlabeled images
# ---------------------------------------------------------------------------


def discover_unlabeled_crops(
    state: TrainerState,
    batch_ids: list,
    unlabeled_parents: dict,
    parent_scenes: SceneStack,
    backend: ToyDetector,
    config: TrainerConfig,
) -> None:
    """Label density crops on unlabeled images from teacher pseudo-labels.

    ``unlabeled_parents`` maps image id to the parent's view, a stack of
    one, and ``parent_scenes`` holds the parents' scenes. Runs on the
    given batch's parent images plus any cache entry older than the
    recompute period. The teacher decodes those parents in one stack, and
    one :func:`label_density_crops` call labels the base-class
    pseudo-labels of all of them as a stack of images. Each parent gets a
    new cache entry holding its crops and its crop children's views; one
    :func:`make_crop_children` zoom of their scenes builds the children of
    all of them and one ``views`` call their views, skipped when no parent
    has a crop. A recomputed parent can hand an old child
    id to a different crop, and its new entry holds the new crop's view.
    Before ``crop_start_iter`` the cache is left untouched.
    """
    if state.iteration < config.crop_start_iter:
        return
    stale = [
        image_id
        for image_id, entry in state.crop_cache.items()
        if state.iteration - entry.computed_iter >= config.crop_recompute_period
    ]
    targets = sorted(
        {i for i in batch_ids if i in unlabeled_parents and i not in state.crop_cache}
        | set(stale),
        key=str,
    )
    if not targets:
        return
    parents = ViewStack.of([unlabeled_parents[image_id] for image_id in targets])
    rngs = _augment_rngs(
        [(_aug_seed(config.seed, "crop-detect", state.iteration, i), "weak") for i in targets]
    )
    boxes, classes, label_view, _ = _teacher_pseudo_labels(
        backend, state.teacher, parents, config.tau, rngs
    )
    base = classes < backend.num_base_classes
    crops = label_density_crops(
        boxes[base],
        parents.sizes,
        config.crop_params,
        np.bincount(label_view[base], minlength=len(targets)),
    )
    where = {image_id: k for k, image_id in enumerate(parent_scenes.image_ids)}
    scenes = parent_scenes.take([where[image_id] for image_id in targets])
    children = make_crop_children(scenes, crops, config.upscale)
    views = iter(backend.views(children).split() if len(children) else ())
    for image_id, image_crops in zip(targets, crops):
        own = tuple(islice(views, len(image_crops)))
        state.crop_cache[image_id] = CropCacheEntry(image_crops, state.iteration, own)


# ---------------------------------------------------------------------------
# The full training loop
# ---------------------------------------------------------------------------


def prepare_labeled_pool(
    samples: dict, labeled_ids, config: TrainerConfig, backend: ToyDetector
) -> dict:
    """Labeled pool; with ``crops_on_labeled`` each image also contributes
    upscaled crop children and gains crop-class annotation rows. The crops
    of every labeled image come from one :func:`label_density_crops` call
    over the stack of their base-class annotation rows, and their children
    from one :func:`make_crop_children` zoom, built as samples for the
    pool."""
    ids = sorted(labeled_ids, key=str)
    if not config.crops_on_labeled:
        return {image_id: samples[image_id] for image_id in ids}
    parents = [samples[i] for i in ids]
    stack = SceneStack.of(parents)
    base = stack.classes < backend.num_base_classes
    per_image = label_density_crops(
        stack.boxes[base],
        stack.sizes,
        config.crop_params,
        np.bincount(np.repeat(np.arange(len(ids)), stack.counts)[base], minlength=len(ids)),
    )
    zoomed = make_crop_children(stack, per_image, config.upscale)
    children = iter(crop_child_samples(stack, per_image, zoomed))
    pool: dict = {}
    for image_id, parent, crops in zip(ids, parents, per_image):
        pool.update((child.record.image_id, child) for child in islice(children, len(crops)))
        record = replace(
            parent.record,
            boxes=np.concatenate([parent.record.boxes, crops]),
            classes=np.concatenate([parent.record.classes, np.full(len(crops), backend.crop_class_id)]),
        )
        pool[image_id] = SceneSample(record=record, scene=parent.scene)
    return pool


def train(
    config: TrainerConfig,
    samples: dict,
    split,
    backend: ToyDetector,
    checkpoint_dir: str | os.PathLike | None = None,
    resume_from: str | os.PathLike | None = None,
) -> TrainerState:
    """Run burn-in followed by teacher-student training.

    ``samples`` maps image id to :class:`SceneSample`; ``split`` decides
    which ids contribute supervised loss. Per-iteration losses,
    pseudo-label counts, and crop-cache sizes land in ``state.history``.

    The samples convert to :class:`~densecrop.dataset.SceneStack` rows
    once: the labeled pool's and the unlabeled parents', one stack each.
    Each training image's proposals and base features are computed once
    per call, in a view (a :class:`ViewStack` of one) that lives only as
    long as the call: the labeled pool's views and the unlabeled parents'
    views are built up front, one ``views`` call on each stack. A crop
    discovery pass zooms the scenes of all its parents with one
    :func:`make_crop_children` call and builds the children's views in one
    more ``views`` call; no sample, record or scene object is built for
    them. It stores the views in their parents' crop-cache entries, so a
    recomputed entry brings the views of its new crops, even under an id
    an earlier, different crop used, and the old views leave with the old
    entry.

    Each iteration works on two :class:`ViewStack` objects, ragged stacks
    of views' proposals, features and (for labeled views) targets. The
    supervised batch is one stack of the sampled labeled views, weakly
    augmented in one call against their concatenated targets. The
    unlabeled views (each sampled parent followed by its cache entry's
    children) form the other stack. The teacher decodes every weak view at
    once into per-proposal boxes and probabilities; the pseudo-labels are
    the emitted (proposal, class) entries scoring above ``tau``, kept as
    box, class and view-index arrays, and each proposal of the student's
    strong views is matched only against the pseudo-labels of its own view
    by the same ``assign_targets`` kernel that gave the labeled views
    their targets. Crop discovery makes the same stacked decode over its
    targets. One ``rngs_for`` call per iteration derives every ``augment``
    generator (labeled weak, teacher weak, student strong), each view
    drawing from its own. The generators that sample each iteration's
    labeled and unlabeled batch, ``rng_for(seed, "batch-labeled" or
    "batch-unlabeled", iteration)``, come from one ``rngs_for`` call per
    tag before the loop (and one in burn-in). No ``Detection`` is built in
    the loop.

    With ``checkpoint_dir`` set and ``config.checkpoint_interval`` enabled,
    intermediate checkpoints are written there; ``resume_from`` restores
    weights and the iteration counter from such a checkpoint and continues
    the schedule. Per-iteration randomness is derived statelessly, so the
    remaining iterations replay exactly as long as the checkpoint precedes
    ``crop_start_iter``. The unlabeled crop cache is not checkpointed: it
    rebuilds as images are revisited, so a run resumed after crop
    discovery started diverges from the uninterrupted one.
    """
    labeled = prepare_labeled_pool(samples, split.labeled_ids, config, backend)
    if not labeled:
        raise DataError("training requires at least one labeled image")
    labeled_views = backend.views(SceneStack.of(labeled.values()), targets=True)
    labeled_pool = dict(zip(labeled, labeled_views.split()))
    unlabeled_ids = sorted(split.unlabeled_ids, key=str)
    unlabeled = SceneStack.of([samples[i] for i in unlabeled_ids])
    unlabeled_parents = dict(zip(unlabeled_ids, backend.views(unlabeled).split()))

    if resume_from is not None:
        header, student, teacher = read_checkpoint(resume_from)
        start_iter = int(header.get("iteration", 0))
        if start_iter < config.burn_in_iters:
            raise DataError(
                f"cannot resume from iteration {start_iter}: still inside burn-in "
                f"({config.burn_in_iters} iterations)"
            )
        state = TrainerState(student=student, teacher=teacher, iteration=start_iter)
    else:
        weights, history = burn_in(config, labeled_pool, backend)
        state = TrainerState(
            student=weights,
            teacher=weights,
            iteration=config.burn_in_iters,
            history=history,
        )

    sorted_labeled = sorted(labeled_pool, key=str)
    iterations = range(state.iteration + 1, config.max_iters + 1)
    for iteration, labeled_rng, unlabeled_rng in zip(
        iterations,
        _batch_rngs(config, "batch-labeled", iterations),
        _batch_rngs(config, "batch-unlabeled", iterations),
    ):
        state.iteration = iteration
        labeled_ids = _sample_ids(sorted_labeled, config.labeled_batch, labeled_rng)

        unsup_value = 0.0
        pseudo_total = 0
        batch_parents: list = []
        views: list = []
        n_unlabeled = round(config.data_ratio * config.labeled_batch)
        if config.lambda_unsup > 0.0 and unlabeled_parents and n_unlabeled > 0:
            # Sample parent images; each brings its cached crop children
            # along as extra views of the same content.
            batch_parents = _sample_ids(unlabeled_ids, n_unlabeled, unlabeled_rng)
            for parent_id in batch_parents:
                entry = state.crop_cache.get(parent_id)
                views += [unlabeled_parents[parent_id], *(entry.children if entry else ())]
        batch_ids = [view.image_ids[0] for view in views]
        sup_rngs, weak_rngs, strong_rngs = _iteration_rngs(
            config, iteration, labeled_ids, batch_ids
        )
        sup = _supervised_loss(labeled_pool, labeled_ids, sup_rngs, backend, state.student)
        gradient = sup.gradient
        if views:
            batch, pseudo_total = _student_batch(
                backend, state.teacher, views, config.tau, weak_rngs, strong_rngs
            )
            if len(batch):
                unsup = loss_unsup(state.student, batch)
                unsup_value = unsup.value
                gradient = sup.gradient + config.lambda_unsup * unsup.gradient

        if not np.isfinite(sup.value + unsup_value):
            raise InvariantViolation(f"training diverged at iteration {iteration}")
        state.student = _apply_step(
            state.student, gradient, config.learning_rate_at(iteration), iteration
        )

        state.teacher = ema_update(state.teacher, state.student, config.alpha)

        discover_unlabeled_crops(
            state, batch_parents, unlabeled_parents, unlabeled, backend, config
        )

        # Pseudo-labels found on a crop child count toward its parent, so
        # pseudo_per_image measures the label supply per unlabeled dataset
        # image regardless of how many zoomed views contributed.
        state.history.append(
            IterationLog(
                iteration=iteration,
                lr=config.learning_rate_at(iteration),
                loss_total=combined_loss(sup.value, unsup_value, config.lambda_unsup),
                loss_sup_cls=sup.cls_term,
                loss_sup_reg=sup.reg_term,
                loss_unsup=unsup_value,
                pseudo_per_image=pseudo_total / len(batch_parents) if batch_parents else 0.0,
                unlabeled_images=len(batch_ids),
                crops_cached=sum(len(e.crops) for e in state.crop_cache.values()),
            )
        )

        if (
            checkpoint_dir is not None
            and config.checkpoint_interval
            and iteration % config.checkpoint_interval == 0
            and iteration < config.max_iters
        ):
            write_checkpoint(
                os.path.join(os.fspath(checkpoint_dir), f"checkpoint_{iteration:06d}.txt"),
                state.student,
                state.teacher,
                iteration,
                backend.num_base_classes,
            )
    return state


# ---------------------------------------------------------------------------
# Run report and checkpoints
# ---------------------------------------------------------------------------

_REPORT_COLUMNS = tuple(f.name for f in fields(IterationLog))


def write_run_report(history: list[IterationLog], path: str | os.PathLike) -> None:
    """Tab-separated per-iteration log, one column per logged quantity."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(_REPORT_COLUMNS) + "\n")
        for log in history:
            row = [repr(getattr(log, c)) for c in _REPORT_COLUMNS]
            fh.write("\t".join(row) + "\n")


def write_checkpoint(
    path: str | os.PathLike,
    student: WeightVector,
    teacher: WeightVector,
    iteration: int,
    num_base_classes: int,
) -> None:
    """Weight layout header plus flat values, full float precision."""
    header = {
        "feature_dim": student.layout.feature_dim,
        "num_outputs": student.layout.num_outputs,
        "iteration": iteration,
        "num_base_classes": num_base_classes,
        "version": 1,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write("student\n")
        for v in student.values:
            fh.write(repr(float(v)) + "\n")
        fh.write("teacher\n")
        for v in teacher.values:
            fh.write(repr(float(v)) + "\n")


def read_checkpoint(path: str | os.PathLike) -> tuple[dict, WeightVector, WeightVector]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if not lines:
        raise DataError(f"checkpoint {path} is empty")
    try:
        header = json.loads(lines[0])
        layout = WeightLayout(
            feature_dim=int(header["feature_dim"]), num_outputs=int(header["num_outputs"])
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"checkpoint {path} has a malformed header") from exc
    sections: dict[str, list[float]] = {}
    current: list[float] | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        if line in ("student", "teacher"):
            current = sections.setdefault(line, [])
        elif line.strip():
            if current is None:
                raise DataError(f"checkpoint {path}:{lineno}: value before section header")
            try:
                current.append(float(line))
            except ValueError as exc:
                raise DataError(f"checkpoint {path}:{lineno}: bad value {line!r}") from exc
            if not math.isfinite(current[-1]):
                raise DataError(f"checkpoint {path}:{lineno}: non-finite value {line!r}")
    for name in ("student", "teacher"):
        if len(sections.get(name, [])) != layout.total:
            raise DataError(
                f"checkpoint {path}: section {name!r} has {len(sections.get(name, []))} values, "
                f"layout wants {layout.total}"
            )
    student = WeightVector(layout=layout, values=np.array(sections["student"]))
    teacher = WeightVector(layout=layout, values=np.array(sections["teacher"]))
    return header, student, teacher
