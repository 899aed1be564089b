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

import numpy as np

from .croplab import CropParams, label_density_crops
from .dataset import SceneStack, UpscalePolicy, make_crop_children
from .detect import (
    ToyDetector,
    UnsupervisedBatch,
    ViewStack,
    WeightLayout,
    WeightVector,
    feature_dim,
    loss_sup,
    loss_unsup,
)
from .errors import ConfigError, DataError, InvariantViolation
from .geometry import chunk_bounds
from .manifest import write_tsv
from .seeding import rngs_for, stable_int

__all__ = [
    "TrainerConfig",
    "TrainerState",
    "IterationLog",
    "CropCache",
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
        if not (0.0 <= self.lambda_unsup < math.inf):
            raise ConfigError(f"lambda_unsup must be finite and >= 0, got {self.lambda_unsup}")
        if not (0.0 < self.learning_rate < math.inf):
            raise ConfigError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (0.0 < self.lr_decay_factor < math.inf):
            raise ConfigError(f"lr_decay_factor must be finite and positive, got {self.lr_decay_factor}")
        if not (0.0 <= self.data_ratio < math.inf):
            raise ConfigError(f"data_ratio must be finite and >= 0, got {self.data_ratio}")
        if self.labeled_batch < 1:
            raise ConfigError("labeled_batch must be >= 1")
        if self.crop_recompute_period < 1:
            raise ConfigError("crop_recompute_period must be >= 1")
        if self.checkpoint_interval is not None and self.checkpoint_interval < 0:
            raise ConfigError(f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}")

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
class CropCache:
    """The unlabeled pool and its density crops, as arrays.

    ``pool`` holds the P parents' views followed by one view per cached
    crop; crop ``c`` has parent index ``parent[c]``, (x1, y1, x2, y2) row
    ``crops[c]`` and view ``P + c``, and a parent's crops sit together in
    crop order. ``computed_iter[p]`` is the iteration that last labeled
    parent ``p``'s crops, -1 before any did.
    """

    pool: ViewStack
    parent: np.ndarray
    crops: np.ndarray
    computed_iter: np.ndarray

    @classmethod
    def of(cls, parents: ViewStack) -> "CropCache":
        """The cache of a pool of parent views, before any discovery."""
        never = np.full(len(parents.image_ids), -1, dtype=np.int64)
        return cls(parents, np.zeros(0, dtype=np.int64), np.zeros((0, 4)), never)

    def positions(self, parents) -> np.ndarray:
        """The pool positions of each of the increasing ``parents`` followed
        by its crop children's, in crop order."""
        picked = np.zeros(len(self.computed_iter), dtype=bool)
        picked[parents] = True
        crops = np.flatnonzero(picked[self.parent])
        order = np.argsort(np.concatenate([parents, self.parent[crops]]), kind="stable")
        return np.concatenate([parents, len(picked) + crops])[order]


@dataclass
class TrainerState:
    """Everything the training loop owns.

    The teacher is the student during burn-in and changes only through
    the EMA update after it; ``train`` sets the crop cache once the state
    exists.
    """

    student: WeightVector
    teacher: WeightVector
    iteration: int = 0
    crop_cache: CropCache | None = None
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
    backend: ToyDetector, teacher: WeightVector, stack: ViewStack, tau: float, weak_rngs, strong_rngs
) -> tuple[UnsupervisedBatch, int]:
    """The student's strong-view batch over a stack of views against the
    teacher's weak-view pseudo-labels, and the number of pseudo-labels. One
    teacher pass on the weak views yields both the pseudo-labels and the
    confident-background mask."""
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


def _sample(n: int, size: int, rng: np.random.Generator) -> list:
    """Up to ``size`` distinct positions below ``n``, drawn by ``rng``, in
    increasing order."""
    if not n or size <= 0:
        return []
    return sorted(rng.choice(n, size=min(size, n), replace=False).tolist())


def _views(backend: ToyDetector, scenes: SceneStack, targets: bool = False) -> ViewStack:
    """``backend.views`` of a scene stack, one chunk of scenes at a time as
    :func:`~densecrop.geometry.chunk_bounds` closes them, so a pool's peak
    memory is that of its largest chunk."""
    bounds = chunk_bounds(scenes.object_counts.tolist())
    if len(bounds) <= 1:
        return backend.views(scenes, targets)
    return ViewStack.of(
        [backend.views(scenes.take(np.arange(start, stop)), targets) for start, stop in bounds]
    )


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
# Crop discovery on unlabeled images
# ---------------------------------------------------------------------------


def discover_unlabeled_crops(
    state: TrainerState,
    batch: list,
    parents: SceneStack,
    backend: ToyDetector,
    config: TrainerConfig,
) -> None:
    """Label density crops on unlabeled images from teacher pseudo-labels.

    ``parents`` holds the scenes of ``state.crop_cache``'s parents, and
    ``batch`` the positions of the iteration's sampled parents. A pass
    targets those never labeled plus every parent labeled at least
    ``crop_recompute_period`` iterations ago. The teacher decodes the
    targets' views in one stack, and one :func:`label_density_crops` call
    labels the base-class pseudo-labels of all of them. The pass drops the
    targets' old crops and child views and appends the new ones: one
    :func:`make_crop_children` zoom and one chunked ``views`` call, skipped
    when no target has a crop. A recomputed parent can hand an old child
    id to a different crop; its child view is the new crop's. Before
    ``crop_start_iter`` the cache is left untouched.
    """
    if state.iteration < config.crop_start_iter:
        return
    cache = state.crop_cache
    labeled_at = cache.computed_iter
    due = (labeled_at >= 0) & (labeled_at <= state.iteration - config.crop_recompute_period)
    due[[p for p in batch if labeled_at[p] < 0]] = True
    targets = np.flatnonzero(due)
    if not len(targets):
        return
    stack = cache.pool.take(targets)
    rngs = _augment_rngs(
        [(_aug_seed(config.seed, "crop-detect", state.iteration, i), "weak") for i in stack.image_ids]
    )
    boxes, classes, label_view, _ = _teacher_pseudo_labels(
        backend, state.teacher, stack, config.tau, rngs
    )
    base = classes < backend.num_base_classes
    counts = np.bincount(label_view[base], minlength=len(targets))
    crops, added = label_density_crops(boxes[base], stack.sizes, config.crop_params, counts)
    drop = due[cache.parent]
    if drop.any():
        keep = np.flatnonzero(~drop) + len(parents)
        cache.pool = cache.pool.take(np.concatenate([np.arange(len(parents)), keep]))
    if len(crops):
        children = make_crop_children(parents.take(targets), crops, added, config.upscale)
        cache.pool = ViewStack.of([cache.pool, _views(backend, children)])
    cache.parent = np.concatenate([cache.parent[~drop], np.repeat(targets, added)])
    cache.crops = np.concatenate([cache.crops[~drop], crops])
    cache.computed_iter[targets] = state.iteration


# ---------------------------------------------------------------------------
# The full training loop
# ---------------------------------------------------------------------------


def prepare_labeled_pool(
    samples: dict, labeled_ids, config: TrainerConfig, backend: ToyDetector
) -> ViewStack:
    """The labeled pool: the views, with targets, of the labeled images in
    sorted-``str`` id order.

    With ``crops_on_labeled`` every image also gains crop-class annotation
    rows after its own, and its upscaled crop children, named
    ``{id}:crop{k}``, join the pool in the same id order. The crops of
    every labeled image come from one :func:`label_density_crops` call over
    the stack of their base-class annotation rows, and their children from
    one :func:`make_crop_children` zoom; no record is built for them."""
    ids = sorted(labeled_ids, key=str)
    stack = SceneStack.of([samples[i] for i in ids])
    if not config.crops_on_labeled:
        return _views(backend, stack, targets=True)
    image = np.repeat(np.arange(len(ids)), stack.counts)
    base = stack.classes < backend.num_base_classes
    counts = np.bincount(image[base], minlength=len(ids))
    crops, added = label_density_crops(stack.boxes[base], stack.sizes, config.crop_params, counts)
    # each image's crop-class rows right after its own rows
    rows = np.argsort(np.concatenate([image, np.repeat(np.arange(len(ids)), added)]), kind="stable")
    parents = replace(
        stack,
        boxes=np.concatenate([stack.boxes, crops])[rows],
        classes=np.concatenate([stack.classes, np.full(added.sum(), backend.crop_class_id)])[rows],
        counts=stack.counts + added,
    )
    pool = _views(backend, parents, True)
    children = make_crop_children(stack, crops, added, config.upscale)
    if len(children):
        pool = ViewStack.of([pool, _views(backend, children, True)])
    return pool.take(sorted(range(len(pool.image_ids)), key=lambda k: str(pool.image_ids[k])))


def train(
    config: TrainerConfig,
    samples: dict,
    split,
    backend: ToyDetector,
    checkpoint_dir: str | os.PathLike | None = None,
    resume_from: str | os.PathLike | None = None,
) -> TrainerState:
    """Train the student, and the teacher from it, in one loop over
    iterations ``1..max_iters``. Up to ``burn_in_iters`` (the supervised
    burn-in) the student steps on a labeled batch alone and the teacher is
    the student. Each later iteration adds the unsupervised loss of the
    teacher's pseudo-labels on an unlabeled batch, moves the teacher by
    :func:`ema_update` and runs :func:`discover_unlabeled_crops`.
    ``samples`` maps image id to a one-scene :class:`SceneStack`, as
    iterating a stack yields them, and ``split`` names the labeled ids.
    ``state.history`` logs every iteration.

    Each pool is one :class:`ViewStack`, built a chunk of scenes at a time
    (:func:`_views`): the labeled pool (:func:`prepare_labeled_pool`), and
    the unlabeled parents' views followed by one view per cached crop
    (:class:`CropCache`). A batch is a ``take`` of pool positions: the
    sampled labeled views, or each sampled unlabeled parent followed by
    its crop children. The teacher decodes a batch's weak views in one
    stack, and its pseudo-labels train the student's strong views of it.
    Every generator derives from ``(config.seed, purpose, iteration, image
    id)``, so the run is bit-reproducible.

    With ``checkpoint_dir`` set and ``config.checkpoint_interval`` enabled,
    a checkpoint is written there every ``checkpoint_interval`` iterations,
    burn-in included, except at ``max_iters``. ``resume_from`` restores
    the weights and the iteration from such a checkpoint, whose weight
    layout must be the backend's. A checkpoint holds no crop cache, so a
    resumed run replays the uninterrupted one exactly only from before
    ``crop_start_iter``; after it, the cache starts empty and the runs
    diverge.
    """
    if not split.labeled_ids:
        raise DataError("training requires at least one labeled image")
    labeled = prepare_labeled_pool(samples, split.labeled_ids, config, backend)
    unlabeled = SceneStack.of([samples[i] for i in sorted(split.unlabeled_ids, key=str)])

    if resume_from is not None:
        header, student, teacher = read_checkpoint(resume_from)
        if student.layout != backend.layout:
            raise DataError(
                f"checkpoint {resume_from} layout {student.layout} does not match "
                f"the detector's {backend.layout}"
            )
        state = TrainerState(student=student, teacher=teacher, iteration=header["iteration"])
    else:
        weights = backend.init_weights(config.seed)
        state = TrainerState(student=weights, teacher=weights)
    state.crop_cache = cache = CropCache.of(_views(backend, unlabeled))

    n_unlabeled = round(config.data_ratio * config.labeled_batch) if config.lambda_unsup > 0.0 else 0
    iterations = range(state.iteration + 1, config.max_iters + 1)
    labeled_rngs = _batch_rngs(config, "batch-labeled", iterations)
    # Burn-in samples no unlabeled batch, so only the later iterations
    # derive a generator for one, each its own.
    after_burn_in = range(max(state.iteration, config.burn_in_iters) + 1, config.max_iters + 1)
    unlabeled_rngs = iter(_batch_rngs(config, "batch-unlabeled", after_burn_in))
    for iteration, labeled_rng in zip(iterations, labeled_rngs):
        state.iteration = iteration
        burning_in = iteration <= config.burn_in_iters
        labeled_batch = _sample(len(labeled.image_ids), config.labeled_batch, labeled_rng)

        unsup_value = 0.0
        pseudo_total = 0
        # Sampled parent images bring their cached crop children along as
        # extra views of the same content.
        batch_parents = (
            [] if burning_in else _sample(len(unlabeled), n_unlabeled, next(unlabeled_rngs))
        )
        views = cache.pool.take(cache.positions(batch_parents)) if batch_parents else None
        unlabeled_ids = views.image_ids if views is not None else []
        sup_rngs, weak_rngs, strong_rngs = _iteration_rngs(
            config, iteration, [labeled.image_ids[i] for i in labeled_batch], unlabeled_ids
        )
        sup = loss_sup(
            state.student, backend.supervised_batch(labeled.take(labeled_batch), "weak", sup_rngs)
        )
        gradient = sup.gradient
        if unlabeled_ids:
            batch, pseudo_total = _student_batch(
                backend, state.teacher, views, config.tau, weak_rngs, strong_rngs
            )
            if len(batch):
                unsup = loss_unsup(state.student, batch)
                unsup_value = unsup.value
                gradient = sup.gradient + config.lambda_unsup * unsup.gradient

        lr = config.learning_rate_at(iteration)
        values = state.student.values - lr * gradient
        if not (np.isfinite(sup.value + unsup_value) and np.isfinite(values).all()):
            raise InvariantViolation(f"training diverged at iteration {iteration}")
        state.student = state.student.replace_values(values)

        if burning_in:
            state.teacher = state.student
        else:
            state.teacher = ema_update(state.teacher, state.student, config.alpha)
            discover_unlabeled_crops(state, batch_parents, unlabeled, backend, config)

        # Pseudo-labels found on a crop child count toward its parent, so
        # pseudo_per_image measures the label supply per unlabeled dataset
        # image regardless of how many zoomed views contributed.
        state.history.append(
            IterationLog(
                iteration=iteration,
                lr=lr,
                loss_total=combined_loss(sup.value, unsup_value, config.lambda_unsup),
                loss_sup_cls=sup.cls_term,
                loss_sup_reg=sup.reg_term,
                loss_unsup=unsup_value,
                pseudo_per_image=pseudo_total / len(batch_parents) if batch_parents else 0.0,
                unlabeled_images=len(unlabeled_ids),
                crops_cached=len(cache.crops),
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
    rows = ([repr(getattr(log, c)) for c in _REPORT_COLUMNS] for log in history)
    write_tsv(path, [_REPORT_COLUMNS, *rows])


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
    """The header, student and teacher of a :func:`write_checkpoint` file;
    a malformed one is a :class:`DataError`."""
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
    # The iteration places a resume; infer builds its detector from num_base_classes.
    for key in ("iteration", "num_base_classes"):
        if type(header.get(key)) is not int or header[key] < 0:
            raise DataError(f"checkpoint {path}: header {key} {header.get(key)!r} is not an int >= 0")
    n = header["num_base_classes"]
    if layout != WeightLayout(feature_dim=feature_dim(n), num_outputs=n + 2):
        raise DataError(f"checkpoint {path}: layout {layout} does not fit num_base_classes {n}")
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
